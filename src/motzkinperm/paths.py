"""Colored Motzkin paths, their families, and the permutation bijection.

A path is a word in U (up), L (level), D (down) returning to height 0 and
never dipping below it.  Each step carries a color within the budget of its
family, one :class:`PathFamily` record; :func:`encode` and :func:`decode`
are the bijection of every family with its permutation class
(:mod:`motzkinperm.bell` holds the two Bell families).  In :data:`STANDARD`,
the family of all permutations, U is always color 0, a D falling from
height h has h*h colors, an L at height h has 2h+1 colors.  The color
encodes which open diagram rays the corresponding diagonal entry closed:

* L color 0                  fixed point
* L color j, 1 <= j <= h     upper bounce closing the j-th open vertical ray
* L color h+k, 1 <= k <= h   lower bounce closing the k-th open horizontal ray
* D color (j-1)*h + (k-1)    close acting on vertical ray j and horizontal ray k

Vertical rays are counted left to right, horizontal rays bottom to top, at the
moment the step happens.  :func:`perm_to_path` and :func:`path_to_perm` are
mutually inverse; the fiber of a path's uncolored word has size equal to the
product of the step color counts, which is what ties the census to continued
fractions.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Sequence

from ._kernels import check_size
from .perms import Permutation, _DiagramState, _Record, _require_permutation, inverse


# The longest path :func:`enumerate_paths` walks: the standard family's 362,880
# paths of length 9 take 3.7-4.5 s (CPU time, pure Python 3.11.7 on a 2-core
# x86-64 virtual machine), and length 10 has ten times as many.
PATH_CAP = 9


class PathFamily(NamedTuple):
    """A path family: its color budgets and its bijection with a permutation class.

    ``down_colors(h)``/``level_colors(h)`` count the colors of a D step from
    height h and of an L step at h; an ``elevated`` path is nonempty and its
    interior stays above 0.  ``color(letter, h, j, k, state, last)`` colors an
    L or D step that closes vertical ray j and horizontal ray k, 0 for none, in
    the diagram ``state`` before the step; ``rays(letter, h, color, state,
    last)`` inverts it, (0, 0) for a fixed point.  Both are None for a family
    with no class.
    """

    down_colors: Callable[[int], int]
    level_colors: Callable[[int], int]
    elevated: bool = False
    color: Callable[..., int] | None = None
    rays: Callable[..., tuple[int, int]] | None = None


def standard_down_colors(h: int) -> int:
    return h * h

def standard_level_colors(h: int) -> int:
    return 2 * h + 1


def _standard_color(letter: str, h: int, j: int, k: int, state, last: bool) -> int:
    if letter == "D":
        return (j - 1) * h + (k - 1)
    return j or h + k


def _standard_rays(letter: str, h: int, color: int, state, last: bool) -> tuple[int, int]:
    if letter == "D":
        return color // h + 1, color % h + 1
    return (color, 0) if color <= h else (0, color - h)


STANDARD = PathFamily(
    standard_down_colors, standard_level_colors, False, _standard_color, _standard_rays
)


class ColoredStep(NamedTuple):
    """One step; ``height`` is the y-coordinate of the step's highest point."""

    letter: str
    height: int
    color: int

    def to_text(self) -> str:
        if self.letter == "U":
            return "U"
        return f"{self.letter}{self.color}"


class ColoredMotzkinPath(_Record):
    """A path of the standard family, checked by :func:`check_family` when built."""

    __slots__ = ("steps",)
    steps: tuple[ColoredStep, ...]

    def _check(self) -> None:
        check_family(self)

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[str, int]]) -> "ColoredMotzkinPath":
        """Build from (letter, color) pairs, computing heights."""
        steps = []
        h = 0
        for letter, color in pairs:
            if letter == "U":
                h += 1
            steps.append(ColoredStep(letter, h, color))
            if letter == "D":
                h -= 1
        return cls(tuple(steps))

    @classmethod
    def parse(cls, text: str) -> "ColoredMotzkinPath":
        """Parse the text form, e.g. ``"U L0 D3"``."""
        pairs = []
        for tok in text.split():
            if tok == "U":
                pairs.append(("U", 0))
            elif tok[:1] in ("L", "D") and tok[1:].isdecimal():
                pairs.append((tok[0], int(tok[1:])))
            else:
                raise ValueError(f"bad path token {tok!r}")
        return cls.from_pairs(pairs)

    def to_text(self) -> str:
        return " ".join(st.to_text() for st in self.steps)

    @property
    def word(self) -> str:
        return "".join(st.letter for st in self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def area(self) -> int:
        """Area between the path and the x-axis.

        A level step at height h contributes h and an up or down step with
        top h contributes h - 1/2; up and down steps pair off, so the halves
        sum to minus the number of up steps.
        """
        return sum(st.height for st in self.steps) - self.word.count("U")


def check_family(path: ColoredMotzkinPath, family: PathFamily = STANDARD) -> None:
    """Raise ValueError unless :func:`enumerate_paths` of ``family`` yields ``path``.

    Checks the path's type, each step's type (a :class:`ColoredStep` of int
    height and color), letter, claimed height and color budget, and that the
    path never dips below the axis and ends on it; an elevated path is
    nonempty and its interior stays strictly above 0.
    """
    if not isinstance(path, ColoredMotzkinPath):
        raise ValueError(f"expected a ColoredMotzkinPath, got {type(path).__name__}")
    down_colors, level_colors, elevated = family.down_colors, family.level_colors, family.elevated
    n = len(path.steps)
    if elevated and n == 0:
        raise ValueError("the elevated family has no empty path")
    h = 0
    for idx, st in enumerate(path.steps, start=1):
        if type(st) is not ColoredStep:
            raise ValueError(f"step {idx} is not a ColoredStep: {st!r}")
        letter, height, color = st
        if type(height) is not int or type(color) is not int:
            raise ValueError(f"step {idx} has a height or color that is not an int: {st!r}")
        if letter == "U":
            h += 1
            top = h
            bound = 1
        elif letter == "D":
            top = h
            h -= 1
            bound = down_colors(top)
        elif letter == "L":
            top = h
            bound = level_colors(top)
        else:
            raise ValueError(f"bad letter {letter!r} at step {idx}")
        if h < 0:
            raise ValueError(f"path dips below height 0 at step {idx}")
        if height != top:
            raise ValueError(f"step {idx} claims height {height}, actual {top}")
        if not 0 <= color < bound:
            raise ValueError(
                f"step {idx} ({letter} at height {top}) has color "
                f"{color}, allowed 0..{bound - 1}"
            )
        if elevated and h == 0 and idx < n:
            raise ValueError(f"interior touches the axis at step {idx}")
    if h != 0:
        raise ValueError(f"path ends at height {h}, not 0")


def encode(values: Sequence[int], family: PathFamily) -> ColoredMotzkinPath:
    """The path of ``family`` for ``values``, a permutation of its class (not checked).

    Entry i closes the vertical ray from column pi^-1(i) and the horizontal ray
    at row pi(i) that lie below i: closing both is D, opening both is U, else L.
    """
    n = len(values)
    state = _DiagramState()
    steps = []
    h = 0
    for i, (v, iv) in enumerate(zip(values, inverse(values)), start=1):
        j = state.rank_v(iv) if iv < i else 0
        k = state.rank_h(v) if v < i else 0
        letter = "D" if j and k else "U" if v > i < iv else "L"
        h += letter == "U"
        c = family.color(letter, h, j, k, state, i == n) if j or k else 0
        state.step(letter, j, k, i)
        steps.append(ColoredStep(letter, h, c))
        h -= letter == "D"
    return ColoredMotzkinPath(tuple(steps))


def decode(path: ColoredMotzkinPath, family: PathFamily) -> Permutation:
    """The permutation that :func:`encode` takes to ``path``, which must have
    passed :func:`check_family` for ``family``: each L or D step closes the
    rays that ``family.rays`` names."""
    if not isinstance(path, ColoredMotzkinPath):
        raise ValueError(f"expected a ColoredMotzkinPath, got {type(path).__name__}")
    n = len(path.steps)
    vals = [0] * n
    state = _DiagramState()
    for i, (letter, h, color) in enumerate(path.steps, start=1):
        j, k = (0, 0) if letter == "U" else family.rays(letter, h, color, state, i == n)
        col, row = state.step(letter, j, k, i)
        if row:
            vals[i - 1] = row
        if col:
            vals[col - 1] = i
    return Permutation(tuple(vals))


def perm_to_path(perm: Permutation | Sequence[int]) -> ColoredMotzkinPath:
    """Encode a permutation as a colored Motzkin path."""
    return encode(_require_permutation(perm), STANDARD)


def path_to_perm(path: ColoredMotzkinPath) -> Permutation:
    """Decode a colored Motzkin path back to its permutation."""
    return decode(path, STANDARD)


def enumerate_paths(n: int, family: PathFamily = STANDARD) -> Iterator[ColoredMotzkinPath]:
    """All paths of ``family`` of length n, depth-first in (letter, color) order.

    An elevated family still has the length-1 level path.
    :func:`check_family` is the matching membership test.  A length over
    :data:`PATH_CAP` is refused before the first path.
    """
    pairs: list[tuple[str, int]] = []

    def walk(pos: int, h: int) -> Iterator[ColoredMotzkinPath]:
        if pos == n:
            if h == 0:
                yield ColoredMotzkinPath.from_pairs(pairs)
            return
        floor = 1 if family.elevated and pos + 1 < n else 0
        # (letter, height after, colors) in lexicographic order: D < L < U
        down = family.down_colors(h) if h else 0
        for letter, after, colors in (
            ("D", h - 1, down), ("L", h, family.level_colors(h)), ("U", h + 1, 1)
        ):
            if floor <= after <= n - pos - 1:
                for c in range(colors):
                    pairs.append((letter, c))
                    yield from walk(pos + 1, after)
                    pairs.pop()

    check_size(n, "path length", PATH_CAP)
    if n or not family.elevated:
        yield from walk(0, 0)

"""Colored Motzkin paths and the permutation bijection.

A path is a word in U (up), L (level), D (down) returning to height 0 and
never dipping below it.  Steps carry colors: U is always color 0, a D falling
from height h has h*h colors, an L at height h has 2h+1 colors.  The color
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
from .perms import (
    DiagonalType,
    Permutation,
    _DiagramState,
    _Record,
    _require_permutation,
    diagram_walk,
)


# The longest path :func:`enumerate_paths` walks: the standard family's 362,880
# paths of length 9 take 3.7-4.5 s (CPU time, pure Python 3.11.7 on a 2-core
# x86-64 virtual machine), and length 10 has ten times as many.
PATH_CAP = 9


def standard_down_colors(h: int) -> int:
    return h * h

def standard_level_colors(h: int) -> int:
    return 2 * h + 1


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
                top = h
            elif letter == "D":
                top = h
                h -= 1
            else:
                top = h
            steps.append(ColoredStep(letter, top, color))
        return cls(tuple(steps))

    @classmethod
    def parse(cls, text: str) -> "ColoredMotzkinPath":
        """Parse the text form, e.g. ``"U L0 D3"``."""
        pairs = []
        for tok in text.split():
            if tok == "U":
                pairs.append(("U", 0))
            elif tok[:1] in ("L", "D") and tok[1:].isdigit():
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

        A level step at height h contributes h; an up or down step between
        heights a and b contributes (a+b)/2.  The total is an integer because
        up and down steps pair off.
        """
        doubled = 0
        for st in self.steps:
            if st.letter == "L":
                doubled += 2 * st.height
            else:
                doubled += 2 * st.height - 1
        if doubled % 2:
            raise AssertionError("half-integer area on a closed path")
        return doubled // 2


def check_family(
    path: ColoredMotzkinPath,
    down_colors: Callable[[int], int] = standard_down_colors,
    level_colors: Callable[[int], int] = standard_level_colors,
    elevated: bool = False,
) -> None:
    """Raise ValueError unless :func:`enumerate_paths` with these arguments yields ``path``.

    Checks the letters, the claimed heights, the color of every step against
    its budget, and that the path never dips below the axis and ends on it;
    an elevated path is nonempty and its interior stays strictly above 0.
    """
    n = len(path.steps)
    if elevated and n == 0:
        raise ValueError("the elevated family has no empty path")
    h = 0
    for idx, st in enumerate(path.steps):
        if st.letter == "U":
            h += 1
            top = h
            bound = 1
        elif st.letter == "D":
            top = h
            h -= 1
            bound = down_colors(top)
        elif st.letter == "L":
            top = h
            bound = level_colors(top)
        else:
            raise ValueError(f"bad letter {st.letter!r} at step {idx + 1}")
        if h < 0:
            raise ValueError(f"path dips below height 0 at step {idx + 1}")
        if st.height != top:
            raise ValueError(
                f"step {idx + 1} claims height {st.height}, actual {top}"
            )
        if not 0 <= st.color < bound:
            raise ValueError(
                f"step {idx + 1} ({st.letter} at height {top}) has color "
                f"{st.color}, allowed 0..{bound - 1}"
            )
        if elevated and h == 0 and idx + 1 < n:
            raise ValueError(f"interior touches the axis at step {idx + 1}")
    if h != 0:
        raise ValueError(f"path ends at height {h}, not 0")


def perm_to_path(perm: Permutation | Sequence[int]) -> ColoredMotzkinPath:
    """Encode a permutation as a colored Motzkin path."""
    pairs: list[tuple[str, int]] = []
    for typ, h, choice in diagram_walk(_require_permutation(perm)):
        if typ is DiagonalType.OPEN:
            pairs.append(("U", 0))
        elif typ is DiagonalType.FIXED:
            pairs.append(("L", 0))
        elif typ is DiagonalType.UPPER_BOUNCE:
            pairs.append(("L", choice.j))
        elif typ is DiagonalType.LOWER_BOUNCE:
            pairs.append(("L", h + choice.k))
        else:
            pairs.append(("D", (choice.j - 1) * h + (choice.k - 1)))
    return ColoredMotzkinPath.from_pairs(pairs)


def path_to_perm(path: ColoredMotzkinPath) -> Permutation:
    """Decode a colored Motzkin path back to its permutation."""
    n = len(path.steps)
    vals = [0] * n
    state = _DiagramState()
    for i, st in enumerate(path.steps, start=1):
        h = st.height
        if st.letter == "U":
            state.open_rays(i)
        elif st.letter == "L":
            if st.color == 0:
                vals[i - 1] = i
            elif st.color <= h:
                col = state.upper_bounce(st.color, i)
                vals[col - 1] = i
            else:
                row = state.lower_bounce(st.color - h, i)
                vals[i - 1] = row
        else:
            j, k = divmod(st.color, h)
            col, row, _ = state.close(j + 1, k + 1)
            vals[col - 1] = i
            vals[i - 1] = row
    return Permutation(tuple(vals))


def enumerate_paths(
    n: int,
    down_colors: Callable[[int], int] = standard_down_colors,
    level_colors: Callable[[int], int] = standard_level_colors,
    elevated: bool = False,
) -> Iterator[ColoredMotzkinPath]:
    """All colored paths of length n, depth-first in (letter, color) order.

    ``down_colors(h)`` / ``level_colors(h)`` give the number of colors for a
    down step falling from height h and a level step at height h.  With
    ``elevated`` the path is nonempty and its interior stays strictly above 0
    (the length-1 level path is still allowed).  :func:`check_family` is the
    matching membership test.  A length over :data:`PATH_CAP` is refused
    before the first path.
    """
    pairs: list[tuple[str, int]] = []

    def walk(pos: int, h: int) -> Iterator[ColoredMotzkinPath]:
        if pos == n:
            if h == 0:
                yield ColoredMotzkinPath.from_pairs(pairs)
            return
        remaining = n - pos
        min_h = 1 if (elevated and pos + 1 < n) else 0
        # letters in lexicographic order: D < L < U
        if h >= 1 and h - 1 >= min_h and h - 1 <= remaining - 1:
            for c in range(down_colors(h)):
                pairs.append(("D", c))
                yield from walk(pos + 1, h - 1)
                pairs.pop()
        if h >= min_h and h <= remaining - 1:
            for c in range(level_colors(h)):
                pairs.append(("L", c))
                yield from walk(pos + 1, h)
                pairs.pop()
        if h + 1 >= min_h and h + 1 <= remaining - 1:
            pairs.append(("U", 0))
            yield from walk(pos + 1, h + 1)
            pairs.pop()

    check_size(n, "path length")
    if n > PATH_CAP:
        raise ValueError(f"path enumeration over length {n} is refused; the cap is {PATH_CAP}")
    if n or not elevated:
        yield from walk(0, 0)

"""Permutations, their diagonal classification, and classical statistics.

A permutation of size n lives in one-line notation as a tuple of values
``(pi(1), ..., pi(n))``.  Plotting the dots ``(i, pi(i))`` on an n-by-n grid
and walking the diagonal squares ``(i, i)`` classifies every entry into one of
five types by comparing ``pi(i)`` and ``pi^{-1}(i)`` against ``i``:

* ``FIXED``          pi(i) = i
* ``OPEN``           pi(i) > i and pi^{-1}(i) > i   (both segments leave upward/rightward)
* ``CLOSE``          pi(i) < i and pi^{-1}(i) < i   (both arrive)
* ``UPPER_BOUNCE``   pi(i) > i and pi^{-1}(i) < i
* ``LOWER_BOUNCE``   pi(i) < i and pi^{-1}(i) > i

Reading OPEN as U, CLOSE as D, and the rest as L yields a Motzkin word.
Replaying the diagram along the diagonal, one step per entry, tracks which
open rays each entry closes; :func:`motzkinperm.paths.encode` and
:func:`motzkinperm.paths.decode` run that replay in both directions to refine
the word to a colored path.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from typing import NamedTuple, Sequence

from . import _kernels


def inverse(values: Sequence[int]) -> tuple[int, ...]:
    """Inverse permutation in one-line notation.

    >>> inverse((3, 1, 2))
    (2, 3, 1)
    """
    out = [0] * len(values)
    for i, v in enumerate(values, start=1):
        out[v - 1] = i
    return tuple(out)


def cycle_list(values: Sequence[int]) -> list[tuple[int, ...]]:
    """Cycles, each written minimum-first, ordered by increasing minimum.

    >>> cycle_list((5, 7, 2, 4, 3, 8, 1, 6, 9, 12, 10, 11))
    [(1, 5, 3, 2, 7), (4,), (6, 8), (9,), (10, 12, 11)]
    """
    n = len(values)
    seen = bytearray(n)
    cycles = []
    for start in range(1, n + 1):
        if seen[start - 1]:
            continue
        cyc = []
        j = start
        while not seen[j - 1]:
            seen[j - 1] = 1
            cyc.append(j)
            j = values[j - 1]
        cycles.append(tuple(cyc))
    return cycles


class DiagonalType(enum.Enum):
    """The five diagonal-square classes."""

    FIXED = "Fixed"
    OPEN = "Open"
    CLOSE = "Close"
    UPPER_BOUNCE = "UpperBounce"
    LOWER_BOUNCE = "LowerBounce"

    @property
    def letter(self) -> str:
        """Motzkin letter of the class: U for OPEN, D for CLOSE, else L."""
        return "U" if self is DiagonalType.OPEN else "D" if self is DiagonalType.CLOSE else "L"


def classify_entries(values: Sequence[int]) -> tuple[tuple[DiagonalType, int], ...]:
    """Per-entry ``(type, height)`` pairs.

    The height of an entry is the y-coordinate of the highest point of its
    Motzkin step: an OPEN counts itself, a CLOSE is measured before the fall,
    and level types see the current number of open ray pairs.
    """
    out = []
    h = 0
    for i, (v, iv) in enumerate(zip(values, inverse(values)), start=1):
        if v == i:
            typ = DiagonalType.FIXED
        elif v > i:
            typ = DiagonalType.OPEN if iv > i else DiagonalType.UPPER_BOUNCE
        else:
            typ = DiagonalType.LOWER_BOUNCE if iv > i else DiagonalType.CLOSE
        h += typ is DiagonalType.OPEN
        out.append((typ, h))
        h -= typ is DiagonalType.CLOSE
    return tuple(out)


class _Record:
    """Base of the records that wrap one tuple: slotted, immutable, checked when built.

    A subclass names its field in ``__slots__`` and checks it in ``_check``.
    A record equals only one of its own class with an equal field; pickle and
    copy rebuild it through the constructor, which checks it again.
    """

    __slots__ = ()

    def __init__(self, field) -> None:
        if type(field) is not tuple:
            raise ValueError(f"{type(self).__name__} wraps a tuple, not {type(field).__name__}")
        object.__setattr__(self, self.__slots__[0], field)
        self._check()

    def _check(self) -> None:
        pass

    def _field(self):
        return getattr(self, self.__slots__[0])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field() == other._field()

    def __hash__(self) -> int:
        return hash(self._field())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.__slots__[0]}={self._field()!r})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), (self._field(),)


class DiagonalSequence(_Record):
    """Typed diagonal walk of a permutation."""

    __slots__ = ("entries",)
    entries: tuple[tuple[DiagonalType, int], ...]

    @property
    def word(self) -> str:
        """Uncolored Motzkin word, e.g. ``'UULLDUDDLULD'``."""
        return "".join(t.letter for t, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class _DiagramState:
    """Open-ray bookkeeping shared by the encoding and decoding replays.

    Vertical rays are identified by the column that created them, horizontal
    rays by the row.  Each open vertical ray is chained to exactly one open
    horizontal ray (the partial cycle through it); closing a chained pair
    completes a cycle.  Every ray opens at the current entry, so both lists
    stay sorted and a ray's rank is a bisection.
    """

    __slots__ = ("verticals", "horizontals", "match_v", "match_h")

    def __init__(self) -> None:
        self.verticals: list[int] = []
        self.horizontals: list[int] = []
        self.match_v: dict[int, int] = {}
        self.match_h: dict[int, int] = {}

    def rank_v(self, col: int) -> int:
        """The j of the open vertical ray from column ``col``, counted left to right."""
        return bisect_left(self.verticals, col) + 1

    def rank_h(self, row: int) -> int:
        """The k of the open horizontal ray at row ``row``, counted bottom to top."""
        return bisect_left(self.horizontals, row) + 1

    def cycle_k(self, j: int) -> int:
        """The k whose closing alongside vertical ray j completes a cycle."""
        return self.rank_h(self.match_v[self.verticals[j - 1]])

    def step(self, letter: str, j: int, k: int, i: int) -> tuple[int, int]:
        """Place entry i; ``(col, row)`` of the rays it closes, 0 for a ray not closed.

        U opens a chained pair of rays at i.  L closes vertical ray j or
        horizontal ray k and opens its successor at i, or is a fixed point,
        ``(i, i)``, when j = k = 0.  D closes both and rewires the chains.
        """
        if letter == "U":
            self.verticals.append(i)
            self.horizontals.append(i)
            self.match_v[i] = self.match_h[i] = i
            return 0, 0
        if letter == "D":
            col = self.verticals.pop(j - 1)
            row = self.horizontals.pop(k - 1)
            partner_row = self.match_v.pop(col)
            partner_col = self.match_h.pop(row)
            if partner_row != row:
                self.match_v[partner_col] = partner_row
                self.match_h[partner_row] = partner_col
            return col, row
        if j:
            col = self.verticals.pop(j - 1)
            self.verticals.append(i)
            row = self.match_v[i] = self.match_v.pop(col)
            self.match_h[row] = i
            return col, 0
        if k:
            row = self.horizontals.pop(k - 1)
            self.horizontals.append(i)
            col = self.match_h[i] = self.match_h.pop(row)
            self.match_v[col] = i
            return 0, row
        return i, i


class StatVector(NamedTuple):
    """The five statistics carried through every bijection in the package."""

    fixed_points: int
    excedances: int
    double_excedances: int
    cycles: int
    inversions: int

    def monomial_exponents(self) -> tuple[int, int, int, int, int]:
        """Exponent vector in the (x, v, w, t, q) variable order."""
        return (
            self.fixed_points,
            self.excedances,
            self.double_excedances,
            self.cycles,
            self.inversions,
        )


def _require_permutation(perm: Permutation | Sequence[int]) -> tuple[int, ...]:
    """One-line values of ``perm``; ValueError unless they are ints that rearrange 1..n.

    A :class:`Permutation` was checked when it was built and passes as it is.
    A bool or a float equal to an int is not an entry.
    """
    if isinstance(perm, Permutation):
        return perm.values
    values = tuple(perm)
    if not set(map(type, values)) <= {int}:
        raise ValueError(f"permutation entries must be ints: {values!r}")
    n = len(values)
    if sorted(values) != list(range(1, n + 1)):
        raise ValueError(f"not a rearrangement of 1..{n}: {values!r}")
    return values


def stats(values: Sequence[int]) -> StatVector:
    """Statistics of a permutation; ValueError if ``values`` is not one.

    >>> stats((5, 7, 2, 4, 3, 8, 1, 6, 9, 12, 10, 11))
    StatVector(fixed_points=2, excedances=4, double_excedances=0, cycles=5, inversions=17)
    """
    return StatVector(*_kernels.stat_tuple(_require_permutation(values)))


def foata(values: Permutation | Sequence[int]) -> tuple[int, ...]:
    """Cycles written minimum-first, sorted by decreasing minimum, concatenated.

    This variant of Foata's fundamental transform turns cycle structure into
    word structure: excedances become ascents, cycles become left-to-right
    minima, and double excedances become consecutive rising triples.

    >>> foata((1, 2, 3))
    (3, 2, 1)
    """
    cycles = cycle_list(_require_permutation(values))
    out: list[int] = []
    for cyc in reversed(cycles):
        out.extend(cyc)
    return tuple(out)


def count_consecutive_123(values: Sequence[int]) -> int:
    """Number of positions starting a rising triple of adjacent entries."""
    return sum(
        1
        for a, b, c in zip(values, values[1:], values[2:])
        if a < b < c
    )


def two_runs(rise1: bool, rise2: bool):
    """The placement rule of the permutations whose one-line form is two
    monotone runs, the first rising if ``rise1`` and the second if ``rise2``
    (either may be empty).

    The second run holds every value still unused, so each of its entries is
    ``unused[0]`` if it rises and ``unused[-1]`` if it falls, and a placement
    passes when v is that value.  It also passes when ``values[1..i-1]``
    followed by v is still one run in the first direction.  The rule reads
    ``values`` and ``unused[-1]``, which only the view of
    :func:`motzkinperm._kernels.prefix_walk` holds in full, so it serves that
    walk only.
    """
    end = 0 if rise2 else -1

    def rule(prefix, i, v):
        if v == prefix.unused[end]:
            return True
        values = prefix.values
        if i > 1 and (values[i - 1] < v) != rise1:  # most values fail here, before the copy
            return False
        run = values[1:i]
        return run == sorted(run, reverse=not rise1)

    return rule


def random_permutation(n: int, rng) -> tuple[int, ...]:
    """Uniform permutation from a seeded generator (Fisher-Yates)."""
    _kernels.check_size(n)
    vals = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        vals[i], vals[j] = vals[j], vals[i]
    return tuple(vals)


class Permutation(_Record):
    """One-line-notation permutation of {1, ..., n}.

    >>> p = Permutation.parse("3 1 2")
    >>> p.inverse().values
    (2, 3, 1)
    >>> p.diagonal().word
    'ULD'
    """

    __slots__ = ("values",)
    values: tuple[int, ...]

    def _check(self) -> None:
        _require_permutation(self.values)

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse values separated by spaces or commas."""
        tokens = text.replace(",", " ").split()
        try:
            vals = tuple(int(tok) for tok in tokens)
        except ValueError as exc:
            raise ValueError(f"bad permutation text {text!r}") from exc
        return cls(vals)

    @property
    def n(self) -> int:
        return len(self.values)

    def to_text(self) -> str:
        return " ".join(str(v) for v in self.values)

    def __call__(self, i: int) -> int:
        """pi(i); ValueError unless i is an int (not a bool) in 1..n."""
        if type(i) is not int or not 0 < i <= len(self.values):
            raise ValueError(f"not a point of 1..{len(self.values)}: {i!r}")
        return self.values[i - 1]

    def inverse(self) -> "Permutation":
        return Permutation(inverse(self.values))

    def cycles(self) -> list[tuple[int, ...]]:
        return cycle_list(self.values)

    def stats(self) -> StatVector:
        return stats(self)

    def diagonal(self) -> DiagonalSequence:
        return DiagonalSequence(classify_entries(self.values))

    def foata(self) -> "Permutation":
        return Permutation(foata(self))


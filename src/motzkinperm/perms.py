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

Reading OPEN as U, CLOSE as D, and the rest as L yields a Motzkin word; the
ray choices :func:`diagram_walk` records along the way refine the word to a
colored path (see :mod:`motzkinperm.paths`).
"""

from __future__ import annotations

import enum
from typing import Iterator, NamedTuple, Sequence

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
        if self is DiagonalType.OPEN:
            return "U"
        if self is DiagonalType.CLOSE:
            return "D"
        return "L"


def classify_entries(values: Sequence[int]) -> tuple[tuple[DiagonalType, int], ...]:
    """Per-entry ``(type, height)`` pairs.

    The height of an entry is the y-coordinate of the highest point of its
    Motzkin step: an OPEN counts itself, a CLOSE is measured before the fall,
    and level types see the current number of open ray pairs.
    """
    inv = inverse(values)
    out = []
    h = 0
    for i, v in enumerate(values, start=1):
        iv = inv[i - 1]
        if v == i:
            out.append((DiagonalType.FIXED, h))
        elif v > i and iv > i:
            h += 1
            out.append((DiagonalType.OPEN, h))
        elif v < i and iv < i:
            out.append((DiagonalType.CLOSE, h))
            h -= 1
        elif v > i:
            out.append((DiagonalType.UPPER_BOUNCE, h))
        else:
            out.append((DiagonalType.LOWER_BOUNCE, h))
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


class RayChoice(NamedTuple):
    """Which open rays a diagonal entry closed.

    ``j`` indexes open vertical rays left to right, ``k`` open horizontal rays
    bottom to top, both 1-based at the moment the entry is placed.  For a
    CLOSE, ``cycle_k`` is the k that completes a cycle given the closed
    vertical ray, so the close completes one exactly when ``k == cycle_k``.
    Fields that do not apply are None.
    """

    j: int | None = None
    k: int | None = None
    cycle_k: int | None = None


class _DiagramState:
    """Open-ray bookkeeping shared by the encoding and decoding replays.

    Vertical rays are identified by the column that created them, horizontal
    rays by the row.  Each open vertical ray is chained to exactly one open
    horizontal ray (the partial cycle through it); closing a chained pair
    completes a cycle.
    """

    __slots__ = ("verticals", "horizontals", "match_v", "match_h")

    def __init__(self) -> None:
        self.verticals: list[int] = []
        self.horizontals: list[int] = []
        self.match_v: dict[int, int] = {}
        self.match_h: dict[int, int] = {}

    def open_rays(self, i: int) -> None:
        self.verticals.append(i)
        self.horizontals.append(i)
        self.match_v[i] = i
        self.match_h[i] = i

    def upper_bounce(self, j: int, i: int) -> int:
        """Close the j-th vertical ray, open a new one at column i."""
        col = self.verticals.pop(j - 1)
        row = self.match_v.pop(col)
        self.verticals.append(i)
        self.match_v[i] = row
        self.match_h[row] = i
        return col

    def lower_bounce(self, k: int, i: int) -> int:
        """Close the k-th horizontal ray, open a new one at row i."""
        row = self.horizontals.pop(k - 1)
        col = self.match_h.pop(row)
        self.horizontals.append(i)
        self.match_h[i] = col
        self.match_v[col] = i
        return row

    def cycle_k(self, j: int) -> int:
        """The k whose closing alongside vertical ray j completes a cycle."""
        row = self.match_v[self.verticals[j - 1]]
        return self.horizontals.index(row) + 1

    def close(self, j: int, k: int) -> tuple[int, int]:
        """Close vertical j and horizontal k; rewire chains if they differ."""
        col = self.verticals.pop(j - 1)
        row = self.horizontals.pop(k - 1)
        partner_row = self.match_v.pop(col)
        partner_col = self.match_h.pop(row)
        if partner_row != row:
            self.match_v[partner_col] = partner_row
            self.match_h[partner_row] = partner_col
        return col, row


def diagram_walk(
    values: Sequence[int],
) -> Iterator[tuple[DiagonalType, int, RayChoice | None]]:
    """Replay the diagram along the diagonal: ``(type, height, choice)`` per entry.

    Types and heights are those of :func:`classify_entries`.  ``choice`` is
    None for FIXED and OPEN (no choice) and a :class:`RayChoice` for the
    closing types.  The replay is lazy, so a caller can stop at the first
    entry it rejects.  ``values`` must be a permutation; it is not checked.
    """
    inv = inverse(values)
    state = _DiagramState()
    for i, (typ, h) in enumerate(classify_entries(values), start=1):
        choice = None
        if typ is DiagonalType.OPEN:
            state.open_rays(i)
        elif typ is DiagonalType.UPPER_BOUNCE:  # the vertical ray from column pi^-1(i)
            j = state.verticals.index(inv[i - 1]) + 1
            state.upper_bounce(j, i)
            choice = RayChoice(j=j)
        elif typ is DiagonalType.LOWER_BOUNCE:  # the horizontal ray from row pi(i)
            k = state.horizontals.index(values[i - 1]) + 1
            state.lower_bounce(k, i)
            choice = RayChoice(k=k)
        elif typ is DiagonalType.CLOSE:
            j = state.verticals.index(inv[i - 1]) + 1
            k = state.horizontals.index(values[i - 1]) + 1
            choice = RayChoice(j=j, k=k, cycle_k=state.cycle_k(j))
            state.close(j, k)
        yield typ, h, choice


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


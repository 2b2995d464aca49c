"""Brute-force census over permutation classes.

Ground truth for everything the continued fractions claim: sum statistic
monomials over every class member directly, reading no path or continued
fraction.  Every class is tallied at every size up to n by one forward
dynamic program over placement states
(:func:`motzkinperm._kernels.state_tallies`); :func:`members` runs the
depth-first prefix walk (:func:`motzkinperm._kernels.prefix_walk`).  Both
skip every placement the class's exact rules refuse and so reach only
members.  Cost still grows fast with the size, so each class has a tally
cap (:attr:`motzkinperm.subsets.ClassSpec.brute_cap`, 14 for the whole
group) and a walk cap for :func:`members` (``walk_cap``, :data:`MAX_BRUTE_N`
= 9 for the whole group).  The point is exact cross-checks, not scale.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from . import _kernels
from .perms import count_consecutive_123
from .polys import VARS, MultiPoly, check_marks
from .subsets import MAX_BRUTE_N, SubsetId


def _check_size(n: int, cap: int = MAX_BRUTE_N) -> None:
    _kernels.check_size(n)
    if n > cap:
        raise ValueError(f"brute force over size {n} is refused; the cap is {cap}")


def _tallies(subset: SubsetId, first: int, last: int) -> list[dict[tuple, int]]:
    """{stat tuple: multiplicity} over the class members of each size first..last."""
    spec = subset.spec
    _check_size(last, spec.brute_cap)
    tallies = _kernels.state_tallies(last, spec.prefix_ok)[first:]
    if spec.elevated and first == 0:
        tallies[0] = {}
    return tallies


def _poly(tally: dict[tuple, int], keep: frozenset[str]) -> MultiPoly:
    """The tally as a polynomial, with the markers outside ``keep`` at 1."""
    mask = tuple(1 if name in keep else 0 for name in VARS)
    acc: dict[tuple[int, ...], int] = {}
    for exps, mult in tally.items():
        key = tuple(e * m for e, m in zip(exps, mask))
        acc[key] = acc.get(key, 0) + mult
    return MultiPoly(acc)


def distribution(
    n: int,
    subset: SubsetId = SubsetId.ALL,
    marks: Iterable[str] = VARS,
) -> MultiPoly:
    """Sum of statistic monomials over the class members of size n.

    The monomial of a permutation is x^fixed * v^exc * w^dexc * t^cyc * q^inv
    with unrequested markers evaluated at 1.
    """
    keep = check_marks(marks)
    return _poly(_tallies(subset, n, n)[0], keep)


def distributions(
    n_max: int, subset: SubsetId = SubsetId.ALL, marks: Iterable[str] = VARS
) -> list[MultiPoly]:
    """:func:`distribution` at every size 0..n_max, from one pass."""
    keep = check_marks(marks)
    return [_poly(tally, keep) for tally in _tallies(subset, 0, n_max)]


def count(n: int, subset: SubsetId) -> int:
    """Number of class members of size n, by enumeration."""
    return sum(_tallies(subset, n, n)[0].values())


def members(n: int, subset: SubsetId) -> Iterator[tuple[int, ...]]:
    """The class members of size n, in lexicographic order."""
    spec = subset.spec
    _check_size(n, spec.walk_cap)
    found: list[tuple[int, ...]] = []
    if n or not spec.elevated:
        _kernels.prefix_walk(n, lambda values: found.append(tuple(values[1:])), spec.prefix_ok)
    return iter(found)


def sweep_counts(n: int) -> dict[SubsetId, int]:
    """Cardinality of every supported class at size n."""
    _check_size(n)
    return {subset: count(n, subset) for subset in SubsetId}


def consecutive_123_distribution(n: int) -> MultiPoly:
    """Sum of w^(number of rising runs of length 3) over all permutations."""
    _check_size(n)
    acc: dict[tuple[int, ...], int] = {}

    def add(values):
        key = (0, 0, count_consecutive_123(values[1:]), 0, 0)
        acc[key] = acc.get(key, 0) + 1

    _kernels.prefix_walk(n, add)
    return MultiPoly(acc)

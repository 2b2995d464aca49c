"""Brute-force census over permutation classes.

Ground truth for everything the continued fractions claim: enumerate the
class members and sum statistic monomials directly.  One depth-first prefix
walk (:func:`motzkinperm._kernels.prefix_walk`) does the enumerating.  It
carries the statistics as it goes and skips every placement the class's
rules refuse; the rules are exact, so every permutation it reaches is a
member and none is checked again.  The whole symmetric group is tallied
instead by :func:`motzkinperm._kernels.census_stats`, an exhaustive dynamic
program over the walk's placement states that sums the same updates without
visiting each permutation (0.02 s at n = 8 against 0.06 s for the walk).
Cost still grows fast with the size, so each class has a cap
(:attr:`motzkinperm.subsets.ClassSpec.brute_cap`): :data:`MAX_BRUTE_N` = 9
for the whole symmetric group, more where the rules prune hard.  The point
is exact cross-checks at small n, not scale.
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
        raise ValueError(
            f"brute-force census over size {n} would enumerate up to {n}! "
            f"permutations; the cap is {cap}"
        )


def _walk_class(n: int, subset: SubsetId, visit) -> None:
    """Call ``visit(values, stats)`` on each member of size n, in lexicographic
    order; ``values`` is the walk's 1-based list, reused."""
    spec = subset.spec
    _check_size(n, spec.brute_cap)
    if n or not spec.elevated:
        _kernels.prefix_walk(n, visit, spec.prefix_ok)


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
    mask = tuple(1 if name in keep else 0 for name in VARS)

    if subset is SubsetId.ALL:
        _check_size(n)
        tally = _kernels.census_stats(n)
    else:
        tally = {}

        def add(values, stats):
            tally[stats] = tally.get(stats, 0) + 1

        _walk_class(n, subset, add)
    acc: dict[tuple[int, ...], int] = {}
    for exps, mult in tally.items():
        key = tuple(e * m for e, m in zip(exps, mask))
        acc[key] = acc.get(key, 0) + mult
    return MultiPoly(acc)


def count(n: int, subset: SubsetId) -> int:
    """Number of class members of size n, by enumeration."""
    if subset is SubsetId.ALL:
        _check_size(n)
        return sum(_kernels.census_stats(n).values())
    total = 0

    def add(values, stats):
        nonlocal total
        total += 1

    _walk_class(n, subset, add)
    return total


def members(n: int, subset: SubsetId) -> Iterator[tuple[int, ...]]:
    """The class members of size n, in lexicographic order."""
    found: list[tuple[int, ...]] = []
    _walk_class(n, subset, lambda values, stats: found.append(tuple(values[1:])))
    return iter(found)


def sweep_counts(n: int) -> dict[SubsetId, int]:
    """Cardinality of every supported class at size n."""
    _check_size(n)
    return {subset: count(n, subset) for subset in SubsetId}


def consecutive_123_distribution(n: int) -> MultiPoly:
    """Sum of w^(number of rising runs of length 3) over all permutations."""
    _check_size(n)
    acc: dict[tuple[int, ...], int] = {}

    def add(values, stats):
        key = (0, 0, count_consecutive_123(values[1:]), 0, 0)
        acc[key] = acc.get(key, 0) + 1

    _kernels.prefix_walk(n, add)
    return MultiPoly(acc)

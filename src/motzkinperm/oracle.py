"""Brute-force census over permutation classes.

Ground truth for everything the continued fractions claim: enumerate the
permutations, classify each one, and sum statistic monomials directly.  Cost
grows factorially, so sizes are capped at 9; the point is exact cross-checks
at small n, not scale.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Iterator

from . import _kernels
from .perms import count_consecutive_123
from .polys import VARS, MultiPoly, check_marks
from .subsets import SubsetId, is_member

MAX_BRUTE_N = 9


def _check_size(n: int) -> None:
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n > MAX_BRUTE_N:
        raise ValueError(
            f"brute-force census over size {n} would enumerate {n}! "
            f"permutations; the cap is {MAX_BRUTE_N}"
        )


def distribution(
    n: int,
    subset: SubsetId = SubsetId.ALL,
    marks: Iterable[str] = VARS,
) -> MultiPoly:
    """Sum of statistic monomials over the class members of size n.

    The monomial of a permutation is x^fixed * v^exc * w^dexc * t^cyc * q^inv
    with unrequested markers evaluated at 1.
    """
    _check_size(n)
    keep = check_marks(marks)
    mask = tuple(1 if name in keep else 0 for name in VARS)

    if subset is SubsetId.ALL:
        # the kernel enumerates the whole symmetric group in one sweep
        tally = _kernels.census_stats(n).items()
    else:
        tally = ((_kernels.stat_tuple(values), 1) for values in members(n, subset))
    acc: dict[tuple[int, ...], int] = {}
    for exps, count in tally:
        key = tuple(e * m for e, m in zip(exps, mask))
        acc[key] = acc.get(key, 0) + count
    return MultiPoly(acc)


def sweep_counts(n: int) -> dict[SubsetId, int]:
    """Cardinality of every supported class at size n, in one pass.

    Each base predicate runs once per permutation, however many classes
    require it, and the cycle predicates share one cycle decomposition.
    """
    _check_size(n)
    requires = {subset: subset.spec.requires for subset in SubsetId}
    predicates = set().union(*requires.values())
    counts = {subset: 0 for subset in SubsetId}
    for values in permutations(range(1, n + 1)):
        holds = {p for p in predicates if p(values)}
        for subset, preds in requires.items():
            if holds.issuperset(preds):
                counts[subset] += 1
    return counts


def members(n: int, subset: SubsetId) -> Iterator[tuple[int, ...]]:
    """The class members of size n, in lexicographic order."""
    _check_size(n)
    for values in permutations(range(1, n + 1)):
        if is_member(values, subset):
            yield values


def consecutive_123_distribution(n: int) -> MultiPoly:
    """Sum of w^(number of rising runs of length 3) over all permutations."""
    _check_size(n)
    acc: dict[tuple[int, ...], int] = {}
    for values in permutations(range(1, n + 1)):
        key = (0, 0, count_consecutive_123(values), 0, 0)
        acc[key] = acc.get(key, 0) + 1
    return MultiPoly(acc)

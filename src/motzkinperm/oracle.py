"""Brute-force census over permutation classes.

Ground truth for everything the continued fractions claim: enumerate the
permutations, classify each one, and sum statistic monomials directly.  One
depth-first prefix walk (:func:`motzkinperm._kernels.prefix_walk`) does the
enumerating.  It carries the statistics as it goes and skips every prefix
the class's prefix test rules out, then checks each permutation it reaches
against the class's full predicates.  Cost still grows fast with the size,
so each class has a cap (:attr:`motzkinperm.subsets.ClassSpec.brute_cap`):
:data:`MAX_BRUTE_N` = 9 for the whole symmetric group, more where the prefix
test prunes hard.  The point is exact cross-checks at small n, not scale.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from . import _kernels
from .perms import count_consecutive_123
from .polys import VARS, MultiPoly, check_marks
from .subsets import MAX_BRUTE_N, PREFIX_TESTS, SubsetId


def _check_size(n: int, cap: int = MAX_BRUTE_N) -> None:
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n > cap:
        raise ValueError(
            f"brute-force census over size {n} would enumerate up to {n}! "
            f"permutations; the cap is {cap}"
        )


def _walk_class(n: int, subset: SubsetId, visit) -> None:
    """Call ``visit(values, stats)`` on each member of size n, in lexicographic order."""
    spec = subset.spec
    _check_size(n, spec.brute_cap)
    requires = spec.requires

    def leaf(values, stats):
        full = tuple(values[1:])
        if all(p(full) for p in requires):
            visit(full, stats)

    _kernels.prefix_walk(n, leaf, spec.prefix_ok)


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
        # every permutation is a member: no predicate to run at the leaves
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
    _walk_class(n, subset, lambda values, stats: found.append(values))
    return iter(found)


def sweep_counts(n: int) -> dict[SubsetId, int]:
    """Cardinality of every supported class at size n.

    All is counted by the unpruned walk.  The other classes share one walk
    that keeps, as a bit mask per depth, the base predicates whose prefix
    tests every prefix so far has passed and that belong to a class all of
    whose predicates did; it goes deeper only while that mask is not empty.
    At each permutation reached, each predicate left in the mask runs once.
    """
    _check_size(n)
    counts = {subset: 0 for subset in SubsetId}
    counts[SubsetId.ALL] = count(n, SubsetId.ALL)
    predicates = list({p: None for s in SubsetId for p in s.spec.requires})
    bit = {p: 1 << k for k, p in enumerate(predicates)}
    tests = [(bit[p], PREFIX_TESTS[p]) for p in predicates]
    needs = [(s, sum(bit[p] for p in s.spec.requires)) for s in SubsetId if s.spec.requires]
    live = [(1 << len(predicates)) - 1] * (n + 2)  # live[i]: the mask for pi(1..i-1)
    useful: dict[int, int] = {}  # passed tests -> the bits of the classes they hold whole

    def prefix_ok(prefix, i, v):
        was, passed = live[i], 0
        for b, test in tests:
            if was & b and test(prefix, i, v):
                passed |= b
        keep = useful.get(passed)
        if keep is None:
            keep = 0
            for _, need in needs:
                if passed & need == need:
                    keep |= need
            useful[passed] = keep
        live[i + 1] = keep
        return keep != 0

    def leaf(values, stats):
        full = tuple(values[1:])
        holds = sum(bit[p] for p in predicates if live[n + 1] & bit[p] and p(full))
        for subset, need in needs:
            if holds & need == need:
                counts[subset] += 1

    _kernels.prefix_walk(n, leaf, prefix_ok)
    return counts


def consecutive_123_distribution(n: int) -> MultiPoly:
    """Sum of w^(number of rising runs of length 3) over all permutations."""
    _check_size(n)
    acc: dict[tuple[int, ...], int] = {}

    def add(values, stats):
        key = (0, 0, count_consecutive_123(values[1:]), 0, 0)
        acc[key] = acc.get(key, 0) + 1

    _kernels.prefix_walk(n, add)
    return MultiPoly(acc)

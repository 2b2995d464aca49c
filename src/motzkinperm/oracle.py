"""Brute-force census over permutation classes.

Ground truth for everything the continued fractions claim: enumerate the
permutations, classify each one, and sum statistic monomials directly.  Cost
grows factorially, so sizes are capped at 9; the point is exact cross-checks
at small n, not scale.

Set ``MOTZKINPERM_WORKERS`` (or pass ``workers``) to fan the enumeration over
processes by first entry; results are identical to the sequential path.
"""

from __future__ import annotations

import os
from itertools import permutations
from multiprocessing import Pool
from typing import Iterable, Iterator

from . import _kernels
from .perms import count_consecutive_123
from .polys import VARS, MultiPoly
from .subsets import CachedCycles, SubsetId, is_member

MAX_BRUTE_N = 9


def _check_size(n: int) -> None:
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n > MAX_BRUTE_N:
        raise ValueError(
            f"brute-force census over size {n} would enumerate {n}! "
            f"permutations; the cap is {MAX_BRUTE_N}"
        )


def _mask(marks: Iterable[str]) -> tuple[int, ...]:
    keep = set(marks)
    bad = keep - set(VARS)
    if bad:
        raise ValueError(f"unknown markers {sorted(bad)}; valid markers are {list(VARS)}")
    return tuple(1 if name in keep else 0 for name in VARS)


def _masked(exps: tuple[int, ...], mask: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(e * m for e, m in zip(exps, mask))


def _member_stats(
    perms: Iterable[tuple[int, ...]], subset: SubsetId, mask: tuple[int, ...]
) -> dict[tuple[int, ...], int]:
    """Masked statistic exponents of the class members among perms, with counts."""
    acc: dict[tuple[int, ...], int] = {}
    for values in perms:
        if not is_member(values, subset):
            continue
        key = _masked(_kernels.stat_tuple(values), mask)
        acc[key] = acc.get(key, 0) + 1
    return acc


def _chunk_distribution(args: tuple) -> dict[tuple[int, ...], int]:
    """One worker's share: the members of size n whose first entry is first."""
    n, first, subset, mask = args
    rest = [v for v in range(1, n + 1) if v != first]
    return _member_stats(((first,) + tail for tail in permutations(rest)), subset, mask)


def worker_count(workers: int | None) -> int:
    if workers is not None:
        return max(1, workers)
    env = os.environ.get("MOTZKINPERM_WORKERS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValueError(f"MOTZKINPERM_WORKERS must be an integer, got {env!r}") from exc
    return 1


def distribution(
    n: int,
    subset: SubsetId = SubsetId.ALL,
    marks: Iterable[str] = VARS,
    workers: int | None = None,
) -> MultiPoly:
    """Sum of statistic monomials over the class members of size n.

    The monomial of a permutation is x^fixed * v^exc * w^dexc * t^cyc * q^inv
    with unrequested markers evaluated at 1.
    """
    _check_size(n)
    mask = _mask(marks)
    nworkers = worker_count(workers)

    acc: dict[tuple[int, ...], int] = {}
    if subset is SubsetId.ALL:
        # the kernel enumerates the whole symmetric group in one sweep
        for exps, count in _kernels.census_stats(n).items():
            key = _masked(exps, mask)
            acc[key] = acc.get(key, 0) + count
    elif nworkers > 1 and n >= 2:
        jobs = [(n, first, subset, mask) for first in range(1, n + 1)]
        with Pool(min(nworkers, n)) as pool:
            for part in pool.map(_chunk_distribution, jobs):
                for key, count in part.items():
                    acc[key] = acc.get(key, 0) + count
    else:
        acc = _member_stats(permutations(range(1, n + 1)), subset, mask)
    return MultiPoly(acc)


def distribution_series(
    n_max: int,
    subset: SubsetId = SubsetId.ALL,
    marks: Iterable[str] = VARS,
    workers: int | None = None,
) -> list[MultiPoly]:
    """Census polynomials for sizes 0..n_max."""
    return [distribution(n, subset, marks, workers) for n in range(n_max + 1)]


def sweep_counts(n: int) -> dict[SubsetId, int]:
    """Cardinality of every supported class at size n, in one pass.

    Each base predicate runs once per permutation, however many classes
    require it, and the cycle predicates share one cycle decomposition.
    """
    _check_size(n)
    requires = {subset: subset.spec.requires for subset in SubsetId}
    predicates = set().union(*requires.values())
    counts = {subset: 0 for subset in SubsetId}
    for values in map(CachedCycles, permutations(range(1, n + 1))):
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

"""The statistic kernels behind every exhaustive census.

These two pure-Python functions are the inner loop of every exhaustive
census in the package.  ``BACKEND`` names the kernel that runs; the
benchmark probe reads it.
"""

from __future__ import annotations

from itertools import permutations

BACKEND = "pure"


def stat_tuple(values):
    """Statistics of a permutation in one-line notation (1-based tuple).

    Returns ``(fixed, exc, dexc, cyc, inv)``: fixed points, excedances
    (pi(i) > i), double excedances (i < pi(i) < pi(pi(i))), cycles, and
    inversions.
    """
    n = len(values)
    fixed = exc = dexc = inv = 0
    for i in range(n):
        v = values[i]
        if v == i + 1:
            fixed += 1
        elif v > i + 1:
            exc += 1
            if values[v - 1] > v:
                dexc += 1
        for j in range(i + 1, n):
            if v > values[j]:
                inv += 1
    cyc = 0
    seen = bytearray(n)
    for i in range(n):
        if not seen[i]:
            cyc += 1
            j = i
            while not seen[j]:
                seen[j] = 1
                j = values[j] - 1
    return (fixed, exc, dexc, cyc, inv)


def census_stats(n):
    """Aggregate ``stat_tuple`` over all of S_n: {stat tuple: multiplicity}."""
    counts: dict[tuple, int] = {}
    for p in permutations(range(1, n + 1)):
        key = stat_tuple(p)
        if key in counts:
            counts[key] += 1
        else:
            counts[key] = 1
    return counts

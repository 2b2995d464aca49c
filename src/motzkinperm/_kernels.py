"""The statistic kernels behind every exhaustive census, in pure Python.

:func:`stat_tuple` reads one permutation in O(n log n): one pass for fixed
points, excedances, double excedances and cycles, with a Fenwick tree
counting inversions.  It assumes a valid permutation;
:func:`motzkinperm.perms.stats` is the checked entry point.
:func:`census_stats` walks the one-line prefixes of S_n depth first (Knuth,
TAOCP 4A, 7.2.1.2), updating all five statistics in O(1) per placed entry.
``BACKEND`` names the kernel that runs; the benchmark probe reads it.
"""

from __future__ import annotations

BACKEND = "pure"


def stat_tuple(values):
    """``(fixed, exc, dexc, cyc, inv)`` of a permutation in one-line notation:
    fixed points, excedances (pi(i) > i), double excedances (i < pi(i) <
    pi(pi(i))), cycles and inversions."""
    n = len(values)
    fixed = exc = dexc = cyc = inv = 0
    seen = bytearray(n)
    tree = [0] * (n + 1)
    for i in range(n):
        v = values[i]
        if v == i + 1:
            fixed += 1
        elif v > i + 1:
            exc += 1
            if values[v - 1] > v:
                dexc += 1
        if not seen[i]:
            cyc += 1
            j = i
            while not seen[j]:
                seen[j] = 1
                j = values[j] - 1
        # earlier values above v: all i earlier ones minus the tree's count of those <= v
        inv += i
        j = v
        while j:
            inv -= tree[j]
            j &= j - 1
        j = v
        while j <= n:
            tree[j] += 1
            j += j & -j
    return (fixed, exc, dexc, cyc, inv)


def census_stats(n):
    """Tally :func:`stat_tuple` over all of S_n: {stat tuple: multiplicity}.

    Position i takes each unused value v in turn: a fixed point if v = i, an
    excedance if v > i, a double excedance j < i < v if i is already some
    earlier pi(j), and one inversion per unused value below v.  Placed entries
    form chains (``head``: tail -> head, ``tail``: head -> tail); i -> v closes
    a cycle if v heads the chain ending at i, else joins the two chains.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    head, tail = list(range(n + 1)), list(range(n + 1))
    counts: dict[tuple[int, int, int, int, int], int] = {} if n else {(0, 0, 0, 0, 0): 1}

    def walk(i, unused, fixed, exc, dexc, cyc, inv):
        if i == n:  # the last value left closes the last cycle
            key = (fixed + (unused[0] == n), exc, dexc, cyc + 1, inv)
            counts[key] = counts.get(key, 0) + 1
            return
        h = head[i]
        dexc_above = dexc + (h != i)
        for k, v in enumerate(unused):
            rest = unused[:k] + unused[k + 1 :]
            if v > i:
                f, e, d = fixed, exc + 1, dexc_above
            else:
                f, e, d = fixed + (v == i), exc, dexc
            if v == h:
                walk(i + 1, rest, f, e, d, cyc + 1, inv + k)
            else:
                t = tail[v]
                head[t], tail[h] = h, t
                walk(i + 1, rest, f, e, d, cyc, inv + k)
                head[t], tail[h] = v, i

    if n:
        walk(1, list(range(1, n + 1)), 0, 0, 0, 0, 0)
    return counts

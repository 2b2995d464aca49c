"""Reference sequences and helpers that only the tests use.

Each sequence comes from a classical recurrence or binomial formula,
independent of the path and continued-fraction code it cross-checks.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb, factorial
from typing import Iterator, Sequence

from motzkinperm._kernels import Prefix
from motzkinperm.perms import DiagonalType, _DiagramState, classify_entries, cycle_list, inverse
from motzkinperm.polys import VARS, MultiPoly


def variables_used(poly: MultiPoly) -> frozenset[str]:
    """The markers that occur with a positive exponent in some term."""
    return frozenset(v for exps, _ in poly.to_terms() for v, e in zip(VARS, exps) if e)


def ascent_count(values: tuple[int, ...]) -> int:
    return sum(1 for a, b in zip(values, values[1:]) if a < b)


def left_to_right_minima(values: tuple[int, ...]) -> int:
    count = 0
    best = None
    for v in values:
        if best is None or v < best:
            best = v
            count += 1
    return count


def diagram_replay(values: tuple[int, ...]) -> Iterator[tuple[DiagonalType, int, int, int, int]]:
    """The diagram replayed along the diagonal, ranking rays with ``list.index``.

    Yields ``(type, height, j, k, cycle_k)`` per entry: j ranks the open vertical
    ray the entry closes left to right and k the horizontal one bottom to top, 0
    for none; for a CLOSE, cycle_k is the k that completes a cycle given j (0
    otherwise).  The state advances through ``_DiagramState.step``.
    """
    inv = inverse(values)
    state = _DiagramState()
    for i, (typ, h) in enumerate(classify_entries(values), start=1):
        v, iv = values[i - 1], inv[i - 1]
        j = state.verticals.index(iv) + 1 if iv < i else 0
        k = state.horizontals.index(v) + 1 if v < i else 0
        cycle_k = 0
        if j and k:
            cycle_k = state.horizontals.index(state.match_v[state.verticals[j - 1]]) + 1
        state.step(typ.letter, j, k, i)
        yield typ, h, j, k, cycle_k


def diagram_noncrossing(values: tuple[int, ...]) -> bool:
    """The paper's noncrossing discipline on the diagram replay.

    Every LOWER_BOUNCE closes the innermost open horizontal ray, every CLOSE
    closes the two innermost rays and those rays form a chained pair, and no
    UPPER_BOUNCE occurs.
    """
    for typ, h, j, k, cycle_k in diagram_replay(values):
        if typ is DiagonalType.UPPER_BOUNCE:
            return False
        if typ is DiagonalType.LOWER_BOUNCE and k != h:
            return False
        if typ is DiagonalType.CLOSE and not j == k == cycle_k == h:
            return False
    return True


def cycles_rise_then_fall(values: tuple[int, ...]) -> bool:
    """Each cycle, written minimum-first, strictly rises and then strictly falls."""
    for cycle in cycle_list(values):
        i = 1
        while i < len(cycle) and cycle[i] > cycle[i - 1]:
            i += 1
        while i < len(cycle) and cycle[i] < cycle[i - 1]:
            i += 1
        if i != len(cycle):
            return False
    return True


def contains_classical(values: Sequence[int], pattern: Sequence[int]) -> bool:
    """Classical pattern containment: some subsequence is order-isomorphic to ``pattern``."""
    k = len(pattern)
    if k > len(values):
        return False
    target = rank_word(pattern)
    return any(rank_word(combo) == target for combo in combinations(values, k))


def rank_word(seq: Sequence[int]) -> tuple[int, ...]:
    order = sorted(seq)
    return tuple(order.index(v) + 1 for v in seq)


def avoids_classical(values: Sequence[int], pattern: Sequence[int]) -> bool:
    return not contains_classical(values, pattern)


def single_cycle(order: Sequence[int]) -> tuple[int, ...]:
    """The cycle 1 -> order[0] -> order[1] -> ... -> 1, where ``order`` arranges 2..n."""
    vals = [0] * (len(order) + 1)
    prev = 1
    for nxt in order:
        vals[prev - 1] = nxt
        prev = nxt
    vals[prev - 1] = 1
    return tuple(vals)


def cyclic_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """The (n-1)! single cycles of size n >= 1, one per order of 2..n after 1."""
    return map(single_cycle, permutations(range(2, n + 1)))


def prefix_view(prefix: Sequence[int], n: int) -> Prefix:
    """What the prefix walk shows a prefix test after placing ``prefix`` as
    pi(1), pi(2), ... of a permutation of size n: the same chain joins, made
    in order and never undone."""
    view = Prefix(n)
    head, tail = view.head, view.tail
    for i, v in enumerate(prefix, 1):
        view.values[i] = v
        view.unused.remove(v)
        view.top = max(view.top, v)
        h = head[i]
        if v != h:
            t = tail[v]
            head[t], tail[h] = h, t
    return view


# -- one-pass membership references -------------------------------------------
#
# The whole-permutation form of each base condition in ``subsets``, under the
# same name, to check the prefix rules against.


def is_cyclic(values: Sequence[int]) -> bool:
    """Single cycle through every element (the empty permutation is not)."""
    n = len(values)
    j = 1
    for length in range(1, n + 1):
        j = values[j - 1]
        if j == 1:
            return length == n
    return False


def avoids_321(values: Sequence[int]) -> bool:
    """No falling triple: no i < j < k with pi(i) > pi(j) > pi(k)."""
    n = len(values)
    if n < 3:
        return True
    # pi(j) is the middle of a falling triple iff something larger precedes it
    # and something smaller follows it.
    suffix_min = [0] * (n + 1)
    suffix_min[n] = n + 1
    for j in range(n - 1, -1, -1):
        suffix_min[j] = min(values[j], suffix_min[j + 1])
    prefix_max = 0
    for j in range(n):
        if prefix_max > values[j] > suffix_min[j + 1]:
            return False
        prefix_max = max(prefix_max, values[j])
    return True


def _increasing(seq: list[int]) -> bool:
    return all(a < b for a, b in zip(seq, seq[1:]))


def has_increasing_excedance_values(values: Sequence[int]) -> bool:
    return _increasing([v for i, v in enumerate(values, 1) if v > i])


def has_increasing_weak_excedance_values(values: Sequence[int]) -> bool:
    return _increasing([v for i, v in enumerate(values, 1) if v >= i])


def has_increasing_deficiency_values(values: Sequence[int]) -> bool:
    return _increasing([v for i, v in enumerate(values, 1) if v < i])


def has_unimodal_cycles(values: Sequence[int]) -> bool:
    """Every cycle, read from its minimum, rises and then falls.

    A cycle of length >= 2 has a cyclic peak v = pi(i) with i < v > pi(v) at
    its maximum, and is unimodal iff that is its only one: the peaks number
    the cycles minus the fixed points.
    """
    seen = bytearray(len(values) + 1)
    surplus = 0  # cyclic peaks so far, less the cycles of length >= 2 begun
    for i, v in enumerate(values, 1):
        if i < v > values[v - 1]:
            surplus += 1
        if not seen[i]:  # i is the minimum of a cycle not yet walked
            surplus -= v != i
            seen[i] = 1
            while not seen[v]:
                seen[v] = 1
                v = values[v - 1]
    return surplus == 0


def has_noncrossing_cycles(values: Sequence[int]) -> bool:
    """The set partition induced by the cycles is noncrossing."""
    n = len(values)
    block_of = [0] * (n + 1)
    mins = {}
    maxs = {}
    for b, cyc in enumerate(cycle_list(values)):
        for i in cyc:
            block_of[i] = b
        mins[b] = min(cyc)
        maxs[b] = max(cyc)
    stack: list[int] = []
    for i in range(1, n + 1):
        b = block_of[i]
        if i == mins[b]:
            stack.append(b)
        if stack[-1] != b:
            return False
        if i == maxs[b]:
            stack.pop()
    return True


def has_unimodal_noncrossing_cycles(values: Sequence[int]) -> bool:
    """Every cycle rises then falls, and the cycles' set partition is noncrossing."""
    return has_unimodal_cycles(values) and has_noncrossing_cycles(values)


def has_no_nested_fixed_point(values: Sequence[int]) -> bool:
    """No fixed point j sits under an arc: i < j < k with pi(i)=k or pi(k)=i."""
    n = len(values)
    prefix_max = 0
    suffix_min = [0] * (n + 2)
    suffix_min[n + 1] = n + 1
    for i in range(n, 0, -1):
        suffix_min[i] = min(values[i - 1], suffix_min[i + 1])
    for j in range(1, n + 1):
        v = values[j - 1]
        if v == j and (prefix_max > j or suffix_min[j + 1] < j):
            return False
        prefix_max = max(prefix_max, v)
    return True


def has_no_double_excedance(values: Sequence[int]) -> bool:
    """No i < pi(i) < pi(pi(i)): no upper bounce in the diagram."""
    return not any(i < v < values[v - 1] for i, v in enumerate(values, 1))


def has_no_double_excedance_or_deficiency(values: Sequence[int]) -> bool:
    """No double excedance and no i > pi(i) > pi(pi(i))."""
    return has_no_double_excedance(values) and not any(
        i > v > values[v - 1] for i, v in enumerate(values, 1)
    )


def is_involution(values: Sequence[int]) -> bool:
    return all(values[v - 1] == i for i, v in enumerate(values, 1))


ONE_PASS = {
    f.__name__: f
    for f in (
        is_cyclic,
        avoids_321,
        has_increasing_excedance_values,
        has_increasing_weak_excedance_values,
        has_increasing_deficiency_values,
        has_unimodal_cycles,
        has_unimodal_noncrossing_cycles,
        has_no_nested_fixed_point,
        has_no_double_excedance,
        has_no_double_excedance_or_deficiency,
        is_involution,
    )
}


def one_pass(rule):
    """The one-pass reference for a rule of ``subsets``, found by its name."""
    return ONE_PASS[rule.__name__]


def in_class(values: Sequence[int], subset) -> bool:
    """Membership by the one-pass references of the class's rules."""
    return all(one_pass(rule)(values) for rule in subset.spec.requires)


def motzkin_numbers(n_max: int) -> list[int]:
    out = [1]
    for n in range(1, n_max + 1):
        val = out[n - 1]
        for k in range(n - 1):
            val += out[k] * out[n - 2 - k]
        out.append(val)
    return out


def schroder_numbers(n_max: int) -> list[int]:
    """Large Schroder numbers 1, 2, 6, 22, 90, ..."""
    out = [1]
    for n in range(1, n_max + 1):
        val = out[n - 1]
        for k in range(n):
            val += out[k] * out[n - 1 - k]
        out.append(val)
    return out


def central_binomials(n_max: int) -> list[int]:
    return [comb(2 * n, n) for n in range(n_max + 1)]


def central_trinomials(n_max: int) -> list[int]:
    """Coefficient of y^n in (1 + y + y^2)^n."""
    return [
        sum(comb(n, 2 * k) * comb(2 * k, k) for k in range(n // 2 + 1))
        for n in range(n_max + 1)
    ]


def no_singleton_partition_counts(n_max: int) -> list[int]:
    """Set partitions with every block of size at least 2: 1, 0, 1, 1, 4, 11, ..."""
    out = [1]
    if n_max >= 1:
        out.append(0)
    for n in range(2, n_max + 1):
        out.append(sum(comb(n - 1, k) * out[n - 1 - k] for k in range(1, n)))
    return out


def derangement_numbers(n_max: int) -> list[int]:
    out = [1]
    if n_max >= 1:
        out.append(0)
    for n in range(2, n_max + 1):
        out.append((n - 1) * (out[n - 1] + out[n - 2]))
    return out


def zigzag_numbers(n_max: int) -> list[int]:
    """Alternating-permutation counts 1, 1, 1, 2, 5, 16, 61, 272, ...

    Boustrophedon recurrence: each triangle row starts at 0 and adds the
    previous row read backwards; the row's last entry is the next term.
    """
    out = [1]
    row = [1]
    for n in range(1, n_max + 1):
        new = [0]
        for k in range(1, n + 1):
            new.append(new[k - 1] + row[n - k])
        row = new
        out.append(row[n])
    return out


def odd_double_factorials(n_max: int) -> list[int]:
    """1, 1, 3, 15, 105, ...: products of the first n odd numbers."""
    out = [1]
    for n in range(1, n_max + 1):
        out.append(out[-1] * (2 * n - 1))
    return out


def even_double_factorials(n_max: int) -> list[int]:
    """1, 2, 8, 48, ...: 2^n times n factorial."""
    return [(1 << n) * factorial(n) for n in range(n_max + 1)]


def labeled_graph_counts(n_max: int) -> list[int]:
    return [1 << comb(n, 2) for n in range(n_max + 1)]

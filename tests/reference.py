"""Reference sequences and helpers that only the tests use.

Each sequence comes from a classical recurrence or binomial formula,
independent of the path and continued-fraction code it cross-checks.
"""

from __future__ import annotations

from math import comb, factorial

from motzkinperm.perms import DiagonalType, cycle_list, diagram_walk
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


def diagram_noncrossing(values: tuple[int, ...]) -> bool:
    """The paper's noncrossing discipline on the diagram replay.

    Every LOWER_BOUNCE closes the innermost open horizontal ray, every CLOSE
    closes the two innermost rays and those rays form a chained pair, and no
    UPPER_BOUNCE occurs.
    """
    for typ, h, choice in diagram_walk(values):
        if typ is DiagonalType.UPPER_BOUNCE:
            return False
        if typ is DiagonalType.LOWER_BOUNCE and choice.k != h:
            return False
        if typ is DiagonalType.CLOSE and not choice.j == choice.k == choice.cycle_k == h:
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

"""The permutation classes under study, one record per class.

Each class is a conjunction of base membership predicates together with the
step weights its members induce on colored Motzkin paths and, where one is
known, a closed form for its counts; :data:`CLASSES` holds one
:class:`ClassSpec` per :class:`SubsetId`, and adding a class means adding one
record there.  The predicates are evaluated directly on the one-line values
(the noncrossing family is the exception: its definition is a discipline on
the diagram replay, so it reads :func:`motzkinperm.perms.diagram_walk`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

from .perms import DiagonalType, cycle_list, diagram_walk
from .sequences import (
    bell_numbers,
    catalan_numbers,
    egf_involution_counts,
    egf_no_double_step_counts,
    egf_unimodal_cycle_counts,
    factorials,
    ogf_increasing_exc_def_counts,
)


class SubsetId(enum.Enum):
    ALL = "All"
    CYCLIC = "Cyclic"
    AVOID321 = "Avoid321"
    UNIMODAL_NONCROSSING_NO_NESTED_FP = "UnimodalNoncrossingNoNestedFp"
    NONCROSSING = "Noncrossing"
    INCREASING_EXC = "IncreasingExc"
    INCREASING_WEAK_EXC = "IncreasingWeakExc"
    CYCLIC_INCREASING_EXC = "CyclicIncreasingExc"
    UNIMODAL_CYCLES = "UnimodalCycles"
    UNIMODAL_CYCLES_INCREASING_EXC = "UnimodalCyclesIncreasingExc"
    INCREASING_EXC_AND_DEF = "IncreasingExcAndDef"
    UNIMODAL_NONCROSSING = "UnimodalNoncrossing"
    NO_DOUBLE_EXC_OR_DEF = "NoDoubleExcOrDef"
    INVOLUTIONS = "Involutions"
    INVOLUTIONS321 = "Involutions321"

    @classmethod
    def from_name(cls, name: str) -> "SubsetId":
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(
            f"unknown subset {name!r}; choose from "
            + ", ".join(m.value for m in cls)
        )

    @property
    def spec(self) -> "ClassSpec":
        return CLASSES[self]


# The last (values, cycles) pair, so the cycle predicates below decompose a
# permutation once however many of them test it in a row.  Only a tuple is
# served from it: it cannot change, and holding it keeps its id from reuse.
_last_cycles: tuple = (None, [])


def _cycles(values: Sequence[int]) -> list[tuple[int, ...]]:
    global _last_cycles
    last = _last_cycles
    if type(values) is tuple and values is last[0]:
        return last[1]
    cycles = cycle_list(values)
    _last_cycles = (values, cycles)
    return cycles


def is_cyclic(values: Sequence[int]) -> bool:
    """Single cycle through every element (the empty permutation is not)."""
    return len(values) >= 1 and len(_cycles(values)) == 1


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


def _cycle_unimodal(cycle: Sequence[int]) -> bool:
    # minimum-first: strictly rises, then strictly falls; length <= 2 trivially
    i = 1
    while i < len(cycle) and cycle[i] > cycle[i - 1]:
        i += 1
    while i < len(cycle) and cycle[i] < cycle[i - 1]:
        i += 1
    return i == len(cycle)


def has_unimodal_cycles(values: Sequence[int]) -> bool:
    return all(_cycle_unimodal(c) for c in _cycles(values))


def has_noncrossing_cycles(values: Sequence[int]) -> bool:
    """The set partition induced by the cycles is noncrossing."""
    n = len(values)
    block_of = [0] * (n + 1)
    mins = {}
    maxs = {}
    for b, cyc in enumerate(_cycles(values)):
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


def has_no_double_excedance_or_deficiency(values: Sequence[int]) -> bool:
    for i, v in enumerate(values, 1):
        if i < v < values[v - 1]:
            return False
        if i > v > values[v - 1]:
            return False
    return True


def is_involution(values: Sequence[int]) -> bool:
    return all(values[v - 1] == i for i, v in enumerate(values, 1))


def is_noncrossing(values: Sequence[int]) -> bool:
    """Noncrossing discipline on the diagram replay.

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


def _qbracket(q, h: int):
    """1 + q + ... + q^(h-1); zero when h is 0."""
    return sum((q**i for i in range(h)), 0)


@dataclass(frozen=True)
class ClassSpec:
    """One permutation class: membership, path step weights and closed form.

    ``requires`` is a conjunction of base predicates on the one-line values.
    ``down(h, x, v, w, t, q)`` is the total weight of a down step falling
    from height h >= 1, and ``level(h, x, v, w, t, q)`` returns the level
    weights at height h split as (fixed, upper bounce, lower bounce); markers
    outside ``marks`` are passed as 1.  Elevated classes count paths whose
    interior stays above height 0.  ``closed(n)`` gives the counts for sizes
    0..n, or is None when the class has no closed form.
    """

    requires: tuple[Callable[[Sequence[int]], bool], ...]
    marks: str
    down: Callable[..., object]
    level: Callable[..., tuple]
    elevated: bool = False
    closed: Callable[[int], list[int]] | None = None


CLASSES: dict[SubsetId, ClassSpec] = {
    # t and q are never marked together here (see schemes.scheme_for): at
    # q = 1 the weights count cycles, at t = 1 they count inversions.
    SubsetId.ALL: ClassSpec(
        (), "xvwtq",
        down=lambda h, x, v, w, t, q: (
            v * q ** (2 * h - 1) * (b := _qbracket(q, h)) * (b + t - 1)
        ),
        level=lambda h, x, v, w, t, q: (
            x * t * q ** (2 * h),
            v * w * (lower := q**h * _qbracket(q, h)),
            lower,
        ),
        closed=factorials,
    ),
    SubsetId.CYCLIC: ClassSpec(
        (is_cyclic,), "xvw",
        down=lambda h, x, v, w, t, q: v if h == 1 else h * (h - 1) * v,
        level=lambda h, x, v, w, t, q: (x if h == 0 else 0, h * v * w, h),
        elevated=True,
        closed=lambda n: ([0] + factorials(n - 1))[: n + 1],
    ),
    SubsetId.AVOID321: ClassSpec(
        (avoids_321,), "xvwq",
        down=lambda h, x, v, w, t, q: v * q ** (2 * h - 1),
        level=lambda h, x, v, w, t, q: (
            (x, 0, 0) if h == 0 else (0, v * w * q**h, q**h)
        ),
        closed=catalan_numbers,
    ),
    SubsetId.UNIMODAL_NONCROSSING_NO_NESTED_FP: ClassSpec(
        (has_unimodal_cycles, has_noncrossing_cycles, has_no_nested_fixed_point),
        "xvwtq",
        down=lambda h, x, v, w, t, q: v * t * q ** (4 * h - 3),
        level=lambda h, x, v, w, t, q: (
            (x * t, 0, 0) if h == 0
            else (0, v * w * q ** (2 * h - 1), q ** (2 * h - 1))
        ),
        closed=catalan_numbers,
    ),
    SubsetId.NONCROSSING: ClassSpec(
        (is_noncrossing,), "xvw",
        down=lambda h, x, v, w, t, q: v,
        level=lambda h, x, v, w, t, q: (x, 0, 0 if h == 0 else 1),
        closed=catalan_numbers,
    ),
    SubsetId.INCREASING_EXC: ClassSpec(
        (has_increasing_excedance_values,), "xvwt",
        down=lambda h, x, v, w, t, q: v * (t + h - 1),
        level=lambda h, x, v, w, t, q: (x * t, 0 if h == 0 else v * w, h),
    ),
    SubsetId.INCREASING_WEAK_EXC: ClassSpec(
        (has_increasing_weak_excedance_values,), "xvwt",
        down=lambda h, x, v, w, t, q: v * (t + h - 1),
        level=lambda h, x, v, w, t, q: (x * t, 0, 0) if h == 0 else (0, v * w, h),
        closed=bell_numbers,
    ),
    SubsetId.CYCLIC_INCREASING_EXC: ClassSpec(
        (is_cyclic, has_increasing_excedance_values), "xvw",
        down=lambda h, x, v, w, t, q: v if h == 1 else (h - 1) * v,
        level=lambda h, x, v, w, t, q: (x, 0, 0) if h == 0 else (0, v * w, h),
        elevated=True,
        closed=lambda n: ([0] + bell_numbers(n - 1))[: n + 1],
    ),
    SubsetId.UNIMODAL_CYCLES: ClassSpec(
        (has_unimodal_cycles,), "xvwt",
        down=lambda h, x, v, w, t, q: h * v * t,
        level=lambda h, x, v, w, t, q: (x * t, h * v * w, h),
        closed=egf_unimodal_cycle_counts,
    ),
    SubsetId.UNIMODAL_CYCLES_INCREASING_EXC: ClassSpec(
        (has_unimodal_cycles, has_increasing_excedance_values), "xvwt",
        down=lambda h, x, v, w, t, q: v * t,
        level=lambda h, x, v, w, t, q: (x * t, 0 if h == 0 else v * w, h),
    ),
    SubsetId.INCREASING_EXC_AND_DEF: ClassSpec(
        (has_increasing_excedance_values, has_increasing_deficiency_values), "xvwq",
        down=lambda h, x, v, w, t, q: v * q ** (2 * h - 1),
        level=lambda h, x, v, w, t, q: (
            (x, 0, 0) if h == 0 else (x * q ** (2 * h), v * w * q**h, q**h)
        ),
        closed=ogf_increasing_exc_def_counts,
    ),
    SubsetId.UNIMODAL_NONCROSSING: ClassSpec(
        (has_unimodal_cycles, has_noncrossing_cycles), "xvwtq",
        down=lambda h, x, v, w, t, q: v * t * q ** (4 * h - 3),
        level=lambda h, x, v, w, t, q: (
            (x * t, 0, 0) if h == 0
            else (x * t * q ** (2 * h), v * w * q ** (2 * h - 1), q ** (2 * h - 1))
        ),
        closed=ogf_increasing_exc_def_counts,
    ),
    SubsetId.NO_DOUBLE_EXC_OR_DEF: ClassSpec(
        (has_no_double_excedance_or_deficiency,), "xvwt",
        down=lambda h, x, v, w, t, q: v * h * (t + h - 1),
        level=lambda h, x, v, w, t, q: (x * t, 0, 0),
        closed=egf_no_double_step_counts,
    ),
    SubsetId.INVOLUTIONS: ClassSpec(
        (is_involution,), "xvwtq",
        down=lambda h, x, v, w, t, q: v * t * q ** (2 * h - 1) * _qbracket(q * q, h),
        level=lambda h, x, v, w, t, q: (x * t * q ** (2 * h), 0, 0),
        closed=egf_involution_counts,
    ),
    SubsetId.INVOLUTIONS321: ClassSpec(
        (is_involution, avoids_321), "xvwtq",
        down=lambda h, x, v, w, t, q: v * t * q ** (2 * h - 1),
        level=lambda h, x, v, w, t, q: (x * t if h == 0 else 0, 0, 0),
        closed=lambda n: [comb(k, k // 2) for k in range(n + 1)],
    ),
}


def is_member(values: Sequence[int], subset: SubsetId) -> bool:
    return all(p(values) for p in subset.spec.requires)

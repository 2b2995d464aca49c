"""The permutation classes under study, one record per class.

Each class is a conjunction of base membership predicates together with the
step weights its members induce on colored Motzkin paths and, where one is
known, a closed form for its counts; :data:`CLASSES` holds one
:class:`ClassSpec` per :class:`SubsetId`, and adding a class means adding one
record there.  Every predicate reads the one-line values directly and keeps
no state between calls.  The diagram-defined Noncrossing class is one such
conjunction too: an upper bounce of the diagram is a double excedance and a
down step a cyclic peak, so its members are the unimodal noncrossing
permutations with no double excedance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

from .perms import _require_permutation, cycle_list
from .sequences import (
    bell_numbers,
    catalan_numbers,
    egf_involution_counts,
    egf_no_double_step_counts,
    egf_unimodal_cycle_counts,
    factorials,
    ogf_increasing_exc_def_counts,
)

# The largest size a brute-force enumeration without a prefix test may reach:
# 9! = 362,880 permutations.
MAX_BRUTE_N = 9


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


# -- prefix tests -------------------------------------------------------------
#
# Each base predicate has a test ``(prefix, i, v)`` that the brute-force walk
# runs before it places pi(i) = v after the prefix pi(1..i-1), seen through a
# :class:`motzkinperm._kernels.Prefix`.  A test is only a necessary condition
# for the prefix to extend to a permutation the predicate accepts: the walk
# still checks every full permutation, so a weak test costs time, never
# correctness, while one that rejects a member would lose it.


def _cyclic_prefix(prefix, i, v):
    """A cycle may close only at the last position."""
    return v != prefix.head[i] or i == len(prefix.values) - 1


def _avoids_321_prefix(prefix, i, v):
    """Below the running maximum only the smallest unused value can come:
    anything above it would end a falling triple with the maximum."""
    return v > prefix.top or v == prefix.unused[0]


def _increasing_excedance_prefix(prefix, i, v):
    """Every placed value above i is an excedance value, so a new one must top them."""
    return v <= i or v > prefix.top


def _increasing_weak_excedance_prefix(prefix, i, v):
    return v < i or v > prefix.top


def _increasing_deficiency_prefix(prefix, i, v):
    """A smaller unused value would later become a smaller deficiency value."""
    return v >= i or v == prefix.unused[0]


def _unimodal_cycles_prefix(prefix, i, v):
    """A cyclic peak at i (reached from below, left downward) must close its
    cycle: otherwise the cycle's maximum, still to come, is a second peak."""
    h = prefix.head[i]
    return v >= i or h == i or v == h


def _noncrossing_cycles_prefix(prefix, i, v):
    """When the cycle through i closes, every other entry strictly between its
    minimum and i must map into the same gap between its consecutive elements."""
    if v != prefix.head[i] or v == i:
        return True
    values = prefix.values
    gap_of = [-1] * len(values)  # -1 off the span, 0 on the cycle, else 1 + the gap
    gap_of[i] = 0
    low = u = v
    while u != i:
        gap_of[u] = 0
        if u < low:
            low = u
        u = values[u]
    gap = 1
    for x in range(low + 1, i):
        if gap_of[x]:
            gap_of[x] = gap
        else:
            gap += 1
    return all(gap_of[values[x]] == gap_of[x] for x in range(low + 1, i) if gap_of[x])


def _no_nested_fixed_point_prefix(prefix, i, v):
    """A fixed point i needs 1..i-1 placed before it, and so below it."""
    return v != i or v == prefix.unused[0]


def _no_double_excedance_prefix(prefix, i, v):
    """If i is already some earlier pi(j), pi(i) > i would finish j < i < pi(i)."""
    return v <= i or prefix.head[i] == i


def _no_double_excedance_or_deficiency_prefix(prefix, i, v):
    if v < i:  # pi(v) is placed: i > v > pi(v) is a double deficiency
        return prefix.values[v] > v
    return v == i or prefix.head[i] == i


def _involution_prefix(prefix, i, v):
    """If i is already pi(j), that j heads the chain j -> i and pi(i) must be j;
    otherwise pi(i) < i would leave pi(pi(i)), already placed, unequal to i."""
    h = prefix.head[i]
    return v == h if h != i else v >= i


PREFIX_TESTS: dict[Callable[[Sequence[int]], bool], Callable[..., bool]] = {
    is_cyclic: _cyclic_prefix,
    avoids_321: _avoids_321_prefix,
    has_increasing_excedance_values: _increasing_excedance_prefix,
    has_increasing_weak_excedance_values: _increasing_weak_excedance_prefix,
    has_increasing_deficiency_values: _increasing_deficiency_prefix,
    has_unimodal_cycles: _unimodal_cycles_prefix,
    has_noncrossing_cycles: _noncrossing_cycles_prefix,
    has_no_nested_fixed_point: _no_nested_fixed_point_prefix,
    has_no_double_excedance: _no_double_excedance_prefix,
    has_no_double_excedance_or_deficiency: _no_double_excedance_or_deficiency_prefix,
    is_involution: _involution_prefix,
}


def _qbracket(q, h: int):
    """1 + q + ... + q^(h-1); zero when h is 0."""
    return sum((q**i for i in range(h)), 0)


@dataclass(frozen=True)
class ClassSpec:
    """One permutation class: membership, path step weights and closed form.

    ``requires`` is a conjunction of base predicates on the one-line values;
    :attr:`prefix_ok` joins their prefix tests for the brute-force walk, and
    ``brute_cap`` is the largest size that walk may enumerate: 9 without a
    prefix test, else the largest n it counts in about 10 s.  The time noted
    beside each cap is the CPU time of ``oracle.count`` at the cap (pure
    Python 3.11.7 on a 2-core x86-64 virtual machine).
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
    brute_cap: int = MAX_BRUTE_N

    @property
    def prefix_ok(self) -> Callable[..., bool] | None:
        """The prefix tests of ``requires`` as one test; None when it is empty."""
        tests = tuple(PREFIX_TESTS[p] for p in self.requires)
        if len(tests) <= 1:
            return tests[0] if tests else None

        def all_pass(prefix, i, v):
            for test in tests:
                if not test(prefix, i, v):
                    return False
            return True

        return all_pass


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
        closed=lambda n: [0] + factorials(n - 1) if n else [0],
        brute_cap=10,  # 1.7 s
    ),
    SubsetId.AVOID321: ClassSpec(
        (avoids_321,), "xvwq",
        down=lambda h, x, v, w, t, q: v * q ** (2 * h - 1),
        level=lambda h, x, v, w, t, q: (
            (x, 0, 0) if h == 0 else (0, v * w * q**h, q**h)
        ),
        closed=catalan_numbers,
        brute_cap=13,  # 8.1 s
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
        brute_cap=11,  # 7.4 s
    ),
    SubsetId.NONCROSSING: ClassSpec(
        (has_no_double_excedance, has_unimodal_cycles, has_noncrossing_cycles), "xvw",
        down=lambda h, x, v, w, t, q: v,
        level=lambda h, x, v, w, t, q: (x, 0, 0 if h == 0 else 1),
        closed=catalan_numbers,
        brute_cap=11,  # 3.9 s
    ),
    SubsetId.INCREASING_EXC: ClassSpec(
        (has_increasing_excedance_values,), "xvwt",
        down=lambda h, x, v, w, t, q: v * (t + h - 1),
        level=lambda h, x, v, w, t, q: (x * t, 0 if h == 0 else v * w, h),
        brute_cap=10,  # 1.9 s
    ),
    SubsetId.INCREASING_WEAK_EXC: ClassSpec(
        (has_increasing_weak_excedance_values,), "xvwt",
        down=lambda h, x, v, w, t, q: v * (t + h - 1),
        level=lambda h, x, v, w, t, q: (x * t, 0, 0) if h == 0 else (0, v * w, h),
        closed=bell_numbers,
        brute_cap=11,  # 3.3 s
    ),
    SubsetId.CYCLIC_INCREASING_EXC: ClassSpec(
        (is_cyclic, has_increasing_excedance_values), "xvw",
        down=lambda h, x, v, w, t, q: v if h == 1 else (h - 1) * v,
        level=lambda h, x, v, w, t, q: (x, 0, 0) if h == 0 else (0, v * w, h),
        elevated=True,
        closed=lambda n: [0] + bell_numbers(n - 1) if n else [0],
        brute_cap=12,  # 6.9 s
    ),
    SubsetId.UNIMODAL_CYCLES: ClassSpec(
        (has_unimodal_cycles,), "xvwt",
        down=lambda h, x, v, w, t, q: h * v * t,
        level=lambda h, x, v, w, t, q: (x * t, h * v * w, h),
        closed=egf_unimodal_cycle_counts,
        brute_cap=10,  # 4.9 s
    ),
    SubsetId.UNIMODAL_CYCLES_INCREASING_EXC: ClassSpec(
        (has_unimodal_cycles, has_increasing_excedance_values), "xvwt",
        down=lambda h, x, v, w, t, q: v * t,
        level=lambda h, x, v, w, t, q: (x * t, 0 if h == 0 else v * w, h),
        brute_cap=11,  # 8.0 s
    ),
    SubsetId.INCREASING_EXC_AND_DEF: ClassSpec(
        (has_increasing_excedance_values, has_increasing_deficiency_values), "xvwq",
        down=lambda h, x, v, w, t, q: v * q ** (2 * h - 1),
        level=lambda h, x, v, w, t, q: (
            (x, 0, 0) if h == 0 else (x * q ** (2 * h), v * w * q**h, q**h)
        ),
        closed=ogf_increasing_exc_def_counts,
        brute_cap=11,  # 3.0 s
    ),
    SubsetId.UNIMODAL_NONCROSSING: ClassSpec(
        (has_unimodal_cycles, has_noncrossing_cycles), "xvwtq",
        down=lambda h, x, v, w, t, q: v * t * q ** (4 * h - 3),
        level=lambda h, x, v, w, t, q: (
            (x * t, 0, 0) if h == 0
            else (x * t * q ** (2 * h), v * w * q ** (2 * h - 1), q ** (2 * h - 1))
        ),
        closed=ogf_increasing_exc_def_counts,
        brute_cap=10,  # 3.9 s
    ),
    SubsetId.NO_DOUBLE_EXC_OR_DEF: ClassSpec(
        (has_no_double_excedance_or_deficiency,), "xvwt",
        down=lambda h, x, v, w, t, q: v * h * (t + h - 1),
        level=lambda h, x, v, w, t, q: (x * t, 0, 0),
        closed=egf_no_double_step_counts,
        brute_cap=11,  # 7.3 s
    ),
    SubsetId.INVOLUTIONS: ClassSpec(
        (is_involution,), "xvwtq",
        down=lambda h, x, v, w, t, q: v * t * q ** (2 * h - 1) * _qbracket(q * q, h),
        level=lambda h, x, v, w, t, q: (x * t * q ** (2 * h), 0, 0),
        closed=egf_involution_counts,
        brute_cap=13,  # 4.5 s
    ),
    SubsetId.INVOLUTIONS321: ClassSpec(
        (is_involution, avoids_321), "xvwtq",
        down=lambda h, x, v, w, t, q: v * t * q ** (2 * h - 1),
        level=lambda h, x, v, w, t, q: (x * t if h == 0 else 0, 0, 0),
        closed=lambda n: [comb(k, k // 2) for k in range(n + 1)],
        brute_cap=20,  # 7.9 s
    ),
}


def is_member(values: Sequence[int], subset: SubsetId) -> bool:
    """Whether ``values`` lies in the class; ValueError unless it is a permutation."""
    values = _require_permutation(values)
    return all(p(values) for p in subset.spec.requires)

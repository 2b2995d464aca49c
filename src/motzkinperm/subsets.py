"""The permutation classes under study, one record per class.

Each class is a conjunction of base membership conditions together with the
step weights its members induce on colored Motzkin paths and, where one is
known, a closed form for its counts; :data:`CLASSES` holds one
:class:`ClassSpec` per :class:`SubsetId`, and adding a class means adding one
record there.  Each condition is defined once, as an exact rule on the
placements pi(i) = v made in order, so :func:`is_member`, the brute-force
walk and the forward pass over placement states ask the same rules and
nothing is re-checked at a leaf.  Noncrossing is such a conjunction too: an
upper bounce of the diagram is a double excedance and a down step a cyclic
peak, so its members are the unimodal noncrossing permutations with no
double excedance.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from math import comb
from typing import Callable, NamedTuple, Sequence

from ._kernels import Prefix
from .perms import _require_permutation
from .sequences import (
    bell_numbers,
    catalan_numbers,
    egf_involution_counts,
    egf_no_double_step_counts,
    egf_unimodal_cycle_counts,
    factorials,
    ogf_increasing_exc_def_counts,
)

# The largest size the walk may enumerate without a rule (the default walk
# cap, and that of the unpruned walks): 9! = 362,880 permutations.
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
    def _missing_(cls, name):
        """``SubsetId(x)`` takes a member or its name and refuses anything else."""
        raise ValueError(
            f"unknown subset {name!r}; choose from "
            + ", ".join(m.value for m in cls)
        )

    @property
    def spec(self) -> "ClassSpec":
        return CLASSES[self]


# -- membership rules ---------------------------------------------------------
#
# Each base condition is one rule ``(prefix, i, v)``: may pi(i) = v follow the
# prefix pi(1..i-1), seen through a :class:`motzkinperm._kernels.Prefix`?  A
# permutation of size n >= 1 satisfies the condition iff each of its n
# placements passes.  Each docstring says why a member passes every placement
# and where a non-member fails.


def is_cyclic(prefix, i, v):
    """One cycle: a cycle closes (v = head[i]) only where it completes pi(1..i)
    to a permutation of 1..i (``top`` is then i), and nothing follows a
    complete prefix (``top`` = i - 1 past the first position).  A single
    cycle's only close is its last placement.  With two or more, the first
    close leaves a gap or completes a prefix that the next placement extends.
    """
    if prefix.top == i - 1:
        return i == 1
    return v != prefix.head[i] or prefix.top == i


def avoids_321(prefix, i, v):
    """No pi(i) > pi(j) > pi(k) with i < j < k: below the running maximum only
    the smallest unused value may come, any other being the middle of such a
    triple; and a triple's middle falls below the maximum, its end unused."""
    return v > prefix.top or v == prefix.unused[0]


def has_increasing_excedance_values(prefix, i, v):
    """The values pi(i) > i increase: a new one tops the running maximum, which
    is an excedance value unless it is i - 1 < v; a later excedance value
    below an earlier one fails where it is placed."""
    return v <= i or v > prefix.top


def has_increasing_weak_excedance_values(prefix, i, v):
    """The values pi(i) >= i increase: likewise, and the running maximum of
    i - 1 values is always a weak excedance value."""
    return v < i or v > prefix.top


def has_increasing_deficiency_values(prefix, i, v):
    """The values pi(i) < i increase: each is the smallest unused value, as an
    unused u < v would later be a smaller one; and the first of two out of
    order sees the second unused below it."""
    return v >= i or v == prefix.unused[0]


def has_unimodal_cycles(prefix, i, v):
    """Every cycle, read from its minimum, rises and then falls: its only cyclic
    peak (pi^-1(i) < i > pi(i)) is its maximum, which closes it.  A peak below
    the maximum cannot close the cycle, and so fails."""
    h = prefix.head[i]
    return v >= i or h == i or v == h


def has_unimodal_noncrossing_cycles(prefix, i, v):
    """Every cycle rises and then falls, and the cycles' set partition is
    noncrossing.  The unimodal rule above keeps each open cycle one chain,
    its head below i and its tail at or above i, and noncrossing open chains
    nest like a stack: a later head, a smaller tail.  So pi(i) = v < i closes
    the chain that ends at i, or, where none does, puts i in front of the
    innermost chain, whose head is the largest unused value below i; and
    v > i passes no tail, no position t with i < t < v already some pi(j).
    A member keeps its open chains a stack, so it passes every placement;
    a placement that passes lays its arc between i and v inside every chain
    that encloses i, so no two cycles of a permutation that passes cross.
    """
    head = prefix.head
    if v < i:
        if head[i] != i:
            return v == head[i]
        unused = prefix.unused
        return v == unused[bisect_left(unused, i) - 1]
    for t in range(i + 1, v):
        if head[t] != t:
            return False
    return True


def has_no_nested_fixed_point(prefix, i, v):
    """No fixed point under an arc: a fixed point i is under none exactly when
    pi(1..i-1) is 1..i-1, that is, when i is the smallest unused value."""
    return v != i or v == prefix.unused[0]


def has_no_double_excedance(prefix, i, v):
    """No j < pi(j) < pi(pi(j)): one is finished exactly where i = pi(j) is
    already placed (head[i] != i) and pi(i) > i."""
    return v <= i or prefix.head[i] == i


def has_no_double_excedance_or_deficiency(prefix, i, v):
    """No j < pi(j) < pi(pi(j)) and no j > pi(j) > pi(pi(j)): a point i moved
    by pi is an excedance exactly when its preimage is not, and that preimage
    is an excedance exactly when it is placed before i (head[i] != i)."""
    return v == i or (v > i) == (prefix.head[i] == i)


def is_involution(prefix, i, v):
    """pi(pi(i)) = i: if i is already pi(j), pi(i) must be j = head[i];
    otherwise pi(i) < i would already have pi(pi(i)) != i.  Passing prefixes
    hold fixed points, 2-cycles and arcs j -> i that only pi(i) = j closes."""
    h = prefix.head[i]
    return v == h if h != i else v >= i


def _qbracket(q, h: int):
    """1 + q + ... + q^(h-1); zero when h is 0."""
    return sum((q**i for i in range(h)), 0)


class ClassSpec(NamedTuple):
    """One permutation class: membership, path step weights and closed form.

    ``requires`` is a conjunction of the membership rules above, and
    :attr:`prefix_ok` joins them; each rule reads only ``top``, ``head`` and
    ``unused`` of its view, so one forward pass tallies every class.
    ``brute_cap`` is the largest size the oracle tallies: where a pass with
    all five statistics took about 10 s, and none past ``cfrac.MAX_ORDER``
    (24), which a census compares with; beside it are the CPU time and peak
    memory of ``oracle.distributions`` there with every marker in ``marks``.
    ``walk_cap`` (9 without a rule) is the largest size ``oracle.members``
    lists, and beside it its CPU time there (pure Python 3.11.7 on a 2-core
    x86-64 virtual machine).
    ``marks`` holds the marker sets the class's schemes carry, the default
    first; a scheme carries any subset of one of them.  ``down(h, x, v, w, t,
    q)`` is the total weight of a down step falling from height h >= 1, and
    ``level(h, x, v, w, t, q)`` returns the level weights at height h split
    as (fixed, upper bounce, lower bounce); unmarked markers are passed as 1.
    Elevated classes count paths whose interior stays above height 0: the
    single-cycle classes, with no member of size 0.  ``closed(n)`` gives the
    counts for sizes 0..n, or None.
    """

    requires: tuple[Callable[..., bool], ...]
    marks: tuple[str, ...]
    down: Callable[..., object]
    level: Callable[..., tuple]
    elevated: bool = False
    closed: Callable[[int], list[int]] | None = None
    brute_cap: int = MAX_BRUTE_N
    walk_cap: int = MAX_BRUTE_N

    @property
    def prefix_ok(self) -> Callable[..., bool] | None:
        """The rules of ``requires`` as one rule; None when there are none."""
        tests = self.requires
        if len(tests) <= 1:
            return tests[0] if tests else None

        def all_pass(prefix, i, v):
            for test in tests:
                if not test(prefix, i, v):
                    return False
            return True

        return all_pass


CLASSES: dict[SubsetId, ClassSpec] = {
    # t and q are never marked together here: at q = 1 the D weight counts
    # cycles, at t = 1 it counts inversions.
    SubsetId.ALL: ClassSpec(
        (), ("xvwt", "xvwq"),
        down=lambda h, x, v, w, t, q: (
            v * q ** (2 * h - 1) * (b := _qbracket(q, h)) * (b + t - 1)
        ),
        level=lambda h, x, v, w, t, q: (
            x * t * q ** (2 * h),
            v * w * (lower := q**h * _qbracket(q, h)),
            lower,
        ),
        closed=factorials,
        brute_cap=14,  # 6.0 s, 94 MB
    ),
    SubsetId.CYCLIC: ClassSpec(
        (is_cyclic,), ("xvw",),
        down=lambda h, x, v, w, t, q: v if h == 1 else h * (h - 1) * v,
        level=lambda h, x, v, w, t, q: (x if h == 0 else 0, h * v * w, h),
        elevated=True,
        closed=lambda n: [0] + factorials(n - 1) if n else [0],
        brute_cap=14, walk_cap=10,  # 2.3 s, 47 MB; the walk 0.72 s
    ),
    SubsetId.AVOID321: ClassSpec(
        (avoids_321,), ("xvwq",),
        down=lambda h, x, v, w, t, q: v * q ** (2 * h - 1),
        level=lambda h, x, v, w, t, q: (
            (x, 0, 0) if h == 0 else (0, v * w * q**h, q**h)
        ),
        closed=catalan_numbers,
        brute_cap=18, walk_cap=13,  # 4.3 s, 120 MB; the walk 1.2 s
    ),
    SubsetId.UNIMODAL_NONCROSSING_NO_NESTED_FP: ClassSpec(
        (has_unimodal_noncrossing_cycles, has_no_nested_fixed_point),
        ("xvwtq",),
        down=lambda h, x, v, w, t, q: v * t * q ** (4 * h - 3),
        level=lambda h, x, v, w, t, q: (
            (x * t, 0, 0) if h == 0
            else (0, v * w * q ** (2 * h - 1), q ** (2 * h - 1))
        ),
        closed=catalan_numbers,
        brute_cap=21, walk_cap=11,  # 5.9 s, 118 MB; the walk 0.17 s
    ),
    SubsetId.NONCROSSING: ClassSpec(
        (has_no_double_excedance, has_unimodal_noncrossing_cycles), ("xvw",),
        down=lambda h, x, v, w, t, q: v,
        level=lambda h, x, v, w, t, q: (x, 0, 0 if h == 0 else 1),
        closed=catalan_numbers,
        brute_cap=23, walk_cap=11,  # 3.8 s, 49 MB; the walk 0.22 s
    ),
    SubsetId.INCREASING_EXC: ClassSpec(
        (has_increasing_excedance_values,), ("xvwt",),
        down=lambda h, x, v, w, t, q: v * (t + h - 1),
        level=lambda h, x, v, w, t, q: (x * t, 0 if h == 0 else v * w, h),
        brute_cap=16, walk_cap=10,  # 1.9 s, 38 MB; the walk 0.47 s
    ),
    SubsetId.INCREASING_WEAK_EXC: ClassSpec(
        (has_increasing_weak_excedance_values,), ("xvwt",),
        down=lambda h, x, v, w, t, q: v * (t + h - 1),
        level=lambda h, x, v, w, t, q: (x * t, 0, 0) if h == 0 else (0, v * w, h),
        closed=bell_numbers,
        brute_cap=16, walk_cap=11,  # 1.9 s, 38 MB; the walk 0.89 s
    ),
    SubsetId.CYCLIC_INCREASING_EXC: ClassSpec(
        (is_cyclic, has_increasing_excedance_values), ("xvw",),
        down=lambda h, x, v, w, t, q: v if h == 1 else (h - 1) * v,
        level=lambda h, x, v, w, t, q: (x, 0, 0) if h == 0 else (0, v * w, h),
        elevated=True,
        closed=lambda n: [0] + bell_numbers(n - 1) if n else [0],
        brute_cap=17, walk_cap=12,  # 3.7 s, 57 MB; the walk 2.2 s
    ),
    SubsetId.UNIMODAL_CYCLES: ClassSpec(
        (has_unimodal_cycles,), ("xvwt",),
        down=lambda h, x, v, w, t, q: h * v * t,
        level=lambda h, x, v, w, t, q: (x * t, h * v * w, h),
        closed=egf_unimodal_cycle_counts,
        brute_cap=14, walk_cap=10,  # 2.1 s, 49 MB; the walk 1.0 s
    ),
    SubsetId.UNIMODAL_CYCLES_INCREASING_EXC: ClassSpec(
        (has_unimodal_cycles, has_increasing_excedance_values), ("xvwt",),
        down=lambda h, x, v, w, t, q: v * t,
        level=lambda h, x, v, w, t, q: (x * t, 0 if h == 0 else v * w, h),
        brute_cap=17, walk_cap=11,  # 3.8 s, 60 MB; the walk 2.2 s
    ),
    SubsetId.INCREASING_EXC_AND_DEF: ClassSpec(
        (has_increasing_excedance_values, has_increasing_deficiency_values), ("xvwq",),
        down=lambda h, x, v, w, t, q: v * q ** (2 * h - 1),
        level=lambda h, x, v, w, t, q: (
            (x, 0, 0) if h == 0 else (x * q ** (2 * h), v * w * q**h, q**h)
        ),
        closed=ogf_increasing_exc_def_counts,
        brute_cap=18, walk_cap=11,  # 9.1 s, 227 MB; the walk 0.80 s
    ),
    SubsetId.UNIMODAL_NONCROSSING: ClassSpec(
        (has_unimodal_noncrossing_cycles,), ("xvwtq",),
        down=lambda h, x, v, w, t, q: v * t * q ** (4 * h - 3),
        level=lambda h, x, v, w, t, q: (
            (x * t, 0, 0) if h == 0
            else (x * t * q ** (2 * h), v * w * q ** (2 * h - 1), q ** (2 * h - 1))
        ),
        closed=ogf_increasing_exc_def_counts,
        brute_cap=20, walk_cap=10,  # 4.6 s, 105 MB; the walk 0.14 s
    ),
    SubsetId.NO_DOUBLE_EXC_OR_DEF: ClassSpec(
        (has_no_double_excedance_or_deficiency,), ("xvwt",),
        down=lambda h, x, v, w, t, q: v * h * (t + h - 1),
        level=lambda h, x, v, w, t, q: (x * t, 0, 0),
        closed=egf_no_double_step_counts,
        brute_cap=15, walk_cap=11,  # 8.0 s, 94 MB; the walk 1.2 s
    ),
    SubsetId.INVOLUTIONS: ClassSpec(
        (is_involution,), ("xvwtq",),
        down=lambda h, x, v, w, t, q: v * t * q ** (2 * h - 1) * _qbracket(q * q, h),
        level=lambda h, x, v, w, t, q: (x * t * q ** (2 * h), 0, 0),
        closed=egf_involution_counts,
        brute_cap=15, walk_cap=13,  # 3.2 s, 111 MB; the walk 2.3 s
    ),
    SubsetId.INVOLUTIONS321: ClassSpec(
        (is_involution, avoids_321), ("xvwtq",),
        down=lambda h, x, v, w, t, q: v * t * q ** (2 * h - 1),
        level=lambda h, x, v, w, t, q: (x * t if h == 0 else 0, 0, 0),
        closed=lambda n: [comb(k, k // 2) for k in range(n + 1)],
        brute_cap=24, walk_cap=20,  # 4.3 s, 75 MB (the order cap); the walk 2.7 s
    ),
}


def is_member(values: Sequence[int], subset: SubsetId | str) -> bool:
    """Whether ``values`` lies in the class, a :class:`SubsetId` or its name;
    ValueError unless it is a permutation and the class is known.

    Each value is put to the class's rules as the walk would place it.
    """
    values = _require_permutation(values)
    spec = SubsetId(subset).spec
    rule = spec.prefix_ok
    if rule is not None:
        prefix = Prefix(len(values))
        for i, v in enumerate(values, 1):
            if not rule(prefix, i, v):
                return False
            prefix.place(i, v)
    return bool(values) or not spec.elevated

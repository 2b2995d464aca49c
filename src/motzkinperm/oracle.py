"""Brute-force census over permutation classes.

Ground truth for everything the continued fractions claim: sum statistic
monomials over every class member directly, reading no path or continued
fraction.  Every class is tallied at every size up to n by one forward
dynamic program over placement states
(:func:`motzkinperm._kernels.state_tallies`) carrying only the markers
asked for; :func:`members` draws members one at a time from the prefix walk
(:func:`motzkinperm._kernels.prefix_walk`).  Both skip every placement the
class's exact rules refuse and so reach only members.  Cost still grows
fast with the size, so each class has a tally cap
(:attr:`motzkinperm.subsets.ClassSpec.brute_cap`, 14 for the whole group)
and a walk cap for :func:`members` (``walk_cap``, :data:`MAX_BRUTE_N` = 9
for the whole group).  The point is exact cross-checks, not scale.  A class
is given as a :class:`SubsetId` or its name.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator

from . import _kernels
from .perms import count_consecutive_123
from .polys import VARS, MultiPoly, check_marks
from .subsets import MAX_BRUTE_N, SubsetId


def distributions(
    n_max: int, subset: SubsetId | str = SubsetId.ALL, marks: Iterable[str] = VARS
) -> list[MultiPoly]:
    """Sum of statistic monomials over the class members of each size 0..n_max.

    The monomial of a permutation is x^fixed * v^exc * w^dexc * t^cyc * q^inv
    with unrequested markers evaluated at 1.  One pass tallies every size,
    carrying only the requested markers.
    """
    keep = check_marks(marks)
    spec = SubsetId(subset).spec
    _kernels.check_size(n_max, "brute-force size", spec.brute_cap)
    tallies = _kernels.state_tallies(n_max, spec.prefix_ok, keep)
    if spec.elevated:
        tallies[0] = {}
    return [MultiPoly(tally) for tally in tallies]


def distribution(
    n: int, subset: SubsetId | str = SubsetId.ALL, marks: Iterable[str] = VARS
) -> MultiPoly:
    """:func:`distributions` at size n alone."""
    return distributions(n, subset, marks)[n]


def count(n: int, subset: SubsetId | str) -> int:
    """Number of class members of size n, by enumeration."""
    return distribution(n, subset, "").value_at_ones()


def members(n: int, subset: SubsetId | str) -> Iterator[tuple[int, ...]]:
    """The class members of size n, in lexicographic order, one at a time.

    The size is checked at the call; the walk runs as the members are drawn.
    """
    spec = SubsetId(subset).spec
    _kernels.check_size(n, "n", spec.walk_cap)
    if spec.elevated and not n:
        return iter(())
    return (tuple(values[1:]) for values in _kernels.prefix_walk(n, spec.prefix_ok))


def sweep_counts(n: int) -> dict[SubsetId, int]:
    """Cardinality of every supported class at size n."""
    _kernels.check_size(n, "n", MAX_BRUTE_N)
    return {subset: count(n, subset) for subset in SubsetId}


def consecutive_123_distribution(n: int) -> MultiPoly:
    """Sum of w^(number of rising runs of length 3) over all permutations."""
    _kernels.check_size(n, "n", MAX_BRUTE_N)
    runs = (count_consecutive_123(values[1:]) for values in _kernels.prefix_walk(n))
    return MultiPoly(Counter((0, 0, r, 0, 0) for r in runs))

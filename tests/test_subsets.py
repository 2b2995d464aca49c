"""Membership rules for the catalogued permutation classes."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motzkinperm._kernels import Prefix, prefix_walk
from motzkinperm.census import census
from motzkinperm.oracle import count, distribution, distributions, members
from motzkinperm.perms import DiagonalType, classify_entries, cycle_list, inverse
from motzkinperm.schemes import scheme_for
from motzkinperm.sequences import closed_form_counts
from motzkinperm.subsets import (
    SubsetId,
    has_no_nested_fixed_point,
    has_unimodal_noncrossing_cycles,
    is_cyclic,
    is_member,
)

from conftest import all_perms
from reference import (
    cycles_rise_then_fall,
    diagram_noncrossing,
    in_class,
    one_pass,
    prefix_view,
    single_cycle,
)


def _every_prefix_passes(perm, test):
    """Replay ``perm`` through one rule, placing it as :func:`is_member` does."""
    prefix = Prefix(len(perm))
    for i, v in enumerate(perm, 1):
        if not test(prefix, i, v):
            return False
        prefix.place(i, v)
    return True


def test_subset_names_round_trip():
    for subset in SubsetId:
        assert SubsetId(subset.value) is subset
    with pytest.raises(ValueError):
        SubsetId("NoSuchClass")


CLASS_TAKERS = {
    "census": lambda s: census(s, 3),
    "distributions": lambda s: distributions(3, s),
    "distribution": lambda s: distribution(3, s),
    "count": lambda s: count(3, s),
    "members": lambda s: list(members(3, s)),
    "is_member": lambda s: is_member((1, 2), s),
    "closed_form_counts": lambda s: closed_form_counts(s, 3),
}


@pytest.mark.parametrize("call", CLASS_TAKERS.values(), ids=CLASS_TAKERS)
def test_every_class_taker_takes_a_member_or_its_name(call):
    for subset in SubsetId:
        assert call(subset.value) == call(subset)
    for bad in ("Nope", 3, None):
        with pytest.raises(ValueError, match="unknown subset"):
            call(bad)


def test_everything_is_in_the_full_class():
    for perm in all_perms(5):
        assert is_member(perm, SubsetId.ALL)


def test_noncrossing_cycles_against_arc_crossing_definition():
    for n in range(7):
        for perm in all_perms(n):
            blocks = [set(c) for c in cycle_list(perm)]
            crossing = False
            for a in range(len(blocks)):
                for b in range(len(blocks)):
                    if a == b:
                        continue
                    # i < j < k < l with {i, k} in one block, {j, l} in another
                    for i in blocks[a]:
                        for k in blocks[a]:
                            if i >= k:
                                continue
                            if any(i < j < k for j in blocks[b]) and any(
                                l > k for l in blocks[b]
                            ):
                                crossing = True
            expect = cycles_rise_then_fall(perm) and not crossing
            assert _every_prefix_passes(perm, has_unimodal_noncrossing_cycles) == expect


def test_unimodal_cycles_small_cases():
    assert is_member((2, 3, 4, 1), SubsetId.UNIMODAL_CYCLES)  # cycle 1 2 3 4: rises only
    assert is_member((4, 1, 2, 3), SubsetId.UNIMODAL_CYCLES)  # cycle 1 4 3 2: rises then falls
    assert not is_member((4, 3, 1, 2), SubsetId.UNIMODAL_CYCLES)  # 1 4 2 3 dips then rises
    assert is_member((), SubsetId.UNIMODAL_CYCLES)


def test_noncrossing_class_is_noncrossing_decreasing_cycles():
    for n in range(7):
        for perm in all_perms(n):
            decreasing = True
            for cyc in cycle_list(perm):
                s = sorted(cyc)
                if perm[s[0] - 1] != s[-1]:
                    decreasing = False
                if any(perm[s[i] - 1] != s[i - 1] for i in range(1, len(s))):
                    decreasing = False
            expect = decreasing and _every_prefix_passes(perm, has_unimodal_noncrossing_cycles)
            assert is_member(perm, SubsetId.NONCROSSING) == expect


def test_one_pass_predicates_match_the_diagram_and_cycle_walks():
    for n in range(8):
        for perm in all_perms(n):
            assert is_member(perm, SubsetId.NONCROSSING) == diagram_noncrossing(perm)
            assert is_member(perm, SubsetId.UNIMODAL_CYCLES) == cycles_rise_then_fall(perm)
            assert is_member(perm, SubsetId.CYCLIC) == (len(cycle_list(perm)) == 1)


def test_noncrossing_census_is_the_unimodal_noncrossing_census_at_w_zero():
    for n in range(8):
        assert distribution(n, SubsetId.NONCROSSING, "xv") == distribution(
            n, SubsetId.UNIMODAL_NONCROSSING, "xvw"
        ).substitute(w=0)
    noncrossing = scheme_for(SubsetId.NONCROSSING, "xv").series(12)
    unimodal = scheme_for(SubsetId.UNIMODAL_NONCROSSING, "xvw").series(12)
    assert noncrossing == tuple(c.substitute(w=0) for c in unimodal)


def test_nested_fixed_point_detection():
    assert not _every_prefix_passes((3, 2, 1), has_no_nested_fixed_point)  # 1 -> 3 over 2
    assert _every_prefix_passes((1, 2, 3), has_no_nested_fixed_point)
    assert _every_prefix_passes((2, 1, 3), has_no_nested_fixed_point)  # outside the arc


def test_no_double_excedance_or_deficiency_against_definition():
    for n in range(7):
        for perm in all_perms(n):
            inv = inverse(perm)
            bad = any(
                i < perm[i - 1] and inv[i - 1] < i or i > perm[i - 1] and inv[i - 1] > i
                for i in range(1, n + 1)
            )
            # a double step in either direction is exactly a bounce entry
            types = {t for t, _ in classify_entries(perm)}
            assert bad == bool(
                types & {DiagonalType.UPPER_BOUNCE, DiagonalType.LOWER_BOUNCE}
            )
            assert is_member(perm, SubsetId.NO_DOUBLE_EXC_OR_DEF) == (not bad)


def test_double_excedance_chain_definition_matches():
    # i < pi(i) < pi(pi(i)) at i=1 for 2 3 1; no such chain in 2 1 4 3
    assert not is_member((2, 3, 1), SubsetId.NO_DOUBLE_EXC_OR_DEF)
    assert is_member((2, 1, 4, 3), SubsetId.NO_DOUBLE_EXC_OR_DEF)


def test_increasing_excedance_values():
    assert is_member((2, 3, 1), SubsetId.INCREASING_EXC)  # excedance values 2, 3
    assert not is_member((4, 3, 5, 1, 2), SubsetId.INCREASING_EXC)
    assert is_member((1, 2, 3), SubsetId.INCREASING_EXC)  # vacuous


def test_involution_class_membership():
    for perm in all_perms(6):
        expected = all(perm[v - 1] == i for i, v in enumerate(perm, 1))
        assert is_member(perm, SubsetId.INVOLUTIONS) == expected
        assert is_member(perm, SubsetId.INVOLUTIONS321) == (
            expected and is_member(perm, SubsetId.AVOID321)
        )


def test_intersection_classes_are_intersections():
    pairs = [
        (SubsetId.CYCLIC_INCREASING_EXC, (SubsetId.CYCLIC, SubsetId.INCREASING_EXC)),
        (
            SubsetId.UNIMODAL_CYCLES_INCREASING_EXC,
            (SubsetId.UNIMODAL_CYCLES, SubsetId.INCREASING_EXC),
        ),
    ]
    for n in range(7):
        for perm in all_perms(n):
            for combined, parts in pairs:
                assert is_member(perm, combined) == all(
                    is_member(perm, p) for p in parts
                )


def test_membership_of_a_list_mutated_in_place_is_fresh():
    values = [1, 2, 3, 4]
    assert not is_member(values, SubsetId.CYCLIC)
    assert is_member(values, SubsetId.UNIMODAL_NONCROSSING)
    values[:] = [2, 3, 4, 1]
    assert is_member(values, SubsetId.CYCLIC)
    values[:] = [3, 4, 1, 2]
    assert not is_member(values, SubsetId.CYCLIC)
    assert is_member(values, SubsetId.UNIMODAL_CYCLES)
    assert not _every_prefix_passes(values, has_unimodal_noncrossing_cycles)
    assert not is_member(values, SubsetId.UNIMODAL_NONCROSSING)
    values[:] = [2, 1, 4, 3]
    assert is_member(values, SubsetId.UNIMODAL_NONCROSSING)


@pytest.mark.parametrize(
    "values, subset",
    [
        ((0, 1), SubsetId.CYCLIC),
        ((2, 2), SubsetId.ALL),
        ((2, 2), SubsetId.AVOID321),
        ((3,), SubsetId.NONCROSSING),
    ],
)
def test_membership_refuses_what_is_not_a_permutation(values, subset):
    with pytest.raises(ValueError, match="not a rearrangement"):
        is_member(values, subset)


# -- prefix rules ------------------------------------------------------------

# Small members of every class, by the one-pass references, to splice into
# larger ones.
_SMALL = {
    subset: [perm for n in range(1, 7) for perm in all_perms(n) if in_class(perm, subset)]
    for subset in SubsetId
}
# Every class but the two cyclic ones is closed under the direct sum a + b
# (b shifted above a): its members' excedances, cycles and patterns stay apart.
_SUMMABLE = [s for s in SubsetId if s.spec.requires and is_cyclic not in s.spec.requires]
# Each base rule once.
_RULES = list({rule: None for s in SubsetId for rule in s.spec.requires})


def _direct_sum(blocks):
    out: list[int] = []
    for block in blocks:
        shift = len(out)
        out.extend(v + shift for v in block)
    return tuple(out)


@st.composite
def _large_members(draw):
    """A member of size up to 14 of a class with rules, and the class."""
    subset = draw(st.sampled_from([s for s in SubsetId if s.spec.requires]))
    if subset in _SUMMABLE:
        blocks = draw(st.lists(st.sampled_from(_SMALL[subset]), max_size=5))
        while sum(map(len, blocks)) > 14:
            blocks.pop()
        perm = _direct_sum(blocks)
    else:
        n = draw(st.integers(1, 14))
        perm = single_cycle(draw(st.permutations(range(2, n + 1))))
    return perm, subset


@st.composite
def _near_members(draw):
    """A permutation of size up to about 40 near some class: a direct sum of
    small members of the class with zero to two pairs of entries swapped."""
    subset = draw(st.sampled_from([s for s in SubsetId if s.spec.requires]))
    blocks = draw(st.lists(st.sampled_from(_SMALL[subset]), min_size=1, max_size=12))
    while len(blocks) > 1 and sum(map(len, blocks)) > 40:
        blocks.pop()
    perm = list(_direct_sum(blocks))
    for _ in range(draw(st.integers(0, 2))):
        a = draw(st.integers(0, len(perm) - 1))
        b = draw(st.integers(0, len(perm) - 1))
        perm[a], perm[b] = perm[b], perm[a]
    return tuple(perm), subset


@settings(deadline=None, max_examples=300)
@given(_large_members())
def test_prefix_tests_pass_every_prefix_of_a_member(drawn):
    perm, subset = drawn
    if subset not in _SUMMABLE and not in_class(perm, subset):
        return  # a single cycle outside CyclicIncreasingExc
    assert in_class(perm, subset), (perm, subset)
    assert _every_prefix_passes(perm, subset.spec.prefix_ok), (perm, subset)
    for rule in subset.spec.requires:
        assert _every_prefix_passes(perm, rule), (perm, rule)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 14).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_prefix_tests_pass_every_prefix_of_a_random_permutation_they_accept(perm):
    perm = tuple(perm)
    for rule in _RULES:
        if one_pass(rule)(perm):
            assert _every_prefix_passes(perm, rule), (perm, rule)


@settings(deadline=None, max_examples=400)
@given(_near_members())
def test_every_rule_is_exact_on_near_members(drawn):
    # exact: the replay accepts a permutation iff the one-pass reference does
    perm, subset = drawn
    for rule in _RULES:
        assert _every_prefix_passes(perm, rule) == one_pass(rule)(perm), (perm, rule)
    assert is_member(perm, subset) == in_class(perm, subset), (perm, subset)


def test_every_rule_is_exact_up_to_size_seven():
    for n in range(1, 8):
        for perm in all_perms(n):
            for rule in _RULES:
                assert _every_prefix_passes(perm, rule) == one_pass(rule)(perm), (perm, rule)


def test_place_joins_the_chains_as_prefix_view_does():
    for perm in all_perms(6):
        prefix = Prefix(6)
        for i, v in enumerate(perm, 1):
            prefix.place(i, v)
            expect = prefix_view(perm[:i], 6)
            assert prefix.values == expect.values
            # the smallest unused value and the largest up to i
            below = [u for u in expect.unused if u <= i]
            assert prefix.unused == sorted({*expect.unused[:1], *below[-1:]})
            assert prefix.top == expect.top
            assert (prefix.head, prefix.tail) == (expect.head, expect.tail)


def test_the_walk_shows_its_prefix_tests_what_prefix_view_builds():
    n = 6
    seen = []

    def record(prefix, i, v):
        expect = prefix_view(prefix.values[1:i], n)
        assert prefix.values[:i] == expect.values[:i]
        assert prefix.unused == expect.unused
        assert prefix.top == expect.top
        assert (prefix.head, prefix.tail) == (expect.head, expect.tail)
        seen.append(i)
        return True

    for _ in prefix_walk(n, record):
        pass
    assert len(seen) == sum(math.perm(n, k) for k in range(1, n + 1))

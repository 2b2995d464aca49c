"""Membership predicates for the catalogued permutation classes."""

from __future__ import annotations

import pytest

from motzkinperm.perms import DiagonalType, classify_entries, cycle_list, inverse
from motzkinperm.subsets import (
    SubsetId,
    avoids_321,
    has_increasing_excedance_values,
    has_no_double_excedance_or_deficiency,
    has_no_nested_fixed_point,
    has_noncrossing_cycles,
    has_unimodal_cycles,
    is_involution,
    is_member,
    is_noncrossing,
)

from conftest import all_perms


def test_subset_names_round_trip():
    for subset in SubsetId:
        assert SubsetId.from_name(subset.value) is subset
    with pytest.raises(ValueError):
        SubsetId.from_name("NoSuchClass")


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
            assert has_noncrossing_cycles(perm) == (not crossing)


def test_unimodal_cycles_small_cases():
    assert has_unimodal_cycles((2, 3, 4, 1))  # cycle 1 2 3 4: rises only
    assert has_unimodal_cycles((4, 1, 2, 3))  # cycle 1 4 3 2: rises then falls
    assert not has_unimodal_cycles((4, 3, 1, 2))  # cycle 1 4 2 3 dips then rises
    assert has_unimodal_cycles(())


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
            expect = decreasing and has_noncrossing_cycles(perm)
            assert is_noncrossing(perm) == expect


def test_nested_fixed_point_detection():
    assert not has_no_nested_fixed_point((3, 2, 1))  # arc 1 -> 3 straddles fixed 2
    assert has_no_nested_fixed_point((1, 2, 3))
    assert has_no_nested_fixed_point((2, 1, 3))  # fixed point outside the arc


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
            assert has_no_double_excedance_or_deficiency(perm) == (not bad)


def test_double_excedance_chain_definition_matches():
    # i < pi(i) < pi(pi(i)) at i=1 for 2 3 1; no such chain in 2 1 4 3
    assert not has_no_double_excedance_or_deficiency((2, 3, 1))
    assert has_no_double_excedance_or_deficiency((2, 1, 4, 3))


def test_increasing_excedance_values():
    assert has_increasing_excedance_values((2, 3, 1))  # excedance values 2, 3
    assert not has_increasing_excedance_values((4, 3, 5, 1, 2))
    assert has_increasing_excedance_values((1, 2, 3))  # vacuous


def test_involution_class_membership():
    for perm in all_perms(6):
        expected = all(perm[v - 1] == i for i, v in enumerate(perm, 1))
        assert is_involution(perm) == expected
        assert is_member(perm, SubsetId.INVOLUTIONS321) == (
            expected and avoids_321(perm)
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
    assert has_unimodal_cycles(values)
    assert not has_noncrossing_cycles(values)
    assert not is_member(values, SubsetId.UNIMODAL_NONCROSSING)
    values[:] = [2, 1, 4, 3]
    assert is_member(values, SubsetId.UNIMODAL_NONCROSSING)

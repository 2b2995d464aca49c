"""Permutation primitives: classification, rays, statistics, transforms."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motzkinperm.bell import cycle_to_partition, cycle_to_path, weak_exc_partition
from motzkinperm.paths import perm_to_path
from motzkinperm.perms import (
    DiagonalType,
    Permutation,
    StatVector,
    _DiagramState,
    classify_entries,
    count_consecutive_123,
    cycle_list,
    foata,
    inverse,
    random_permutation,
    stats,
)
from motzkinperm.oracle import members
from motzkinperm.subsets import SubsetId, is_member

from conftest import all_perms
from reference import (
    ascent_count,
    avoids_classical,
    contains_classical,
    cyclic_permutations,
    diagram_replay,
    left_to_right_minima,
)


def test_inverse_involutive_and_correct():
    for n in range(7):
        for perm in all_perms(n):
            inv = inverse(perm)
            assert inverse(inv) == perm
            for i, v in enumerate(perm, 1):
                assert inv[v - 1] == i


def test_cycle_list_partitions_and_follows_images():
    for perm in all_perms(6):
        cycles = cycle_list(perm)
        seen = sorted(v for cyc in cycles for v in cyc)
        assert seen == list(range(1, 7))
        for cyc in cycles:
            assert cyc[0] == min(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                assert perm[a - 1] == b


def test_classification_letters_against_direct_inequalities():
    for n in range(7):
        for perm in all_perms(n):
            inv = inverse(perm)
            for i, (typ, _) in enumerate(classify_entries(perm), 1):
                v, iv = perm[i - 1], inv[i - 1]
                if typ is DiagonalType.FIXED:
                    assert v == i
                elif typ is DiagonalType.OPEN:
                    assert v > i and iv > i
                elif typ is DiagonalType.CLOSE:
                    assert v < i and iv < i
                elif typ is DiagonalType.UPPER_BOUNCE:
                    assert v > i and iv < i
                else:
                    assert v < i and iv > i


def test_classification_heights_track_the_walk():
    for perm in all_perms(6):
        h = 0
        for typ, height in classify_entries(perm):
            if typ is DiagonalType.OPEN:
                h += 1
                assert height == h
            elif typ is DiagonalType.CLOSE:
                assert height == h
                h -= 1
            else:
                assert height == h
            assert h >= 0
        assert h == 0


def test_type_counts_recover_the_statistics():
    for n in range(7):
        for perm in all_perms(n):
            types = [t for t, _ in classify_entries(perm)]
            s = stats(perm)
            n_fixed = types.count(DiagonalType.FIXED)
            n_open = types.count(DiagonalType.OPEN)
            n_close = types.count(DiagonalType.CLOSE)
            n_upper = types.count(DiagonalType.UPPER_BOUNCE)
            assert n_open == n_close
            assert n_fixed == s.fixed_points
            assert n_open + n_upper == s.excedances
            assert n_upper == s.double_excedances


def test_ray_choices_bounds_and_cycle_count():
    for n in range(7):
        for perm in all_perms(n):
            completing = 0
            for typ, height, j, k, cycle_k in diagram_replay(perm):
                if typ in (DiagonalType.FIXED, DiagonalType.OPEN):
                    assert j == k == 0
                elif typ is DiagonalType.UPPER_BOUNCE:
                    assert k == 0 and 1 <= j <= height
                elif typ is DiagonalType.LOWER_BOUNCE:
                    assert j == 0 and 1 <= k <= height
                else:
                    assert 1 <= j <= height
                    assert 1 <= k <= height
                    assert 1 <= cycle_k <= height
                    completing += k == cycle_k
            s = stats(perm)
            assert completing + s.fixed_points == s.cycles


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 300).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_bisected_ranks_match_list_index_and_the_path_follows_the_classification(values):
    values = tuple(values)
    entries = classify_entries(values)
    assert [step[:2] for step in perm_to_path(values).steps] == [(t.letter, h) for t, h in entries]
    inv = inverse(values)
    state = _DiagramState()
    for i, (typ, _) in enumerate(entries, start=1):
        verticals, horizontals = state.verticals, state.horizontals
        for j, col in enumerate(verticals, start=1):
            assert state.rank_v(col) == verticals.index(col) + 1 == j
            assert state.cycle_k(j) == horizontals.index(state.match_v[col]) + 1
        for row in horizontals:
            assert state.rank_h(row) == horizontals.index(row) + 1
        j = verticals.index(inv[i - 1]) + 1 if inv[i - 1] < i else 0
        k = horizontals.index(values[i - 1]) + 1 if values[i - 1] < i else 0
        state.step(typ.letter, j, k, i)
    assert state.verticals == state.horizontals == []


def test_stat_vector_exponent_order():
    s = StatVector(1, 2, 3, 4, 5)
    assert s.monomial_exponents() == (1, 2, 3, 4, 5)


def test_stats_on_known_permutation():
    perm = Permutation.parse("5 7 2 4 3 8 1 6 9 12 10 11")
    assert perm.stats() == StatVector(2, 4, 0, 5, 17)
    assert perm.diagonal().word == "UULLDUDDLULD"


@pytest.mark.parametrize("values", [(1, 1), (0, 1), (100, 1), (2,)])
def test_stats_rejects_a_non_permutation(values):
    with pytest.raises(ValueError, match="not a rearrangement"):
        stats(values)


@pytest.mark.parametrize(
    "entry_point, values",
    [
        (perm_to_path, (3, 1)),
        (perm_to_path, (2, 2)),
        (foata, (2, 2)),
        (weak_exc_partition, (1, 1)),
        (cycle_to_path, (2, 2)),
    ],
)
def test_entry_points_reject_a_non_permutation(entry_point, values):
    with pytest.raises(ValueError, match="not a rearrangement"):
        entry_point(values)


@pytest.mark.parametrize("values", [(1.0,), (True,), (2, 1.0), (True, 2), (1.0, 2.0)], ids=repr)
@pytest.mark.parametrize(
    "entry_point",
    [
        Permutation,
        stats,
        foata,
        lambda values: is_member(values, SubsetId.ALL),
        perm_to_path,
        cycle_to_path,
        cycle_to_partition,
        weak_exc_partition,
    ],
    ids=["Permutation", "stats", "foata", "is_member", "perm_to_path", "cycle_to_path",
         "cycle_to_partition", "weak_exc_partition"],
)
def test_entry_points_refuse_an_entry_that_is_not_an_int(entry_point, values):
    with pytest.raises(ValueError, match="must be ints"):
        entry_point(values)


def test_foata_is_a_bijection_preserving_the_transported_statistics():
    for n in range(8):
        images = set()
        for perm in all_perms(min(n, 7)):
            hat = foata(perm)
            images.add(hat)
            s = stats(perm)
            assert ascent_count(hat) == s.excedances
            assert left_to_right_minima(hat) == s.cycles
            assert count_consecutive_123(hat) == s.double_excedances
        assert len(images) == math.factorial(min(n, 7))


def test_foata_on_a_worked_example():
    # cycles of 3 1 2 5 4: (1 3 2) and (4 5); decreasing minima puts (4 5) first
    assert foata((3, 1, 2, 5, 4)) == (4, 5, 1, 3, 2)


def test_consecutive_123_counts_rising_runs():
    assert count_consecutive_123((1, 2, 3, 4)) == 2
    assert count_consecutive_123((2, 1, 3, 4)) == 1
    assert count_consecutive_123((3, 2, 1)) == 0
    assert count_consecutive_123(()) == 0


def test_pattern_containment_small_cases():
    assert contains_classical((3, 2, 1), (2, 1))
    assert not contains_classical((1, 2, 3), (2, 1))
    assert avoids_classical((2, 4, 1, 3), (3, 2, 1))
    assert not avoids_classical((3, 5, 1, 4, 2), (3, 2, 1))


def test_fast_321_avoidance_matches_the_classical_test():
    for n in range(8):
        for perm in all_perms(n):
            assert is_member(perm, SubsetId.AVOID321) == avoids_classical(perm, (3, 2, 1))


def test_random_permutation_is_uniformly_supported(rng):
    seen = {random_permutation(3, rng) for _ in range(300)}
    assert len(seen) == 6
    assert random_permutation(0, rng) == ()


def test_cyclic_permutations_enumerates_single_cycles():
    # the pruned walk of the Cyclic class against the cycle orders after 1
    for n in range(1, 8):
        perms = list(members(n, SubsetId.CYCLIC))
        assert len(perms) == math.factorial(n - 1)
        assert perms == sorted(cyclic_permutations(n))
        for perm in perms:
            assert len(cycle_list(perm)) == 1


def test_permutation_class_round_trips():
    p = Permutation.parse("3,1,2")
    assert p.to_text() == "3 1 2"
    assert p(1) == 3 and p(3) == 2
    assert p.inverse().values == (2, 3, 1)


@pytest.mark.parametrize("i", [0, -1, 4, True, 1.0, "1"], ids=repr)
def test_permutation_call_refuses_a_point_outside_1_to_n(i):
    with pytest.raises(ValueError, match="not a point of 1..3"):
        Permutation((3, 1, 2))(i)


def test_permutation_rejects_bad_input():
    with pytest.raises(ValueError):
        Permutation.parse("1 1")
    with pytest.raises(ValueError):
        Permutation.parse("0 1")
    with pytest.raises(ValueError):
        Permutation.parse("one two")
    with pytest.raises(ValueError):
        Permutation((2, 3))

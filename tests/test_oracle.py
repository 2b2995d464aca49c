"""Brute-force enumeration oracles."""

from __future__ import annotations

import itertools
import math

import pytest

import motzkinperm._kernels
from motzkinperm import perms, subsets
from motzkinperm.bell import set_partitions
from motzkinperm.oracle import (
    MAX_BRUTE_N,
    consecutive_123_distribution,
    count,
    distribution,
    members,
    sweep_counts,
)
from motzkinperm.perms import count_consecutive_123, stats
from motzkinperm.polys import MultiPoly
from motzkinperm.subsets import SubsetId, is_member

from conftest import all_perms
from reference import variables_used


def test_distribution_matches_a_direct_tally():
    for n in range(6):
        expected = MultiPoly.zero()
        for perm in all_perms(n):
            expected = expected + MultiPoly.monomial(stats(perm).monomial_exponents())
        assert distribution(n, SubsetId.ALL, "xvwtq") == expected


def test_distribution_masks_unrequested_markers():
    for n in range(6):
        full = distribution(n, SubsetId.ALL, "xvwtq")
        assert distribution(n, SubsetId.ALL, "xv") == full.substitute(w=1, t=1, q=1)
        assert distribution(n, SubsetId.ALL, "") == full.substitute(
            x=1, v=1, w=1, t=1, q=1
        )


def test_distribution_restricted_to_a_subset():
    for n in range(6):
        expected = MultiPoly.zero()
        for perm in all_perms(n):
            if is_member(perm, SubsetId.INVOLUTIONS):
                expected = expected + MultiPoly.monomial(stats(perm).monomial_exponents())
        assert distribution(n, SubsetId.INVOLUTIONS, "xvwtq") == expected


def test_size_cap_is_enforced(monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(motzkinperm._kernels, "prefix_walk", enumerate_nothing)
    assert SubsetId.ALL.spec.brute_cap == MAX_BRUTE_N
    for subset in SubsetId:
        cap = subset.spec.brute_cap
        assert cap >= MAX_BRUTE_N
        assert (cap > MAX_BRUTE_N) <= (subset.spec.prefix_ok is not None)
        for call in (distribution, lambda n, s: list(members(n, s)), count):
            with pytest.raises(ValueError, match="the cap is"):
                call(cap + 1, subset)
            with pytest.raises(ValueError):
                call(-1, subset)
    with pytest.raises(ValueError, match="the cap is"):
        sweep_counts(MAX_BRUTE_N + 1)
    with pytest.raises(ValueError, match="the cap is"):
        consecutive_123_distribution(MAX_BRUTE_N + 1)


def test_pruned_walk_yields_what_the_unpruned_filter_yields():
    # each predicate runs once per permutation; every class keeps what passes all of its own
    predicates = list({p: None for s in SubsetId for p in s.spec.requires})
    classes_holding = {}
    for n in range(9):
        kept = {subset: [] for subset in SubsetId}
        for perm in itertools.permutations(range(1, n + 1)):
            holds = frozenset(p for p in predicates if p(perm))
            if holds not in classes_holding:
                classes_holding[holds] = [s for s in SubsetId if holds.issuperset(s.spec.requires)]
            for subset in classes_holding[holds]:
                kept[subset].append(perm)
        counts = sweep_counts(n)
        for subset in SubsetId:
            assert list(members(n, subset)) == kept[subset], (subset, n)
            assert counts[subset] == count(n, subset) == len(kept[subset]), (subset, n)


def test_sweep_counts_matches_membership_filters():
    for n in range(6):
        counts = sweep_counts(n)
        for subset in SubsetId:
            direct = sum(1 for p in all_perms(n) if is_member(p, subset))
            assert counts[subset] == direct


def test_sweep_decomposes_each_permutation_into_cycles_at_most_once(monkeypatch):
    want = sweep_counts(5)
    calls = []

    def counting_cycle_list(values):
        calls.append(tuple(values))
        return perms.cycle_list(values)

    monkeypatch.setattr(subsets, "cycle_list", counting_cycle_list)
    assert sweep_counts(5) == want
    assert 0 < len(calls) <= math.factorial(5)
    assert len(set(calls)) == len(calls)


def test_members_decomposes_each_permutation_into_cycles_at_most_once(monkeypatch):
    # UnimodalNoncrossing requires two cycle predicates; they share one decomposition
    want = list(members(6, SubsetId.UNIMODAL_NONCROSSING))
    calls = []

    def counting_cycle_list(values):
        calls.append(values)
        return perms.cycle_list(values)

    monkeypatch.setattr(subsets, "cycle_list", counting_cycle_list)
    assert list(members(6, SubsetId.UNIMODAL_NONCROSSING)) == want
    assert 0 < len(calls) <= math.factorial(6)


def test_members_yields_exactly_the_subset():
    for n in range(6):
        got = list(members(n, SubsetId.AVOID321))
        assert got == [p for p in all_perms(n) if is_member(p, SubsetId.AVOID321)]


def test_consecutive_123_distribution_uses_only_w():
    for n in range(6):
        poly = consecutive_123_distribution(n)
        assert variables_used(poly) <= {"w"}
        assert poly.value_at_ones() == math.factorial(n)
        direct = MultiPoly.zero()
        w = MultiPoly.var("w")
        for perm in all_perms(n):
            direct = direct + w ** count_consecutive_123(perm)
        assert poly == direct


def test_set_partitions_are_canonical_and_complete():
    for n in range(7):
        seen = set()
        for blocks in set_partitions(n):
            assert blocks == tuple(
                tuple(sorted(b)) for b in sorted(blocks, key=lambda b: min(b))
            )
            covered = sorted(v for b in blocks for v in b)
            assert covered == list(range(1, n + 1))
            seen.add(blocks)
        bell = [1, 1, 2, 5, 15, 52, 203]
        assert len(seen) == bell[n]

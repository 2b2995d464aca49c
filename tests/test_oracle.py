"""Brute-force enumeration oracles."""

from __future__ import annotations

import itertools
import math
import sys

import pytest

import motzkinperm._kernels
from motzkinperm import perms
from motzkinperm.bell import set_partitions
from motzkinperm.cfrac import MAX_ORDER
from motzkinperm.oracle import (
    MAX_BRUTE_N,
    consecutive_123_distribution,
    count,
    distribution,
    distributions,
    members,
    sweep_counts,
)
from motzkinperm.perms import count_consecutive_123, cycle_list, stats
from motzkinperm.polys import MultiPoly
from motzkinperm.subsets import SubsetId, is_member

from conftest import all_perms
from reference import one_pass, variables_used


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
    monkeypatch.setattr(motzkinperm._kernels, "state_tallies", enumerate_nothing)
    assert SubsetId.ALL.spec.walk_cap == MAX_BRUTE_N
    for subset in SubsetId:
        cap = subset.spec.brute_cap
        assert MAX_ORDER >= cap >= subset.spec.walk_cap >= MAX_BRUTE_N
        assert (subset.spec.walk_cap > MAX_BRUTE_N) <= (subset.spec.prefix_ok is not None)
        with pytest.raises(ValueError, match="the cap is"):
            list(members(subset.spec.walk_cap + 1, subset))
        for call in (distribution, distributions, lambda n, s: list(members(n, s)), count):
            with pytest.raises(ValueError, match="the cap is"):
                call(cap + 1, subset)
            with pytest.raises(ValueError):
                call(-1, subset)
            for size in (2.5, "3", None, True):
                with pytest.raises(ValueError, match="must be an int"):
                    call(size, subset)
    for call in (sweep_counts, consecutive_123_distribution):
        with pytest.raises(ValueError, match="the cap is"):
            call(MAX_BRUTE_N + 1)
        for size in (-1, 2.5, "3", None, True):
            with pytest.raises(ValueError):
                call(size)


def test_pruned_walk_yields_what_the_unpruned_filter_yields():
    # each reference runs once per permutation; every class keeps what passes all of its own
    rules = list({rule: None for s in SubsetId for rule in s.spec.requires})
    classes_holding = {}
    for n in range(9):
        kept = {subset: [] for subset in SubsetId}
        for perm in itertools.permutations(range(1, n + 1)):
            holds = frozenset(rule for rule in rules if one_pass(rule)(perm))
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


def _record_cycle_lists(monkeypatch):
    """Count the calls of ``cycle_list`` under every name the package gives it."""
    calls = []

    def counting_cycle_list(values):
        calls.append(tuple(values))
        return cycle_list(values)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "motzkinperm" and getattr(module, "cycle_list", None) is cycle_list:
            monkeypatch.setattr(module, "cycle_list", counting_cycle_list)
    return calls


def test_sweep_decomposes_each_permutation_into_cycles_at_most_once(monkeypatch):
    # the rules follow chains of placed entries, so no cycle decomposition runs at all
    want = sweep_counts(5)
    calls = _record_cycle_lists(monkeypatch)
    assert sweep_counts(5) == want
    assert calls == []


def test_members_decomposes_each_permutation_into_cycles_at_most_once(monkeypatch):
    # UnimodalNoncrossing has two cycle rules; neither decomposes into cycles
    want = list(members(6, SubsetId.UNIMODAL_NONCROSSING))
    calls = _record_cycle_lists(monkeypatch)
    assert list(members(6, SubsetId.UNIMODAL_NONCROSSING)) == want
    assert is_member((2, 1, 4, 3), SubsetId.UNIMODAL_NONCROSSING)
    assert calls == []
    perms.cycle_list((2, 1))  # the recorder itself sees a call
    assert calls == [(2, 1)]


def test_members_yields_exactly_the_subset():
    for n in range(6):
        got = list(members(n, SubsetId.AVOID321))
        assert got == [p for p in all_perms(n) if is_member(p, SubsetId.AVOID321)]


def test_members_yields_each_member_as_the_walk_reaches_it(monkeypatch):
    def walk_then_fail(n, prefix_ok=None):
        yield [0, 2, 1, 3]
        raise AssertionError("the walk ran past the first member")

    monkeypatch.setattr(motzkinperm._kernels, "prefix_walk", walk_then_fail)
    assert next(members(3, SubsetId.ALL)) == (2, 1, 3)


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

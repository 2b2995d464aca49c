"""Brute-force enumeration oracles and their fan-out controls."""

from __future__ import annotations

import math

import pytest

from motzkinperm import perms, subsets
from motzkinperm.bell import set_partitions
from motzkinperm.oracle import (
    MAX_BRUTE_N,
    consecutive_123_distribution,
    distribution,
    distribution_series,
    members,
    sweep_counts,
    worker_count,
)
from motzkinperm.perms import count_consecutive_123, stats
from motzkinperm.polys import MultiPoly
from motzkinperm.subsets import SubsetId, is_member

from conftest import all_perms


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


def test_distribution_series_wraps_per_size_polynomials():
    series = distribution_series(4, SubsetId.ALL, "xvwt")
    assert len(series) == 5
    for n in range(5):
        assert series[n] == distribution(n, SubsetId.ALL, "xvwt")


def test_parallel_fanout_agrees_with_serial():
    # ALL takes the single-sweep kernel path; other subsets fan by first value
    for n in (0, 1, 6):
        serial = distribution(n, SubsetId.ALL, "xvwt", workers=1)
        fanned = distribution(n, SubsetId.ALL, "xvwt", workers=2)
        assert serial == fanned
    for subset in (SubsetId.AVOID321, SubsetId.INVOLUTIONS):
        serial = distribution(6, subset, "xvq", workers=1)
        fanned = distribution(6, subset, "xvq", workers=3)
        assert serial == fanned


def test_worker_count_resolution(monkeypatch):
    monkeypatch.delenv("MOTZKINPERM_WORKERS", raising=False)
    assert worker_count(4) == 4
    assert worker_count(0) == 1
    assert worker_count(None) == 1
    monkeypatch.setenv("MOTZKINPERM_WORKERS", "3")
    assert worker_count(None) == 3
    monkeypatch.setenv("MOTZKINPERM_WORKERS", "not-a-number")
    with pytest.raises(ValueError):
        worker_count(None)


def test_size_cap_is_enforced():
    with pytest.raises(ValueError):
        distribution(MAX_BRUTE_N + 1, SubsetId.ALL, "x")
    with pytest.raises(ValueError):
        sweep_counts(MAX_BRUTE_N + 1)
    with pytest.raises(ValueError):
        distribution(-1, SubsetId.ALL, "x")


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


def test_members_yields_exactly_the_subset():
    for n in range(6):
        got = list(members(n, SubsetId.AVOID321))
        assert got == [p for p in all_perms(n) if is_member(p, SubsetId.AVOID321)]


def test_consecutive_123_distribution_uses_only_w():
    for n in range(6):
        poly = consecutive_123_distribution(n)
        assert poly.variables_used() <= {"w"}
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

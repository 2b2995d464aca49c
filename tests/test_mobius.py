"""Divisor-sum counting of pattern-avoiding cyclic permutations."""

from __future__ import annotations

import time

import pytest

import motzkinperm._kernels
from motzkinperm.mobius import (
    BRUTE_CAP,
    FAMILIES,
    FORMULA_CAP,
    SHAPES,
    brute_count,
    mobius_count,
    mobius_value,
)
from motzkinperm.perms import two_runs

from conftest import all_perms
from reference import avoids_classical, cyclic_permutations


def test_mobius_function_values():
    known = {
        1: 1,
        2: -1,
        3: -1,
        4: 0,
        5: -1,
        6: 1,
        7: -1,
        8: 0,
        9: 0,
        10: 1,
        12: 0,
        30: -1,
        36: 0,
        210: 1,
    }
    for n, mu in known.items():
        assert mobius_value(n) == mu
    with pytest.raises(ValueError):
        mobius_value(0)


def test_mobius_value_refuses_a_non_int_or_a_size_above_the_cap_at_once():
    for n in (2**61 - 1, FORMULA_CAP + 1):
        start = time.process_time()
        with pytest.raises(ValueError, match=f"the cap is {FORMULA_CAP}"):
            mobius_value(n)
        assert time.process_time() - start < 1
    for n in (True, False, 6.0, "6", None):
        with pytest.raises(ValueError, match="n must be an int"):
            mobius_value(n)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        mobius_value(-1)
    assert mobius_value(FORMULA_CAP) == 0
    assert mobius_value(9973) == -1  # the largest prime under the cap


def test_family_names_are_normalized():
    assert mobius_count("213, 312", 4) == mobius_count("213,312", 4)
    with pytest.raises(ValueError):
        mobius_count("123,321", 4)


def test_formulas_match_brute_force():
    for family in FAMILIES:
        for n in range(2, 15):
            assert mobius_count(family, n) == brute_count(family, n), (family, n)


def test_brute_count_is_capped_before_enumerating(monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(motzkinperm._kernels, "prefix_walk", enumerate_nothing)
    for n in (BRUTE_CAP + 1, BRUTE_CAP + 3):
        with pytest.raises(ValueError, match="the cap is"):
            brute_count(FAMILIES[0], n)
    for n in (6.0, 2.5, "6", None):
        with pytest.raises(ValueError, match="an int n >= 2"):
            brute_count(FAMILIES[0], n)


def test_formula_refuses_a_size_that_is_not_an_int_of_at_least_two():
    for n in (6.0, 2.5, "6", None, 1, 0, -3):
        with pytest.raises(ValueError, match="an int n >= 2"):
            mobius_count(FAMILIES[0], n)


def test_formula_refuses_a_size_above_its_cap_at_once():
    for n in (FORMULA_CAP + 1, 10**18):
        start = time.process_time()
        with pytest.raises(ValueError, match=f"the cap is {FORMULA_CAP}"):
            mobius_count(FAMILIES[0], n)
        assert time.process_time() - start < 1
    assert mobius_count(FAMILIES[0], FORMULA_CAP) > 0


def _avoiders(family, n):
    patterns = [tuple(int(c) for c in pat) for pat in family.split(",")]
    return [
        perm for perm in all_perms(n)
        if all(avoids_classical(perm, pat) for pat in patterns)
    ]


def _walked(rule, n):
    return [tuple(values[1:]) for values in motzkinperm._kernels.prefix_walk(n, rule)]


def test_each_family_is_the_walk_of_its_two_run_shape():
    for family, (rise1, rise2) in SHAPES.items():
        for n in range(9):
            assert _walked(two_runs(rise1, rise2), n) == _avoiders(family, n), (family, n)


def test_a_shape_with_its_second_run_flipped_walks_other_permutations():
    for family, (rise1, rise2) in SHAPES.items():
        flipped = two_runs(rise1, not rise2)
        assert any(_walked(flipped, n) != _avoiders(family, n) for n in range(9)), family


def test_brute_count_matches_the_subsequence_scan_over_all_cycles():
    for family in FAMILIES:
        patterns = [tuple(int(c) for c in pat) for pat in family.split(",")]
        for n in range(2, 9):
            want = sum(
                1 for perm in cyclic_permutations(n)
                if all(avoids_classical(perm, pat) for pat in patterns)
            )
            assert brute_count(family, n) == want, (family, n)


def test_small_sizes_are_rejected():
    for family in FAMILIES:
        with pytest.raises(ValueError):
            mobius_count(family, 1)
        with pytest.raises(ValueError):
            mobius_count(family, 0)


def test_known_values_of_each_family():
    # n = 6 exercises the extra divisor-sum branch of the fourth family
    assert mobius_count("213,312", 6) == 5
    assert mobius_count("132,231", 6) == 5
    assert mobius_count("321,2143,3142", 6) == 9
    assert mobius_count("123,2413,3412", 6) == 11


def test_first_two_families_agree_by_symmetry():
    for n in range(2, 9):
        assert mobius_count("213,312", n) == mobius_count("132,231", n)

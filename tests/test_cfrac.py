"""Continued-fraction series builders and the weight-scheme wrapper."""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motzkinperm.cfrac import WeightScheme, jfraction_series, kfraction_series
from motzkinperm.oracle import distribution
from motzkinperm.polys import MultiPoly
from motzkinperm.schemes import scheme_for
from motzkinperm.sequences import factorials
from motzkinperm.subsets import SubsetId

from reference import derangement_numbers, motzkin_numbers


def ones(_h: int) -> Fraction:
    return Fraction(1)


def test_unit_weights_count_motzkin_paths():
    series = jfraction_series(ones, ones, 10)
    assert list(series) == motzkin_numbers(10)


def test_square_and_odd_weights_count_permutations():
    series = jfraction_series(lambda h: Fraction(h * h), lambda h: Fraction(2 * h + 1), 9)
    assert list(series) == factorials(9)


def test_square_and_even_weights_count_derangements():
    series = jfraction_series(lambda h: Fraction(h * h), lambda h: Fraction(2 * h), 9)
    assert list(series) == derangement_numbers(9)


def test_full_scheme_at_x_zero_counts_derangements():
    series = scheme_for(SubsetId.ALL).series(8)
    counts = [c.substitute(x=0).value_at_ones() for c in series]
    assert counts == derangement_numbers(8)


def test_elevated_series_counts_shifted_motzkin():
    got = list(kfraction_series(ones, ones, 9))
    motzkin = motzkin_numbers(9)
    assert got[0] == 0
    assert got[1] == 1
    assert got[2:] == motzkin[:8]


def test_negative_order_is_rejected():
    with pytest.raises(ValueError):
        jfraction_series(ones, ones, -1)
    with pytest.raises(ValueError):
        kfraction_series(ones, ones, -1)


def test_single_cycle_slice_of_the_full_series():
    # the t-linear part of the all-permutations census is the cyclic census
    n_max = 6
    full = scheme_for(SubsetId.ALL, marks="xvwt").series(n_max)
    cyclic = scheme_for(SubsetId.CYCLIC, marks="xvw").series(n_max)
    for n in range(n_max + 1):
        assert full[n].coefficient_of("t", 1) == cyclic[n]


def test_weight_scheme_counts_are_value_at_ones():
    scheme = scheme_for(SubsetId.ALL, marks="xvwt")
    assert scheme.counts(6) == factorials(6)


def test_scheme_series_matches_brute_distribution():
    scheme = scheme_for(SubsetId.ALL, marks="xvwt")
    series = scheme.series(5)
    for n in range(6):
        assert series[n] == distribution(n, SubsetId.ALL, "xvwt")


def test_handbuilt_scheme_runs_elevated():
    one = MultiPoly.one()
    scheme = WeightScheme(
        name="unit-elevated",
        down=lambda h: one,
        level=lambda h: one,
        elevated=True,
    )
    counts = [c.value_at_ones() for c in scheme.series(6)]
    assert counts == [0, 1, 1, 1, 2, 4, 9]


@cache
def motzkin_words(n: int, elevated: bool) -> tuple[tuple[int, ...], ...]:
    """Step words (+1 up, 0 level, -1 down) of length n from height 0 back to 0.

    Every word in {-1, 0, 1}^n is tried.  Grounded words never go below 0;
    elevated words are nonempty and stay at height >= 1 strictly inside.
    """
    out = []
    for word in product((1, 0, -1), repeat=n):
        heights = list(accumulate(word, initial=0))
        if heights[-1] != 0 or min(heights) < 0:
            continue
        if elevated and (n == 0 or min(heights[1:-1], default=1) < 1):
            continue
        out.append(word)
    return tuple(out)


def brute_path_sums(dee, ell, order: int, elevated: bool) -> list:
    """Sum over motzkin_words of the product of step weights, for lengths 0..order."""
    sums = []
    for n in range(order + 1):
        total = 0
        for word in motzkin_words(n, elevated):
            weight, h = 1, 0
            for step in word:
                if step == 0:
                    weight *= ell(h)
                elif step < 0:
                    weight *= dee(h)
                h += step
            total += weight
        sums.append(total)
    return sums


def check_against_brute_force(order, levels, falls, elevated, kind):
    def ell(h):
        assert 0 <= h <= order // 2
        return levels[h]

    def dee(h):
        assert 1 <= h <= order // 2
        return falls[h]

    fn = kfraction_series if elevated else jfraction_series
    got = fn(dee, ell, order)
    assert list(got) == brute_path_sums(dee, ell, order, elevated)
    assert all(type(c) is kind for c in got)


small_ints = st.integers(-3, 4)
small_fractions = st.fractions(-3, 4, max_denominator=4)


@settings(deadline=None)
@given(
    st.integers(0, 8),
    st.lists(small_ints, min_size=5, max_size=5),
    st.lists(small_ints, min_size=5, max_size=5),
    st.booleans(),
)
def test_int_weights_match_a_brute_force_path_sum(order, levels, falls, elevated):
    check_against_brute_force(order, levels, falls, elevated, int)


@settings(deadline=None)
@given(
    st.integers(0, 8),
    st.lists(small_fractions, min_size=5, max_size=5),
    st.lists(small_fractions, min_size=5, max_size=5),
    st.booleans(),
)
def test_fraction_weights_match_a_brute_force_path_sum(order, levels, falls, elevated):
    check_against_brute_force(order, levels, falls, elevated, Fraction)

"""Recovering level and fall weights from the head of a counting sequence."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motzkinperm.cfrac import jfraction_series
from motzkinperm.invert import (
    RecoveryStatus,
    WeightRecovery,
    classify_weights,
    invert_jfraction,
    regenerate,
)
from motzkinperm.sequences import (
    baxter_numbers,
    bell_numbers,
    catalan_numbers,
    factorials,
)

from reference import motzkin_numbers


def test_factorial_prefix_recovers_square_and_odd_weights():
    rec = invert_jfraction(factorials(7))
    assert rec.status is RecoveryStatus.COMPLETE
    assert rec.ell[:3] == (1, 3, 5)
    assert rec.dee[:3] == (1, 4, 9)


def test_catalan_prefix_recovers_its_weights():
    rec = invert_jfraction(catalan_numbers(6))
    assert rec.status is RecoveryStatus.COMPLETE
    assert rec.ell[0] == 1
    assert all(l == 2 for l in rec.ell[1:])
    assert all(d == 1 for d in rec.dee)


def test_motzkin_prefix_recovers_unit_weights():
    rec = invert_jfraction(motzkin_numbers(6))
    assert all(l == 1 for l in rec.ell)
    assert all(d == 1 for d in rec.dee)


def test_bell_prefix_recovers_ramp_weights():
    rec = invert_jfraction(bell_numbers(6))
    assert rec.ell == (1, 2, 3)
    assert rec.dee == (1, 2, 3)
    assert classify_weights(rec) == "nonnegative-integers"


def test_determined_counts_follow_the_triangular_structure():
    for m in range(1, 13):
        rec = invert_jfraction(factorials(m))
        assert len(rec.ell) == (m + 1) // 2
        assert len(rec.dee) == m // 2


def test_constant_series_terminates():
    rec = invert_jfraction([1, 0, 0, 0])
    assert rec.status is RecoveryStatus.TERMINATED
    assert rec.ell[0] == 0
    assert rec.dee == ()
    assert regenerate(rec, 6) == [1, 0, 0, 0, 0, 0, 0]


def test_geometric_series_terminates():
    rec = invert_jfraction([1, 2, 4, 8, 16, 32])
    assert rec.status is RecoveryStatus.TERMINATED
    assert rec.ell == (2,)
    assert rec.dee == ()
    assert regenerate(rec, 7) == [1, 2, 4, 8, 16, 32, 64, 128]


def test_zero_fall_with_nonzero_tail_fails():
    rec = invert_jfraction([1, 0, 0, 1])
    assert rec.status is RecoveryStatus.FAILED
    with pytest.raises(ValueError):
        regenerate(rec)
    # a failed recovery still reports what it determined on the way
    assert rec.ell[0] == 0


def test_regeneration_reproduces_the_input_exactly():
    for seq in (factorials(9), catalan_numbers(9), bell_numbers(9)):
        rec = invert_jfraction(seq)
        assert rec.status is RecoveryStatus.COMPLETE
        assert regenerate(rec) == seq


def test_complete_recovery_refuses_to_extrapolate():
    rec = invert_jfraction(factorials(5))
    with pytest.raises(ValueError):
        regenerate(rec, 6)
    assert regenerate(rec, 5) == factorials(5)
    assert regenerate(rec, 2) == factorials(2)


def test_rejects_bad_heads():
    with pytest.raises(ValueError):
        invert_jfraction([])
    with pytest.raises(ValueError):
        invert_jfraction([2, 1, 1])


def test_fractional_input_is_supported():
    rec = invert_jfraction([1, Fraction(1, 2), Fraction(1, 2), Fraction(5, 8)])
    assert rec.status is RecoveryStatus.COMPLETE
    assert rec.ell[0] == Fraction(1, 2)
    assert rec.dee[0] == Fraction(1, 4)
    assert classify_weights(rec) == "positive-rationals"
    assert regenerate(rec) == [1, Fraction(1, 2), Fraction(1, 2), Fraction(5, 8)]


def test_baxter_weights_are_not_a_colored_path_census():
    rec = invert_jfraction(baxter_numbers(12))
    assert rec.status is RecoveryStatus.COMPLETE
    assert classify_weights(rec) == "negative-or-fractional"


def _peel_by_reciprocals(terms):
    """Reference: peel each level with a full series reciprocal, O(n^3)."""
    cur = [Fraction(t) for t in terms]
    if not cur or cur[0] != 1:
        raise ValueError("need a constant term of 1")
    ell, dee, status = [], [], RecoveryStatus.COMPLETE
    while len(cur) >= 2:
        ell.append(cur[1])
        if len(cur) < 3:
            break
        inv = [Fraction(1)]
        for m in range(1, len(cur)):
            inv.append(-sum(cur[k] * inv[m - k] for k in range(1, m + 1)))
        # 1 - ell z - 1/cur = d z^2 (next level's series)
        rem = [-c for c in inv]
        rem[0] += 1
        rem[1] -= ell[-1]
        assert rem[0] == 0 and rem[1] == 0
        d = rem[2]
        if d == 0:
            failed = any(c != 0 for c in rem[2:])
            status = RecoveryStatus.FAILED if failed else RecoveryStatus.TERMINATED
            break
        dee.append(d)
        cur = [c / d for c in rem[2:]]
    return tuple(ell), tuple(dee), status, len(terms)


def _finite_fraction_prefix(ell, dee, length):
    """Prefix of a J-fraction cut off after len(ell) levels: it terminates."""
    return list(jfraction_series(
        lambda h: dee[h - 1] if h <= len(dee) else 0,
        lambda h: ell[h] if h < len(ell) else 0,
        length - 1,
    ))


small_terms = st.one_of(st.integers(-6, 6), st.fractions(-3, 3, max_denominator=4))


@st.composite
def prefixes(draw):
    """Random prefixes that reach all three stop states, or raise."""
    kind = draw(st.sampled_from(["random", "finite", "bumped", "bad head"]))
    length = draw(st.integers(1, 12))
    if kind in ("random", "bad head"):
        tail = draw(st.lists(small_terms, min_size=length - 1, max_size=length - 1))
        head = draw(small_terms) if kind == "bad head" else 1
        return [head] + tail
    ell = draw(st.lists(small_terms, min_size=1, max_size=4))
    dee = draw(st.lists(small_terms.filter(bool), min_size=len(ell) - 1, max_size=len(ell) - 1))
    terms = _finite_fraction_prefix(ell, dee, length)
    if kind == "bumped" and length > 1:
        # the fraction stops after len(ell) levels; disturbing a term past
        # 2 * len(ell) leaves a zero fall weight with a nonzero remainder,
        # an earlier one just makes another prefix
        at = draw(st.integers(1, length - 1))
        terms[at] += draw(small_terms.filter(bool))
    return terms


@settings(deadline=None, max_examples=200)
@given(prefixes())
def test_recurrence_matches_the_reciprocal_peel(terms):
    try:
        want = _peel_by_reciprocals(terms)
    except Exception as exc:
        with pytest.raises(type(exc)):
            invert_jfraction(terms)
        return
    rec = invert_jfraction(terms)
    assert (rec.ell, rec.dee, rec.status, rec.n_input) == want
    assert all(type(w) is Fraction for w in rec.ell + rec.dee)


def test_the_reference_peel_reaches_every_stop_state():
    cases = {
        RecoveryStatus.COMPLETE: catalan_numbers(9),
        RecoveryStatus.TERMINATED: _finite_fraction_prefix([1, 2], [3], 9),
        RecoveryStatus.FAILED: _finite_fraction_prefix([1, 2], [3], 8) + [1],
    }
    for status, terms in cases.items():
        assert _peel_by_reciprocals(terms)[2] is status
        assert invert_jfraction(terms).status is status


@settings(deadline=None, max_examples=40)
@given(
    st.integers(1, 80),
    st.lists(st.integers(-5, 9), min_size=40, max_size=40),
    st.lists(st.integers(1, 9) | st.fractions(1, 5, max_denominator=3), min_size=40, max_size=40),
)
def test_weights_round_trip_through_the_series(length, ell, dee):
    ell = [Fraction(l) for l in ell]
    terms = list(jfraction_series(lambda h: dee[h - 1], lambda h: ell[h], length - 1))
    rec = invert_jfraction(terms)
    assert rec.status is RecoveryStatus.COMPLETE
    assert rec.ell == tuple(ell[: length // 2])
    assert rec.dee == tuple(dee[: (length - 1) // 2])
    assert regenerate(rec) == terms


def test_eighty_term_prefixes_recover_their_weights_and_regenerate_exactly():
    """The benchmark's longest inputs: 80 terms pin 40 level and 39 fall weights."""
    known = {
        "Bell": (bell_numbers(79), list(range(1, 41)), list(range(1, 40))),
        "Motzkin": (motzkin_numbers(79), [1] * 40, [1] * 39),
        "Catalan": (catalan_numbers(79), [1] + [2] * 39, [1] * 39),
    }
    for name, (terms, ell, dee) in known.items():
        rec = invert_jfraction(terms)
        assert rec.status is RecoveryStatus.COMPLETE, name
        assert (rec.ell, rec.dee) == (tuple(ell), tuple(dee)), name
        assert regenerate(rec) == terms, name


weights = st.fractions(-5, 5, max_denominator=7)


@settings(deadline=None, max_examples=100)
@given(
    st.lists(weights, max_size=8),
    st.lists(weights.filter(bool), max_size=8),
    st.sampled_from([RecoveryStatus.COMPLETE, RecoveryStatus.TERMINATED]),
    st.integers(0, 20),
)
@example([Fraction(-3, 2), Fraction(1, 6)], [Fraction(2, 5)], RecoveryStatus.COMPLETE, 9)
def test_regeneration_equals_the_fraction_path_sum(ell, dee, status, order):
    """Integer weights over a common denominator give the ``Fraction`` path sum."""
    rec = WeightRecovery(tuple(ell), tuple(dee), status, order + 1)
    got = regenerate(rec, order)
    padded = jfraction_series(
        lambda h: dee[h - 1] if h <= len(dee) else Fraction(0),
        lambda h: ell[h] if h < len(ell) else Fraction(0),
        order,
    )
    assert got == list(padded)
    assert all(type(c) is Fraction for c in got)

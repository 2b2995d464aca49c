"""Exact arithmetic for the five-variable marker polynomials."""

from __future__ import annotations

import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motzkinperm.polys import VARS, W, MultiPoly

from reference import variables_used


def test_variable_order_is_fixed():
    assert VARS == ("x", "v", "w", "t", "q")


def test_constants_and_variables():
    assert MultiPoly.zero() == 0
    assert not MultiPoly.zero()
    assert MultiPoly.one() == 1
    assert MultiPoly.const(7) == 7
    x = MultiPoly.var("x")
    assert str(x) == "x"
    with pytest.raises(ValueError):
        MultiPoly.var("y")


def test_addition_and_subtraction_cancel():
    x, q = MultiPoly.var("x"), MultiPoly.var("q")
    p = x * q + MultiPoly.const(3)
    assert p - p == 0
    assert p + MultiPoly.zero() == p
    assert (p - MultiPoly.one()) + MultiPoly.one() == p


def test_multiplication_distributes():
    x, v, w = (MultiPoly.var(s) for s in "xvw")
    left = (x + v) * (x + w)
    right = x * x + x * w + v * x + v * w
    assert left == right


def test_power_by_squaring():
    t = MultiPoly.var("t")
    p = t + MultiPoly.one()
    assert p**0 == MultiPoly.one()
    assert p**1 == p
    assert p**5 == p * p * p * p * p
    with pytest.raises(ValueError):
        p ** (-1)


def test_monomial_and_coefficients():
    m = MultiPoly.monomial((1, 0, 2, 0, 3), 4)
    assert str(m) == "4*x*w^2*q^3"
    assert m.coefficient((1, 0, 2, 0, 3)) == 4
    assert m.coefficient((0, 0, 0, 0, 0)) == 0


def test_substitute_and_value_at_ones():
    x, v, q = (MultiPoly.var(s) for s in "xvq")
    p = x * v * q * q + MultiPoly.const(2)
    assert p.substitute(q=1) == x * v + MultiPoly.const(2)
    assert p.substitute(x=0) == MultiPoly.const(2)
    assert p.substitute(x=2, v=3, q=1) == MultiPoly.const(8)
    assert p.value_at_ones() == 3
    with pytest.raises(ValueError):
        p.substitute(y=1)


def test_variables_used():
    x, w = MultiPoly.var("x"), MultiPoly.var("w")
    assert variables_used(x * w + x) == {"x", "w"}
    assert variables_used(MultiPoly.const(3)) == set()


def test_string_forms():
    x, v = MultiPoly.var("x"), MultiPoly.var("v")
    assert str(MultiPoly.zero()) == "0"
    assert str(x * x - v) == "x^2 - v"
    assert str(MultiPoly.const(-2) * x) == "-2*x"


def test_terms_are_sorted_and_complete():
    x, v = MultiPoly.var("x"), MultiPoly.var("v")
    p = v + x * x * MultiPoly.const(3)
    terms = p.to_terms()
    assert terms == [((2, 0, 0, 0, 0), 3), ((0, 1, 0, 0, 0), 1)]


def test_equality_hash_and_int_comparison():
    x = MultiPoly.var("x")
    assert x + x == MultiPoly.const(2) * x
    assert hash(x + x) == hash(MultiPoly.const(2) * x)
    assert MultiPoly.const(5) == 5
    assert MultiPoly.const(5) != 4
    assert x != 1


def test_immutability():
    x = MultiPoly.var("x")
    with pytest.raises(AttributeError):
        x.coeffs = {}


def test_pickle_round_trip():
    x, q = MultiPoly.var("x"), MultiPoly.var("q")
    p = x * q + MultiPoly.const(3)
    assert pickle.loads(pickle.dumps(p)) == p


def test_pickles_carry_exponent_tuples():
    x, q = MultiPoly.var("x"), MultiPoly.var("q")
    p = x * q + MultiPoly.const(3)
    assert p.__reduce__() == (MultiPoly, ({(1, 0, 0, 0, 1): 1, (0, 0, 0, 0, 0): 3},))


@pytest.mark.parametrize(
    "exps",
    [(0.5, 0, 0, 0, 0), (1.0, 0, 0, 0, 0), (True, 0, 0, 0, 0), (1, 2), (1, 0, 0, 0, 0, 0),
     (-1, 0, 0, 0, 0), (0, 0, 0, 0, 1 << W)],
)
@pytest.mark.parametrize("coeff", [0, 1])
def test_constructor_checks_every_exponent_tuple(exps, coeff):
    with pytest.raises(ValueError, match="bad exponent tuple"):
        MultiPoly({exps: coeff})
    with pytest.raises(ValueError, match="bad exponent tuple"):
        MultiPoly.monomial(exps, coeff)
    with pytest.raises(ValueError, match="bad exponent tuple"):
        MultiPoly.var("x").coefficient(exps)


def test_bool_constants_are_stored_as_ints():
    assert type(MultiPoly.const(True).coeffs[0]) is int
    assert str(MultiPoly.const(True)) == "1"
    assert (MultiPoly.var("x") + True).to_terms() == [((1, 0, 0, 0, 0), 1), ((0, 0, 0, 0, 0), 1)]
    assert type((MultiPoly.var("x") + True).to_terms()[1][1]) is int


def test_largest_exponent_fits_and_products_past_the_slot_raise():
    top = (1 << W) - 1
    big = MultiPoly.monomial((0, 0, 0, 0, top))
    assert big.to_terms() == [((0, 0, 0, 0, top), 1)]
    with pytest.raises(OverflowError):
        big * MultiPoly.var("q")
    half = MultiPoly.monomial((1 << (W - 1), 0, 0, 0, 0))
    with pytest.raises(OverflowError):
        half * half
    with pytest.raises(OverflowError):
        (half + 1) ** 2
    below = MultiPoly.monomial(((1 << (W - 1)) - 1, 0, 0, 0, 0))
    assert (half * below).to_terms() == [((top, 0, 0, 0, 0), 1)]


def test_a_loose_degree_bound_does_not_raise_for_products_that_fit():
    top = (1 << W) - 1
    x, q = MultiPoly.var("x"), MultiPoly.var("q")
    big = MultiPoly.monomial((0, 0, 0, 0, top))
    # The bound stays at 2**W - 1 after the big term cancels or is zeroed.
    assert (big + q - big) * q == q * q
    assert big.substitute(q=1) * big == big
    assert (x * big).substitute(q=1) * big == x * big
    quarter = MultiPoly.monomial((0, 0, 0, 0, 1 << (W - 2)))
    assert quarter**2 == MultiPoly.monomial((0, 0, 0, 0, 1 << (W - 1)))
    assert (quarter * x) ** 2 == MultiPoly.monomial((2, 0, 0, 0, 1 << (W - 1)))


# -- ring laws on random polynomials -----------------------------------------

exponents = st.tuples(*[st.integers(0, 3)] * 5)
polys = st.dictionaries(exponents, st.integers(-4, 4), max_size=6).map(MultiPoly)
values = st.fixed_dictionaries({}, optional={name: st.integers(-2, 2) for name in VARS})


@settings(deadline=None)
@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a


@settings(deadline=None)
@given(polys)
def test_zero_and_one_identities(a):
    zero, one = MultiPoly.zero(), MultiPoly.one()
    assert a + zero == a == zero + a
    assert a * one == a == one * a
    assert a * zero == 0 == a * 0
    assert a + 0 == a == 1 * a
    assert a - a == zero
    assert bool(a) == (a != 0)


@settings(deadline=None)
@given(polys, st.integers(0, 5))
def test_power_is_repeated_multiplication(a, k):
    expected = MultiPoly.one()
    for _ in range(k):
        expected = expected * a
    assert a**k == expected


@settings(deadline=None)
@given(polys, polys, values)
def test_substitution_is_a_ring_homomorphism(a, b, vals):
    assert (a + b).substitute(**vals) == a.substitute(**vals) + b.substitute(**vals)
    assert (a * b).substitute(**vals) == a.substitute(**vals) * b.substitute(**vals)
    everything = {name: vals.get(name, 1) for name in VARS}
    assert a.substitute(**vals).substitute(**everything) == a.substitute(**everything)
    assert a.substitute(**dict.fromkeys(VARS, 1)) == a.value_at_ones()


@settings(deadline=None)
@given(polys, polys)
def test_pickling_and_printing_depend_only_on_the_value(a, b):
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and hash(copy) == hash(a)
    shuffled = MultiPoly(dict(reversed(a.to_terms())))
    assert str(copy) == str(shuffled) == str((a + b) - b) == str(a)
    assert str(a + a) == str(a * 2)
    # one printed term per stored term
    terms = re.split(r" [+-] ", str(a).lstrip("-"))
    assert len(terms) == max(1, len(a.coeffs))


# -- packed keys against plain exponent tuples --------------------------------


def _tuple_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _tuple_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


# Small exponents collide; exponents near 2**63 would carry into the next
# slot of a narrower packing.
wide = st.tuples(*[st.integers(0, 3) | st.integers(0, 2**63 - 1)] * 5)
term_dicts = st.dictionaries(wide, st.integers(-(2**70), 2**70) | st.integers(-3, 3), max_size=6)


@settings(deadline=None, max_examples=200)
@given(term_dicts, term_dicts)
def test_packed_arithmetic_matches_tuple_arithmetic(a, b):
    pa, pb = MultiPoly(a), MultiPoly(b)
    clean_a = {e: c for e, c in a.items() if c}
    assert dict(pa.to_terms()) == clean_a
    assert dict((pa + pb).to_terms()) == _tuple_add(a, b)
    assert dict((pa - pb).to_terms()) == _tuple_add(a, {e: -c for e, c in b.items()})
    assert dict((pa * pb).to_terms()) == _tuple_mul(a, b)


@settings(deadline=None)
@given(term_dicts)
def test_terms_come_in_descending_lexicographic_order(a):
    expected = sorted(((e, c) for e, c in a.items() if c), reverse=True)
    assert MultiPoly(a).to_terms() == expected

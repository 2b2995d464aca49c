"""Exact arithmetic for the five-variable marker polynomials."""

from __future__ import annotations

import pickle

import pytest

from motzkinperm.polys import VARS, MultiPoly


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


def test_coefficient_of_extracts_a_slot():
    x, t = MultiPoly.var("x"), MultiPoly.var("t")
    p = x * t * t + x * x * t + MultiPoly.const(5)
    in_t2 = p.coefficient_of("t", 2)
    assert in_t2 == x
    assert p.coefficient_of("t", 0) == MultiPoly.const(5)
    assert p.coefficient_of("t", 9) == 0


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
    assert (x * w + x).variables_used() == {"x", "w"}
    assert MultiPoly.const(3).variables_used() == set()


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

"""Truncated power series with exact rational coefficients."""

from __future__ import annotations

from fractions import Fraction

import pytest

from motzkinperm.series import Series


def geometric(order: int) -> Series:
    return Series((Fraction(1),) * (order + 1))


def test_constructors_and_indexing():
    s = Series((Fraction(1), Fraction(2)))
    assert s.order == 1
    assert s[1] == 2
    with pytest.raises(ValueError):
        Series(())


def test_arithmetic_requires_matching_shape():
    a = Series((1, 0, 0, 0))
    c = Series((1, 0, 0))
    with pytest.raises(ValueError):
        a * c


def test_cauchy_product_against_hand_expansion():
    a = Series((1, 1, 0, 0))  # 1 + z
    b = Series((1, 2, 3, 4))
    assert (a * b).coeffs == (1, 3, 5, 7)


def test_scale():
    s = Series((1, 2, 3))
    assert s.scale(3).coeffs == (3, 6, 9)


def test_recip_is_a_two_sided_inverse():
    order = 8
    s = geometric(order)
    r = s.recip()
    assert (s * r).coeffs == (1,) + (0,) * order
    # 1/(1-z) backwards: the reciprocal of the geometric series is 1 - z
    assert r.coeffs[:3] == (1, -1, 0)


def test_recip_rejects_zero_constant():
    s = Series((0, 1))
    with pytest.raises(ZeroDivisionError):
        s.recip()


def test_sqrt_squares_back():
    # sqrt(1 - 4z) has Catalan-flavored coefficients
    order = 7
    s = Series((Fraction(1), Fraction(-4)) + (Fraction(0),) * (order - 1))
    root = s.sqrt()
    assert (root * root).coeffs == s.coeffs
    assert root.coeffs[:3] == (1, -2, -2)
    with pytest.raises(ValueError):
        Series((Fraction(2), Fraction(0))).sqrt()


def test_exp_of_z_is_the_exponential_series():
    order = 6
    z = Series((Fraction(0), Fraction(1)) + (Fraction(0),) * (order - 1))
    e = z.exp()
    facts = [1, 1, 2, 6, 24, 120, 720]
    assert e.coeffs == tuple(Fraction(1, f) for f in facts)
    with pytest.raises(ValueError):
        geometric(3).exp()


def test_exp_turns_sums_into_products():
    order = 6
    coeffs_a = [Fraction(0), Fraction(1), Fraction(1, 2)] + [Fraction(0)] * 4
    coeffs_b = [Fraction(0), Fraction(2), Fraction(0), Fraction(1, 3)] + [
        Fraction(0)
    ] * 3
    a = Series(tuple(coeffs_a))
    b = Series(tuple(coeffs_b))
    left = (a + b).exp()
    right = a.exp() * b.exp()
    assert left.coeffs == right.coeffs
    assert left.order == order


def test_egf_to_ogf_multiplies_by_factorials():
    s = Series((Fraction(1), Fraction(1), Fraction(1, 2)))
    assert s.egf_to_ogf().coeffs == (1, 1, 1)


def test_integer_coefficients_accepts_and_rejects():
    ok = Series((Fraction(1), Fraction(4)))
    assert ok.integer_coefficients() == [1, 4]
    bad = Series((Fraction(1), Fraction(1, 2)))
    with pytest.raises(ValueError):
        bad.integer_coefficients()

"""Truncated power series with exact rational coefficients.

A :class:`Series` is a fixed-length tuple of coefficients in z, each a
:class:`fractions.Fraction` (or an int); two series must share their
truncation order to combine.  The closed-form generating functions use
reciprocals, square roots and exponentials; each follows the usual
coefficient recurrence.  The continued fractions are summed in
:mod:`motzkinperm.cfrac` and inverted in :mod:`motzkinperm.invert`, neither
of which needs series arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Series:
    """Coefficients c[0..order] of a series truncated past z**order."""

    coeffs: tuple

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("series needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int):
        return self.coeffs[n]

    def _check(self, other: "Series") -> None:
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("truncation order mismatch")

    def __add__(self, other: "Series") -> "Series":
        self._check(other)
        return Series(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Series") -> "Series":
        self._check(other)
        return Series(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "Series") -> "Series":
        self._check(other)
        n = len(self.coeffs)
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return Series(tuple(out))

    def scale(self, factor) -> "Series":
        return Series(tuple(c * factor for c in self.coeffs))

    def recip(self) -> "Series":
        """1 / self.  Needs a nonzero constant term."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("reciprocal of a series with zero constant term")
        inv0 = Fraction(1) / c0
        n = len(self.coeffs)
        out = [inv0] + [Fraction(0)] * (n - 1)
        for m in range(1, n):
            acc = Fraction(0)
            for k in range(1, m + 1):
                acc += self.coeffs[k] * out[m - k]
            out[m] = -(inv0 * acc)
        return Series(tuple(out))

    def sqrt(self) -> "Series":
        """Square root with constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("sqrt needs constant term 1")
        n = len(self.coeffs)
        out = [Fraction(1)] + [Fraction(0)] * (n - 1)
        for m in range(1, n):
            acc = sum((out[k] * out[m - k] for k in range(1, m)), Fraction(0))
            out[m] = (self.coeffs[m] - acc) / 2
        return Series(tuple(out))

    def exp(self) -> "Series":
        """exp of a series with zero constant term.

        Uses b' = a' b coefficientwise: (m+1) b_{m+1} = sum (k+1) a_{k+1} b_{m-k}.
        """
        if self.coeffs[0] != 0:
            raise ValueError("exp needs zero constant term")
        n = len(self.coeffs)
        out = [Fraction(1)] + [Fraction(0)] * (n - 1)
        for m in range(n - 1):
            acc = Fraction(0)
            for k in range(m + 1):
                acc += (k + 1) * self.coeffs[k + 1] * out[m - k]
            out[m + 1] = acc / (m + 1)
        return Series(tuple(out))

    def egf_to_ogf(self) -> "Series":
        """Reinterpret exponential coefficients as plain counts (times n!)."""
        f = 1
        out = []
        for nn, c in enumerate(self.coeffs):
            if nn:
                f *= nn
            out.append(c * f)
        return Series(tuple(out))

    def integer_coefficients(self) -> list[int]:
        """The coefficients as ints; raises if any is not an integer."""
        out = []
        for i, c in enumerate(self.coeffs):
            if c.denominator != 1:
                raise ValueError(f"coefficient of z^{i} is not an integer: {c}")
            out.append(int(c))
        return out

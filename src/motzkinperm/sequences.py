"""Reference integer sequences and closed-form generating functions.

These serve as independent cross-checks for the census machinery: classical
recurrences and binomial formulas on one side, series built from exponentials
and square roots on the other.  A few sequences have no handy closed form and
are produced by running their classical continued-fraction weights forward;
those are pinned against hard-coded prefixes so a defect in the evaluator
cannot silently vandalize both sides of a test.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import TYPE_CHECKING

from .cfrac import MAX_ORDER, jfraction_series
from .series import Series

if TYPE_CHECKING:
    from .subsets import SubsetId


def factorials(n_max: int) -> list[int]:
    return [factorial(n) for n in range(n_max + 1)]


def catalan_numbers(n_max: int) -> list[int]:
    return [comb(2 * n, n) // (n + 1) for n in range(n_max + 1)]


def bell_numbers(n_max: int) -> list[int]:
    out = [1]
    for n in range(n_max):
        out.append(sum(comb(n, k) * out[k] for k in range(n + 1)))
    return out


def baxter_numbers(n_max: int) -> list[int]:
    out = [1]
    for n in range(1, n_max + 1):
        total = Fraction(0)
        denom = comb(n + 1, 1) * comb(n + 1, 2)
        for k in range(1, n + 1):
            total += Fraction(
                comb(n + 1, k - 1) * comb(n + 1, k) * comb(n + 1, k + 1), denom
            )
        if total.denominator != 1:
            raise AssertionError(f"non-integer Baxter value at n={n}")
        out.append(int(total))
    return out


def _forward_run(dee, ell, n_max: int, pinned: tuple[int, ...], label: str) -> list[int]:
    values = list(jfraction_series(dee, ell, n_max))
    for i, expect in enumerate(pinned[: n_max + 1]):
        if values[i] != expect:
            raise AssertionError(
                f"{label} forward run disagrees with pinned value at n={i}: "
                f"{values[i]} != {expect}"
            )
    return values


def genocchi_numbers(n_max: int) -> list[int]:
    """1, 1, 3, 17, 155, 2073, ...: tangent-related counts."""
    return _forward_run(
        lambda h: h ** 3 * (h + 1),
        lambda h: (h + 1) * (2 * h + 1),
        n_max,
        (1, 1, 3, 17, 155, 2073, 38227, 929569),
        "genocchi",
    )


def median_genocchi_numbers(n_max: int) -> list[int]:
    """1, 1, 2, 8, 56, 608, ..."""
    return _forward_run(
        lambda h: h ** 4,
        lambda h: 2 * h * (h + 1) + 1,
        n_max,
        (1, 1, 2, 8, 56, 608, 9440, 198272),
        "median genocchi",
    )


def consecutive_123_avoider_counts(n_max: int) -> list[int]:
    """Permutations with no rising run of length three: 1, 1, 2, 5, 17, 70, ..."""
    return _forward_run(
        lambda h: h * h,
        lambda h: h + 1,
        n_max,
        (1, 1, 2, 5, 17, 70, 349, 2017),
        "consecutive-123 avoiders",
    )


# -- closed-form generating functions (exact, over Fraction) ---------------


def _poly(order: int, *low: int) -> Series:
    """low[0] + low[1] z + ..., truncated past z**order."""
    coeffs = [Fraction(c) for c in low[: order + 1]]
    return Series(tuple(coeffs + [Fraction(0)] * (order + 1 - len(coeffs))))


def egf_no_double_step_counts(n_max: int) -> list[int]:
    """Coefficients of exp(z)/cos(z), as plain counts."""
    cos = [Fraction(0)] * (n_max + 1)
    for k in range(0, n_max + 1, 2):
        cos[k] = Fraction((-1) ** (k // 2), factorial(k))
    egf = _poly(n_max, 0, 1).exp() * Series(tuple(cos)).recip()
    return egf.egf_to_ogf().integer_coefficients()


def egf_involution_counts(n_max: int) -> list[int]:
    """Coefficients of exp(z + z^2/2), as plain counts."""
    z = _poly(n_max, 0, 1)
    half_sq = (z * z).scale(Fraction(1, 2))
    return (z + half_sq).exp().egf_to_ogf().integer_coefficients()


def egf_unimodal_cycle_counts(n_max: int) -> list[int]:
    """Coefficients of exp((exp(2z) + 2z - 1)/4), as plain counts."""
    z = _poly(n_max, 0, 1)
    e2z = z.scale(2).exp()
    inner = (e2z + z.scale(2) - _poly(n_max, 1)).scale(Fraction(1, 4))
    return inner.exp().egf_to_ogf().integer_coefficients()


def ogf_increasing_exc_def_counts(n_max: int) -> list[int]:
    """Coefficients of 2 / (1 + z + sqrt(1 - 6z + 5z^2))."""
    root = _poly(n_max, 1, -6, 5).sqrt()
    denom = _poly(n_max, 1, 1) + root
    return denom.recip().scale(2).integer_coefficients()


def ogf_catalan_counts(n_max: int) -> list[int]:
    """Coefficients of 2 / (1 + sqrt(1 - 4z)); equals the Catalan numbers."""
    root = _poly(n_max, 1, -4).sqrt()
    return (_poly(n_max, 1) + root).recip().scale(2).integer_coefficients()


def closed_form_counts(subset: SubsetId, n_max: int) -> list[int] | None:
    """Known count formula for a class, or None where no product form exists.

    Sizes share the continued fraction's cap: the exact ``Fraction`` series
    cost about n_max**3.
    """
    if n_max > MAX_ORDER:
        raise ValueError(f"size {n_max} is over the cap of {MAX_ORDER}; cost grows steeply")
    closed = subset.spec.closed
    return None if closed is None else closed(n_max)

"""Recovering continued-fraction weights from a sequence prefix.

The counts c_0..c_n (c_0 = 1) fill row 0 of the mixed-moment table sigma
(the Stieltjes table; Gautschi 1982).  Row -1 is zero, and each level k
yields its weights and the next row:

    ell_k         = sigma[k][k+1] / sigma[k][k] - sigma[k-1][k] / sigma[k-1][k-1]
    sigma[k+1][l] = sigma[k][l+1] - ell_k sigma[k][l] - d_k sigma[k-1][l]
    d_{k+1}       = sigma[k+1][k+1] / sigma[k][k]

sigma[k][l] is d_1..d_k times the weight of the length-l paths from height 0
to height k, so row k vanishes left of its diagonal.  This is the path sum of
:mod:`motzkinperm.cfrac` run backwards, in O(n^2) integer operations: each
row is kept as ints times a factor that cancels from ell and d, and is divided
by the gcd of its entries; only the returned weights become ``Fraction``s.
Row k has n - k + 1 entries, so n+1 terms pin floor((n+1)/2) level weights
and floor(n/2) fall weights.  The table stops three ways:

* ``COMPLETE``    the prefix ran out; deeper weights need more terms
* ``TERMINATED``  d_{k+1} is 0 and so is the rest of row k+1: the fraction
                  is finite and the recovered weights are exact
* ``FAILED``      d_{k+1} is 0 but the rest of row k+1 is not; no weight
                  assignment reproduces the input

The weights say something about what the sequence could count:
nonnegative integers leave room for a colored-path census, while negative or
fractional weights rule one out at this depth.
"""

from __future__ import annotations

import enum
from math import gcd, lcm
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .cfrac import jfraction_series

if TYPE_CHECKING:
    from fractions import Fraction


class RecoveryStatus(enum.Enum):
    COMPLETE = "Complete"
    TERMINATED = "Terminated"
    FAILED = "Failed"


class WeightRecovery(NamedTuple):
    """Weights peeled from a prefix: ell[m] at level m, dee[m] falling to m."""

    ell: tuple[Fraction, ...]
    dee: tuple[Fraction, ...]
    status: RecoveryStatus
    n_input: int


def invert_jfraction(terms: Sequence[int | Fraction]) -> WeightRecovery:
    """Peel level and fall weights out of the counts c_0..c_n."""
    from fractions import Fraction  # not at start-up: with decimal and numbers, 4 ms a process
    if not terms:
        raise ValueError("need at least the constant term")
    cur = [Fraction(t) for t in terms]
    if cur[0] != 1:
        raise ValueError(f"the constant term must be 1, got {cur[0]}")

    n = len(cur) - 1
    ell: list[Fraction] = []
    dee: list[Fraction] = []
    status = RecoveryStatus.COMPLETE
    # rows k-1 and k of the moment table as ints, each times a factor that the
    # ratios below cancel; row -1 is zero, and q = 1 stands in for its diagonal
    scale = lcm(*(t.denominator for t in cur))
    above, row, q = [0] * n, [t.numerator * (scale // t.denominator) for t in cur], 1
    for k in range((n + 1) // 2):
        p = row[k]
        lift = row[k + 1] * q - above[k] * p  # ell_k = row[k+1] / p - above[k] / q
        ell.append(Fraction(lift, p * q))
        if 2 * k + 2 > n:
            break
        # sigma[k+1] is below / (p q) times row k's factor: d_{k+1} = below[k+1] / (p^2 q)
        pq, pp = p * q, p * p
        below = [pq * row[l + 1] - lift * row[l] - pp * above[l] for l in range(n - k)]
        if any(below[: k + 1]):
            raise AssertionError("peeling lost its leading cancellation")
        fall = Fraction(below[k + 1], pp * q)
        if fall == 0:
            status = RecoveryStatus.FAILED if any(below[k + 2 :]) else RecoveryStatus.TERMINATED
            break
        dee.append(fall)
        g = gcd(*below)
        above, row, q = row, [b // g for b in below], p
    return WeightRecovery(tuple(ell), tuple(dee), status, len(terms))


def classify_weights(recovery: WeightRecovery) -> str:
    """Coarse verdict on the recovered weights.

    ``"nonnegative-integers"`` when every weight is an integer >= 0 (the
    shape a colored-path census produces), ``"positive-rationals"`` when all
    are positive but not all integral, ``"negative-or-fractional"`` otherwise.
    """
    weights = list(recovery.ell) + list(recovery.dee)
    if all(w.denominator == 1 and w >= 0 for w in weights):
        return "nonnegative-integers"
    if all(w > 0 for w in weights):
        return "positive-rationals"
    return "negative-or-fractional"


def regenerate(recovery: WeightRecovery, order: int | None = None) -> list[Fraction]:
    """Run the recovered weights forward again.

    For a COMPLETE recovery only the first n_input coefficients are trusted,
    so ``order`` must stay below n_input; a TERMINATED recovery is exact at
    every order.  Unknown deeper weights count as 0, which cannot disturb the
    trusted range.
    """
    from fractions import Fraction  # see invert_jfraction
    if recovery.status is RecoveryStatus.FAILED:
        raise ValueError("a failed recovery has no generating weights to run")
    if order is None:
        order = recovery.n_input - 1
    if recovery.status is RecoveryStatus.COMPLETE and order > recovery.n_input - 1:
        raise ValueError(
            f"only coefficients 0..{recovery.n_input - 1} are determined; "
            f"requested order {order}"
        )
    # level weights times scale and fall weights times scale^2 scale a length-n path by scale^n
    scale = lcm(*(w.denominator for w in recovery.ell + recovery.dee))
    levels = [w.numerator * (scale // w.denominator) for w in recovery.ell]
    falls = [0] + [w.numerator * (scale * scale // w.denominator) for w in recovery.dee]
    series = jfraction_series(
        lambda h: falls[h] if h < len(falls) else 0,
        lambda h: levels[h] if h < len(levels) else 0,
        order,
    )
    return [Fraction(c, scale**n) for n, c in enumerate(series)]

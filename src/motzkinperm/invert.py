"""Recovering continued-fraction weights from a sequence prefix.

The counts c_0..c_n (c_0 = 1) fill row 0 of the mixed-moment table sigma
(the Stieltjes table; Gautschi 1982).  Row -1 is zero, and each level k
yields its weights and the next row:

    ell_k         = sigma[k][k+1] / sigma[k][k] - sigma[k-1][k] / sigma[k-1][k-1]
    sigma[k+1][l] = sigma[k][l+1] - ell_k sigma[k][l] - d_k sigma[k-1][l]
    d_{k+1}       = sigma[k+1][k+1] / sigma[k][k]

sigma[k][l] is d_1..d_k times the weight of the length-l paths from height 0
to height k, so row k vanishes left of its diagonal.  This is the path sum of
:mod:`motzkinperm.cfrac` run backwards, in O(n^2) exact operations.  Row k
has n - k + 1 entries, so n+1 terms pin floor((n+1)/2) level weights and
floor(n/2) fall weights.  The table stops three ways:

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
from fractions import Fraction
from typing import NamedTuple, Sequence

from .cfrac import jfraction_series


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

    def level_weight(self, h: int) -> Fraction:
        return self.ell[h] if h < len(self.ell) else Fraction(0)

    def fall_weight(self, h: int) -> Fraction:
        return self.dee[h - 1] if 1 <= h <= len(self.dee) else Fraction(0)


def invert_jfraction(terms: Sequence[int | Fraction]) -> WeightRecovery:
    """Peel level and fall weights out of the counts c_0..c_n."""
    if not terms:
        raise ValueError("need at least the constant term")
    cur = [Fraction(t) for t in terms]
    if cur[0] != 1:
        raise ValueError(f"the constant term must be 1, got {cur[0]}")

    n = len(cur) - 1
    ell: list[Fraction] = []
    dee: list[Fraction] = []
    status = RecoveryStatus.COMPLETE
    # rows k-1 and k of the moment table; row -1 is zero and d_0 is unused
    above, row = [Fraction(0)] * n, cur
    fall = lead = Fraction(0)
    for k in range((n + 1) // 2):
        ratio = row[k + 1] / row[k]
        ell.append(ratio - lead)
        if 2 * k + 2 > n:
            break
        below = [row[l + 1] - ell[-1] * row[l] - fall * above[l] for l in range(n - k)]
        if any(below[: k + 1]):
            raise AssertionError("peeling lost its leading cancellation")
        fall = below[k + 1] / row[k]
        if fall == 0:
            status = RecoveryStatus.FAILED if any(below[k + 2 :]) else RecoveryStatus.TERMINATED
            break
        dee.append(fall)
        above, row, lead = row, below, ratio
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
    if recovery.status is RecoveryStatus.FAILED:
        raise ValueError("a failed recovery has no generating weights to run")
    if order is None:
        order = recovery.n_input - 1
    if recovery.status is RecoveryStatus.COMPLETE and order > recovery.n_input - 1:
        raise ValueError(
            f"only coefficients 0..{recovery.n_input - 1} are determined; "
            f"requested order {order}"
        )
    return list(jfraction_series(recovery.fall_weight, recovery.level_weight, order))

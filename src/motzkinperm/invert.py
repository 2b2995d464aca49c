"""Recovering continued-fraction weights from a sequence prefix.

Given counts c_0..c_n with c_0 = 1, peel one level per round: the level
weight is the linear coefficient of the current series, and subtracting the
level term and reciprocal leaves d * z^2 times the next level's series.
From n+1 terms this pins floor((n+1)/2) level weights and floor(n/2) fall
weights.  Peeling stops three ways:

* ``COMPLETE``    the prefix ran out; deeper weights need more terms
* ``TERMINATED``  a fall weight is 0 and the remainder vanishes, so the
                  fraction is finite and the recovered weights are exact
* ``FAILED``      a fall weight is 0 but the remainder does not vanish; no
                  weight assignment reproduces the input

The weights say something about what the sequence could count:
nonnegative integers leave room for a colored-path census, while negative or
fractional weights rule one out at this depth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cfrac import jfraction_series
from .series import Series


class RecoveryStatus(enum.Enum):
    COMPLETE = "Complete"
    TERMINATED = "Terminated"
    FAILED = "Failed"


@dataclass(frozen=True)
class WeightRecovery:
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

    ell: list[Fraction] = []
    dee: list[Fraction] = []
    status = RecoveryStatus.COMPLETE
    while len(cur) >= 2:
        ell.append(cur[1])
        if len(cur) < 3:
            break
        order = len(cur) - 1
        inv = Series(tuple(cur)).recip()
        rem = [Fraction(0)] * (order + 1)
        for i in range(order + 1):
            rem[i] = -inv[i]
        rem[0] += 1
        rem[1] -= ell[-1]
        if rem[0] != 0 or rem[1] != 0:
            raise AssertionError("peeling lost its leading cancellation")
        d = rem[2]
        if d == 0:
            if any(c != 0 for c in rem[2:]):
                status = RecoveryStatus.FAILED
            else:
                status = RecoveryStatus.TERMINATED
            break
        dee.append(d)
        cur = [c / d for c in rem[2:]]
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

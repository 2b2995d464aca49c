"""Weight schemes and continued-fraction expansion of path census series.

A weight scheme assigns to every step of a colored Motzkin path a marker
polynomial: ``down(h)`` is the total weight of a down step falling from
height h and ``level(h)`` that of a level step at height h.  Summing the
product of step weights over all paths of length n gives the census
polynomial of the permutation class the scheme describes, and that
generating function is exactly the continued fraction

    1 / (1 - level(0) z - down(1) z^2 / (1 - level(1) z - down(2) z^2 / ...))

Schemes with ``elevated=True`` count paths whose interior stays strictly
above height 0 (plus the single length-1 level path), and expand as

    level(0) z + down(1) z^2 / (1 - level(1) z - down(2) z^2 / ...)

Both are evaluated as that path sum (Flajolet 1980), one step at a time: the
weight f[n][h] of the length-n prefixes ending at height h obeys

    f[n+1][h] = f[n][h-1] + ell(h) f[n][h] + dee(h+1) f[n][h+1]

with heights kept to min(n, order - n).  Only ``+`` and ``*`` are used, with
0 and 1 taken from the weights' own type, so int, Fraction and MultiPoly
weights give int, Fraction and MultiPoly coefficients.  No weight above
height order // 2 is read.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from ._kernels import check_size
from .polys import MultiPoly

# Highest order WeightScheme.series expands.  The costliest input it admits,
# ``cf --scheme All --marks xvwq``, takes 4.0 s of CPU at order 20 and 18-20 s
# at 24 (Python 3.11.7, one core of an x86-64 Xeon); 24 keeps every scheme
# near 20 s.
MAX_ORDER = 24


def _path_sums(dee: Callable[[int], object], ell: Callable[[int], object], order: int) -> list:
    """Weights of the paths of length 0..order from height 0 back to it, never below."""
    top = order // 2
    levels = [ell(h) for h in range(top + 1)]
    falls = [dee(h) for h in range(1, top + 1)]
    zero = levels[0] * 0
    f = [zero + 1]
    sums = [f[0]]
    for n in range(order):
        cap = min(n + 1, order - n - 1)
        g = [zero] * (cap + 1)
        for h, c in enumerate(f):
            if h <= cap:
                g[h] += levels[h] * c
            if h < cap:
                g[h + 1] += c
            if h:
                g[h - 1] += falls[h - 1] * c
        f = g
        sums.append(f[0])
    return sums


def jfraction_series(
    dee: Callable[[int], object], ell: Callable[[int], object], order: int
) -> tuple:
    """Grounded-path census c_0..c_order from level weights ell and fall weights dee."""
    check_size(order, "order")
    return tuple(_path_sums(dee, ell, order))


def kfraction_series(
    dee: Callable[[int], object], ell: Callable[[int], object], order: int
) -> tuple:
    """Elevated-path census c_0..c_order (interior strictly above the axis)."""
    check_size(order, "order")
    lead = ell(0)
    sums = [lead * 0, lead][: order + 1]
    if order >= 2:
        fall = dee(1)
        raised = _path_sums(lambda h: dee(h + 1), lambda h: ell(h + 1), order - 2)
        sums += [c * fall for c in raised]
    return tuple(sums)


class WeightScheme(NamedTuple):
    """Step weights for one permutation class: ``down(h)`` and ``level(h)``."""

    name: str
    down: Callable[[int], MultiPoly]
    level: Callable[[int], MultiPoly]
    elevated: bool = False
    marks: frozenset = frozenset()

    def series(self, order: int) -> tuple[MultiPoly, ...]:
        """Census polynomials c_0..c_order, for order up to MAX_ORDER."""
        check_size(order, "order", MAX_ORDER)
        fn = kfraction_series if self.elevated else jfraction_series
        return fn(self.down, self.level, order)

    def counts(self, order: int) -> list[int]:
        """Plain cardinalities: every marker evaluated at 1."""
        return [c.value_at_ones() for c in self.series(order)]

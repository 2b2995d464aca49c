"""Sparse integer polynomials in the five statistic markers x, v, w, t, q.

The census attaches to each permutation the monomial

    x^(fixed points) * v^(excedances) * w^(double excedances)
      * t^(cycles) * q^(inversions)

and sums these over a class of permutations.  :class:`MultiPoly` is the small
exact arithmetic needed for that: dict from exponent 5-tuples to int
coefficients, immutable by convention, picklable, with +, -, *, ** and
comparison against plain ints.
"""

from __future__ import annotations

from typing import Iterable, Mapping

VARS = ("x", "v", "w", "t", "q")
_ZEROS = (0, 0, 0, 0, 0)


class MultiPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, ...], int] | None = None):
        clean: dict[tuple[int, int, int, int, int], int] = {}
        if coeffs:
            for exps, c in coeffs.items():
                if c == 0:
                    continue
                key = tuple(exps)
                if len(key) != 5 or any(e < 0 for e in key):
                    raise ValueError(f"bad exponent tuple {key!r}")
                clean[key] = clean.get(key, 0) + c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):
        return (MultiPoly, (self.coeffs,))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls({_ZEROS: 1})

    @classmethod
    def const(cls, c: int) -> "MultiPoly":
        return cls({_ZEROS: c})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        i = VARS.index(name)
        exps = [0] * 5
        exps[i] = 1
        return cls({tuple(exps): 1})

    @classmethod
    def monomial(cls, exps: Iterable[int], coeff: int = 1) -> "MultiPoly":
        return cls({tuple(exps): coeff})

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other: "MultiPoly | int") -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, int):
            return MultiPoly.const(other)
        return None

    def __add__(self, other: "MultiPoly | int") -> "MultiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        merged = dict(self.coeffs)
        for exps, c in o.coeffs.items():
            merged[exps] = merged.get(exps, 0) + c
        return MultiPoly(merged)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "MultiPoly | int") -> "MultiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: "MultiPoly | int") -> "MultiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in o.coeffs.items():
                key = (
                    e1[0] + e2[0],
                    e1[1] + e2[1],
                    e1[2] + e2[2],
                    e1[3] + e2[3],
                    e1[4] + e2[4],
                )
                out[key] = out.get(key, 0) + c1 * c2
        return MultiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative int")
        result = MultiPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- queries -----------------------------------------------------------

    def coefficient(self, exps: Iterable[int]) -> int:
        return self.coeffs.get(tuple(exps), 0)

    def coefficient_of(self, name: str, power: int) -> "MultiPoly":
        """The coefficient of ``name**power`` as a polynomial (slot zeroed)."""
        i = VARS.index(name)
        out: dict[tuple[int, ...], int] = {}
        for exps, c in self.coeffs.items():
            if exps[i] == power:
                key = exps[:i] + (0,) + exps[i + 1 :]
                out[key] = out.get(key, 0) + c
        return MultiPoly(out)

    def substitute(self, **values: int) -> "MultiPoly":
        """Set some of x, v, w, t, q to integer values.

        >>> p = MultiPoly.var("x") * MultiPoly.var("t") + 2
        >>> p.substitute(x=1) == MultiPoly.var("t") + 2
        True
        >>> p.substitute(x=0, t=5) == 2
        True
        """
        for name in values:
            if name not in VARS:
                raise ValueError(f"unknown variable {name!r}")
        out: dict[tuple[int, ...], int] = {}
        for exps, c in self.coeffs.items():
            factor = 1
            key = list(exps)
            for name, val in values.items():
                i = VARS.index(name)
                factor *= val ** exps[i]
                key[i] = 0
            if factor == 0:
                continue
            k = tuple(key)
            out[k] = out.get(k, 0) + c * factor
        return MultiPoly(out)

    def value_at_ones(self) -> int:
        return sum(self.coeffs.values())

    def variables_used(self) -> frozenset[str]:
        used = set()
        for exps in self.coeffs:
            for i, e in enumerate(exps):
                if e:
                    used.add(VARS[i])
        return frozenset(used)

    def to_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms as (exponents, coefficient), descending lexicographic."""
        return sorted(self.coeffs.items(), reverse=True)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for exps, c in self.to_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(VARS, exps)
                if e
            )
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"MultiPoly({self.coeffs!r})"


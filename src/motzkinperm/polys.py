"""Sparse integer polynomials in the five statistic markers x, v, w, t, q.

The census attaches to each permutation the monomial

    x^(fixed points) * v^(excedances) * w^(double excedances)
      * t^(cycles) * q^(inversions)

and sums these over a class of permutations.  :class:`MultiPoly` is the small
exact arithmetic needed for that, immutable by convention, picklable, with
+, -, *, ** and comparison against plain ints.

Each term is keyed by one packed int (a Kronecker substitution): exponent
e_i sits in a W-bit slot, ``sum(e_i << (W * (4 - i)))``, so x holds the
highest slot and q the lowest, and a term product is one int addition.
Descending key order is then descending lexicographic exponent order.
Every polynomial carries ``top``, a bound on each of its exponents: + and -
keep the larger bound, * adds them.  The bound does not shrink when terms
cancel or a slot is zeroed, so a product whose bound would reach 2**W first
looks at the exponents themselves, and raises OverflowError only if some
exponent of the product really reaches 2**W (it would carry between slots).
The public constructors, ``coefficient``, ``to_terms`` and pickles speak
exponent 5-tuples.
"""

from __future__ import annotations

from typing import Iterable, Mapping

VARS = ("x", "v", "w", "t", "q")

W = 64
_MASK = (1 << W) - 1
_SHIFTS = tuple(W * (4 - i) for i in range(5))


def check_marks(marks: Iterable[str]) -> frozenset[str]:
    """The markers named in ``marks``; ValueError for any name outside VARS."""
    chosen = frozenset(marks)
    bad = sorted(chosen - set(VARS))
    if bad:
        raise ValueError(f"unknown markers {bad}; valid markers are {list(VARS)}")
    return chosen


def _pack(exps: Iterable[int]) -> tuple[int, int]:
    """The packed key of an exponent 5-tuple, and its largest exponent."""
    key = tuple(exps)
    if len(key) != 5 or not all(type(e) is int and 0 <= e <= _MASK for e in key):
        raise ValueError(f"bad exponent tuple {key!r}")
    x, v, w, t, q = key
    return (((x << W | v) << W | w) << W | t) << W | q, max(key)


def _unpack(k: int) -> tuple[int, int, int, int, int]:
    return (k >> 4 * W, k >> 3 * W & _MASK, k >> 2 * W & _MASK, k >> W & _MASK, k & _MASK)


def _slot_tops(coeffs: Iterable[int]) -> list[int]:
    """The largest exponent in each slot over some packed keys (all 0 if none)."""
    return [max(col) for col in zip(*map(_unpack, coeffs))] or [0] * 5


def format_terms(terms: list[tuple[tuple[int, ...], int]]) -> str:
    """Text of a polynomial from its terms, in the order given."""
    if not terms:
        return "0"
    parts = []
    for exps, c in terms:
        mono = "*".join([v if e == 1 else f"{v}^{e}" for v, e in zip(VARS, exps) if e])
        mag = c if c > 0 else -c
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        parts.append(f" - {body}" if c < 0 else f" + {body}")
    first = parts[0]
    parts[0] = first[3:] if first[1] == "+" else "-" + first[3:]
    return "".join(parts)


class MultiPoly:
    __slots__ = ("coeffs", "top")

    def __new__(cls, coeffs: Mapping[tuple[int, ...], int] | None = None) -> "MultiPoly":
        clean: dict[int, int] = {}
        top = 0
        for exps, c in (coeffs or {}).items():
            key, high = _pack(exps)
            if c:
                clean[key] = clean.get(key, 0) + c
                top = max(top, high)
        return cls._make(clean, top)

    @classmethod
    def _make(cls, coeffs: dict[int, int], top: int) -> "MultiPoly":
        """Wrap packed terms without checking them; zero terms are dropped."""
        p = object.__new__(cls)
        if 0 in coeffs.values():
            coeffs = {k: c for k, c in coeffs.items() if c}
        object.__setattr__(p, "coeffs", coeffs)
        object.__setattr__(p, "top", top)
        return p

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):
        return (MultiPoly, (dict(self.to_terms()),))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls.const(1)

    @classmethod
    def const(cls, c: int) -> "MultiPoly":
        return cls._make({0: 0 + c}, 0)  # 0 + c stores True as 1

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        return cls._make({1 << _SHIFTS[VARS.index(name)]: 1}, 1)

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
        big, small = self.coeffs, o.coeffs
        if len(big) < len(small):
            big, small = small, big
        merged = dict(big)
        get = merged.get
        for k, c in small.items():
            merged[k] = get(k, 0) + c
        return MultiPoly._make(merged, max(self.top, o.top))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._make({k: -c for k, c in self.coeffs.items()}, self.top)

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
        top = self.top + o.top
        if top > _MASK:
            top = max(map(sum, zip(_slot_tops(self.coeffs), _slot_tops(o.coeffs))))
        if top > _MASK:
            raise OverflowError(f"a product exponent reaches {top}, past the {W}-bit slots")
        small, big = self.coeffs, o.coeffs
        if len(small) > len(big):
            small, big = big, small
        out: dict[int, int] = {}
        get = out.get
        right = list(big.items())
        for k1, c1 in small.items():
            for k2, c2 in right:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return MultiPoly._make(out, top)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative int")
        result = MultiPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
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
        """The coefficient of one monomial; ValueError for a bad exponent tuple."""
        return self.coeffs.get(_pack(exps)[0], 0)

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
        slots = [(_SHIFTS[VARS.index(name)], val) for name, val in values.items()]
        out: dict[int, int] = {}
        for k, c in self.coeffs.items():
            key = k
            for shift, val in slots:
                e = k >> shift & _MASK
                c *= val**e
                key -= e << shift
            if c:
                out[key] = out.get(key, 0) + c
        return MultiPoly._make(out, self.top)

    def value_at_ones(self) -> int:
        return sum(self.coeffs.values())

    def to_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms as (exponents, coefficient), descending lexicographic."""
        return [(_unpack(k), c) for k, c in sorted(self.coeffs.items(), reverse=True)]

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        return format_terms(self.to_terms())

    def __repr__(self) -> str:
        return f"MultiPoly({dict(self.to_terms())!r})"

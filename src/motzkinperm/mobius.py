"""Closed-form counts of cyclic permutations avoiding small pattern sets.

For four specific pattern families the number of n-cycles avoiding every
pattern in the family is a Mobius-function divisor sum.  The brute-force
companion here recounts the same classes by direct enumeration, which is
what the test suite compares against: the prefix walk places one entry at a
time and drops a prefix as soon as it closes a cycle early or an entry ends
an occurrence of a pattern.  Every occurrence ends at some entry, so each
permutation the walk reaches is counted as it is.

The fourth family carries a correction term when n = 2 mod 4.  Taken
literally at n = 2 that term overshoots (it would give 3, but there is only
one 2-cycle in total), while at n = 6 it is required (9 without, 11 with;
enumeration gives 11).  The term is therefore applied for n = 2 mod 4 with
n > 2, which reproduces the enumeration everywhere it is feasible to run.
"""

from __future__ import annotations

from . import _kernels
from .perms import Pattern
from .subsets import is_cyclic

FAMILIES = ("213,312", "132,231", "321,2143,3142", "123,2413,3412")

# The largest n that :func:`brute_count` enumerates: at 12 it takes 2.3 s
# for the first two families and 5.5 s for the last two (CPU time, pure
# Python 3.11.7 on a 2-core x86-64 virtual machine); at 13, 6.4-18 s.
BRUTE_CAP = 12


def mobius_value(n: int) -> int:
    """The number-theoretic Mobius function."""
    if n < 1:
        raise ValueError("mobius_value needs n >= 1")
    result = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _exact_div(num: int, den: int) -> int:
    if num % den:
        raise AssertionError(f"divisor sum {num} is not divisible by {den}")
    return num // den


def _normalize_family(family: str) -> str:
    key = "".join(family.split())
    if key not in FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; valid families: {', '.join(FAMILIES)}"
        )
    return key


def _check_n(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"counts are defined here for an int n >= 2, got {n!r}")


def mobius_count(family: str, n: int) -> int:
    """Count of n-cycles avoiding every pattern in the family, by formula."""
    key = _normalize_family(family)
    _check_n(n)
    if key in ("213,312", "132,231"):
        total = sum(
            mobius_value(d) * 2 ** (n // d) for d in _divisors(n) if d % 2 == 1
        )
        return _exact_div(total, 2 * n)
    total = sum(mobius_value(d) * 2 ** (n // d) for d in _divisors(n))
    value = _exact_div(total, n)
    if key == "123,2413,3412" and n % 4 == 2 and n > 2:
        extra = sum(mobius_value(d) * 2 ** (n // (2 * d)) for d in _divisors(n // 2))
        value += _exact_div(2 * extra, n)
    return value


def brute_count(family: str, n: int) -> int:
    """The same count by walking the n-cycles that avoid the patterns."""
    key = _normalize_family(family)
    _check_n(n)
    if n > BRUTE_CAP:
        raise ValueError(
            f"brute-force count over size {n} would enumerate up to {n - 1}! "
            f"cycles; the cap is {BRUTE_CAP}"
        )
    patterns = [Pattern(tuple(int(c) for c in pat)) for pat in key.split(",")]

    def prefix_ok(prefix, i, v):
        return is_cyclic(prefix, i, v) and not any(
            pat.ends_at(prefix.values, i, v) for pat in patterns
        )

    return sum(1 for _ in _kernels.prefix_walk(n, prefix_ok))

"""Reference integer sequences and closed-form generating functions.

These serve as independent cross-checks for the census machinery: classical
recurrences and binomial formulas, and exact int recurrences read off the
functional equation of each class's generating function.  A few sequences
have no handy closed form and are produced by running their classical
continued-fraction weights forward; those are pinned against hard-coded
prefixes so a defect in the evaluator cannot silently vandalize both sides
of a test.
"""

from __future__ import annotations

from math import comb, factorial

from ._kernels import check_size
from .cfrac import MAX_ORDER, jfraction_series


def factorials(n_max: int) -> list[int]:
    check_size(n_max, "n_max")
    return [factorial(n) for n in range(n_max + 1)]


def catalan_numbers(n_max: int) -> list[int]:
    check_size(n_max, "n_max")
    return [comb(2 * n, n) // (n + 1) for n in range(n_max + 1)]


def bell_numbers(n_max: int) -> list[int]:
    check_size(n_max, "n_max")
    out = [1]
    for n in range(n_max):
        out.append(sum(comb(n, k) * out[k] for k in range(n + 1)))
    return out


def baxter_numbers(n_max: int) -> list[int]:
    check_size(n_max, "n_max")
    out = [1]
    for n in range(1, n_max + 1):
        total = sum(
            comb(n + 1, k - 1) * comb(n + 1, k) * comb(n + 1, k + 1) for k in range(1, n + 1)
        )
        value, rest = divmod(total, comb(n + 1, 1) * comb(n + 1, 2))
        if rest:
            raise AssertionError(f"non-integer Baxter value at n={n}")
        out.append(value)
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


# -- closed-form generating functions (exact int recurrences) --------------


def egf_no_double_step_counts(n_max: int) -> list[int]:
    """Coefficients of A = exp(z)/cos(z), as plain counts.

    A cos z = e^z gives a(n) = 1 - sum_{k>=1} (-1)^k C(n, 2k) a(n - 2k).
    """
    check_size(n_max, "n_max")
    out: list[int] = []
    for n in range(n_max + 1):
        alt = sum((-1) ** k * comb(n, 2 * k) * out[n - 2 * k] for k in range(1, n // 2 + 1))
        out.append(1 - alt)
    return out


def egf_involution_counts(n_max: int) -> list[int]:
    """Coefficients of A = exp(z + z^2/2), as plain counts.

    A' = (1 + z) A gives a(n + 1) = a(n) + n a(n - 1).
    """
    check_size(n_max, "n_max")
    out = [1, 1][: n_max + 1]
    for n in range(1, n_max):
        out.append(out[n] + n * out[n - 1])
    return out


def egf_unimodal_cycle_counts(n_max: int) -> list[int]:
    """Coefficients of A = exp(C), C = (exp(2z) + 2z - 1)/4, as plain counts.

    C has c(1) = 1 and c(k) = 2^(k-2) for k >= 2, and A' = C' A gives
    a(n + 1) = sum_k C(n, k) c(k + 1) a(n - k).
    """
    check_size(n_max, "n_max")
    c = [0, 1] + [2 ** (k - 2) for k in range(2, n_max + 1)]
    out = [1]
    for n in range(n_max):
        out.append(sum(comb(n, k) * c[k + 1] * out[n - k] for k in range(n + 1)))
    return out


def ogf_increasing_exc_def_counts(n_max: int) -> list[int]:
    """Coefficients of G = 2 / (1 + z + sqrt(1 - 6z + 5z^2)).

    G solves G = 1 - z G + (2z - z^2) G^2; ``sq`` carries the coefficients
    of G^2 alongside those of G.
    """
    check_size(n_max, "n_max")
    out, sq = [1], [1]
    for n in range(1, n_max + 1):
        out.append(2 * sq[n - 1] - out[n - 1] - (sq[n - 2] if n > 1 else 0))
        sq.append(sum(out[i] * out[n - i] for i in range(n + 1)))
    return out


def closed_form_counts(subset: SubsetId | str, n_max: int) -> list[int] | None:
    """Known count formula for a class (a :class:`SubsetId` or its name), or
    None where no product form exists.

    Sizes share the continued fraction's cap, so that every census source
    stops at the same order.
    """
    from .subsets import SubsetId  # subsets reads its closed forms from here

    check_size(n_max, "n_max", MAX_ORDER)
    closed = SubsetId(subset).spec.closed
    return None if closed is None else closed(n_max)

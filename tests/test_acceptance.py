"""End-to-end acceptance checks.

Each test here verifies one headline guarantee of the package, with exact
arithmetic throughout — no tolerances anywhere.  Run with ``pytest -v`` to
get one pass/fail line per guarantee; the closing ``print`` in each test
adds a human-readable confirmation under ``-s``.

Reference values are computed inside this module from first principles
(direct enumeration, classical recurrences, exact power-series arithmetic
over ``Fraction``) so that the checks do not lean on the code under test.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from conftest import all_perms
from reference import (
    ascent_count,
    central_binomials,
    central_trinomials,
    derangement_numbers,
    even_double_factorials,
    labeled_graph_counts,
    left_to_right_minima,
    motzkin_numbers,
    no_singleton_partition_counts,
    odd_double_factorials,
    schroder_numbers,
    zigzag_numbers,
)

from motzkinperm.bell import (
    SetPartition,
    block_path_to_partition,
    cycle_to_partition,
    cycle_to_path,
    enumerate_block_paths,
    enumerate_cycle_paths,
    lengthen_path,
    set_partitions,
    shorten_path,
)
from motzkinperm.cfrac import MAX_ORDER
from motzkinperm.invert import RecoveryStatus, classify_weights, invert_jfraction
from motzkinperm.mobius import FAMILIES, brute_count, mobius_count
from motzkinperm.oracle import (
    consecutive_123_distribution,
    count,
    distribution,
    members,
    sweep_counts,
)
from motzkinperm.paths import enumerate_paths, path_to_perm, perm_to_path
from motzkinperm.perms import count_consecutive_123, foata, stats
from motzkinperm.schemes import scheme_for
from motzkinperm.sequences import (
    baxter_numbers,
    bell_numbers,
    catalan_numbers,
    closed_form_counts,
    consecutive_123_avoider_counts,
    factorials,
    genocchi_numbers,
    median_genocchi_numbers,
)
from motzkinperm.subsets import SubsetId


# -- independent series helpers (plain Fraction lists, one entry per power) --


def _mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    return [
        sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
        for k in range(len(a))
    ]


def _recip(a: list[Fraction]) -> list[Fraction]:
    assert a[0] == 1
    out = [Fraction(1)]
    for k in range(1, len(a)):
        out.append(-sum(a[i] * out[k - i] for i in range(1, k + 1)))
    return out


def _sqrt(a: list[Fraction]) -> list[Fraction]:
    assert a[0] == 1
    out = [Fraction(1)]
    for k in range(1, len(a)):
        out.append((a[k] - sum(out[i] * out[k - i] for i in range(1, k))) / 2)
    return out


def _exp(a: list[Fraction]) -> list[Fraction]:
    assert a[0] == 0
    out = [Fraction(1)]
    for k in range(len(a) - 1):
        term = sum((j + 1) * a[j + 1] * out[k - j] for j in range(k + 1))
        out.append(term / (k + 1))
    return out


def _egf_counts(coeffs: list[Fraction]) -> list[int]:
    counts = []
    for n, c in enumerate(coeffs):
        value = c * math.factorial(n)
        assert value.denominator == 1
        counts.append(int(value))
    return counts


def _bell_triangle(n_max: int) -> list[int]:
    out = [1]
    row = [1]
    for _ in range(n_max):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        out.append(new[0])
        row = new
    return out


def test_01_path_encoding_bijects_onto_valid_colored_paths():
    for n in range(8):
        image = set()
        for values in all_perms(n):
            path = perm_to_path(values)
            assert path_to_perm(path).values == values, values
            image.add(path.to_text())
        assert len(image) == math.factorial(n)
        assert image == {p.to_text() for p in enumerate_paths(n)}
        for path in enumerate_paths(n):
            assert perm_to_path(path_to_perm(path)).to_text() == path.to_text()
    print("PASS 01: encoding is a bijection onto valid colored paths, n <= 7")


def test_02_cycle_count_distribution_matches_continued_fraction():
    series = scheme_for(SubsetId.ALL, "xvwt").series(7)
    for n in range(8):
        assert series[n] == distribution(n, SubsetId.ALL, "xvwt"), n
    print("PASS 02: fixed/excedance/chain/cycle distribution matches, n <= 7")


def test_03_inversion_distribution_matches_continued_fraction():
    series = scheme_for(SubsetId.ALL, "xvwq").series(7)
    for n in range(8):
        assert series[n] == distribution(n, SubsetId.ALL, "xvwq"), n
    print("PASS 03: fixed/excedance/chain/inversion distribution matches, n <= 7")


def test_04_rising_run_statistic_transports_and_counts_avoiders():
    series = scheme_for("Consecutive123", "w").series(7)
    run_free = consecutive_123_avoider_counts(7)
    for n in range(8):
        chain_dist = distribution(n, SubsetId.ALL, "w")
        run_dist = consecutive_123_distribution(n)
        assert chain_dist == run_dist, n
        assert series[n] == run_dist, n
        image = set()
        for values in all_perms(n):
            vec = stats(values)
            out = foata(values)
            image.add(out)
            assert count_consecutive_123(out) == vec.double_excedances, values
            assert ascent_count(out) == vec.excedances, values
            assert left_to_right_minima(out) == vec.cycles, values
        assert len(image) == math.factorial(n)
        brute_free = sum(
            1 for values in all_perms(n) if count_consecutive_123(values) == 0
        )
        assert run_dist.substitute(w=0) == brute_free == run_free[n]
    print("PASS 04: rising-run statistic transports and counts run-free case")


def _generating_function_counts(order: int) -> dict[SubsetId, list[int]]:
    """Counts of the classes whose closed forms are exp(z)/cos z,
    exp(z + z^2/2), exp((e^{2z} + 2z - 1)/4) and 2/(1 + z + sqrt(1 - 6z + 5z^2)),
    by series arithmetic over Fraction up to z**order (order >= 2)."""
    cos_z = [
        Fraction((-1) ** (k // 2), math.factorial(k)) if k % 2 == 0 else Fraction(0)
        for k in range(order + 1)
    ]
    exp_z = [Fraction(1, math.factorial(k)) for k in range(order + 1)]
    no_double = _egf_counts(_mul(exp_z, _recip(cos_z)))

    pairing_arg = [Fraction(0)] * (order + 1)
    pairing_arg[1] = Fraction(1)
    pairing_arg[2] = Fraction(1, 2)
    involutions = _egf_counts(_exp(pairing_arg))

    unimodal_arg = [Fraction(0)] * (order + 1)
    unimodal_arg[1] = Fraction(1)
    for k in range(2, order + 1):
        unimodal_arg[k] = Fraction(2**k, 4 * math.factorial(k))
    unimodal = _egf_counts(_exp(unimodal_arg))

    radicand = [Fraction(0)] * (order + 1)
    radicand[0], radicand[1], radicand[2] = Fraction(1), Fraction(-6), Fraction(5)
    root = _sqrt(radicand)
    half_denominator = [c / 2 for c in root]
    half_denominator[0] += Fraction(1, 2)
    half_denominator[1] += Fraction(1, 2)
    assert half_denominator[0] == 1
    two_term = []
    for c in _recip(half_denominator):
        assert c.denominator == 1
        two_term.append(int(c))
    return {
        SubsetId.UNIMODAL_CYCLES: unimodal,
        SubsetId.INCREASING_EXC_AND_DEF: two_term,
        SubsetId.UNIMODAL_NONCROSSING: two_term,
        SubsetId.NO_DOUBLE_EXC_OR_DEF: no_double,
        SubsetId.INVOLUTIONS: involutions,
    }


def test_05_class_counts_agree_across_all_three_sources():
    n_max = 8

    fact = [math.factorial(n) for n in range(n_max + 1)]
    catalan = [math.comb(2 * n, n) // (n + 1) for n in range(n_max + 1)]
    bells = _bell_triangle(n_max)
    formulas = {
        SubsetId.ALL: fact,
        SubsetId.CYCLIC: [0] + fact[: n_max],
        SubsetId.AVOID321: catalan,
        SubsetId.UNIMODAL_NONCROSSING_NO_NESTED_FP: catalan,
        SubsetId.NONCROSSING: catalan,
        SubsetId.INCREASING_WEAK_EXC: bells,
        SubsetId.CYCLIC_INCREASING_EXC: [0] + bells[: n_max],
        **_generating_function_counts(n_max),
        SubsetId.INVOLUTIONS321: [math.comb(n, n // 2) for n in range(n_max + 1)],
    }

    fraction_counts = {s: scheme_for(s, "").counts(n_max) for s in SubsetId}
    for n in range(n_max + 1):
        counted = sweep_counts(n)
        for subset in SubsetId:
            assert fraction_counts[subset][n] == counted[subset], (subset, n)
            if subset in formulas:
                assert formulas[subset][n] == counted[subset], (subset, n)

    for subset in SubsetId:
        catalogue = closed_form_counts(subset, n_max)
        if subset in formulas:
            assert catalogue == formulas[subset], subset
        else:
            assert catalogue is None, subset
    print("PASS 05: enumeration, fraction, and formula agree for every class, n <= 8")


def test_05b_recurrence_closed_forms_match_series_arithmetic_up_to_the_cap():
    for subset, want in _generating_function_counts(MAX_ORDER).items():
        assert closed_form_counts(subset, MAX_ORDER) == want, subset
    print(f"PASS 05b: the closed-form recurrences match series arithmetic, n <= {MAX_ORDER}")


def test_05c_pruned_enumeration_reaches_size_10():
    n = 10
    catalan = math.comb(2 * n, n) // (n + 1)
    formulas = {
        SubsetId.AVOID321: catalan,
        SubsetId.NONCROSSING: catalan,
        SubsetId.INVOLUTIONS: _generating_function_counts(n)[SubsetId.INVOLUTIONS][n],
        SubsetId.INVOLUTIONS321: math.comb(n, n // 2),
    }
    for subset, formula in formulas.items():
        counted = count(n, subset)
        assert counted == formula == scheme_for(subset, "").counts(n)[n], subset
        assert closed_form_counts(subset, n)[n] == counted, subset
    print("PASS 05c: enumeration, fraction, and formula agree for four classes at n = 10")


def test_06_cycle_class_bijects_onto_smaller_set_partitions():
    for n in range(1, 9):
        texts = [
            cycle_to_partition(values).to_text()
            for values in members(n, SubsetId.CYCLIC_INCREASING_EXC)
        ]
        expected = {SetPartition.of(p).to_text() for p in set_partitions(n - 1)}
        assert len(texts) == len(set(texts)), n
        assert set(texts) == expected, n

    for n in range(1, 9):
        shortened = set()
        for epath in enumerate_cycle_paths(n):
            bpath = shorten_path(epath)
            assert lengthen_path(bpath).to_text() == epath.to_text()
            shortened.add(bpath.to_text())
        assert shortened == {b.to_text() for b in enumerate_block_paths(n - 1)}
        for bpath in enumerate_block_paths(n - 1):
            assert shorten_path(lengthen_path(bpath)).to_text() == bpath.to_text()

    big = sum(1 for _ in members(9, SubsetId.CYCLIC_INCREASING_EXC))
    assert big == 4140

    perm = (2, 6, 8, 3, 9, 11, 4, 5, 1, 7, 10)
    epath = cycle_to_path(perm)
    assert epath.to_text() == "U L1 U L1 U L3 L1 D1 D0 L0 D0"
    bpath = shorten_path(epath)
    assert bpath.to_text() == "U L1 U L1 U D2 L1 D1 D0 L0"
    assert block_path_to_partition(bpath).to_text() == "1 9 | 2 | 3 4 7 8 | 5 6 | 10"
    print("PASS 06: cycle class of size n bijects onto partitions of n-1, n <= 8")


def test_07_area_equals_inversions_on_321_avoiders():
    for n in range(9):
        for values in members(n, SubsetId.AVOID321):
            assert perm_to_path(values).area() == stats(values).inversions, values
    print("PASS 07: path area equals inversion count on 321-avoiders, n <= 8")


def test_08_weight_recovery_from_reference_sequences():
    rows = [
        (
            "catalan",
            catalan_numbers(12),
            [1, 1, 2, 5, 14, 42, 132, 429],
            lambda h: 1,
            lambda h: 1 if h == 0 else 2,
        ),
        (
            "motzkin",
            motzkin_numbers(12),
            [1, 1, 2, 4, 9, 21, 51, 127],
            lambda h: 1,
            lambda h: 1,
        ),
        (
            "central-binomial",
            central_binomials(12),
            [1, 2, 6, 20, 70, 252, 924, 3432],
            lambda h: 2 if h == 1 else 1,
            lambda h: 2,
        ),
        (
            "central-trinomial",
            central_trinomials(12),
            [1, 1, 3, 7, 19, 51, 141, 393],
            lambda h: 2 if h == 1 else 1,
            lambda h: 1,
        ),
        (
            "schroder",
            schroder_numbers(12),
            [1, 2, 6, 22, 90, 394, 1806, 8558],
            lambda h: 2,
            lambda h: 2 if h == 0 else 3,
        ),
        (
            "bell",
            bell_numbers(12),
            [1, 1, 2, 5, 15, 52, 203, 877],
            lambda h: h,
            lambda h: h + 1,
        ),
        (
            "no-singleton-partitions",
            no_singleton_partition_counts(12),
            [1, 0, 1, 1, 4, 11, 41, 162],
            lambda h: h,
            lambda h: h,
        ),
        (
            "factorial",
            factorials(12),
            [1, 1, 2, 6, 24, 120, 720, 5040],
            lambda h: h * h,
            lambda h: 2 * h + 1,
        ),
        (
            "odd-double-factorial",
            odd_double_factorials(12),
            [1, 1, 3, 15, 105, 945, 10395, 135135],
            lambda h: 2 * h * (2 * h - 1),
            lambda h: 4 * h + 1,
        ),
        (
            "even-double-factorial",
            even_double_factorials(12),
            [1, 2, 8, 48, 384, 3840, 46080, 645120],
            lambda h: 4 * h * h,
            lambda h: 4 * h + 2,
        ),
        (
            "derangements",
            derangement_numbers(12),
            [1, 0, 1, 2, 9, 44, 265, 1854],
            lambda h: h * h,
            lambda h: 2 * h,
        ),
        (
            "alternating-shifted",
            zigzag_numbers(13)[1:],
            [1, 1, 2, 5, 16, 61, 272, 1385],
            lambda h: h * (h + 1) // 2,
            lambda h: h + 1,
        ),
        (
            "run-free",
            consecutive_123_avoider_counts(12),
            [1, 1, 2, 5, 17, 70, 349, 2017],
            lambda h: h * h,
            lambda h: h + 1,
        ),
        (
            "labeled-graphs",
            labeled_graph_counts(12),
            [1, 1, 2, 8, 64, 1024, 32768, 2097152],
            lambda h: 8 ** (h - 1) * (2**h - 1),
            lambda h: (3 * 2**h - 1) * 2**h // 2,
        ),
        (
            "even-genocchi",
            genocchi_numbers(12),
            [1, 1, 3, 17, 155, 2073, 38227, 929569],
            lambda h: h**3 * (h + 1),
            lambda h: (h + 1) * (2 * h + 1),
        ),
        (
            "median-genocchi",
            median_genocchi_numbers(12),
            [1, 1, 2, 8, 56, 608, 9440, 198272],
            lambda h: h**4,
            lambda h: 2 * h * (h + 1) + 1,
        ),
    ]
    assert len(rows) == 16
    for label, terms, head, dee, ell in rows:
        assert len(terms) == 13, label
        assert terms[: len(head)] == head, label
        rec = invert_jfraction(terms)
        assert rec.status is RecoveryStatus.COMPLETE, label
        assert list(rec.ell) == [ell(h) for h in range(6)], label
        assert list(rec.dee) == [dee(h) for h in range(1, 7)], label
        assert classify_weights(rec) == "nonnegative-integers", label

    baxter = baxter_numbers(12)
    assert baxter[:8] == [1, 1, 2, 6, 22, 92, 422, 2074]
    assert classify_weights(invert_jfraction(baxter)) == "negative-or-fractional"
    print("PASS 08: 13 terms of each reference sequence recover the stated weights")


def test_09_cyclic_avoidance_formulas_match_enumeration():
    at_six = {
        "213,312": 5,
        "132,231": 5,
        "321,2143,3142": 9,
        "123,2413,3412": 11,
    }
    assert set(FAMILIES) == set(at_six)
    for family in FAMILIES:
        for n in range(2, 11):
            assert mobius_count(family, n) == brute_count(family, n), (family, n)
        assert mobius_count(family, 6) == at_six[family], family
    print("PASS 09: all four divisor-sum formulas match enumeration, 2 <= n <= 10")


def _motzkin_words(n: int):
    def walk(prefix: list[str], h: int, left: int):
        if left == 0:
            if h == 0:
                yield "".join(prefix)
            return
        if h < left:
            prefix.append("U")
            yield from walk(prefix, h + 1, left - 1)
            prefix.pop()
        if h <= left - 1:
            prefix.append("L")
            yield from walk(prefix, h, left - 1)
            prefix.pop()
        if h > 0:
            prefix.append("D")
            yield from walk(prefix, h - 1, left - 1)
            prefix.pop()

    yield from walk([], 0, n)


def _word_weight(word: str) -> int:
    h = 0
    weight = 1
    for ch in word:
        if ch == "U":
            h += 1
        elif ch == "L":
            weight *= 2 * h + 1
        else:
            weight *= h * h
            h -= 1
    return weight


def test_10_fiber_over_each_uncolored_word_has_the_product_size():
    for n in range(8):
        tally: Counter[str] = Counter()
        for values in all_perms(n):
            tally[perm_to_path(values).word] += 1
        expected = {word: _word_weight(word) for word in _motzkin_words(n)}
        assert tally == expected, n
        assert sum(tally.values()) == math.factorial(n)
    print("PASS 10: every fiber size equals the product of its step weights, n <= 7")

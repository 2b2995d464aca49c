"""Reference integer sequences, each produced independently of the path code."""

from __future__ import annotations

import math

import pytest

from motzkinperm.bell import set_partitions
from motzkinperm.cfrac import jfraction_series, kfraction_series
from motzkinperm.paths import enumerate_paths
from motzkinperm.schemes import scheme_for
from motzkinperm.sequences import (
    baxter_numbers,
    bell_numbers,
    catalan_numbers,
    closed_form_counts,
    consecutive_123_avoider_counts,
    egf_involution_counts,
    egf_no_double_step_counts,
    egf_unimodal_cycle_counts,
    factorials,
    genocchi_numbers,
    median_genocchi_numbers,
    ogf_increasing_exc_def_counts,
)
from motzkinperm.subsets import SubsetId

from reference import (
    central_binomials,
    central_trinomials,
    derangement_numbers,
    even_double_factorials,
    labeled_graph_counts,
    motzkin_numbers,
    no_singleton_partition_counts,
    odd_double_factorials,
    schroder_numbers,
    zigzag_numbers,
)


def test_factorials():
    assert factorials(6) == [1, 1, 2, 6, 24, 120, 720]


def test_catalan():
    assert catalan_numbers(8) == [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_motzkin():
    assert motzkin_numbers(8) == [1, 1, 2, 4, 9, 21, 51, 127, 323]


def test_schroder():
    assert schroder_numbers(7) == [1, 2, 6, 22, 90, 394, 1806, 8558]


def test_central_binomials_and_trinomials():
    assert central_binomials(6) == [1, 2, 6, 20, 70, 252, 924]
    assert central_trinomials(7) == [1, 1, 3, 7, 19, 51, 141, 393]


def test_bell_against_set_partition_enumeration():
    assert bell_numbers(8) == [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    for n in range(8):
        assert sum(1 for _ in set_partitions(n)) == bell_numbers(n)[n]


def test_no_singleton_partitions_against_filtered_enumeration():
    assert no_singleton_partition_counts(7) == [1, 0, 1, 1, 4, 11, 41, 162]
    for n in range(8):
        direct = sum(
            1
            for blocks in set_partitions(n)
            if all(len(b) >= 2 for b in blocks)
        )
        assert direct == no_singleton_partition_counts(n)[n]


def test_derangements_by_recurrence_and_formula():
    got = derangement_numbers(8)
    assert got == [1, 0, 1, 2, 9, 44, 265, 1854, 14833]
    for n, d in enumerate(got):
        inclusion_exclusion = sum(
            (-1) ** i * math.factorial(n) // math.factorial(i) for i in range(n + 1)
        )
        assert d == inclusion_exclusion


def test_zigzag_numbers_literal_prefix():
    assert zigzag_numbers(10) == [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521]


def test_double_factorials():
    assert odd_double_factorials(6) == [1, 1, 3, 15, 105, 945, 10395]
    assert even_double_factorials(6) == [1, 2, 8, 48, 384, 3840, 46080]
    for n in range(7):
        assert even_double_factorials(n)[n] == 2**n * math.factorial(n)


def test_labeled_graph_counts():
    assert labeled_graph_counts(6) == [1, 1, 2, 8, 64, 1024, 32768]
    for n, c in enumerate(labeled_graph_counts(6)):
        assert c == 2 ** math.comb(n, 2)


def test_baxter_numbers():
    assert baxter_numbers(8) == [1, 1, 2, 6, 22, 92, 422, 2074, 10754]


def test_genocchi_flavors():
    assert genocchi_numbers(7) == [1, 1, 3, 17, 155, 2073, 38227, 929569]
    assert median_genocchi_numbers(7) == [1, 1, 2, 8, 56, 608, 9440, 198272]


def test_consecutive_123_avoiders():
    assert consecutive_123_avoider_counts(7) == [1, 1, 2, 5, 17, 70, 349, 2017]


def test_egf_sequences():
    assert egf_involution_counts(7) == [1, 1, 2, 4, 10, 26, 76, 232]
    assert egf_no_double_step_counts(5) == [1, 1, 2, 4, 12, 36]
    assert egf_unimodal_cycle_counts(5) == [1, 1, 2, 6, 22, 94]


def test_ogf_increasing_exc_def_counts():
    got = ogf_increasing_exc_def_counts(7)
    assert got[:5] == [1, 1, 2, 6, 21]
    assert all(isinstance(c, int) for c in got)


def test_closed_form_catalogue():
    assert closed_form_counts(SubsetId.ALL, 5) == factorials(5)
    assert closed_form_counts(SubsetId.CYCLIC, 5) == [0, 1, 1, 2, 6, 24]
    assert closed_form_counts(SubsetId.AVOID321, 6) == catalan_numbers(6)
    assert closed_form_counts(SubsetId.NONCROSSING, 6) == catalan_numbers(6)
    assert closed_form_counts(SubsetId.INCREASING_WEAK_EXC, 6) == bell_numbers(6)
    assert closed_form_counts(SubsetId.CYCLIC_INCREASING_EXC, 6) == [0] + bell_numbers(
        5
    )
    assert closed_form_counts(SubsetId.INVOLUTIONS321, 6) == [
        math.comb(n, n // 2) for n in range(7)
    ]
    assert closed_form_counts(SubsetId.INCREASING_EXC, 6) is None
    assert closed_form_counts(SubsetId.UNIMODAL_CYCLES_INCREASING_EXC, 6) is None


@pytest.mark.parametrize("subset", list(SubsetId), ids=lambda s: s.value)
def test_closed_form_refuses_a_negative_size(subset):
    with pytest.raises(ValueError, match="nonnegative"):
        closed_form_counts(subset, -1)


@pytest.mark.parametrize(
    "sequence",
    [
        baxter_numbers,
        bell_numbers,
        catalan_numbers,
        consecutive_123_avoider_counts,
        egf_involution_counts,
        egf_no_double_step_counts,
        egf_unimodal_cycle_counts,
        factorials,
        genocchi_numbers,
        median_genocchi_numbers,
        ogf_increasing_exc_def_counts,
    ],
    ids=lambda f: f.__name__,
)
def test_every_sequence_refuses_a_negative_size(sequence):
    with pytest.raises(ValueError, match="nonnegative"):
        sequence(-1)


@pytest.mark.parametrize("size", [2.5, "3", None, True], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        factorials,
        lambda n: closed_form_counts(SubsetId.ALL, n),
        lambda n: list(set_partitions(n)),
        lambda n: list(enumerate_paths(n)),
        lambda n: jfraction_series(lambda h: 1, lambda h: 1, n),
        lambda n: kfraction_series(lambda h: 1, lambda h: 1, n),
        lambda n: scheme_for(SubsetId.ALL, "x").series(n),
    ],
    ids=["factorials", "closed_form_counts", "set_partitions", "enumerate_paths",
         "jfraction_series", "kfraction_series", "series"],
)
def test_every_size_taker_refuses_a_size_that_is_not_an_int(call, size):
    with pytest.raises(ValueError, match="must be an int"):
        call(size)


def test_zero_length_prefixes():
    assert factorials(0) == [1]
    assert bell_numbers(0) == [1]
    assert genocchi_numbers(0) == [1]

"""The weight-scheme catalogue: one entry per class plus the run-statistic one."""

from __future__ import annotations

from itertools import combinations

import pytest

from motzkinperm.oracle import consecutive_123_distribution, distribution
from motzkinperm.schemes import EXTRA_SCHEMES, scheme_for, scheme_names
from motzkinperm.sequences import (
    bell_numbers,
    catalan_numbers,
    egf_involution_counts,
    egf_no_double_step_counts,
    factorials,
)
from motzkinperm.subsets import SubsetId


def test_catalogue_is_complete():
    names = scheme_names()
    assert len(names) == len(SubsetId) + len(EXTRA_SCHEMES)
    for subset in SubsetId:
        assert subset.value in names
    assert "Consecutive123" in names


def test_lookup_by_subset_and_by_name_agree():
    for subset in SubsetId:
        by_subset = scheme_for(subset)
        by_name = scheme_for(subset.value)
        assert by_subset.name == by_name.name == subset.value
        assert by_subset.marks == by_name.marks


def test_default_marks_are_the_supported_ones():
    for subset in SubsetId:
        assert scheme_for(subset).marks == frozenset(subset.spec.marks[0])


def test_unknown_scheme_name_is_rejected():
    with pytest.raises(ValueError):
        scheme_for("NoSuchScheme")


def test_unknown_scheme_error_lists_every_scheme_name():
    with pytest.raises(ValueError) as info:
        scheme_for("Nope")
    for name in scheme_names():
        assert name in str(info.value)


def test_unsupported_markers_are_rejected():
    with pytest.raises(ValueError):
        scheme_for(SubsetId.CYCLIC, marks="t")
    with pytest.raises(ValueError):
        scheme_for(SubsetId.INCREASING_EXC, marks="q")
    with pytest.raises(ValueError):
        scheme_for(SubsetId.NONCROSSING, marks="xq")
    with pytest.raises(ValueError):
        scheme_for("Consecutive123", marks="x")


def test_full_class_refuses_mixing_cycle_and_inversion_markers():
    with pytest.raises(ValueError, match=r"carrying markers \['q', 't'\]"):
        scheme_for(SubsetId.ALL, marks="tq")
    # each alone is fine
    assert scheme_for(SubsetId.ALL, marks="xvwt").marks == frozenset("xvwt")
    assert scheme_for(SubsetId.ALL, marks="xvwq").marks == frozenset("xvwq")


def test_every_subset_of_one_marker_set_is_accepted():
    for name in scheme_names():
        spec = EXTRA_SCHEMES.get(name) or SubsetId(name).spec
        for marks in spec.marks:
            for size in range(len(marks) + 1):
                for chosen in combinations(marks, size):
                    assert scheme_for(name, chosen).marks == frozenset(chosen)


def test_the_run_scheme_is_the_full_class_with_w_alone():
    run, full = EXTRA_SCHEMES["Consecutive123"], SubsetId.ALL.spec
    assert run == full._replace(marks=("w",), closed=None)
    assert scheme_for("Consecutive123").series(8) == scheme_for(SubsetId.ALL, "w").series(8)


def test_nonsense_marker_letters_are_rejected():
    with pytest.raises(ValueError):
        scheme_for(SubsetId.ALL, marks="xyz")


def test_elevated_flags():
    assert scheme_for(SubsetId.CYCLIC).elevated
    assert scheme_for(SubsetId.CYCLIC_INCREASING_EXC).elevated
    assert not scheme_for(SubsetId.ALL).elevated
    assert not scheme_for(SubsetId.AVOID321).elevated


def test_spot_counts_match_closed_forms():
    assert scheme_for(SubsetId.ALL).counts(7) == factorials(7)
    assert scheme_for(SubsetId.AVOID321).counts(8) == catalan_numbers(8)
    assert scheme_for(SubsetId.INCREASING_WEAK_EXC).counts(7) == bell_numbers(7)
    assert (
        scheme_for(SubsetId.NO_DOUBLE_EXC_OR_DEF).counts(8)
        == egf_no_double_step_counts(8)
    )
    assert scheme_for(SubsetId.INVOLUTIONS).counts(8) == egf_involution_counts(8)


def test_cyclic_counts_shift_the_factorials():
    counts = scheme_for(SubsetId.CYCLIC).counts(7)
    assert counts == [0] + factorials(6)


def test_inversion_marked_series_reduces_to_cycle_marked_series():
    # at q=1 and t=1 both census flavors collapse to the same x,v,w census
    by_t = scheme_for(SubsetId.ALL, marks="xvwt").series(5)
    by_q = scheme_for(SubsetId.ALL, marks="xvwq").series(5)
    for n in range(6):
        assert by_t[n].substitute(t=1) == by_q[n].substitute(q=1)


def test_marks_narrow_the_series():
    narrow = scheme_for(SubsetId.ALL, marks="x").series(5)
    full = scheme_for(SubsetId.ALL, marks="xvwt").series(5)
    for n in range(6):
        assert narrow[n] == full[n].substitute(v=1, w=1, t=1)


def test_run_statistic_scheme_matches_brute_force():
    scheme = scheme_for("Consecutive123")
    series = scheme.series(6)
    for n in range(7):
        assert series[n] == consecutive_123_distribution(n)


def test_subset_scheme_against_brute_distribution_spot():
    scheme = scheme_for(SubsetId.INVOLUTIONS, marks="xvwtq")
    series = scheme.series(6)
    for n in range(7):
        assert series[n] == distribution(n, SubsetId.INVOLUTIONS, "xvwtq")

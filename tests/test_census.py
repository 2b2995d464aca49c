"""Cross-source censuses and the bundled self-check battery."""

from __future__ import annotations

import pytest

import motzkinperm._kernels
from motzkinperm.census import (
    SOURCE_BRUTE,
    SOURCE_CFRAC,
    SOURCE_CLOSED,
    census,
    check_all,
)
from motzkinperm.cfrac import WeightScheme
from motzkinperm.polys import MultiPoly
from motzkinperm.schemes import scheme_for
from motzkinperm.sequences import catalan_numbers
from motzkinperm.subsets import CLASSES, SubsetId

from reference import variables_used


def test_count_census_for_every_class_passes():
    for subset in SubsetId:
        report = census(subset, 6)
        assert report.passing, (subset, report.agreements)
        assert report.values[SOURCE_BRUTE] == report.values[SOURCE_CFRAC]


def test_census_values_are_the_known_counts():
    report = census(SubsetId.AVOID321, 7)
    assert report.values[SOURCE_BRUTE] == catalan_numbers(7)
    assert report.values[SOURCE_CLOSED] == catalan_numbers(7)
    assert set(report.agreements) == {
        f"{SOURCE_BRUTE}={SOURCE_CFRAC}",
        f"{SOURCE_BRUTE}={SOURCE_CLOSED}",
        f"{SOURCE_CFRAC}={SOURCE_CLOSED}",
    }


def test_marked_census_carries_polynomials():
    report = census(SubsetId.INVOLUTIONS, 5, marks="tq", sources=("bf", "cf"))
    assert report.passing
    poly = report.values[SOURCE_CFRAC][4]
    assert isinstance(poly, MultiPoly)
    assert variables_used(poly) <= {"t", "q"}
    # involutions of size 4: t^4 + t^3(3q + 2q^3 + q^5) + t^2(q^2 + q^4 + q^6)
    t, q = MultiPoly.var("t"), MultiPoly.var("q")
    expected = (
        t**4
        + t**3 * (3 * q + 2 * q**3 + q**5)
        + t**2 * (q**2 + q**4 + q**6)
    )
    assert poly == expected


def test_marked_census_refuses_closed_forms():
    with pytest.raises(ValueError):
        census(SubsetId.ALL, 4, marks="xv", sources=("bf", "closed"))


def test_census_input_validation():
    with pytest.raises(ValueError):
        census(SubsetId.ALL, -1)
    with pytest.raises(ValueError):
        census(SubsetId.ALL, 4, sources=("nope",))
    with pytest.raises(ValueError):
        census(SubsetId.ALL, 4, sources=())
    with pytest.raises(ValueError):
        census(SubsetId.ALL, 15, sources=("bf",))
    for subset in SubsetId:
        with pytest.raises(ValueError, match="capped at size"):
            census(subset, subset.spec.brute_cap + 1, sources=("bf",))
    for size in (2.5, "3", None, True):
        with pytest.raises(ValueError, match="n_max must be an int"):
            census(SubsetId.ALL, size, sources=("cf",))


def test_census_refuses_bad_markers_before_any_source_runs(monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(motzkinperm._kernels, "prefix_walk", enumerate_nothing)
    monkeypatch.setattr(motzkinperm._kernels, "state_tallies", enumerate_nothing)
    with pytest.raises(ValueError, match=r"has no weight scheme carrying markers \['q'\]"):
        census(SubsetId.UNIMODAL_CYCLES, 10, marks="xvwtq", sources=("bf", "cf"))
    with pytest.raises(ValueError, match=r"unknown markers \['z'\]"):
        census(SubsetId.ALL, 3, marks="zz")


def test_brute_force_census_runs_past_nine_where_the_class_prunes():
    report = census(SubsetId.INVOLUTIONS321, 12, sources=("bf", "cf", "closed"))
    assert report.passing
    assert report.values["BruteForce"][12] == 924


def test_census_without_brute_force_runs_past_the_brute_force_cap():
    report = census(SubsetId.AVOID321, 12, sources=("cf", "closed"))
    assert report.passing
    assert report.values[SOURCE_CFRAC] == catalan_numbers(12)


def test_classes_without_closed_forms_compare_two_sources():
    report = census(SubsetId.INCREASING_EXC, 5)
    assert report.passing
    assert SOURCE_CLOSED not in report.values
    assert list(report.agreements) == [f"{SOURCE_BRUTE}={SOURCE_CFRAC}"]


def test_corrupted_scheme_is_caught():
    good = scheme_for(SubsetId.ALL, marks="xvwt")
    one = MultiPoly.one()
    bad = WeightScheme(
        name=good.name,
        down=lambda h: good.down(h) + one,
        level=good.level,
        elevated=good.elevated,
        marks=good.marks,
    )
    report = census(SubsetId.ALL, 4, marks="xvwt", sources=("bf", "cf"), scheme=bad)
    assert not report.passing


def test_check_all_refuses_a_bad_size_before_running_any_check():
    for size in (-1, 2.5, "3", None, True):
        with pytest.raises(ValueError, match="max_n must be"):
            check_all(size)


def test_check_all_passes_and_covers_the_advertised_ground():
    results = check_all(max_n=5, seed=7)
    assert len(results) == 10
    for result in results:
        assert result.passed, (result.name, result.detail)
    names = {r.name for r in results}
    assert "path-bijection" in names
    assert "corrupted-scheme" in names


def test_census_subsets_check_catches_a_marker_dropped_from_one_level_weight(monkeypatch):
    # without w on Avoid321's upper bounce its counts, and every other check, still pass
    spec = SubsetId.AVOID321.spec
    monkeypatch.setitem(
        CLASSES,
        SubsetId.AVOID321,
        spec._replace(
            level=lambda h, x, v, w, t, q: (x, 0, 0) if h == 0 else (0, v * q**h, q**h)
        ),
    )
    results = check_all(max_n=5)
    assert [r.name for r in results if not r.passed] == ["census-subsets"]
    detail = next(r.detail for r in results if r.name == "census-subsets")
    assert detail.startswith(
        "Avoid321 marks xvwq at n=3: the coefficient of v^2*w*q^2 is 0 by the fraction, "
        "1 by enumeration"
    )

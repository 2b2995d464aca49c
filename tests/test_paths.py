"""Colored Motzkin paths and the permutation encoding."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motzkinperm.paths import (
    ColoredMotzkinPath,
    ColoredStep,
    PathFamily,
    enumerate_paths,
    path_to_perm,
    perm_to_path,
    standard_down_colors,
    standard_level_colors,
)
from motzkinperm.perms import Permutation, stats

from conftest import all_perms


def test_standard_color_budgets():
    assert [standard_down_colors(h) for h in range(1, 5)] == [1, 4, 9, 16]
    assert [standard_level_colors(h) for h in range(4)] == [1, 3, 5, 7]


def test_step_text_forms():
    assert ColoredStep("U", 1, 0).to_text() == "U"
    assert ColoredStep("L", 2, 3).to_text() == "L3"
    assert ColoredStep("D", 3, 0).to_text() == "D0"


def test_parse_and_to_text_round_trip():
    text = "U U L4 L0 D1 U D0 D0 L0 U L2 D0"
    path = ColoredMotzkinPath.parse(text)
    assert path.to_text() == text
    assert path.word == "UULLDUDDLULD"
    assert len(path) == 12
    assert ColoredMotzkinPath.parse("").to_text() == ""


def test_invalid_paths_are_rejected():
    with pytest.raises(ValueError):
        ColoredMotzkinPath.parse("D0")  # dips below the axis
    with pytest.raises(ValueError):
        ColoredMotzkinPath.parse("U")  # does not return to the axis
    with pytest.raises(ValueError):
        ColoredMotzkinPath.parse("U L3 D0")  # level color 3 needs height >= 2
    with pytest.raises(ValueError):
        ColoredMotzkinPath.parse("U U D4 D0")  # down color 4 needs height >= 3
    with pytest.raises(ValueError):
        ColoredMotzkinPath.parse("U X D0")
    with pytest.raises(ValueError):
        ColoredMotzkinPath.parse("U D")  # down step must carry a color
    with pytest.raises(ValueError):
        ColoredMotzkinPath.parse("U1 D0")  # up steps carry no color


def test_from_pairs_checks_heights():
    path = ColoredMotzkinPath.from_pairs([("U", 0), ("L", 2), ("D", 0)])
    assert [s.height for s in path.steps] == [1, 1, 1]
    with pytest.raises(ValueError):
        ColoredMotzkinPath.from_pairs([("L", 1)])


def test_known_encoding():
    perm = Permutation.parse("5 7 2 4 3 8 1 6 9 12 10 11")
    path = perm_to_path(perm)
    assert path.to_text() == "U U L4 L0 D1 U D0 D0 L0 U L2 D0"
    assert path_to_perm(path).values == perm.values


def test_encoding_round_trips_exhaustively():
    for n in range(7):
        for values in all_perms(n):
            path = perm_to_path(values)
            assert path_to_perm(path).values == values


def test_encoding_image_is_every_standard_path():
    for n in range(6):
        image = {perm_to_path(v).to_text() for v in all_perms(n)}
        enumerated = [p.to_text() for p in enumerate_paths(n)]
        assert len(enumerated) == len(set(enumerated))
        assert image == set(enumerated)


def test_standard_paths_are_counted_by_factorials():
    for n in range(7):
        assert sum(1 for _ in enumerate_paths(n)) == math.factorial(n)


def test_enumeration_respects_custom_colors():
    # Catalan-style budget: one color everywhere counts plain Motzkin paths
    motzkin = [1, 1, 2, 4, 9, 21, 51]
    for n, want in enumerate(motzkin):
        got = sum(1 for _ in enumerate_paths(n, PathFamily(lambda h: 1, lambda h: 1)))
        assert got == want


def test_elevated_enumeration_stays_above_the_axis():
    for n in range(1, 7):
        for path in enumerate_paths(n, PathFamily(lambda h: 1, lambda h: 1, True)):
            h = 0
            heights = []
            for step in path.steps:
                h += {"U": 1, "D": -1, "L": 0}[step.letter]
                heights.append(h)
            assert all(x >= 1 for x in heights[:-1])
            assert heights[-1] == 0


def test_area_of_small_paths():
    assert ColoredMotzkinPath.parse("").area() == 0
    assert ColoredMotzkinPath.parse("L0").area() == 0
    assert ColoredMotzkinPath.parse("U D0").area() == 1
    assert ColoredMotzkinPath.parse("U L1 D0").area() == 2
    assert ColoredMotzkinPath.parse("U U D0 D0").area() == 4


def test_area_is_a_nonnegative_integer():
    for values in all_perms(5):
        area = perm_to_path(values).area()
        assert isinstance(area, int)
        assert area >= 0


def test_fiber_sizes_follow_the_step_weights():
    for n in range(6):
        fibers: dict[str, int] = {}
        for values in all_perms(n):
            word = perm_to_path(values).word
            fibers[word] = fibers.get(word, 0) + 1
        for path in enumerate_paths(n, PathFamily(lambda h: 1, lambda h: 1)):
            weight = 1
            for step in path.steps:
                if step.letter == "D":
                    weight *= standard_down_colors(step.height)
                elif step.letter == "L":
                    weight *= standard_level_colors(step.height)
            assert fibers.get(path.word, 0) == weight


def test_statistics_survive_the_encoding():
    # the encoding forgets nothing: equal paths force equal statistics
    for values in all_perms(5):
        path = perm_to_path(values)
        again = path_to_perm(path)
        assert stats(again.values) == stats(values)


@st.composite
def standard_paths(draw, max_len=300):
    """A random standard colored path: every step fits the color budget."""
    n = draw(st.integers(0, max_len))
    pairs, h = [], 0
    for left in range(n, 0, -1):
        letters = [c for c, ok in (("U", h + 1 < left), ("L", h < left), ("D", h > 0)) if ok]
        letter = draw(st.sampled_from(letters))
        if letter == "U":
            h += 1
            pairs.append(("U", 0))
        elif letter == "L":
            pairs.append(("L", draw(st.integers(0, standard_level_colors(h) - 1))))
        else:
            pairs.append(("D", draw(st.integers(0, standard_down_colors(h) - 1))))
            h -= 1
    return ColoredMotzkinPath.from_pairs(pairs)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 300).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_large_permutations_round_trip_through_their_paths(values):
    assert path_to_perm(perm_to_path(values)).values == tuple(values)


@settings(deadline=None, max_examples=60)
@given(standard_paths())
def test_large_paths_round_trip_through_their_permutations(path):
    assert perm_to_path(path_to_perm(path)) == path

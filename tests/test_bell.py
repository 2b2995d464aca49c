"""Single-cycle permutations, path surgery, and set partitions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motzkinperm.bell
import motzkinperm.paths
from motzkinperm.bell import (
    BLOCK_PATHS,
    CYCLE_PATHS,
    SetPartition,
    block_path_to_partition,
    cycle_to_partition,
    cycle_to_path,
    enumerate_block_paths,
    enumerate_cycle_paths,
    lengthen_path,
    path_to_cycle,
    set_partitions,
    shorten_path,
    weak_exc_partition,
)
from motzkinperm.oracle import members
from motzkinperm.paths import (
    STANDARD,
    ColoredMotzkinPath,
    check_family,
    decode,
    enumerate_paths,
    path_to_perm,
    standard_down_colors,
    standard_level_colors,
)
from motzkinperm.perms import Permutation
from motzkinperm.subsets import SubsetId, is_member

from conftest import all_perms

BELL = [1, 1, 2, 5, 15, 52, 203, 877]


def test_set_partition_validation():
    SetPartition.of([[3, 1], [2]])  # blocks get sorted and ordered
    with pytest.raises(ValueError):
        SetPartition(((1, 2), (2, 3)))  # overlap
    with pytest.raises(ValueError):
        SetPartition(((1,), (3,)))  # gap
    with pytest.raises(ValueError):
        SetPartition(((2, 1),))  # unsorted block
    with pytest.raises(ValueError):
        SetPartition(((2,), (1,)))  # blocks out of order
    with pytest.raises(ValueError):
        SetPartition(((),))  # empty block


def test_every_path_taking_entry_point_refuses_a_non_path():
    for call, arg in (
        (path_to_perm, "U L0 D0"),
        (lambda p: decode(p, STANDARD), "U L0 D0"),
        (path_to_cycle, "U L0 D0"),
        (shorten_path, ()),
        (lengthen_path, [("L", 0)]),
        (block_path_to_partition, []),
        (check_family, None),
    ):
        with pytest.raises(ValueError, match="expected a ColoredMotzkinPath"):
            call(arg)


def test_set_partition_text_round_trip():
    text = "1 9 | 2 | 3 4 7 8 | 5 6 | 10"
    part = SetPartition.parse(text)
    assert part.to_text() == text
    assert part.n == 10
    assert len(part) == 5
    assert SetPartition.parse("").to_text() == ""


def test_path_family_enumerations_are_bell_counted():
    for n in range(1, 8):
        assert sum(1 for _ in enumerate_cycle_paths(n)) == BELL[n - 1]
    for n in range(7):
        assert sum(1 for _ in enumerate_block_paths(n)) == BELL[n]


@pytest.mark.parametrize(
    "family, subset",
    [
        (STANDARD, SubsetId.ALL),
        (CYCLE_PATHS, SubsetId.CYCLIC_INCREASING_EXC),
        (BLOCK_PATHS, SubsetId.INCREASING_WEAK_EXC),
    ],
    ids=["standard", "elevated", "grounded"],
)
def test_each_familys_color_budgets_are_its_class_weights_at_ones(family, subset):
    """The fiber-size law: a step has as many colors as its class's weight
    counts at all-ones, so the path census is the class's continued fraction."""
    spec, ones = subset.spec, (1,) * 5
    assert family.elevated == spec.elevated
    for h in range(13):
        assert family.level_colors(h) == sum(spec.level(h, *ones)), h
        if h:
            assert family.down_colors(h) == spec.down(h, *ones), h


def test_family_validators_accept_their_enumerations():
    for n in range(1, 7):
        for path in enumerate_cycle_paths(n):
            check_family(path, CYCLE_PATHS)
    for n in range(6):
        for path in enumerate_block_paths(n):
            check_family(path, BLOCK_PATHS)


def test_family_validators_reject_outsiders():
    with pytest.raises(ValueError):
        check_family(ColoredMotzkinPath.parse("L0 L0"), CYCLE_PATHS)  # grounded interior
    with pytest.raises(ValueError):
        check_family(ColoredMotzkinPath.parse("U L2 D0"), CYCLE_PATHS)  # level color 2 > h
    with pytest.raises(ValueError):
        check_family(ColoredMotzkinPath.parse("U L2 D0"), BLOCK_PATHS)
    with pytest.raises(ValueError):
        check_family(ColoredMotzkinPath.parse("U U D2 D0"), BLOCK_PATHS)  # down color 2 > h-1


def _step_lists(n):
    """Every (letter, color) list of length n whose colors run one past the
    standard budget at each step's height, dips below the axis included."""
    budget = {"D": standard_down_colors, "L": standard_level_colors, "U": lambda h: 1}

    def walk(h, pairs):
        if len(pairs) == n:
            yield tuple(pairs)
            return
        for letter, top, nxt in (("D", h, h - 1), ("L", h, h), ("U", h + 1, h + 1)):
            for c in range(max(budget[letter](top), 0) + 1):
                yield from walk(nxt, pairs + [(letter, c)])

    return walk(0, [])


@pytest.mark.parametrize(
    "enumerate_family, family",
    [
        (enumerate_paths, STANDARD),
        (enumerate_cycle_paths, CYCLE_PATHS),
        (enumerate_block_paths, BLOCK_PATHS),
    ],
    ids=["standard", "elevated", "grounded"],
)
def test_family_validator_accepts_exactly_what_the_enumerator_yields(enumerate_family, family):
    for n in range(6):
        accepted = set()
        for pairs in _step_lists(n):
            try:
                check_family(ColoredMotzkinPath.from_pairs(pairs), family)
            except ValueError:
                continue
            accepted.add(pairs)
        enumerated = [
            tuple((st.letter, st.color) for st in path.steps) for path in enumerate_family(n)
        ]
        assert len(enumerated) == len(set(enumerated))
        assert accepted == set(enumerated), n


def test_cycle_encoding_round_trips():
    for n in range(1, 8):
        count = 0
        for values in members(n, SubsetId.CYCLIC_INCREASING_EXC):
            path = cycle_to_path(values)
            check_family(path, CYCLE_PATHS)
            assert len(path) == n
            assert path_to_cycle(path).values == values
            count += 1
        assert count == BELL[n - 1]


def test_cycle_encoding_image_is_the_whole_family():
    for n in range(1, 8):
        image = {cycle_to_path(v).to_text() for v in members(n, SubsetId.CYCLIC_INCREASING_EXC)}
        family = {p.to_text() for p in enumerate_cycle_paths(n)}
        assert image == family


def test_cycle_encoding_rejects_outsiders():
    with pytest.raises(ValueError):
        cycle_to_path((1, 2))  # two cycles
    with pytest.raises(ValueError):
        cycle_to_path((4, 3, 1, 2))  # one cycle, excedance values decrease
    with pytest.raises(ValueError):
        cycle_to_path(Permutation.parse("4 3 5 1 2"))  # not a single cycle


@st.composite
def cycle_paths(draw, max_len=300):
    """A random path of the elevated family: the lone level step, or an up
    step, a walk that stays at height 1 or above within the family's color
    budgets, and the final fall."""
    n = draw(st.integers(1, max_len))
    if n == 1:
        return ColoredMotzkinPath.parse("L0")
    pairs, h = [("U", 0)], 1
    for left in range(n - 2, 0, -1):
        letters = [c for c, ok in (("U", h < left), ("L", h <= left), ("D", h > 1)) if ok]
        letter = draw(st.sampled_from(letters))
        if letter == "U":
            h += 1
            pairs.append(("U", 0))
        elif letter == "L":
            pairs.append(("L", draw(st.integers(0, CYCLE_PATHS.level_colors(h) - 1))))
        else:
            pairs.append(("D", draw(st.integers(0, CYCLE_PATHS.down_colors(h) - 1))))
            h -= 1
    pairs.append(("D", 0))
    return ColoredMotzkinPath.from_pairs(pairs)


@settings(deadline=None, max_examples=60)
@given(cycle_paths())
def test_large_cycle_paths_round_trip_through_their_cycles(path):
    cycle = path_to_cycle(path)
    assert is_member(cycle, SubsetId.CYCLIC_INCREASING_EXC)
    assert cycle_to_path(cycle) == path
    assert lengthen_path(shorten_path(path)) == path


def test_surgery_shortens_by_one_and_inverts():
    for n in range(1, 8):
        for path in enumerate_cycle_paths(n):
            shorter = shorten_path(path)
            check_family(shorter, BLOCK_PATHS)
            assert len(shorter) == len(path) - 1
            assert lengthen_path(shorter).to_text() == path.to_text()
    for n in range(7):
        for path in enumerate_block_paths(n):
            assert shorten_path(lengthen_path(path)).to_text() == path.to_text()


def test_pipeline_checks_each_path_once(monkeypatch):
    # one family check per constructed path and one on entry to each decoder;
    # the encoders do not re-validate their own output
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return check_family(*args, **kwargs)

    monkeypatch.setattr(motzkinperm.paths, "check_family", counting)
    monkeypatch.setattr(motzkinperm.bell, "check_family", counting)
    assert cycle_to_partition((2, 3, 4, 5, 1)) == SetPartition.of([[1, 4], [2], [3]])
    assert len(calls) == 4


def test_surgery_case_split_is_clean():
    # shortening a path with no height-colored level step swaps its lead U
    # for a level step; shortening any other path keeps the lead U — this
    # disjointness is what makes the inverse's case split well defined
    for n in range(2, 7):
        for path in enumerate_cycle_paths(n):
            marked = any(
                st.letter == "L" and st.color == st.height for st in path.steps
            )
            shorter = shorten_path(path)
            assert (shorter.steps[0].letter == "L") == (not marked)


def test_block_paths_decode_to_all_partitions():
    for n in range(7):
        decoded = {block_path_to_partition(p).to_text() for p in enumerate_block_paths(n)}
        direct = {SetPartition.of(list(b)).to_text() for b in set_partitions(n)}
        assert decoded == direct
        assert len(decoded) == BELL[n]


def test_full_pipeline_is_a_bijection():
    for n in range(1, 8):
        images = set()
        for values in members(n, SubsetId.CYCLIC_INCREASING_EXC):
            part = cycle_to_partition(values)
            assert part.n == n - 1
            images.add(part.to_text())
        assert len(images) == BELL[n - 1]


def test_pipeline_on_the_printed_instance():
    perm = Permutation.parse("2 6 8 3 9 11 4 5 1 7 10")
    elevated = cycle_to_path(perm)
    assert elevated.to_text() == "U L1 U L1 U L3 L1 D1 D0 L0 D0"
    grounded = shorten_path(elevated)
    assert grounded.to_text() == "U L1 U L1 U D2 L1 D1 D0 L0"
    part = block_path_to_partition(grounded)
    assert part.to_text() == "1 9 | 2 | 3 4 7 8 | 5 6 | 10"
    assert cycle_to_partition(perm).to_text() == part.to_text()


def test_tiny_pipeline_instances():
    assert cycle_to_partition((2, 1)).to_text() == "1"
    assert cycle_to_partition((1,)).to_text() == ""


def test_weak_excedance_partition_small_cases():
    assert weak_exc_partition((1, 2, 3)).to_text() == "1 | 2 | 3"
    assert weak_exc_partition((2, 1)).to_text() == "1 2"


def test_weak_excedance_partition_is_a_bijection():
    for n in range(7):
        images = set()
        count = 0
        for values in members(n, SubsetId.INCREASING_WEAK_EXC):
            part = weak_exc_partition(values)
            assert part.n == n
            images.add(part.to_text())
            count += 1
        assert count == BELL[n]
        assert len(images) == BELL[n]
        direct = {SetPartition.of(list(b)).to_text() for b in set_partitions(n)}
        assert images == direct


def test_weak_excedance_partition_checks_its_precondition():
    with pytest.raises(ValueError):
        weak_exc_partition((3, 2, 1))

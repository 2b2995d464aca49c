"""The statistic kernels must agree with the definitions they implement."""

from __future__ import annotations

import inspect
import itertools
import math
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import motzkinperm
from motzkinperm._kernels import check_size, prefix_walk, stat_tuple, state_tallies
from motzkinperm.oracle import count
from motzkinperm.subsets import SubsetId

from conftest import all_perms


def naive_stat_tuple(values):
    """Statistics computed a second way, straight from the definitions."""
    n = len(values)
    fixed = sum(1 for i, v in enumerate(values, 1) if v == i)
    exc = sum(1 for i, v in enumerate(values, 1) if v > i)
    dexc = sum(1 for i, v in enumerate(values, 1) if i < v < values[v - 1])
    seen = [False] * n
    cyc = 0
    for start in range(n):
        if not seen[start]:
            cyc += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = values[j] - 1
    inv = sum(
        1 for a in range(n) for b in range(a + 1, n) if values[a] > values[b]
    )
    return (fixed, exc, dexc, cyc, inv)


def test_pure_matches_definitions_exhaustively():
    for n in range(7):
        for perm in all_perms(n):
            assert stat_tuple(perm) == naive_stat_tuple(perm)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 300).flatmap(lambda n: st.permutations(range(1, n + 1))))
# sizes on each side of a power of two reach the Fenwick tree's top node
@example(tuple(range(15, 0, -1)))
@example(tuple(range(2, 17)) + (1,))
@example(tuple(range(17, 0, -1)))
@example(tuple(range(63, 0, -1)))
@example(tuple(range(2, 65)) + (1,))
@example(tuple(range(65, 0, -1)))
@example(tuple(range(46, 91)) + tuple(range(1, 46)))
def test_stat_tuple_matches_definitions_on_large_permutations(perm):
    assert stat_tuple(tuple(perm)) == naive_stat_tuple(perm)


def test_stat_tuple_on_the_reversed_identity():
    # n..1 swaps i and n+1-i: for even n that is n/2 two-cycles with one
    # excedance each and no fixed point, and every pair of entries inverts.
    n = 5000
    assert stat_tuple(tuple(range(n, 0, -1))) == (0, n // 2, 0, n // 2, n * (n - 1) // 2)


def test_census_matches_pure_and_sums_to_factorial():
    for n in range(7):
        table = state_tallies(n)[n]
        assert table == Counter(naive_stat_tuple(p) for p in itertools.permutations(range(1, n + 1)))
        assert sum(table.values()) == math.factorial(n)


def test_census_agrees_with_per_perm_tally():
    for n in range(9):
        assert state_tallies(n)[n] == Counter(stat_tuple(perm) for perm in all_perms(n))


def test_census_at_nine_equals_the_walk_tally():
    # the dynamic program against the walk that visits every permutation
    walked = Counter(stat_tuple(values[1:]) for values in prefix_walk(9))
    assert state_tallies(9)[9] == walked


# one pass tallies every class at every size: its rules read only the state
ONE_PASS = list(SubsetId)


def _walk_tallies(n_max, subset):
    """The walk's tally of the class at each size 0..n_max."""
    return [
        Counter(stat_tuple(values[1:]) for values in prefix_walk(n, subset.spec.prefix_ok))
        for n in range(n_max + 1)
    ]


def _one_pass(n_max, subset):
    return state_tallies(n_max, subset.spec.prefix_ok)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(ONE_PASS), st.integers(0, 8))
def test_one_pass_equals_the_walk_at_every_size(subset, n_max):
    assert _one_pass(n_max, subset) == _walk_tallies(n_max, subset)


# All's pass is checked against the walk at nine, and at every size against
# the per-permutation tally above and the passes that stop there (below)
@pytest.mark.parametrize(
    "subset", [s for s in ONE_PASS if s is not SubsetId.ALL], ids=lambda s: s.value
)
def test_one_pass_at_nine_equals_the_walk_at_every_size(subset):
    assert _one_pass(9, subset) == _walk_tallies(9, subset)


MARKER_SUBSETS = ["".join(m) for r in range(6) for m in itertools.combinations("xvwtq", r)]


@pytest.mark.parametrize("subset", ONE_PASS, ids=lambda s: s.value)
def test_a_marked_pass_is_the_full_pass_with_the_unmarked_statistics_zeroed(subset):
    rule = subset.spec.prefix_ok
    full = state_tallies(7, rule)
    for marks in MARKER_SUBSETS:
        want = []
        for tally in full:
            merged = Counter()
            for stats, mult in tally.items():
                merged[tuple(s if m in marks else 0 for s, m in zip(stats, "xvwtq"))] += mult
            want.append(merged)
        assert state_tallies(7, rule, marks) == want, marks
    # with no marker each size is one count
    assert [list(tally) for tally in state_tallies(7, rule, "")] == [[(0, 0, 0, 0, 0)]] * 8


def test_the_pass_over_s9_holds_every_smaller_census():
    assert state_tallies(9) == [state_tallies(n)[n] for n in range(10)]


def test_count_of_the_whole_group_is_the_factorial():
    for n in range(10):
        assert count(n, SubsetId.ALL) == math.factorial(n)


def test_census_of_the_empty_permutation_and_negative_sizes():
    assert state_tallies(0) == [{(0, 0, 0, 0, 0): 1}]
    with pytest.raises(ValueError):
        state_tallies(-1)
    for size in (2.5, "3", None, True):
        with pytest.raises(ValueError, match="size must be an int"):
            state_tallies(size)


def test_check_size_is_the_only_cap_guard():
    """No module refuses a size over a cap in its own words, such as a range
    ``1 <= n <= {FORMULA_CAP}`` in an f-string."""
    src = Path(motzkinperm.__file__).parent
    hits = [
        line.strip()
        for path in sorted(src.glob("*.py"))
        for line in path.read_text().splitlines()
        if re.search(r"the cap is|cap of|capped at|<= \{\w*CAP\w*\}", line)
    ]
    assert len(hits) == 1 and hits[0] in inspect.getsource(check_size)


def test_no_module_branches_on_a_class():
    """A class-specific fact lives in the class's record, so no module
    compares against a ``SubsetId`` member."""
    src = Path(motzkinperm.__file__).parent
    hits = [
        f"{path.name}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        for line in path.read_text().splitlines()
        if re.search(r"(\bis|==|!=)\s*SubsetId\.", line)
    ]
    assert hits == []

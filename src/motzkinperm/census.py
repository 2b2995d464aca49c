"""Cross-source census reports and the package-wide self-check registry.

A census report pulls the same numbers from up to three independent sources
— direct enumeration, the continued fraction, and a closed form — and
records whether they agree.  ``check_all`` bundles every cross-check the
package makes into one callable suite, which is what the command-line
``check`` subcommand runs.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Callable, Iterable, Iterator, NamedTuple

from . import bell, mobius
from ._kernels import check_size
from .cfrac import jfraction_series
from .invert import RecoveryStatus, classify_weights, invert_jfraction, regenerate
from .oracle import MAX_BRUTE_N, consecutive_123_distribution, distributions, members
from .paths import enumerate_paths, path_to_perm, perm_to_path
from .perms import random_permutation, stats
from .polys import MultiPoly, check_marks
from .schemes import scheme_for
from .sequences import (
    baxter_numbers,
    closed_form_counts,
    consecutive_123_avoider_counts,
    genocchi_numbers,
    median_genocchi_numbers,
)
from .subsets import SubsetId

SOURCE_BRUTE = "BruteForce"
SOURCE_CFRAC = "ContinuedFraction"
SOURCE_CLOSED = "ClosedForm"

_SOURCE_TOKENS = {"bf": SOURCE_BRUTE, "cf": SOURCE_CFRAC, "closed": SOURCE_CLOSED}


class CensusReport(NamedTuple):
    """Per-size census values from several sources, with agreement flags;
    ``values`` lists its sources in brute-force, fraction, closed-form order."""

    subset: str
    n_max: int
    marks: str
    values: dict[str, list]
    agreements: dict[str, bool]

    @property
    def passing(self) -> bool:
        return all(self.agreements.values())


def census(
    subset: SubsetId | str,
    n_max: int,
    marks: str = "",
    sources: Iterable[str] = ("bf", "cf", "closed"),
) -> CensusReport:
    """Compute the class census for sizes 0..n_max from the chosen sources.

    The class is a :class:`SubsetId` or its name.  With ``marks`` empty the
    values are plain counts; otherwise they are marker polynomials, and the
    closed-form source (counts only) is refused.  The class, sources and
    markers are checked before any source runs, and each source refuses a
    size over its cap before it works.
    """
    subset = SubsetId(subset)
    check_size(n_max, "n_max")
    chosen: list[str] = []
    for token in sources:
        if token not in _SOURCE_TOKENS:
            raise ValueError(
                f"unknown source {token!r}; valid sources: bf, cf, closed"
            )
        name = _SOURCE_TOKENS[token]
        if name not in chosen:
            chosen.append(name)
    if not chosen:
        raise ValueError("at least one source is required")
    check_marks(marks)
    if marks and SOURCE_CLOSED in chosen:
        raise ValueError("closed forms carry no markers; drop 'closed' or the marks")
    scheme = scheme_for(subset, marks) if SOURCE_CFRAC in chosen else None

    values: dict[str, list] = {}
    if SOURCE_BRUTE in chosen:
        polys = distributions(n_max, subset, marks)
        values[SOURCE_BRUTE] = polys if marks else [p.value_at_ones() for p in polys]
    if SOURCE_CFRAC in chosen:
        series = scheme.series(n_max)
        values[SOURCE_CFRAC] = list(series) if marks else [c.value_at_ones() for c in series]
    if SOURCE_CLOSED in chosen:
        closed = closed_form_counts(subset, n_max)
        if closed is not None:
            values[SOURCE_CLOSED] = closed

    present = [s for s in chosen if s in values]
    agreements = {f"{a}={b}": values[a] == values[b] for a, b in combinations(present, 2)}
    return CensusReport(subset.value, n_max, marks, values, agreements)


# -- the self-check suite ----------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _check_path_bijection(max_n: int, rng: random.Random) -> Iterator[str]:
    for n in range(0, min(max_n, 6) + 1):
        seen = set()
        for values in members(n, SubsetId.ALL):
            path = perm_to_path(values)
            if path_to_perm(path).values != values:
                yield f"round trip broke on {values}"
            seen.add(path)
        if seen != set(enumerate_paths(n)):
            yield f"image mismatch at n={n}"
    for n in range(7, min(max_n, MAX_BRUTE_N) + 1):
        for _ in range(100):
            values = random_permutation(n, rng)
            if path_to_perm(perm_to_path(values)).values != values:
                yield f"round trip broke on {values}"


def _check_subset_censuses(max_n: int, rng: random.Random) -> Iterator[str]:
    """Every class's census with each of its marker sets against its
    continued fraction, and its counts against its closed form, each up to
    its own cap: All twice, once with t and once with q."""
    for subset in SubsetId:
        top = min(max_n, subset.spec.brute_cap)
        for marks in subset.spec.marks:
            counted = distributions(top, subset, marks)
            series = scheme_for(subset, marks).series(top)
            for n in range(top + 1):
                if series[n] != counted[n]:
                    exps = (series[n] - counted[n]).to_terms()[0][0]
                    yield (
                        f"{subset.value} marks {marks} at n={n}: the coefficient of "
                        f"{MultiPoly.monomial(exps)} is {series[n].coefficient(exps)} by "
                        f"the fraction, {counted[n].coefficient(exps)} by enumeration"
                    )
        for n, want in enumerate(closed_form_counts(subset, top) or ()):
            if want != counted[n].value_at_ones():
                yield (
                    f"{subset.value} closed form says {want} at n={n}, "
                    f"enumeration says {counted[n].value_at_ones()}"
                )


def _check_consecutive_123(max_n: int, rng: random.Random) -> Iterator[str]:
    cap = min(max_n, 6)
    series = scheme_for("Consecutive123", "w").series(cap)
    avoiders = consecutive_123_avoider_counts(cap)
    for n in range(cap + 1):
        got = series[n]
        if got != consecutive_123_distribution(n):
            yield f"run-count distribution disagrees at n={n}"
        if got.substitute(w=0) != avoiders[n]:
            yield f"run-free count disagrees at n={n}"


def _check_bell_pipeline(max_n: int, rng: random.Random) -> Iterator[str]:
    for n in range(1, min(max_n + 1, 7) + 1):
        images = set()
        for values in members(n, SubsetId.CYCLIC_INCREASING_EXC):
            epath = bell.cycle_to_path(values)
            if bell.path_to_cycle(epath).values != values:
                yield f"cycle path round trip broke on {values}"
            bpath = bell.shorten_path(epath)
            if bell.lengthen_path(bpath) != epath:
                yield f"surgery round trip broke on {values}"
            images.add(bell.block_path_to_partition(bpath))
        if images != {bell.SetPartition.of(p) for p in bell.set_partitions(n - 1)}:
            yield f"partition image mismatch at n={n}"


def _check_area_law(max_n: int, rng: random.Random) -> Iterator[str]:
    for n in range(0, min(max_n, 7) + 1):
        for values in members(n, SubsetId.AVOID321):
            if perm_to_path(values).area() != stats(values).inversions:
                yield f"area law broke on {values}"


def _check_mobius(max_n: int, rng: random.Random) -> Iterator[str]:
    for family in mobius.FAMILIES:
        for n in range(2, min(max_n, mobius.BRUTE_CAP) + 1):
            formula = mobius.mobius_count(family, n)
            counted = mobius.brute_count(family, n)
            if formula != counted:
                yield f"family {family} at n={n}: formula {formula}, count {counted}"


def _check_invert_roundtrip(max_n: int, rng: random.Random) -> Iterator[str]:
    for trial in range(5):
        ell = [rng.randint(0, 3) for _ in range(7)]
        dee = [rng.randint(1, 4) for _ in range(7)]
        series = list(jfraction_series(lambda h: dee[h - 1], lambda h: ell[h], 12))
        rec = invert_jfraction(series)
        if rec.status is not RecoveryStatus.COMPLETE:
            yield f"trial {trial}: status {rec.status.value}"
            continue
        if list(rec.ell) != ell[:6] or list(rec.dee) != dee[:6]:
            yield f"trial {trial}: recovered weights differ"
        if regenerate(rec) != series:
            yield f"trial {trial}: regeneration differs"


def _check_reference_recoveries(max_n: int, rng: random.Random) -> Iterator[str]:
    for label, terms, want in (
        ("genocchi", genocchi_numbers, "nonnegative-integers"),
        ("median-genocchi", median_genocchi_numbers, "nonnegative-integers"),
        ("run-free", consecutive_123_avoider_counts, "nonnegative-integers"),
        ("baxter", baxter_numbers, "negative-or-fractional"),
    ):
        verdict = classify_weights(invert_jfraction(terms(12)))
        if verdict != want:
            yield f"{label} classified {verdict}"


def _check_corrupted_scheme(max_n: int, rng: random.Random) -> Iterator[str]:
    base = scheme_for(SubsetId.ALL, "")
    bumped = base._replace(
        name="All(corrupted)", down=lambda h: base.down(h) + (1 if h == 1 else 0)
    )
    if bumped.counts(2) == distributions(2, SubsetId.ALL, ""):
        yield "a deliberately wrong fall weight went undetected at n=2"


_CHECKS: tuple[tuple[str, Callable[[int, random.Random], Iterator[str]]], ...] = (
    ("path-bijection", _check_path_bijection),
    ("census-subsets", _check_subset_censuses),
    ("consecutive-123", _check_consecutive_123),
    ("bell-pipeline", _check_bell_pipeline),
    ("area-law", _check_area_law),
    ("mobius-formulas", _check_mobius),
    ("invert-roundtrip", _check_invert_roundtrip),
    ("reference-recoveries", _check_reference_recoveries),
    ("corrupted-scheme", _check_corrupted_scheme),
)


def check_all(max_n: int = 6, seed: int = 0) -> list[CheckResult]:
    """Run every cross-check, each to its end, and report its first four
    failures; a check that raises reports that as its one failure."""
    check_size(max_n, "max_n")
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    results = []
    for name, fn in _CHECKS:
        try:
            failures = list(fn(max_n, random.Random(seed)))
        except Exception as exc:  # a crashed check must not hide the rest
            failures = [f"crashed: {exc}"]
        results.append(CheckResult(name, not failures, "; ".join(failures[:4])))
    return results

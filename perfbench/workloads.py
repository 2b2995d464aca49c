"""Seeded job lists for the three benchmark workloads.

A workload is an endless sequence of rounds.  Every round has the same
composition (so many jobs of each kind, in a fixed slot pattern); the seed
picks the parameters inside each kind: which class, which markers, which
random permutation, which sequence prefix.  Fixing the composition keeps the
median and tail of job time steady from seed to seed while the inputs
themselves change, and interleaving the kinds keeps any prefix of the list,
which is what a time-limited run executes, close to that composition.

Each kind draws from its own stream, which walks a seeded shuffle of its
choices and reshuffles when the walk is used up, so every class, scheme or
size stratum appears equally often.  Where one kind's cost varies a lot with
its choice (census classes, cf schemes), the choices are split into cost
groups with slots of their own in the round.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import count, islice
from typing import Callable, Iterator

# The fourteen classes other than All, and the markers each one's weight
# scheme supports (a copy, so the job list does not depend on the package).
CLASS_MARKS = {
    "Cyclic": "xvw",
    "Avoid321": "xvwq",
    "UnimodalNoncrossingNoNestedFp": "xvwtq",
    "Noncrossing": "xvw",
    "IncreasingExc": "xvwt",
    "IncreasingWeakExc": "xvwt",
    "CyclicIncreasingExc": "xvw",
    "UnimodalCycles": "xvwt",
    "UnimodalCyclesIncreasingExc": "xvwt",
    "IncreasingExcAndDef": "xvwq",
    "UnimodalNoncrossing": "xvwtq",
    "NoDoubleExcOrDef": "xvwt",
    "Involutions": "xvwtq",
    "Involutions321": "xvwtq",
}

MOBIUS_FAMILIES = ("213,312", "132,231", "321,2143,3142", "123,2413,3412")

# Marked n=8 censuses cost from 0.2 s to 1.3 s by class (pure backend on a
# 2-vCPU Xeon virtual machine), so
# the classes are walked in three cost groups, each with fixed slots in the
# round; any stretch of the job list then holds about the same mix.
CLASS_GROUPS = {
    "H": ("Noncrossing", "UnimodalNoncrossing", "UnimodalNoncrossingNoNestedFp"),
    "M": ("Avoid321", "IncreasingExc", "UnimodalCyclesIncreasingExc", "UnimodalCycles",
          "IncreasingExcAndDef"),
    "L": ("Involutions321", "Involutions", "CyclicIncreasingExc", "NoDoubleExcOrDef",
          "IncreasingWeakExc", "Cyclic"),
}

# (markers, order) choices per scheme.  Cost grows steeply with the order and
# with the q marker, so each heavy scheme lists the choices that expand in
# about 0.7-1.2 s on the same machine.  The light schemes stay well under
# that even at order 16 and run at their largest marker sets.
CF_HEAVY = {
    "All": (("xvt", 14), ("xwt", 14), ("vwt", 14)),
    "Avoid321": (("xvwq", 14), ("vwq", 14), ("xvq", 16), ("xwq", 16), ("vq", 16)),
    "UnimodalNoncrossingNoNestedFp": (
        ("xvwtq", 14), ("vwtq", 14), ("xvtq", 14), ("xvwq", 14), ("xwtq", 14), ("vwq", 14),
    ),
    "IncreasingExc": (("xvwt", 14), ("vwt", 14), ("xwt", 14)),
    "IncreasingWeakExc": (("xvwt", 16), ("vwt", 16)),
    "UnimodalCycles": (("vwt", 16), ("xvt", 16), ("xvw", 16), ("xwt", 16)),
    "UnimodalCyclesIncreasingExc": (("xvwt", 16), ("xwt", 16)),
    "IncreasingExcAndDef": (("vwq", 12), ("xvq", 12), ("vq", 14), ("wq", 14)),
    "UnimodalNoncrossing": (("xvw", 16), ("xvt", 16), ("xwt", 16), ("xvwt", 16)),
    "Involutions": (("xvtq", 16), ("xvwq", 16), ("xtq", 16), ("vwtq", 16)),
}
CF_LIGHT = {
    "Cyclic": (("xvw", 16), ("vw", 16)),
    "Noncrossing": (("xvw", 16), ("xv", 16)),
    "CyclicIncreasingExc": (("xvw", 16), ("vw", 16)),
    "NoDoubleExcOrDef": (("xvwt", 16), ("vwt", 16)),
    "Involutions321": (("xvwtq", 16),),
    "Consecutive123": (("w", 16),),
}

INVERT_SEQUENCES = ("Bell", "Motzkin", "Catalan")
# Narrow bands: the middle one sets the expand round's median job time, the
# top one shares the tail with the heavy cf jobs.
INVERT_LENGTHS = ((40, 44), (58, 62), (76, 80))

# stats jobs are the slowest kind of the symmetric round and set its tail, so
# they take the top of the size range; map/unmap pairs take the rest.
STATS_SIZES = ((4000, 4334), (4334, 4667), (4667, 5001))
MAP_SIZES = ((2000, 3000), (3000, 4000))


@dataclass
class Job:
    """One CLI invocation: ``kind`` names the checker, ``argv`` the arguments.

    An ``unmap`` job's argv is filled in at run time from the output of the
    ``map`` job just before it, so the pair checks the round trip.
    ``round`` counts the rounds of the job list from 0.
    """

    kind: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)
    round: int = 0

    def spec(self) -> list:
        return [self.kind, list(self.argv), self.expect]


def sequence_terms(name: str, count: int) -> list[int]:
    """The first ``count`` terms of a sequence with known J-fraction weights."""
    if name == "Bell":
        row, out = [1], [1]
        while len(out) < count:
            new = [row[-1]]
            for x in row:
                new.append(new[-1] + x)
            row = new
            out.append(row[0])
        return out[:count]
    if name == "Motzkin":
        out = [1, 1]
        for k in range(2, count):
            out.append(((2 * k + 1) * out[-1] + (3 * k - 3) * out[-2]) // (k + 2))
        return out[:count]
    if name == "Catalan":
        out = [1]
        for k in range(1, count):
            out.append(out[-1] * 2 * (2 * k - 1) // (k + 1))
        return out
    raise ValueError(f"unknown sequence {name!r}")


def _walk(rng: random.Random, items: list) -> Iterator:
    """Endless seeded walk: each pass visits every item once, reshuffled."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def _marks(rng: random.Random, supported: str) -> str:
    """All supported markers, or all but one, chosen by the seed."""
    drop = rng.randrange(len(supported) + 1)
    return "".join(m for i, m in enumerate(supported) if i != drop)


def _perm(rng: random.Random, n: int) -> tuple[int, ...]:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(values)


def _perm_text(perm: tuple[int, ...]) -> str:
    return " ".join(map(str, perm))


def _classes(rng: random.Random) -> tuple[str, dict[str, Callable[[], list[Job]]]]:
    counted = _walk(rng, sorted(CLASS_MARKS))
    families = _walk(rng, list(MOBIUS_FAMILIES))

    def census_marked(group: str) -> Callable[[], list[Job]]:
        walk = _walk(rng, list(CLASS_GROUPS[group]))

        def make() -> list[Job]:
            subset = next(walk)
            marks = _marks(rng, CLASS_MARKS[subset])
            argv = ("census", "--subset", subset, "--n-max", "8", "--marks", marks,
                    "--sources", "bf,cf", "--json")
            return [Job("census", argv, {"subset": subset, "n_max": 8, "marks": marks})]
        return make

    def census_count() -> list[Job]:
        subset = next(counted)
        argv = ("census", "--subset", subset, "--n-max", "7", "--json")
        return [Job("census", argv, {"subset": subset, "n_max": 7, "marks": ""})]

    def check() -> list[Job]:
        return [Job("check", ("check", "--n-max", "7", "--seed", str(rng.randrange(10**6)), "--json"))]

    def mobius() -> list[Job]:
        argv = ("mobius", "--family", next(families), "--n", "8", "--brute", "--json")
        return [Job("mobius", argv)]

    # Short rounds, so a time-limited run holds several whole ones.  Three
    # cheap jobs (L, mobius) lie below the six middling ones (M, count
    # censuses) and two costly ones (H, check) above, so the median and the
    # third quartile both fall inside the middle cluster.
    kinds = {g: census_marked(g) for g in CLASS_GROUPS}
    kinds.update({"C": census_count, "X": check, "Y": mobius})
    return "LMCHCMYLCMX", kinds


def _symmetric(rng: random.Random) -> tuple[str, dict[str, Callable[[], list[Job]]]]:
    # q makes the continued-fraction half of the census as costly as the
    # kernel sweep, so it rides on one census in four.  The three t censuses
    # sit in the middle of the round's job times and set its median: five
    # cheaper jobs (two map/unmap pairs, one check) lie below them and five
    # costlier ones (four stats, the q census) above.
    extra = _walk(rng, ["t", "t", "t", "q"])
    stats_sizes = _walk(rng, list(STATS_SIZES))
    map_sizes = _walk(rng, list(MAP_SIZES))

    def census_all() -> list[Job]:
        marks = "xvw" + next(extra)
        argv = ("census", "--subset", "All", "--n-max", "8", "--marks", marks,
                "--sources", "bf,cf", "--json")
        return [Job("census", argv, {"subset": "All", "n_max": 8, "marks": marks})]

    def stats() -> list[Job]:
        perm = _perm(rng, rng.randrange(*next(stats_sizes)))
        return [Job("stats", ("stats", "--perm", _perm_text(perm), "--json"), {"perm": perm})]

    def map_pair() -> list[Job]:
        perm = _perm(rng, rng.randrange(*next(map_sizes)))
        return [
            Job("map", ("map", "--perm", _perm_text(perm)), {"perm": perm}),
            Job("unmap", (), {"perm": perm}),
        ]

    def check() -> list[Job]:
        return [Job("check", ("check", "--n-max", "5", "--seed", str(rng.randrange(10**6)), "--json"))]

    return "ASPAXSASPAS", {"A": census_all, "S": stats, "P": map_pair, "X": check}


def _expand(rng: random.Random) -> tuple[str, dict[str, Callable[[], list[Job]]]]:
    prefixes = _walk(rng, [(s, lo, hi) for s in INVERT_SEQUENCES for lo, hi in INVERT_LENGTHS])

    def cf(options: dict) -> Callable[[], list[Job]]:
        walk = _walk(rng, sorted(options))

        def make() -> list[Job]:
            scheme = next(walk)
            marks, order = rng.choice(options[scheme])
            argv = ("cf", "--scheme", scheme, "--order", str(order), "--marks", marks, "--json")
            return [Job("cf", argv, {"scheme": scheme, "order": order, "marks": marks})]
        return make

    def invert() -> list[Job]:
        name, lo, hi = next(prefixes)
        terms = sequence_terms(name, rng.randrange(lo, hi))
        argv = ("invert", "--terms", ",".join(map(str, terms)), "--regenerate", "--json")
        return [Job("invert", argv, {"sequence": name, "count": len(terms)})]

    def check() -> list[Job]:
        return [Job("check", ("check", "--n-max", "4", "--seed", str(rng.randrange(10**6)), "--json"))]

    kinds = {"F": cf(CF_HEAVY), "f": cf(CF_LIGHT), "I": invert, "X": check}
    return "FIFIfIFIXFIfIFIfII", kinds


WORKLOADS = {"classes": _classes, "symmetric": _symmetric, "expand": _expand}


def jobs(workload: str, seed: int) -> Iterator[Job]:
    """The endless job sequence of a workload; the same seed gives the same jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    pattern, kinds = WORKLOADS[workload](rng)
    for number in count():
        for slot in pattern:
            for job in kinds[slot]():
                job.round = number
                yield job


def digest(workload: str, seed: int, count: int) -> str:
    """SHA-256 over the specs of the first ``count`` jobs."""
    h = hashlib.sha256()
    for job in islice(jobs(workload, seed), count):
        h.update(json.dumps(job.spec(), sort_keys=True).encode())
    return h.hexdigest()

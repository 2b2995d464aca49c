"""Checks of each job's output against references outside the timed code.

Every checker takes the job and its standard output and returns ``None``
when the output is right, or a one-line reason.  The references are a
class-count table frozen from agreeing sources (``class_counts.json``), the
known J-fraction weights of the input sequences, and a statistic routine
written here independently of the package's kernel.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from math import factorial
from pathlib import Path

from .workloads import Job, sequence_terms

MARKERS = "xvwtq"
_PATH_TOKEN = re.compile(r"U|[LD]\d+")


@lru_cache(maxsize=1)
def class_counts() -> dict[str, list[int]]:
    table = json.loads(Path(__file__).with_name("class_counts.json").read_text())
    return {name: entry["counts"] for name, entry in table["classes"].items()}


def expected_count(name: str, n: int) -> int:
    return factorial(n) if name == "All" else class_counts()[name][n]


def reference_stats(perm: tuple[int, ...]) -> dict[str, int]:
    """Fixed points, excedances, double excedances, cycles and inversions.

    Inversions are counted with a Fenwick tree in O(n log n), so this shares
    no code or algorithm with the package's quadratic kernel.
    """
    n = len(perm)
    fixed = sum(1 for i, v in enumerate(perm, 1) if v == i)
    exc = sum(1 for i, v in enumerate(perm, 1) if v > i)
    dexc = sum(1 for i, v in enumerate(perm, 1) if i < v < perm[v - 1])
    seen = [False] * (n + 1)
    cycles = 0
    for start in range(1, n + 1):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j - 1]
    tree = [0] * (n + 1)
    inversions = 0
    for placed, v in enumerate(perm):
        below = 0
        k = v
        while k > 0:
            below += tree[k]
            k -= k & -k
        inversions += placed - below
        k = v
        while k <= n:
            tree[k] += 1
            k += k & -k
    return {
        "fixed_points": fixed,
        "excedances": exc,
        "double_excedances": dexc,
        "cycles": cycles,
        "inversions": inversions,
    }


def known_weights(name: str, levels: int, falls: int) -> tuple[list[int], list[int]]:
    """J-fraction level weights ell_0.. and fall weights d_1.. of a sequence."""
    if name == "Bell":
        return [h + 1 for h in range(levels)], [h for h in range(1, falls + 1)]
    if name == "Motzkin":
        return [1] * levels, [1] * falls
    if name == "Catalan":
        return [1] + [2] * (levels - 1), [1] * falls
    raise ValueError(f"unknown sequence {name!r}")


def _poly_total(poly: dict, marks: str) -> int | str:
    """Sum of coefficients, or a reason if an unrequested marker appears."""
    total = 0
    for coeff, exps in poly["terms"]:
        for name, e in zip(MARKERS, exps):
            if e and name not in marks:
                return f"marker {name} present though not requested"
        total += coeff
    return total


def _census(job: Job, out: str) -> str | None:
    data = json.loads(out)
    if data.get("passing") is not True:
        return "census sources disagree"
    subset, n_max, marks = job.expect["subset"], job.expect["n_max"], job.expect["marks"]
    wanted = {"BruteForce", "ContinuedFraction"}
    if not wanted <= set(data["values"]):
        return f"missing sources, got {sorted(data['values'])}"
    for source, cells in data["values"].items():
        if len(cells) != n_max + 1:
            return f"{source} has {len(cells)} values, expected {n_max + 1}"
        for n, cell in enumerate(cells):
            got = _poly_total(cell, marks) if marks else cell
            if isinstance(got, str):
                return f"{source} n={n}: {got}"
            if got != expected_count(subset, n):
                return f"{source} n={n}: {got} != frozen {expected_count(subset, n)}"
    return None


def _cf(job: Job, out: str) -> str | None:
    data = json.loads(out)
    scheme, order, marks = job.expect["scheme"], job.expect["order"], job.expect["marks"]
    coeffs = data["coefficients"]
    if [c["n"] for c in coeffs] != list(range(order + 1)):
        return "coefficient indices are not 0..order"
    for c in coeffs:
        got = _poly_total(c, marks)
        if isinstance(got, str):
            return f"[z^{c['n']}] {got}"
        if got != expected_count(scheme, c["n"]):
            return f"[z^{c['n']}] sums to {got}, frozen {expected_count(scheme, c['n'])}"
    return None


def _invert(job: Job, out: str) -> str | None:
    data = json.loads(out)
    name, count = job.expect["sequence"], job.expect["count"]
    terms = [str(t) for t in sequence_terms(name, count)]
    if data["status"] != "Complete":
        return f"status {data['status']}"
    if data.get("regenerated") != terms:
        return "regenerated terms differ from the input"
    ell, dee = known_weights(name, count // 2, (count - 1) // 2)
    if data["level_weights"] != [str(w) for w in ell]:
        return "level weights differ from the known ones"
    if data["fall_weights"] != [str(w) for w in dee]:
        return "fall weights differ from the known ones"
    return None


def _stats(job: Job, out: str) -> str | None:
    data = json.loads(out)
    perm = job.expect["perm"]
    if tuple(data["perm"]) != perm:
        return "echoed permutation differs"
    want = reference_stats(perm)
    got = {k: data[k] for k in want}
    return None if got == want else f"statistics {got} != reference {want}"


def path_tokens(out: str, n: int) -> str | None:
    """The path text a map job printed, if it has n well-formed steps."""
    text = out.strip()
    tokens = text.split()
    if len(tokens) != n or not all(_PATH_TOKEN.fullmatch(t) for t in tokens):
        return None
    return text


def _map(job: Job, out: str) -> str | None:
    if path_tokens(out, len(job.expect["perm"])) is None:
        return "output is not a colored path of the permutation's length"
    return None


def _unmap(job: Job, out: str) -> str | None:
    try:
        got = tuple(int(t) for t in out.split())
    except ValueError:
        return "output is not a permutation"
    return None if got == job.expect["perm"] else "round trip did not return the input"


def _mobius(job: Job, out: str) -> str | None:
    data = json.loads(out)
    ok = data.get("agree") is True and data.get("brute_force") == data.get("formula")
    return None if ok else "formula and enumeration disagree"


def _check(job: Job, out: str) -> str | None:
    data = json.loads(out)
    failed = [c["name"] for c in data["checks"] if not c["passed"]]
    if data.get("passed") is not True or failed:
        return f"self-checks failed: {failed}"
    return None


CHECKERS = {
    "census": _census,
    "cf": _cf,
    "invert": _invert,
    "stats": _stats,
    "map": _map,
    "unmap": _unmap,
    "mobius": _mobius,
    "check": _check,
}


def verify(job: Job, returncode: int, out: str) -> str | None:
    """``None`` if the job exited 0 with a correct output, else the reason."""
    if returncode != 0:
        return f"exit status {returncode}"
    try:
        return CHECKERS[job.kind](job, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"

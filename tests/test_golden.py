"""Golden CLI outputs: the ``--json`` output of every subcommand must stay byte for byte the same.

Each case runs the command-line front end in-process and compares its stdout
with a gzip-compressed file under ``tests/golden/``.  A refactor of the class
catalogue, the weight schemes or the census sources that changes any number,
marker polynomial or key order shows up here.  After a deliberate output
change, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import gzip
import io
import random
from pathlib import Path

import pytest

from motzkinperm.cli import main
from motzkinperm.schemes import scheme_names
from motzkinperm.subsets import SubsetId

GOLDEN = Path(__file__).with_name("golden")

# One marker set per scheme other than its default, chosen to reach every
# weight branch (q-weighted and plain) at a cost that keeps the suite fast.
OTHER_MARKS = {
    "All": "wq",
    "Cyclic": "v",
    "Avoid321": "q",
    "UnimodalNoncrossingNoNestedFp": "tq",
    "Noncrossing": "x",
    "IncreasingExc": "vt",
    "IncreasingWeakExc": "xt",
    "CyclicIncreasingExc": "w",
    "UnimodalCycles": "t",
    "UnimodalCyclesIncreasingExc": "xw",
    "IncreasingExcAndDef": "vq",
    "UnimodalNoncrossing": "xq",
    "NoDoubleExcOrDef": "xvt",
    "Involutions": "q",
    "Involutions321": "tq",
    "Consecutive123": "",
}


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for name in scheme_names():
        cases[f"cf-{name}-default"] = ["cf", "--scheme", name, "--order", "10", "--json"]
        marks = OTHER_MARKS[name]
        cases[f"cf-{name}-{marks or 'none'}"] = [
            "cf", "--scheme", name, "--order", "10", "--marks", marks, "--json"
        ]
    for subset in SubsetId:
        cases[f"census-{subset.value}"] = [
            "census", "--subset", subset.value, "--n-max", "6", "--json"
        ]
    cases["census-UnimodalNoncrossing-xvwtq"] = [
        "census", "--subset", "UnimodalNoncrossing", "--n-max", "6",
        "--marks", "xvwtq", "--sources", "bf,cf", "--json",
    ]
    big = " ".join(map(str, random.Random(300).sample(range(1, 301), 300)))
    cases["map"] = ["map", "--perm", "3 1 4 2 5", "--json"]
    cases["map-300"] = ["map", "--perm", big, "--json"]
    cases["unmap"] = ["unmap", "--path", "U L1 U D1 L0 D0", "--json"]
    cases["stats-small"] = ["stats", "--perm", "3 1 4 2 5", "--json"]
    cases["stats-300"] = ["stats", "--perm", big, "--json"]
    cases["invert-regenerate"] = [
        "invert", "--terms", "1,1,2,4,9,21,51,127,323", "--regenerate", "--json"
    ]
    cases["bell"] = ["bell", "--perm", "2 6 8 3 9 11 4 5 1 7 10", "--json"]
    cases["mobius-brute"] = ["mobius", "--family", "321,2143,3142", "--n", "7", "--brute", "--json"]
    cases["check"] = ["check", "--n-max", "4", "--seed", "5", "--json"]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden_file(case):
    expected = gzip.decompress((GOLDEN / f"{case}.json.gz").read_bytes())
    assert _run(CASES[case]).encode() == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        data = gzip.compress(_run(argv).encode(), mtime=0)
        (GOLDEN / f"{case}.json.gz").write_bytes(data)
    print(f"wrote {len(CASES)} files to {GOLDEN}")

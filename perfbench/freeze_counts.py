"""Regenerate ``class_counts.json``, the frozen class-count table.

The benchmark checks census and ``cf`` outputs against this table, so it
must not come from a single code path: every count up to ``BF_MAX`` is
taken only where brute-force enumeration, the continued fraction and the
closed form (when the class has one) all agree; above that, where the
continued fraction and the closed form agree, or from the continued
fraction alone for the classes that have no closed form.  Each entry's
``agreed`` lists the sources that matched; ``bf`` covers n <= ``BF_MAX`` only.
The table reaches ``N_MAX`` = 16, the highest ``cf`` order the benchmark runs.

    PYTHONPATH=src python3 perfbench/freeze_counts.py
"""

from __future__ import annotations

import json
from math import factorial
from pathlib import Path

from motzkinperm.oracle import sweep_counts
from motzkinperm.schemes import scheme_for
from motzkinperm.sequences import closed_form_counts
from motzkinperm.subsets import SubsetId

TABLE = Path(__file__).with_name("class_counts.json")
BF_MAX = 9
N_MAX = 16


def main() -> int:
    brute = [sweep_counts(n) for n in range(BF_MAX + 1)]
    classes: dict[str, dict] = {}
    for subset in SubsetId:
        cf = scheme_for(subset, "").counts(N_MAX)
        closed = closed_form_counts(subset, N_MAX)
        for n in range(BF_MAX + 1):
            if brute[n][subset] != cf[n]:
                raise SystemExit(f"{subset.value} n={n}: brute force {brute[n][subset]} != cf {cf[n]}")
        if closed is not None and closed != cf:
            raise SystemExit(f"{subset.value}: closed form disagrees with the continued fraction")
        classes[subset.value] = {
            "counts": cf,
            "agreed": ["bf", "cf", "closed"] if closed is not None else ["bf", "cf"],
        }
    c123 = scheme_for("Consecutive123", "").counts(N_MAX)
    if c123 != [factorial(n) for n in range(N_MAX + 1)]:
        raise SystemExit("Consecutive123 totals are not n!")
    classes["Consecutive123"] = {"counts": c123, "agreed": ["cf", "closed"]}

    lines = [f'  "{name}": {json.dumps(entry)}' for name, entry in classes.items()]
    TABLE.write_text(
        f'{{"bf_max": {BF_MAX}, "n_max": {N_MAX}, "classes": {{\n'
        + ",\n".join(lines)
        + "\n}}\n"
    )
    print(f"wrote {TABLE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

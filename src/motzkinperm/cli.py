"""Command-line front end.

Subcommands map the library one-to-one: ``map``/``unmap`` move between
permutations and colored paths, ``stats`` prints the statistic vector,
``census`` compares enumeration against continued fractions and closed
forms, ``cf`` expands a scheme's series, ``invert`` recovers weights from a
sequence prefix, ``bell`` prints the cycle-to-partition triptych, ``mobius``
evaluates the cyclic pattern-avoidance formulas, and ``check`` runs the
package self-checks.  Every subcommand takes ``--json``; malformed input
exits with status 1 and a diagnostic on stderr.

Run as a process (``python -m motzkinperm.cli`` or the ``motzkinperm``
script), :func:`main` calls ``gc.freeze()`` before it parses: everything
start-up built lives until exit, and the interpreter's collection at
shutdown would otherwise walk all of it, 10-15 ms of CPU a process.  A
caller that passes ``argv`` keeps its collector as it was.  The JSON writer
needs only the C string escaper from ``_json``, so the ``json`` package
(about 3 ms to import) is not loaded.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from _json import encode_basestring_ascii as _json_str  # the C escaper json.encoder re-exports
from types import GeneratorType
from typing import TYPE_CHECKING, Sequence

from . import __version__, bell, mobius
from .census import census as build_census, check_all
from .invert import classify_weights, invert_jfraction, regenerate
from .paths import ColoredMotzkinPath, path_to_perm, perm_to_path
from .perms import Permutation
from .polys import MultiPoly, format_terms
from .schemes import scheme_for, scheme_names
from .subsets import SubsetId

if TYPE_CHECKING:
    from fractions import Fraction


class _Terms(list):
    """Pairs ``(e, c)`` from ``MultiPoly.to_terms()``; ``_write_json`` prints them as ``[c, e]``."""


def _poly_json(p: MultiPoly) -> dict:
    terms = p.to_terms()
    return {"text": format_terms(terms), "terms": _Terms(terms)}


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json writes them


def _write_json(o: object, ind: str, out: list[str]) -> None:
    """Append the text of ``json.dumps(o, indent=2)``, nested at indent ``ind``.

    Dict keys must be str.  Ints and floats are written with ``int.__repr__``
    and ``float.__repr__``, as json does, but for its ``NaN``, ``Infinity`` and
    ``-Infinity``.  A generator is drawn one item at a time, and ``_Terms`` give
    rows.  Between array items, 256 pieces in ``out`` go to stdout in one write.
    """
    if type(o) is int:
        out.append(int.__repr__(o))
    elif isinstance(o, str):
        out.append(_json_str(o))
    elif o is None or type(o) is bool:
        out.append("null" if o is None else "true" if o else "false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        text = float.__repr__(o)
        out.append(_FLOAT_WORDS.get(text, text))
    elif isinstance(o, (list, tuple, GeneratorType)):
        inner = ind + "  "
        sep = start = f"[\n{inner}"
        after = f",\n{inner}"
        terms = type(o) is _Terms
        if terms:
            i1, i2 = inner + "  ", inner + "    "
            row = f"[\n{i1}%d,\n{i1}[\n" + ",\n".join([f"{i2}%d"] * 5) + f"\n{i1}]\n{inner}]"
        for item in o:
            out.append(sep)
            sep = after
            if terms:
                out.append(row % (item[1], *item[0]))
            else:
                _write_json(item, inner, out)
            if len(out) >= 256:  # a write per piece made `map --json` on 5000 entries 10% dearer
                sys.stdout.write("".join(out))
                out.clear()
        out.append("[]" if sep is start else f"\n{ind}]")
    elif isinstance(o, dict):
        inner = ind + "  "
        sep = start = f"{{\n{inner}"
        after = f",\n{inner}"
        for key, value in o.items():
            out.append(f"{sep}{_json_str(key)}: ")
            sep = after
            _write_json(value, inner, out)
        out.append("{}" if sep is start else f"\n{ind}}}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _print_json(data: object) -> None:
    """Print ``json.dumps(data, indent=2)`` a part at a time, never holding the whole text.

    Parts go to whatever ``sys.stdout`` is as they are written, so ``redirect_stdout`` works."""
    out: list[str] = []
    _write_json(data, "", out)
    out.append("\n")
    sys.stdout.write("".join(out))


def _parse_terms(text: str) -> list[Fraction]:
    from fractions import Fraction  # not at start-up: with decimal and numbers, 4 ms a process
    toks = text.replace(",", " ").split()
    if not toks:
        raise ValueError("no terms given")
    return [Fraction(t) for t in toks]


def _cmd_map(args: argparse.Namespace) -> int:
    perm = Permutation.parse(args.perm)
    path = perm_to_path(perm)
    if args.json:
        _print_json(
            {
                "perm": list(perm.values),
                "path": path.to_text(),
                "word": path.word,
                "steps": [st._asdict() for st in path.steps],
            }
        )
    else:
        print(path.to_text())
    return 0


def _cmd_unmap(args: argparse.Namespace) -> int:
    path = ColoredMotzkinPath.parse(args.path)
    perm = path_to_perm(path)
    if args.json:
        _print_json({"path": path.to_text(), "perm": list(perm.values)})
    else:
        print(perm.to_text())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    perm = Permutation.parse(args.perm)
    vec = perm.stats()
    word = perm.diagonal().word
    monomial = MultiPoly.monomial(vec.monomial_exponents())
    if args.json:
        _print_json(
            {"perm": list(perm.values), **vec._asdict(), "word": word, "monomial": str(monomial)}
        )
    else:
        rows = {"perm": perm.to_text(), **vec._asdict(), "word": word, "monomial": monomial}
        for name, value in rows.items():
            print(f"{name.replace('_', ' ') + ':':<19}{value}")
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    sources = tuple(s.strip() for s in args.sources.split(",") if s.strip())
    report = build_census(args.subset, args.n_max, args.marks, sources)
    if args.json:
        _print_json(
            {
                "subset": report.subset,
                "n_max": report.n_max,
                "marks": report.marks,
                "values": {
                    src: (_poly_json(v) if isinstance(v, MultiPoly) else v for v in vals)
                    for src, vals in report.values.items()
                },
                "agreements": report.agreements,
                "passing": report.passing,
            }
        )
    elif args.csv:
        import csv  # not at start-up: 1 ms a process
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", *report.values])
        for n in range(report.n_max + 1):
            writer.writerow([n, *(str(vals[n]) for vals in report.values.values())])
    else:
        print(f"subset={report.subset} n_max={report.n_max} marks={report.marks or '-'}")
        for n in range(report.n_max + 1):
            cells = "  ".join(f"{src}={vals[n]}" for src, vals in report.values.items())
            print(f"n={n}  {cells}")
        for pair, ok in report.agreements.items():
            print(f"agreement {pair}: {'ok' if ok else 'MISMATCH'}")
    return 0 if report.passing else 1


def _cmd_cf(args: argparse.Namespace) -> int:
    scheme = scheme_for(args.scheme, args.marks)
    series = scheme.series(args.order)
    if args.json:
        _print_json(
            {
                "scheme": scheme.name,
                "marks": "".join(sorted(scheme.marks)),
                "elevated": scheme.elevated,
                "order": args.order,
                "coefficients": (
                    {"n": n, **_poly_json(series[n])} for n in range(args.order + 1)
                ),
            }
        )
    else:
        kind = "elevated" if scheme.elevated else "grounded"
        print(f"scheme={scheme.name} ({kind}) marks={''.join(sorted(scheme.marks)) or '-'}")
        for n in range(args.order + 1):
            print(f"[z^{n}] {series[n]}")
    return 0


def _cmd_invert(args: argparse.Namespace) -> int:
    terms = _parse_terms(args.terms)
    rec = invert_jfraction(terms)
    verdict = classify_weights(rec)
    regenerated = None
    if args.regenerate and rec.status.value != "Failed":
        regenerated = regenerate(rec)
    if args.json:
        data = {
            "n_input": rec.n_input,
            "status": rec.status.value,
            "level_weights": [str(w) for w in rec.ell],
            "fall_weights": [str(w) for w in rec.dee],
            "classification": verdict,
        }
        if regenerated is not None:
            data["regenerated"] = [str(c) for c in regenerated]
        _print_json(data)
    else:
        print(f"input terms:   {', '.join(str(t) for t in terms)}")
        print(f"status:        {rec.status.value}")
        print(f"level weights: {', '.join(str(w) for w in rec.ell) or '-'}")
        print(f"fall weights:  {', '.join(str(w) for w in rec.dee) or '-'}")
        print(f"classification: {verdict}")
        if regenerated is not None:
            print(f"regenerated:   {', '.join(str(c) for c in regenerated)}")
    return 0


def _cmd_bell(args: argparse.Namespace) -> int:
    perm = Permutation.parse(args.perm)
    epath = bell.cycle_to_path(perm)
    bpath = bell.shorten_path(epath)
    part = bell.block_path_to_partition(bpath)
    if args.json:
        _print_json(
            {
                "perm": list(perm.values),
                "elevated_path": epath.to_text(),
                "grounded_path": bpath.to_text(),
                "partition": [list(b) for b in part.blocks],
            }
        )
    else:
        print(f"cycle:     {perm.to_text()}")
        print(f"elevated:  {epath.to_text()}")
        print(f"grounded:  {bpath.to_text() or '(empty)'}")
        print(f"partition: {part.to_text() or '(empty)'}")
    return 0


def _cmd_mobius(args: argparse.Namespace) -> int:
    value = mobius.mobius_count(args.family, args.n)
    counted = mobius.brute_count(args.family, args.n) if args.brute else None
    if args.json:
        data = {"family": args.family, "n": args.n, "formula": value}
        if counted is not None:
            data["brute_force"] = counted
            data["agree"] = counted == value
        _print_json(data)
    else:
        print(f"family {args.family} n={args.n}: {value}")
        if counted is not None:
            tag = "ok" if counted == value else "MISMATCH"
            print(f"brute force: {counted} ({tag})")
    if counted is not None and counted != value:
        return 1
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    results = check_all(args.n_max, args.seed)
    failed = [r for r in results if not r.passed]
    if args.json:
        _print_json(
            {
                "n_max": args.n_max,
                "seed": args.seed,
                "checks": [r._asdict() for r in results],
                "passed": not failed,
            }
        )
    else:
        for r in results:
            if r.passed:
                print(f"PASS {r.name}")
            else:
                print(f"FAIL {r.name}: {r.detail}")
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motzkinperm",
        description="Permutation statistics via colored Motzkin paths.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", help="encode a permutation as a colored path")
    p.add_argument("--perm", required=True, help="one-line permutation, e.g. '3 1 2'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_map)

    p = sub.add_parser("unmap", help="decode a colored path to its permutation")
    p.add_argument("--path", required=True, help="path text, e.g. 'U L1 D0'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_unmap)

    p = sub.add_parser("stats", help="statistic vector of a permutation")
    p.add_argument("--perm", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("census", help="compare census sources for a class")
    p.add_argument("--subset", required=True, help=f"one of {', '.join(s.value for s in SubsetId)}")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--marks", default="", help="markers to keep, e.g. 'xv'")
    p.add_argument("--sources", default="bf,cf,closed", help="comma list of bf,cf,closed")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("cf", help="expand a weight scheme's census series")
    p.add_argument("--scheme", required=True, help=f"one of {', '.join(scheme_names())}")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--marks", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_cf)

    p = sub.add_parser("invert", help="recover weights from a sequence prefix")
    p.add_argument("--terms", required=True, help="comma or space separated, c0 first")
    p.add_argument("--regenerate", action="store_true", help="run the weights forward again")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_invert)

    p = sub.add_parser("bell", help="cycle -> elevated path -> grounded path -> partition")
    p.add_argument("--perm", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_bell)

    p = sub.add_parser("mobius", help="cyclic pattern-avoidance counts")
    p.add_argument("--family", required=True, help=f"one of {'; '.join(mobius.FAMILIES)}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--brute", action="store_true", help="also enumerate and compare")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_mobius)

    p = sub.add_parser("check", help="run the package self-checks")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        gc.freeze()  # nothing built at start-up dies before exit: keep the shutdown collection off it
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone; send what is still buffered to devnull, not to a traceback at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

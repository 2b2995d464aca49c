"""The command-line interface, driven through main() with captured output."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import motzkinperm
from motzkinperm import cfrac
from motzkinperm.cfrac import MAX_ORDER
from motzkinperm.cli import _print_json, _Terms, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert err == ""
    return code, json.loads(out)


def test_map_prints_the_path(capsys):
    code, out, err = run(capsys, "map", "--perm", "5 7 2 4 3 8 1 6 9 12 10 11")
    assert code == 0
    assert out.strip() == "U U L4 L0 D1 U D0 D0 L0 U L2 D0"


def test_map_json_shape(capsys):
    code, data = run_json(capsys, "map", "--perm", "2 3 1")
    assert code == 0
    assert data["perm"] == [2, 3, 1]
    assert data["path"] == "U L1 D0"
    assert data["word"] == "ULD"
    assert data["steps"][1] == {"letter": "L", "height": 1, "color": 1}


def test_unmap_inverts_map(capsys):
    code, out, _ = run(capsys, "unmap", "--path", "U U L4 L0 D1 U D0 D0 L0 U L2 D0")
    assert code == 0
    assert out.strip() == "5 7 2 4 3 8 1 6 9 12 10 11"


def test_map_unmap_round_trip_json(capsys):
    code, data = run_json(capsys, "map", "--perm", "2 1")
    assert code == 0
    code, data2 = run_json(capsys, "unmap", "--path", data["path"])
    assert code == 0
    assert data2["perm"] == [2, 1]


def test_stats_json_fields(capsys):
    code, data = run_json(capsys, "stats", "--perm", "5 7 2 4 3 8 1 6 9 12 10 11")
    assert code == 0
    assert data["fixed_points"] == 2
    assert data["excedances"] == 4
    assert data["double_excedances"] == 0
    assert data["cycles"] == 5
    assert data["inversions"] == 17
    assert data["word"] == "UULLDUDDLULD"
    assert data["monomial"] == "x^2*v^4*t^5*q^17"


def test_stats_plain_output_mentions_every_statistic(capsys):
    code, out, _ = run(capsys, "stats", "--perm", "2 3 1")
    assert code == 0
    for line in ("excedances", "cycles", "inversions", "word"):
        assert line in out


def test_census_passes_and_exits_zero(capsys):
    code, data = run_json(
        capsys, "census", "--subset", "Avoid321", "--n-max", "5"
    )
    assert code == 0
    assert data["passing"] is True
    assert data["values"]["BruteForce"] == [1, 1, 2, 5, 14, 42]
    assert data["values"]["ClosedForm"] == [1, 1, 2, 5, 14, 42]


def test_census_csv_output(capsys):
    code, out, _ = run(
        capsys, "census", "--subset", "All", "--n-max", "4", "--csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,")
    assert lines[1].split(",")[:2] == ["0", "1"]
    assert lines[-1].split(",")[1] == "24"


def test_census_columns_keep_their_order_whatever_the_sources_order(capsys):
    code, out, _ = run(
        capsys, "census", "--subset", "Avoid321", "--n-max", "3",
        "--sources", "closed,cf,bf", "--csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,BruteForce,ContinuedFraction,ClosedForm"
    assert lines[-1] == "3,5,5,5"


def test_unmap_refuses_a_non_decimal_color_as_a_bad_token(capsys):
    code, out, err = run(capsys, "unmap", "--path", "U D\u00b2")
    assert code == 1 and out == ""
    assert "bad path token" in err


def test_census_marked_json_embeds_polynomials(capsys):
    code, data = run_json(
        capsys,
        "census",
        "--subset",
        "All",
        "--n-max",
        "3",
        "--marks",
        "xt",
        "--sources",
        "bf,cf",
    )
    assert code == 0
    cell = data["values"]["ContinuedFraction"][3]
    assert "text" in cell and "terms" in cell
    assert data["passing"] is True


def test_census_rejects_unknown_subset(capsys):
    code, out, err = run(capsys, "census", "--subset", "Nope", "--n-max", "3")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_census_rejects_oversized_brute_force(capsys):
    code, _, err = run(capsys, "census", "--subset", "All", "--n-max", "15")
    assert code == 1
    assert "error:" in err


def test_cf_lists_coefficients(capsys):
    code, data = run_json(
        capsys, "cf", "--scheme", "Involutions", "--order", "4", "--marks", "tq"
    )
    assert code == 0
    assert data["scheme"] == "Involutions"
    assert data["marks"] == "qt"
    assert data["elevated"] is False
    assert len(data["coefficients"]) == 5
    assert data["coefficients"][0]["text"] == "1"


def test_cf_plain_output(capsys):
    code, out, _ = run(capsys, "cf", "--scheme", "Motzkin", "--order", "3")
    assert code == 1  # no scheme of that name
    code, out, _ = run(capsys, "cf", "--scheme", "Consecutive123", "--order", "3")
    assert code == 0
    assert "[z^3]" in out


def test_cf_order_is_capped_before_any_expansion(capsys, monkeypatch):
    top = str(MAX_ORDER)
    assert run(capsys, "cf", "--scheme", "Noncrossing", "--order", top, "--marks", "")[0] == 0

    def expand(*args):
        raise AssertionError("expanded past the cap")

    monkeypatch.setattr(cfrac, "_path_sums", expand)
    over = str(MAX_ORDER + 1)
    for argv in (
        ("cf", "--scheme", "Noncrossing", "--order", over),
        ("census", "--subset", "Avoid321", "--n-max", over, "--sources", "cf,closed"),
        ("census", "--subset", "Avoid321", "--n-max", over, "--sources", "closed"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and f"the cap is {MAX_ORDER}" in err


def test_invert_plain_and_regenerated(capsys):
    code, out, _ = run(
        capsys,
        "invert",
        "--terms",
        "1, 1, 3, 17, 155, 2073, 38227",
        "--regenerate",
    )
    assert code == 0
    assert "Complete" in out
    assert "level weights: 1, 6, 15" in out
    assert "fall weights:  2, 24, 108" in out
    assert "regenerated:   1, 1, 3, 17, 155, 2073, 38227" in out


def test_invert_json_statuses(capsys):
    code, data = run_json(capsys, "invert", "--terms", "1 0 0 1")
    assert code == 0
    assert data["status"] == "Failed"
    code, data = run_json(capsys, "invert", "--terms", "1 2 4 8")
    assert code == 0
    assert data["status"] == "Terminated"
    assert data["level_weights"] == ["2"]


def test_invert_rejects_bad_head(capsys):
    code, _, err = run(capsys, "invert", "--terms", "2 1 1")
    assert code == 1
    assert "error:" in err


def test_bell_triptych(capsys):
    code, data = run_json(capsys, "bell", "--perm", "2 6 8 3 9 11 4 5 1 7 10")
    assert code == 0
    assert data["elevated_path"] == "U L1 U L1 U L3 L1 D1 D0 L0 D0"
    assert data["grounded_path"] == "U L1 U L1 U D2 L1 D1 D0 L0"
    assert data["partition"] == [[1, 9], [2], [3, 4, 7, 8], [5, 6], [10]]


def test_bell_rejects_non_members(capsys):
    code, _, err = run(capsys, "bell", "--perm", "1 2 3")
    assert code == 1
    assert "error:" in err


def test_mobius_formula_with_brute_check(capsys):
    code, data = run_json(
        capsys, "mobius", "--family", "123,2413,3412", "--n", "6", "--brute"
    )
    assert code == 0
    assert data["formula"] == 11
    assert data["brute_force"] == 11
    assert data["agree"] is True


def test_mobius_unknown_family(capsys):
    code, _, err = run(capsys, "mobius", "--family", "111", "--n", "4")
    assert code == 1
    assert "error:" in err


def test_mobius_refuses_a_size_above_the_formula_cap(capsys):
    code, out, err = run(capsys, "mobius", "--family", "213,312", "--n", "20000")
    assert code == 1
    assert out == ""
    assert f"the cap is {motzkinperm.mobius.FORMULA_CAP}" in err


def test_check_reports_every_check(capsys):
    code, data = run_json(capsys, "check", "--n-max", "4", "--seed", "1")
    assert code == 0
    assert data["passed"] is True
    assert len(data["checks"]) == 9
    names = [c["name"] for c in data["checks"]]
    assert len(set(names)) == 9


def test_check_plain_output(capsys):
    code, out, _ = run(capsys, "check", "--n-max", "3")
    assert code == 0
    assert "9/9 checks passed" in out
    assert out.count("PASS") == 9


def test_census_json_csv_mutually_exclusive():
    with pytest.raises(SystemExit) as excinfo:
        main(["census", "--subset", "All", "--n-max", "2", "--json", "--csv"])
    assert excinfo.value.code == 2


PACKAGE_PARENT = str(Path(motzkinperm.__file__).resolve().parents[1])


def _project_table() -> dict:
    """The ``[project]`` table of pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]


def test_version_is_the_project_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    version = _project_table()["version"]
    assert capsys.readouterr().out == f"motzkinperm {version}\n"
    assert motzkinperm.__version__ == version


def test_start_up_imports_every_module_but_no_dataclasses_or_inspect():
    """What a fresh ``python -S`` process loads before the CLI runs a command.

    ``import motzkinperm`` loads every module but ``cli``, which the
    benchmark's tracer relies on to find all the code before it wraps it.
    Importing the CLI and building its parser loads neither ``dataclasses``
    nor ``inspect``, which cost every process about 0.02 s of CPU, nor
    ``fractions`` (with ``decimal``, about 4 ms) and ``csv`` (about 1 ms),
    which only ``invert`` and ``census --csv`` use, nor ``json`` (about 3 ms),
    whose C string escaper the JSON writer takes from ``_json``.
    """
    child = (
        "import sys\n"
        "import motzkinperm\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('motzkinperm.'))\n"
        "import motzkinperm.cli\n"
        "motzkinperm.cli.build_parser()\n"
        "heavy = [m for m in ('dataclasses', 'inspect', 'fractions', 'decimal', 'csv', 'json')\n"
        "         if m in sys.modules]\n"
        "import json\n"
        "print(json.dumps([loaded, heavy]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", child],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": PACKAGE_PARENT},
    )
    assert proc.returncode == 0, proc.stderr
    loaded, heavy = json.loads(proc.stdout)
    modules = sorted(
        f"motzkinperm.{path.stem}"
        for path in Path(motzkinperm.__file__).parent.glob("*.py")
        if path.stem not in ("__init__", "cli")
    )
    assert loaded == modules
    assert heavy == []


def test_a_process_that_runs_main_on_its_own_command_line_freezes_its_heap(tmp_path):
    """``main()`` with no ``argv`` is the process's entry point, so it moves
    what start-up built out of the collector's reach before the command runs."""
    child = (
        "import gc, sys\n"
        "from motzkinperm.cli import main\n"
        "sys.argv = ['motzkinperm', 'stats', '--perm', '2 3 1']\n"
        "before = gc.get_freeze_count()\n"
        "code = main()\n"
        "print(code, before, gc.get_freeze_count())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": PACKAGE_PARENT},
    )
    assert proc.returncode == 0, proc.stderr
    code, before, after = map(int, proc.stdout.splitlines()[-1].split())
    assert (code, before) == (0, 0)
    assert after > 0


def test_main_called_with_argv_leaves_the_collector_alone(capsys):
    """In-process callers (the tests, the benchmark's tracer) pass ``argv``
    and keep their collector as it was."""
    before = gc.get_freeze_count()
    code, out, _ = run(capsys, "stats", "--perm", "2 3 1")
    assert code == 0 and "excedances:" in out
    assert gc.get_freeze_count() == before


def test_commands_that_import_on_demand_run_in_a_fresh_process(tmp_path):
    """``invert`` and ``census --csv`` import ``fractions`` and ``csv`` when
    they run, not at start-up: run both as new processes, the way a user
    does, where nothing has loaded those modules yet."""
    env = {**os.environ, "PYTHONPATH": PACKAGE_PARENT}
    cmd = [sys.executable, "-m", "motzkinperm.cli"]
    invert, census = (
        subprocess.run(cmd + argv, capture_output=True, text=True, env=env, cwd=tmp_path)
        for argv in (
            ["invert", "--terms", "1,1/2,3/4", "--regenerate"],
            ["census", "--subset", "All", "--n-max", "3", "--csv"],
        )
    )
    assert invert.returncode == 0, invert.stderr
    assert "regenerated:   1, 1/2, 3/4" in invert.stdout
    assert census.returncode == 0, census.stderr
    assert census.stdout.splitlines()[-1].split(",")[:2] == ["3", "6"]


def test_console_script_installed(tmp_path):
    """The console script declared in pyproject.toml runs in a new process.

    The script is started the way an installer's wrapper starts it: import
    the ``[project.scripts]`` target in a fresh interpreter and exit with its
    return value.  The child runs outside the checkout and imports the same
    package the suite tests, so nothing needs to be installed.
    """
    target = _project_table()["scripts"]["motzkinperm"]
    module, attr = target.split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_PARENT, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "stats", "--perm", "2 3 1", "--json"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["excedances"] == 2


def _assert_same_under_the_benchmark_tracer(argv, tmp_path):
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    env = {**os.environ, "PYTHONPATH": PACKAGE_PARENT}
    plain, traced = (
        subprocess.run(cmd + argv, capture_output=True, text=True, env=env, cwd=tmp_path)
        for cmd in (
            [sys.executable, "-m", "motzkinperm.cli"],
            [sys.executable, str(tracer), "--out", str(tmp_path / "trace"), "--job-id", "1", "--"],
        )
    )
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout


def test_check_prints_the_same_under_the_benchmark_tracer(tmp_path):
    """``perfbench/tracer.py`` rebinds every public function that a module
    imports by name to a wrapper, so code that compares such a name with the
    original function object can pass plainly and fail traced.  ``check``
    dispatches every class, so its traced output must match the plain one."""
    _assert_same_under_the_benchmark_tracer(["check", "--n-max", "6", "--json"], tmp_path)


def test_census_prints_the_same_under_the_benchmark_tracer(tmp_path):
    """A marked noncrossing census, as the benchmark's dearest class jobs run
    it, prints the same traced as plain."""
    argv = ["census", "--subset", "UnimodalNoncrossing", "--n-max", "8",
            "--marks", "xvwtq", "--sources", "bf,cf", "--json"]
    _assert_same_under_the_benchmark_tracer(argv, tmp_path)


# -- the JSON writer ----------------------------------------------------------

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.floats()
    | st.text()
    | st.sampled_from(["", "\"\\/\b\f\n\r\t", "\x00\x1f\x7f", "é ∑ 𝔸 \u2028", "\ud800"])
)


class Lazy(list):
    """An array that the writer is handed as a generator."""


class Rows(list):
    """A polynomial's ``(exponents, c)`` pairs, handed to the writer as ``_Terms``."""


rows = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 2**70)] * 5), st.integers(-(2**70), 2**70))
).map(Rows)
documents = st.recursive(
    scalars | rows,
    lambda inner: st.lists(inner)
    | st.lists(inner, max_size=3).map(tuple)
    | st.lists(inner).map(Lazy)
    | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


def _handed(o: object) -> object:
    """The document as the writer gets it: ``Lazy`` as a generator, ``Rows`` as ``_Terms``."""
    if type(o) is Rows:
        return _Terms(o)
    if type(o) is Lazy:
        return (_handed(item) for item in o)
    if isinstance(o, (list, tuple)):
        return type(o)(map(_handed, o))
    if isinstance(o, dict):
        return {key: _handed(value) for key, value in o.items()}
    return o


def _listed(o: object) -> object:
    """The document as ``json.dumps`` gets it: every term a row ``[c, [e0..e4]]``."""
    if type(o) is Rows:
        return [[c, list(e)] for e, c in o]
    if isinstance(o, (list, tuple)):
        return [_listed(item) for item in o]
    if isinstance(o, dict):
        return {key: _listed(value) for key, value in o.items()}
    return o


class _WriteLog(io.StringIO):
    """A stdout that also keeps the length of every ``write``."""

    def __init__(self) -> None:
        super().__init__()
        self.sizes: list[int] = []

    def write(self, s: str) -> int:
        self.sizes.append(len(s))
        return super().write(s)


def _printed(data: object) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _print_json(data)
    return out.getvalue()


@settings(deadline=None, max_examples=300)
@given(documents)
@example([[1, [0, 0, 0, 0, 0]], [True, [0, 0, 0, 0, 0]]])
@example([[1, [0, 0, 0, 0, 1.5]]])
@example([[1, [0, 0, 0, False, 0]]])
def test_json_writer_matches_the_indenting_encoder(data):
    assert _printed(_handed(data)) == json.dumps(_listed(data), indent=2) + "\n"


def test_json_writer_refuses_what_it_cannot_write():
    for data in ({"a": Fraction(1, 2)}, [{1, 2}], {1: "a key that is not a str"}):
        with pytest.raises(TypeError):
            _printed(data)


CF_ALL_12 = ["cf", "--scheme", "All", "--order", "12", "--marks", "xvwq", "--json"]


def test_json_writer_streams_a_large_cf_document():
    """The 1.4 MB ``cf`` document goes out in pieces: no ``write`` carries a
    tenth of it, so the writer never holds the whole text."""
    out = _WriteLog()
    with contextlib.redirect_stdout(out):
        assert main(CF_ALL_12) == 0
    text = out.getvalue()
    assert len(text) > 10**6
    assert len(json.loads(text)["coefficients"]) == 13
    assert max(out.sizes) < len(text) / 10


def test_a_reader_that_closes_the_pipe_early_gets_no_traceback():
    """A reader that stops after 100 bytes of JSON (``| head -c 100``), or
    before the first byte of plain text, ends the command with status 1 and
    nothing on stderr about the broken pipe."""
    cmd = [sys.executable, "-m", "motzkinperm.cli"]
    env = {**os.environ, "PYTHONPATH": PACKAGE_PARENT}
    proc = subprocess.Popen(
        cmd + CF_ALL_12, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    errors = [proc.stderr.read().decode()]
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head.startswith(b'{\n  "scheme": "All"')

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        gone = subprocess.run(
            cmd + ["stats", "--perm", "2 3 1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert gone.returncode == 1
    errors.append(gone.stderr)
    for err in errors:
        assert "Traceback" not in err and "Exception ignored" not in err, err

"""Tests of the benchmark's own logic: job lists, summaries, checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

from perfbench import analysis, run, verify, workloads
from perfbench.workloads import Job


def _specs(workload: str, seed: int, count: int = 60) -> list:
    return [job.spec() for job in islice(workloads.jobs(workload, seed), count)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_jobs_other_seed_other_jobs(workload):
    assert _specs(workload, 7) == _specs(workload, 7)
    assert _specs(workload, 7) != _specs(workload, 8)
    assert workloads.digest(workload, 7, 40) == workloads.digest(workload, 7, 40)
    assert workloads.digest(workload, 7, 40) != workloads.digest(workload, 8, 40)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_round_has_the_same_composition(workload):
    pattern, kinds = workloads.WORKLOADS[workload](random.Random(0))
    size = sum(len(kinds[slot]()) for slot in pattern)
    rounds = [
        Counter(job.kind for job in islice(workloads.jobs(workload, seed), r * size, (r + 1) * size))
        for seed in (1, 2)
        for r in range(3)
    ]
    assert all(r == rounds[0] for r in rounds)
    # each job knows its round, so a run can time whole rounds only
    numbers = [job.round for job in islice(workloads.jobs(workload, 1), 3 * size)]
    assert numbers == [r for r in range(3) for _ in range(size)]


def test_cost_groups_cover_every_class_and_scheme_once():
    grouped = [c for group in workloads.CLASS_GROUPS.values() for c in group]
    assert sorted(grouped) == sorted(workloads.CLASS_MARKS) and len(grouped) == 14
    schemes = [*workloads.CF_HEAVY, *workloads.CF_LIGHT]
    assert len(schemes) == len(set(schemes)) == 16
    assert set(schemes) == set(workloads.CLASS_MARKS) | {"All", "Consecutive123"}


def test_unmap_always_follows_its_map():
    jobs = list(islice(workloads.jobs("symmetric", 3), 60))
    for before, job in zip(jobs, jobs[1:]):
        if job.kind == "unmap":
            assert before.kind == "map" and before.expect["perm"] == job.expect["perm"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(x) for x in range(1, 41)]
    random.Random(0).shuffle(samples)
    assert analysis.tail(samples) == (30.0, 75.0, 10)
    assert analysis.tail([float(x) for x in range(1, 12)]) == (1.0, 100.0 / 11, 10)
    # too few samples: the median stands in and the count beyond shows it
    assert analysis.tail([3.0, 1.0, 2.0, 5.0, 4.0]) == (3.0, 60.0, 2)


def test_self_time_is_the_span_minus_its_children():
    # rows: (sid, parent, start, end, ostart, oend); outer windows enclose inner ones
    spans = [
        (0, -1, 0.0, 10.0, 0.0, 10.0),
        (1, 0, 1.1, 2.9, 1.0, 3.0),
        (2, 1, 1.5, 2.0, 1.4, 2.1),
        (3, 0, 4.1, 4.9, 4.0, 5.0),
    ]
    selfs, overhead = analysis.self_times(spans)
    assert selfs == pytest.approx([10.0 - 2.0 - 1.0, 1.8 - 0.7, 0.5, 0.8])
    assert overhead == pytest.approx([0.0, 0.2, 0.2, 0.2])
    # the calibrated wrapper cost moves from the parents to the overhead
    selfs, overhead = analysis.self_times(spans, residual=0.05)
    assert selfs == pytest.approx([7.0 - 0.1, 1.1 - 0.05, 0.5, 0.8])
    assert overhead == pytest.approx([0.0, 0.25, 0.25, 0.25])
    assert sum(selfs) + sum(overhead) == pytest.approx(10.0)


def test_job_layers_sums_self_time_and_calls_per_layer():
    header = {
        "residual_s": 0.0,
        "names": ["cli.main", "oracle.distribution", "kernels.stat_tuple"],
        "layers": ["cli", "oracle", "kernels"],
        "name_layer": [0, 1, 2],
        "counters": {"kernels.stat_tuple_calls": 2},
    }
    spans = [
        (0, -1, 0.0, 10.0, 0.0, 10.0),
        (1, 0, 1.0, 9.0, 1.0, 9.0),
        (2, 1, 2.0, 3.0, 2.0, 3.0),
        (2, 1, 4.0, 6.0, 4.0, 6.0),
    ]
    got = analysis.job_layers(header, spans)
    assert got["cli.self_s"] == pytest.approx(2.0)
    assert got["oracle.self_s"] == pytest.approx(5.0)
    assert got["kernels.self_s"] == pytest.approx(3.0)
    assert (got["oracle.calls"], got["kernels.calls"]) == (1, 2)
    assert "cli.calls" not in got
    assert got["kernels.stat_tuple_calls"] == 2


def test_traced_job_prints_the_same_output_and_spans_every_layer_it_crosses(tmp_path):
    argv = ["mobius", "--family", "213,312", "--n", "6", "--brute", "--json"]
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    prefix = tmp_path / "job"
    traced = subprocess.run(
        [sys.executable, str(Path(run.__file__).with_name("tracer.py")),
         "--out", str(prefix), "--job-id", "3", "--", *argv],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert traced.stdout == _cli_output(argv)
    header, spans = analysis.read_trace(prefix)
    assert header["job_id"] == 3
    assert header["names"][spans[0][0]] == "cli.main" and spans[0][1] == -1
    layers = analysis.job_layers(header, spans)
    assert layers["mobius.calls"] == 2  # mobius_count and brute_count, called as mobius.<name>
    assert layers["mobius.cycles"] == 120
    assert layers["perms.calls"] > 0
    selfs, overhead = analysis.self_times(spans, header["residual_s"])
    root = spans[0][3] - spans[0][2]
    assert sum(selfs) + sum(overhead) == pytest.approx(root)


def test_reference_stats_matches_a_direct_count():
    assert verify.reference_stats((5, 7, 2, 4, 3, 8, 1, 6, 9, 12, 10, 11)) == {
        "fixed_points": 2, "excedances": 4, "double_excedances": 0, "cycles": 5, "inversions": 17,
    }
    rng = random.Random(5)
    for n in (1, 2, 9, 60):
        perm = tuple(rng.sample(range(1, n + 1), n))
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        assert verify.reference_stats(perm)["inversions"] == inversions


def _cli_output(argv: list[str]) -> str:
    from motzkinperm.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def _outputs():
    bell = workloads.sequence_terms("Bell", 12)
    return [
        (Job("census", (), {"subset": "Avoid321", "n_max": 5, "marks": ""}),
         _cli_output(["census", "--subset", "Avoid321", "--n-max", "5", "--json"])),
        (Job("census", (), {"subset": "Involutions", "n_max": 5, "marks": "xq"}),
         _cli_output(["census", "--subset", "Involutions", "--n-max", "5", "--marks", "xq",
                      "--sources", "bf,cf", "--json"])),
        (Job("cf", (), {"scheme": "Cyclic", "order": 6, "marks": "xvw"}),
         _cli_output(["cf", "--scheme", "Cyclic", "--order", "6", "--marks", "xvw", "--json"])),
        (Job("invert", (), {"sequence": "Bell", "count": 12}),
         _cli_output(["invert", "--terms", ",".join(map(str, bell)), "--regenerate", "--json"])),
    ]


def _tamper(job: Job, out: str) -> str:
    data = json.loads(out)
    if job.kind == "census" and not job.expect["marks"]:
        data["values"]["ClosedForm"][4] += 1
    elif job.kind == "census":
        data["values"]["BruteForce"][3]["terms"][0][0] += 1
    elif job.kind == "cf":
        data["coefficients"][5]["terms"][0][0] += 1
    else:
        data["regenerated"][-1] = str(int(data["regenerated"][-1]) + 1)
    return json.dumps(data)


def test_tampered_outputs_count_as_failures_not_successes():
    outcomes = []
    for job, out in _outputs():
        assert verify.verify(job, 0, out) is None
        assert verify.verify(job, 1, out) is not None
        good = run.Run(0.5, 0.5, 20.0, 0, out, "")
        bad = run.Run(0.1, 0.1, 20.0, 0, _tamper(job, out), "")
        assert run.judge(job, bad) is not None
        outcomes += [run.Outcome(job, good, run.judge(job, good)), run.Outcome(job, bad, run.judge(job, bad))]
    setup = [run.Run(0.2, 0.2, 10.0, 0, "", "")]
    values, _ = run.end_to_end(outcomes, setup)
    assert values["jobs_per_cpu_s"] == pytest.approx(4 / 2.4)  # tampered runs' time counts, not their jobs
    assert values["job_cpu_s.p50"] == 0.5  # the fast tampered runs are not timed as successes
    with pytest.raises(SystemExit):  # no figures at all when nothing was correct
        run.end_to_end([o for o in outcomes if o.reason is not None], setup)


def test_timings_are_cpu_times_and_the_wall_times_are_reported_beside_them():
    job = Job("check", ("check",))
    outcomes = [run.Outcome(job, run.Run(3.0, cpu, 20.0, 0, "", ""), None) for cpu in (1.0, 0.6, 0.8, 0.2, 0.4)]
    setup = [run.Run(0.5, cpu, 10.0, 0, "", "") for cpu in (0.3, 0.4, 0.2)]
    values, rows = run.end_to_end(outcomes, setup)
    assert values["job_cpu_s.p50"] == pytest.approx(0.6)
    assert values["job_cpu_s.p75"] == pytest.approx(0.8)
    assert values["jobs_per_cpu_s"] == pytest.approx(5 / 3.0)
    assert values["setup_s"] == pytest.approx(0.3)
    reported = {name: value for name, _, value, _ in rows}
    assert reported["job_s.p50"] == 3.0 and reported["setup_s.wall"] == 0.5
    assert reported["jobs_per_s"] == pytest.approx(5 / 15.0)  # per wall second of the job runs


def test_map_output_feeds_the_unmap_job():
    perm = (2, 3, 1)
    jobs = [Job("map", ("map", "--perm", "2 3 1"), {"perm": perm}), Job("unmap", (), {"perm": perm})]
    pairing = run.Pairing()
    out = _cli_output(list(jobs[0].argv))
    assert pairing.argv(jobs[0]) == jobs[0].argv
    pairing.saw(jobs[0], run.Run(0.1, 0.1, 1.0, 0, out, ""), verify.verify(jobs[0], 0, out))
    argv = pairing.argv(jobs[1])
    assert argv == ("unmap", "--path", "U L1 D0")
    assert verify.verify(jobs[1], 0, _cli_output(list(argv))) is None
    assert verify.verify(jobs[1], 0, "3 2 1\n") is not None
    assert pairing.argv(jobs[1]) is None  # a path is used once


def test_launcher_reports_the_jobs_own_peak_memory_not_the_benchmarks(tmp_path):
    ballast = bytearray(96 << 20)  # this process is now far larger than a bare interpreter
    env = run.child_env()
    small = run.spawn([sys.executable, "-c", "pass"], env, tmp_path)
    large = run.spawn([sys.executable, "-c", "b = bytearray(64 << 20)"], env, tmp_path)
    failing = run.spawn([sys.executable, "-c", "import sys; print('out'); sys.exit(3)"], env, tmp_path)
    assert small.rss_mb < 40 < 64 < large.rss_mb < len(ballast) / 2**20
    assert (small.returncode, failing.returncode, failing.stdout) == (0, 3, "out\n")
    assert 0 < small.cpu_s and 0 < small.seconds
    assert list(tmp_path.iterdir()) == []  # the usage files are removed


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "classes", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""

"""Benchmark the motzkinperm command line end to end, or layer by layer.

    python3 perfbench/run.py --workload classes --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 34

Each job is a fresh ``python -m motzkinperm.cli`` process, run the way a
user runs it, in a closed loop with one client: the next job starts only
after the previous one exits.  The seed fixes the job list (see
``workloads.py``); the program sees only the generated arguments.  Every
output is checked against references outside the timed code (``verify.py``).

With ``--trace 0`` the run reports the end-to-end metrics.  Its timings are
CPU times, not wall times: on a shared host a job's wall time mostly
measures how long it waited for a processor.  The report prints the
wall-time figures beside them.  With ``--trace 1``
each job runs twice, plainly and under ``tracer.py``, and the run reports the
per-layer metrics and the tracer's overhead.  A human-readable report comes
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is 0
only when every job's output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import analysis, verify, workloads  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
# Unset so the default configuration is what gets measured: the compiled
# kernel when it is built, sequential enumeration.  The bytecode settings
# would stop caches being written, or write them outside the checkout.
SCRUBBED = ("MOTZKINPERM_PURE", "MOTZKINPERM_WORKERS", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
JOB_TIMEOUT_S = 120.0
SETUP_BEFORE = 3  # set-up samples before the loop; one more after every SETUP_EVERY jobs
SETUP_EVERY = 4
DIGEST_JOBS = 200
LAUNCH = ROOT / "perfbench" / "launch.py"
SETUP_CODE = "from motzkinperm.cli import build_parser; build_parser()"
# Reports the backend the job processes load and, when the compiled kernel is
# importable, whether it agrees with the pure one; a disagreeing kernel is
# never timed.
PROBE_CODE = """
import json
from motzkinperm import _kernels
try:
    from motzkinperm._kernels import _speedups
except ImportError:
    agree = None
else:
    agree = _speedups.census_stats(6) == _kernels.pure.census_stats(6)
print(json.dumps({"backend": _kernels.BACKEND, "compiled_matches_pure": agree}))
"""

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_cpu_s", "1/s"),
    ("job_cpu_s.p50", "s"),
    ("job_cpu_s.p75", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Run:
    """One finished process: wall and CPU seconds, peak RSS, status, output."""

    seconds: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


@dataclass
class Outcome:
    job: workloads.Job
    run: Run | None
    reason: str | None  # None when the output was correct


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list[str], env: dict[str, str], workdir: Path) -> Run:
    """Run one process to exit through ``launch.py``, which times it and reads its rusage."""
    fd, usage = tempfile.mkstemp(dir=workdir)
    os.close(fd)
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        proc = subprocess.Popen([sys.executable, "-I", "-S", str(LAUNCH), usage, "--", *cmd],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.terminate)  # the launcher kills the job
        timer.start()
        try:
            proc.wait()
        except BaseException:
            proc.terminate()
            proc.wait()
            raise
        finally:
            timer.cancel()
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode(errors="replace")
        stderr = err.read().decode(errors="replace")
    text = Path(usage).read_text()
    os.unlink(usage)
    if proc.returncode != 0 or not text:
        raise SystemExit(f"launcher failed with status {proc.returncode}: {stderr.strip()}")
    seconds, cpu_s, rss_mb, returncode = text.split()
    return Run(float(seconds), float(cpu_s), float(rss_mb), int(returncode), stdout, stderr)


def cli_cmd(argv: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "motzkinperm.cli", *argv]


def traced_cmd(argv: tuple[str, ...], prefix: Path, job_id: int) -> list[str]:
    return [sys.executable, str(ROOT / "perfbench" / "tracer.py"),
            "--out", str(prefix), "--job-id", str(job_id), "--", *argv]


def judge(job: workloads.Job, run: Run) -> str | None:
    reason = verify.verify(job, run.returncode, run.stdout)
    if reason is not None and run.stderr.strip():
        reason += f" ({run.stderr.strip().splitlines()[-1]})"
    return reason


class Pairing:
    """Fills each ``unmap`` job's path from the ``map`` job before it."""

    def __init__(self) -> None:
        self.path: str | None = None

    def argv(self, job: workloads.Job) -> tuple[str, ...] | None:
        if job.kind != "unmap":
            return job.argv
        path, self.path = self.path, None
        return None if path is None else ("unmap", "--path", path)

    def saw(self, job: workloads.Job, run: Run, reason: str | None) -> None:
        if job.kind == "map":
            self.path = verify.path_tokens(run.stdout, len(job.expect["perm"])) if reason is None else None


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def prepare(workload: str, seed: int, env: dict[str, str], workdir: Path) -> dict:
    """Probe the backend and run the untimed warm-up job; return the run's metadata."""
    probe = spawn([sys.executable, "-c", PROBE_CODE], env, workdir)
    if probe.returncode != 0:
        raise SystemExit(f"cannot import motzkinperm: {probe.stderr.strip()}")
    info = json.loads(probe.stdout)
    if info["compiled_matches_pure"] is False:
        raise SystemExit("compiled and pure census_stats disagree; not timing a wrong answer")
    first = next(workloads.jobs(workload, seed))
    reason = judge(first, spawn(cli_cmd(first.argv), env, workdir))
    if reason is not None:
        raise SystemExit(f"warm-up job failed: {reason}")
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "backend": info["backend"],
        "compiled_matches_pure": info["compiled_matches_pure"],
        "jobs_digest": workloads.digest(workload, seed, DIGEST_JOBS),
        "scrubbed_env": [k for k in SCRUBBED if k in os.environ],
        "loop": "closed, one client",
    }


def time_setup(env: dict[str, str], workdir: Path) -> Run:
    """A fresh interpreter that imports the CLI and builds its parser."""
    return spawn([sys.executable, "-c", SETUP_CODE], env, workdir)


def label(job: workloads.Job) -> str:
    if job.kind == "census":
        if job.expect["subset"] == "All":
            return "census-All"
        return "census-marked" if job.expect["marks"] else "census-count"
    return job.kind


@dataclass
class Loop:
    """What one closed loop saw.

    ``rounds`` is the number of whole rounds of the job list it ran.  An
    untraced loop fills ``setup`` with the set-up samples.  A traced loop fills ``layers`` with (job
    label, layer figures) and sums the plain and traced seconds of the jobs
    whose two runs were both correct.
    """

    outcomes: list[Outcome] = field(default_factory=list)
    rounds: int = 0
    setup: list[Run] = field(default_factory=list)
    layers: list[tuple[str, dict]] = field(default_factory=list)
    plain_s: float = 0.0
    traced_s: float = 0.0


def run_loop(workload: str, seed: int, seconds: float, trace: bool, env: dict[str, str], workdir: Path) -> Loop:
    """Run and check jobs until ``seconds`` have passed and one round is whole.

    With ``trace``, each job runs once more, traced.

    An untraced loop takes a set-up sample after every few jobs: the host's
    speed drifts over seconds, so set-up is sampled across the whole loop
    rather than in one burst.
    """
    loop = Loop()
    if not trace:
        loop.setup = [time_setup(env, workdir) for _ in range(SETUP_BEFORE)]
    pairing = Pairing()
    deadline = time.perf_counter() + seconds
    for i, job in enumerate(workloads.jobs(workload, seed)):
        if job.kind != "unmap":  # an unmap job always runs after its map job
            if time.perf_counter() >= deadline and job.round > 0:
                loop.rounds = job.round
                break
            if not trace and loop.outcomes and len(loop.outcomes) % SETUP_EVERY == 0:
                loop.setup.append(time_setup(env, workdir))
        argv = pairing.argv(job)
        if argv is None:
            loop.outcomes.append(Outcome(job, None, "no path from the map job before it"))
            continue
        plain = spawn(cli_cmd(argv), env, workdir)
        reason = judge(job, plain)
        pairing.saw(job, plain, reason)
        loop.outcomes.append(Outcome(job, plain, reason))
        if trace:
            prefix = workdir / f"trace-{i}"
            traced = spawn(traced_cmd(argv, prefix, i), env, workdir)
            traced_reason = judge(job, traced)
            loop.outcomes.append(Outcome(job, traced, traced_reason))
            if reason is None and traced_reason is None:
                header, spans = analysis.read_trace(prefix)
                loop.layers.append((label(job), analysis.job_layers(header, spans)))
                loop.plain_s += plain.seconds
                loop.traced_s += traced.seconds
            for suffix in (".json", ".bin"):
                prefix.with_suffix(suffix).unlink(missing_ok=True)
    return loop


def p75(samples: list[float]) -> float:
    """The third quartile, interpolated between the samples around it."""
    return statistics.quantiles(samples, n=4, method="inclusive")[2] if len(samples) > 1 else samples[0]


def end_to_end(outcomes: list[Outcome], setup: list[Run]) -> tuple[dict, list]:
    """The end-to-end figures, taken over the correct runs only.

    ``jobs_per_cpu_s`` divides the correct jobs by the CPU seconds of every
    job run, failed ones included.  Returns the bounded figures and the
    report's rows (name, unit, value, note): those figures first, then the
    wall-time ones and the guide's tail rule, which are not bounded.
    """
    good = [o.run for o in outcomes if o.reason is None]
    if not good:
        raise SystemExit("no job finished correctly")
    ran = [o.run for o in outcomes if o.run is not None]
    cpu = [r.cpu_s for r in good]
    wall = [r.seconds for r in good]
    tail_s, pct, beyond = analysis.tail(cpu)
    wall_tail, wall_pct, _ = analysis.tail(wall)
    values = {
        "setup_s": statistics.median(r.cpu_s for r in setup),
        "jobs_per_cpu_s": len(good) / sum(r.cpu_s for r in ran),
        "job_cpu_s.p50": statistics.median(cpu),
        "job_cpu_s.p75": p75(cpu),
        "peak_rss_mb": max(r.rss_mb for r in good),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters across the run",
        "jobs_per_cpu_s": f"{len(good)} correct of {len(ran)} jobs in whole rounds",
        "job_cpu_s.p50": f"{len(cpu)} samples",
        "job_cpu_s.p75": f"{sum(c > values['job_cpu_s.p75'] for c in cpu)} samples beyond",
    }
    rows = [(name, unit, values[name], notes.get(name, "")) for name, unit in END_TO_END]
    rows += [
        ("setup_s.wall", "s", statistics.median(r.seconds for r in setup), ""),
        ("job_cpu_s.tail", "s", tail_s,
         f"p{pct:.1f}, {beyond} samples beyond: the highest percentile with {analysis.TAIL_BEYOND} beyond"),
        ("cpu_s.per_job", "s", statistics.fmean(cpu), "mean"),
        ("jobs_per_s", "1/s", len(good) / sum(r.seconds for r in ran), "correct jobs per wall second of job runs"),
        ("job_s.p50", "s", statistics.median(wall), "wall"),
        ("job_s.p75", "s", p75(wall), "wall"),
        ("job_s.tail", "s", wall_tail, f"wall, p{wall_pct:.1f}"),
    ]
    return values, rows


def report(name: str, unit: str, value: float, note: str = "") -> None:
    print(f"  {name:<28} {value:>14.6g} {unit:<10} {note}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    env = child_env()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        meta = prepare(workload, seed, env, workdir)
        print(f"workload {workload}: " + json.dumps(meta))
        loop = run_loop(workload, seed, seconds, trace, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes, layers = loop.outcomes, loop.layers
    failed = [o for o in outcomes if o.reason is not None]
    for o in failed[:10]:
        print(f"  FAILED {o.job.kind} {' '.join(o.job.argv)[:100]}: {o.reason}")
    units = dict(END_TO_END)
    if trace:
        if not layers:
            raise SystemExit("no traced job finished correctly")
        values = analysis.layer_metrics([j for _, j in layers], loop.plain_s, loop.traced_s)
        units = dict(analysis.LAYER_METRICS)
        for name, unit in analysis.LAYER_METRICS:
            report(name, unit, values[name])
        print(f"  self-time shares by job kind ({len(layers)} traced jobs):")
        for kind in sorted({k for k, _ in layers}):
            jobs = [j for k, j in layers if k == kind]
            merged = {key: sum(j.get(key, 0) for j in jobs) for key in set().union(*jobs)}
            top = sorted(analysis.shares(merged).items(), key=lambda kv: -kv[1])[:5]
            print(f"    {kind:<14} ({len(jobs):>3}) " + "  ".join(f"{k} {v:.0%}" for k, v in top))
    else:
        # Figures come from whole rounds only, so every run times the same mix
        # of kinds however far it got; the jobs after them are still checked.
        whole = [o for o in outcomes if o.job.round < loop.rounds]
        values, rows = end_to_end(whole, loop.setup)
        for row in rows:
            report(*row)
    report("failed_frac", "ratio", len(failed) / len(outcomes), f"{len(failed)} of {len(outcomes)}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return metrics, len(outcomes), len(failed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="benchmark the motzkinperm command line")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long each workload's loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "motzkinperm" / "cli.py").is_file():
        print(f"no motzkinperm sources under {SRC}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        got, tried, bad = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += tried
        failed += bad
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in got.items()})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # A terminated run still kills its running job and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())

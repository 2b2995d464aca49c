"""Summaries: the tail-percentile rule, span self times and layer metrics."""

from __future__ import annotations

import json
from array import array
from pathlib import Path

from .tracer import COLUMNS

TAIL_BEYOND = 10

# (metric, unit) in the order the traced run reports them.  Per-job figures
# are means over the traced jobs; max_terms and max_order are maxima.
LAYER_METRICS = (
    ("oracle.self_s", "s/job"), ("oracle.calls", "count/job"),
    ("subsets.self_s", "s/job"), ("subsets.calls", "count/job"), ("subsets.accept_ratio", "ratio"),
    ("perms.self_s", "s/job"), ("perms.calls", "count/job"),
    ("kernels.self_s", "s/job"), ("kernels.stat_tuple_calls", "count/job"),
    ("kernels.census_stats_calls", "count/job"), ("kernels.entries", "count/job"),
    ("polys.self_s", "s/job"), ("polys.mul_calls", "count/job"),
    ("polys.term_products", "count/job"), ("polys.max_terms", "terms"),
    ("series.self_s", "s/job"), ("series.mul_calls", "count/job"), ("series.recip_calls", "count/job"),
    ("cfrac.self_s", "s/job"), ("cfrac.calls", "count/job"), ("cfrac.max_order", "order"),
    ("schemes.self_s", "s/job"), ("sequences.self_s", "s/job"),
    ("invert.self_s", "s/job"), ("invert.calls", "count/job"),
    ("paths.self_s", "s/job"), ("paths.steps", "count/job"),
    ("mobius.self_s", "s/job"), ("mobius.cycles", "count/job"),
    ("bell.self_s", "s/job"), ("census.self_s", "s/job"), ("cli.self_s", "s/job"),
    ("trace.self_s", "s/job"), ("trace.overhead_frac", "ratio"),
)
_MAXIMA = {"polys.max_terms", "cfrac.max_order"}


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, samples beyond).  The value is the sample
    with exactly ``beyond`` larger ones and the percentile is the share of
    samples at or below it.  With too few samples the median stands in, and
    the count beyond says so.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    idx = n - beyond - 1 if n > beyond else (n - 1) // 2
    return ordered[idx], 100.0 * (idx + 1) / n, n - idx - 1


def self_times(spans: list[tuple], residual: float = 0.0) -> tuple[list[float], list[float]]:
    """Per-span self time and tracer overhead.

    ``spans`` rows are (sid, parent, start, end, ostart, oend).  A span's
    self time is its inner duration minus what its children cover: their
    outer windows plus ``residual`` each, the calibrated cost of entering and
    leaving the wrapper.  A span's overhead is that cover minus its inner
    duration.
    """
    covered = [0.0] * len(spans)
    overhead = [0.0] * len(spans)
    for i, (_, parent, start, end, ostart, oend) in enumerate(spans):
        if parent >= 0:
            covered[parent] += (oend - ostart) + residual
            overhead[i] = (oend - ostart) + residual - (end - start)
    selfs = [(end - start) - covered[i] for i, (_, _, start, end, _, _) in enumerate(spans)]
    return selfs, overhead


def read_trace(prefix: Path) -> tuple[dict, list[tuple]]:
    header = json.loads(prefix.with_suffix(".json").read_text())
    n = header["spans"]
    cols = []
    with open(prefix.with_suffix(".bin"), "rb") as fh:
        for _, code in COLUMNS:
            col = array(code)
            col.fromfile(fh, n)
            cols.append(col)
    return header, list(zip(*cols))


def job_layers(header: dict, spans: list[tuple]) -> dict[str, float]:
    """Self seconds and span counts per layer, plus the job's counters."""
    selfs, overhead = self_times(spans, header["residual_s"])
    out: dict[str, float] = dict(header["counters"])
    layer_of_sid = [header["layers"][lid] for lid in header["name_layer"]]
    for (sid, parent, *_), self_s in zip(spans, selfs):
        layer = layer_of_sid[sid]
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + self_s
        if parent >= 0:
            out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
    out["trace.self_s"] = sum(overhead)
    return out


def layer_metrics(jobs: list[dict[str, float]], untraced_s: float, traced_s: float) -> dict[str, float]:
    """Per-job means (maxima for the size metrics) over the traced jobs."""
    count = len(jobs)
    values: dict[str, float] = {}
    for name, _ in LAYER_METRICS:
        if name in _MAXIMA:
            values[name] = max((j.get(name, 0) for j in jobs), default=0)
        else:
            values[name] = sum(j.get(name, 0) for j in jobs) / count
    predicates = sum(j.get("subsets.predicates", 0) for j in jobs)
    accepted = sum(j.get("subsets.accepted", 0) for j in jobs)
    values["subsets.accept_ratio"] = accepted / predicates if predicates else 0.0
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return values


def shares(job: dict[str, float]) -> dict[str, float]:
    """Each layer's share of the summed self time (tracer bookkeeping included)."""
    selfs = {k[: -len(".self_s")]: v for k, v in job.items() if k.endswith(".self_s")}
    total = sum(selfs.values())
    return {layer: v / total for layer, v in selfs.items()} if total else {}

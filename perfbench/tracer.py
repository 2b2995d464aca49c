"""Run one motzkinperm CLI job with a span at every layer boundary.

    python3 perfbench/tracer.py --out PREFIX --job-id N -- census --subset Cyclic --n-max 6

Layers are the package's modules (the kernel package and its backends are
one layer, ``kernels``).  After import, every public function is rebound in
each *other* module namespace that imported it (a module imported whole is
replaced there by a copy holding the wrappers), and the public methods and
arithmetic operators of every class are rebound on the class itself, so a
span opens exactly where a call crosses from one layer into another.  A call
that stays inside the current span's layer opens no span.  Modules are
reached through ``sys.modules`` because the package rebinds some module names
(``motzkinperm.census`` is the ``census`` function).

Spans live in flat in-memory arrays and are written when the job ends:
``PREFIX.json`` holds the layer and function names, the job id and the
counters; ``PREFIX.bin`` the span columns.  Each span records two windows:
the inner one brackets the wrapped call itself, the outer one also covers
the tracer's bookkeeping.  The analysis charges a parent only the inner time
its children do not cover (their outer windows plus a calibrated residual for
entering and leaving the wrapper), and charges the rest to ``trace`` rather
than to any layer.  Per-permutation predicates open hundreds of thousands of
spans in one census, so this keeps the tracer's cost out of the caller.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import types
from array import array
from enum import Enum
from math import factorial
from pathlib import Path

COLUMNS = (("sid", "i"), ("parent", "i"), ("start", "d"), ("end", "d"), ("ostart", "d"), ("oend", "d"))

# Dunder methods worth a span: the ring operators and the conversions the
# command-line front end calls.  Constructors stay with their caller.
OPERATORS = frozenset(
    ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__pow__",
     "__neg__", "__eq__", "__str__")
)


def layer_of(module: str) -> str:
    if module.startswith("motzkinperm._kernels"):
        return "kernels"
    return module.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self, job_id: int) -> None:
        self.job_id = job_id
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_layer: list[int] = []
        self.cols = {name: array(code) for name, code in COLUMNS}
        self.counters: dict[str, float] = {}
        self.cur = [-1, -1]  # current span index and its layer id
        self._wrapped: dict[int, object] = {}
        self.residual_s = 0.0

    # -- recording ----------------------------------------------------------

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def _wrap(self, fn, name: str, layer: str, hook=None):
        if id(fn) in self._wrapped:
            return self._wrapped[id(fn)]
        sid = len(self.names)
        self.names.append(name)
        lid = self._layer_id(layer)
        self.name_layer.append(lid)
        cur = self.cur
        clock = time.perf_counter
        sids, parents = self.cols["sid"], self.cols["parent"]
        starts, ends = self.cols["start"], self.cols["end"]
        ostarts, oends = self.cols["ostart"], self.cols["oend"]

        def wrapper(*args, **kwargs):
            if cur[1] == lid:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            o0 = clock()
            parent, parent_layer = cur
            idx = len(sids)
            sids.append(sid)
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            ostarts.append(o0)
            oends.append(0.0)
            cur[0] = idx
            cur[1] = lid
            s = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                e = clock()
                cur[0] = parent
                cur[1] = parent_layer
                starts[idx] = s
                ends[idx] = e
            if hook is not None:
                hook(args, kwargs, result)
            oends[idx] = clock()
            return result

        self._wrapped[id(fn)] = wrapper
        return wrapper

    def calibrate(self, calls: int = 5000, repeats: int = 3) -> float:
        """Seconds per span that the recorded windows miss.

        Entering and leaving the wrapper costs time outside both windows,
        which would otherwise land in the parent's self time.  Time a loop of
        calls to a wrapped no-op against the same loop calling it directly;
        what the wrapped loop spends beyond the direct one and the recorded
        outer windows is that cost.  The calibration spans are discarded.
        """
        def noop():
            return None

        wrapped = self._wrap(noop, "trace.calibrate", "trace")
        clock = time.perf_counter
        best = float("inf")
        for _ in range(repeats):
            first = len(self.cols["sid"])
            t0 = clock()
            for _ in range(calls):
                noop()
            direct = clock() - t0
            t0 = clock()
            for _ in range(calls):
                wrapped()
            total = clock() - t0
            ostarts, oends = self.cols["ostart"], self.cols["oend"]
            windows = sum(oends[i] - ostarts[i] for i in range(first, first + calls))
            best = min(best, (total - direct - windows) / calls)
            for col in self.cols.values():
                del col[first:]
        return max(best, 0.0)

    def run_root(self, fn, name: str = "cli.main"):
        """Call ``fn`` inside the root span, which belongs to the cli layer."""
        self.names.append(name)
        lid = self._layer_id("cli")
        self.name_layer.append(lid)
        for col in self.cols.values():
            col.append(0)
        self.cols["sid"][0] = len(self.names) - 1
        self.cols["parent"][0] = -1
        self.cur[0], self.cur[1] = 0, lid
        s = time.perf_counter()
        try:
            return fn()
        finally:
            e = time.perf_counter()
            self.cur[0], self.cur[1] = -1, -1
            for col, value in (("start", s), ("ostart", s), ("end", e), ("oend", e)):
                self.cols[col][0] = value

    # -- counters -----------------------------------------------------------

    def _add(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _max(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def _hook(self, layer: str, qualname: str):
        """A counter hook for the functions whose work is counted, else None."""
        add, top = self._add, self._max
        name = qualname.rsplit(".", 1)[-1]
        if layer == "subsets":
            def hook(args, kwargs, result):
                if isinstance(result, bool):
                    add("subsets.predicates")
                    add("subsets.accepted", result)
                elif isinstance(result, dict):
                    add("subsets.predicates", len(result))
                    add("subsets.accepted", sum(1 for ok in result.values() if ok))
            return hook
        if layer == "kernels" and name == "stat_tuple":
            def hook(args, kwargs, result):
                add("kernels.stat_tuple_calls")
                add("kernels.entries", len(args[0]))
            return hook
        if layer == "kernels" and name == "census_stats":
            def hook(args, kwargs, result):
                add("kernels.census_stats_calls")
                add("kernels.entries", args[0] * factorial(args[0]))
            return hook
        if qualname in ("MultiPoly.__mul__", "MultiPoly.__rmul__"):
            def hook(args, kwargs, result):
                a, b = args
                add("polys.mul_calls")
                add("polys.term_products", len(a.coeffs) * len(getattr(b, "coeffs", (0,))))
                if hasattr(result, "coeffs"):
                    top("polys.max_terms", len(result.coeffs))
            return hook
        if qualname == "Series.__mul__":
            return lambda args, kwargs, result: add("series.mul_calls")
        if qualname == "Series.recip":
            return lambda args, kwargs, result: add("series.recip_calls")
        if qualname in ("jfraction_series", "kfraction_series", "WeightScheme.series"):
            pos = 1 if qualname == "WeightScheme.series" else 2

            def hook(args, kwargs, result):
                top("cfrac.max_order", args[pos] if len(args) > pos else kwargs["order"])
            return hook
        if qualname in ("perm_to_path", "path_to_perm"):
            def hook(args, kwargs, result):
                arg = args[0]
                seq = arg.values if hasattr(arg, "values") else getattr(arg, "steps", arg)
                add("paths.steps", len(seq))
            return hook
        if qualname == "brute_count":
            def hook(args, kwargs, result):
                add("mobius.cycles", factorial(args[1] - 1))
            return hook
        return None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind the public functions and methods of every package module."""
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "motzkinperm" or name.startswith("motzkinperm."))
        }
        functions: dict[int, tuple[object, str]] = {}
        for modname, mod in modules.items():
            if modname == "motzkinperm":
                continue
            layer = layer_of(modname)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj):
                    if obj.__module__ == modname and not issubclass(obj, (Enum, BaseException)):
                        self._install_class(obj, layer)
                elif callable(obj) and getattr(obj, "__module__", None) == modname:
                    wrapper = self._wrap(obj, f"{layer}.{attr}", layer, self._hook(layer, attr))
                    functions[id(obj)] = (wrapper, modname)
        views: dict[str, types.ModuleType] = {}
        for modname, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                entry = functions.get(id(obj))
                if entry is not None and entry[1] != modname:
                    setattr(mod, attr, entry[0])
                elif isinstance(obj, types.ModuleType) and obj is not mod and obj.__name__ in modules:
                    if obj.__name__ not in views:
                        views[obj.__name__] = self._view(obj, functions)
                    setattr(mod, attr, views[obj.__name__])

    @staticmethod
    def _view(mod: types.ModuleType, functions: dict) -> types.ModuleType:
        """A copy of ``mod`` whose functions are the wrappers.

        Calls written ``module.function`` from another module (``mobius.
        brute_count`` in the front end, ``_kernels.stat_tuple`` in the oracle)
        go through the copy, while the module's calls to its own functions
        still reach the originals.
        """
        view = types.ModuleType(mod.__name__, mod.__doc__)
        view.__dict__.update(vars(mod))
        for attr, obj in vars(mod).items():
            entry = functions.get(id(obj))
            if entry is not None:
                setattr(view, attr, entry[0])
        return view

    def _install_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            qualname = f"{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                inner = raw.__func__
                wrapped = self._wrap(inner, f"{layer}.{qualname}", layer, self._hook(layer, qualname))
                setattr(cls, attr, type(raw)(wrapped))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(raw, f"{layer}.{qualname}", layer, self._hook(layer, qualname)))

    # -- output -------------------------------------------------------------

    def dump(self, prefix: str) -> None:
        header = {
            "job_id": self.job_id,
            "residual_s": self.residual_s,
            "names": self.names,
            "layers": self.layers,
            "name_layer": self.name_layer,
            "spans": len(self.cols["sid"]),
            "counters": self.counters,
        }
        Path(prefix + ".json").write_text(json.dumps(header))
        with open(prefix + ".bin", "wb") as fh:
            for name, _ in COLUMNS:
                self.cols[name].tofile(fh)


def main(argv: list[str]) -> int:
    if "--" not in argv:
        raise SystemExit("usage: tracer.py --out PREFIX --job-id N -- <cli args>")
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    out = opts[opts.index("--out") + 1]
    job_id = int(opts[opts.index("--job-id") + 1])

    import motzkinperm  # noqa: F401  (imports every module)
    import motzkinperm.cli

    cli = sys.modules["motzkinperm.cli"]
    tracer = Tracer(job_id)
    tracer.residual_s = tracer.calibrate()
    tracer.install()
    try:
        code = tracer.run_root(lambda: cli.main(cli_args))
    finally:
        sys.stdout.flush()
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Span tracer for the benchmark's traced run.

``Tracer.install()`` replaces every public function of each aoakit layer
(the names in the layer module's ``__all__`` that are functions, plus the
public methods of ``galois.Field``) with a wrapper that records a span
(name, start, end, parent).  The wrapper is put everywhere the original
object is bound: in the defining module and in every ``aoakit`` module that
imported it by name, so ``tolerance`` is traced whether ``cli``, ``search``
or ``ipmodel`` calls it.  Modules are resolved through ``sys.modules``
because ``aoakit.discrepancy`` on the package is the ``discrepancy``
function, not the module.

Spans stay in memory; ``write_spans`` writes them out once the run ends.
Untraced runs never create a ``Tracer``.
"""

from __future__ import annotations

import collections
import csv
import inspect
import math
import os
import statistics
import sys
import time
from pathlib import Path

LAYERS = (
    "cli",
    "fileio",
    "constructions",
    "galois",
    "search",
    "symmetry",
    "ipmodel",
    "arrays",
    "metrics",
    "discrepancy",
)

# Function families whose outermost spans give the named per-layer times.
FAMILY_TIMES = {
    "fileio.snapshot_s": ("fileio.metrics_snapshot",),
    "constructions.build_s": (
        "constructions.construct",
        "constructions.ak_half",
        "constructions.ak_ext_odd",
        "constructions.ak_ext_even",
    ),
    "constructions.verify_s": ("constructions.verify_construction",),
    "ipmodel.build_s": ("ipmodel.build_model", "ipmodel.add_symmetry"),
    "ipmodel.emit_s": ("ipmodel.emit_lp", "ipmodel.emit_mps"),
    "ipmodel.parse_s": ("ipmodel.parse_lp", "ipmodel.parse_solution"),
    "ipmodel.verify_s": ("ipmodel.verify_solution",),
    "ipmodel.exhaustive_s": ("ipmodel.exhaustive_optimum",),
}

# Counters reported as they are; the hooks below fill them (and
# ``ipmodel.feasible_states`` for the feasible ratio), from zero in every pass.
COUNTERS = (
    "fileio.bytes_written",
    "fileio.bytes_read",
    "arrays.col_tuples",
    "arrays.cells_counted",
    "search.runs",
    "search.passes",
    "search.examined",
    "search.full_evals",
    "search.inserts",
    "ipmodel.states",
    "ipmodel.lp_bytes",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_tuples(tr, args, kwargs, result):
    a, t = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "t")
    n_tuples = math.comb(a.n_factors, t)
    tr.counts["arrays.col_tuples"] += n_tuples
    tr.counts["arrays.cells_counted"] += a.n_runs * n_tuples


def _count_tolerance(tr, args, kwargs, result):
    _count_tuples(tr, args, kwargs, result)
    if tr.depth["search"]:
        tr.counts["search.full_evals"] += 1


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _wrote_file(tr, args, kwargs, result):
    tr.counts["fileio.bytes_written"] += _file_size(_arg(args, kwargs, 0, "path"))


def _read_file(tr, args, kwargs, result):
    tr.counts["fileio.bytes_read"] += _file_size(_arg(args, kwargs, 0, "path"))


def _wrote_sidecar(tr, args, kwargs, result):
    directory = Path(_arg(args, kwargs, 0, "directory"))
    name = _arg(args, kwargs, 2, "name")
    tr.counts["fileio.bytes_written"] += _file_size(directory / f"{name}.json")


def _read_sidecars(tr, args, kwargs, result):
    directory = Path(_arg(args, kwargs, 0, "directory"))
    tr.counts["fileio.bytes_read"] += sum(_file_size(p) for p in directory.glob("*.json"))


def _discrepancy_temp(tr, args, kwargs, result):
    n, k = _arg(args, kwargs, 0, "ps").points.shape
    tr.temp_mb = max(tr.temp_mb, n * n * k * 8 / 2**20)


def _search_run(tr, args, kwargs, result):
    tr.counts["search.runs"] += 1


def _search_scan(tr, args, kwargs, result):
    tr.counts["search.passes"] += 1
    tr.counts["search.examined"] += result.examined


def _search_insert(tr, args, kwargs, result):
    tr.counts["search.inserts"] += int(bool(result))


def _exhaustive(tr, args, kwargs, result):
    tr.counts["ipmodel.states"] += result.states
    tr.counts["ipmodel.feasible_states"] += result.feasible_states


def _emitted_lp(tr, args, kwargs, result):
    tr.counts["ipmodel.lp_bytes"] += len(result)


HOOKS = {
    "arrays.is_oa": _count_tuples,
    "arrays.tolerance": _count_tolerance,
    "arrays.unbalance": _count_tuples,
    "arrays.bandwidth": _count_tuples,
    "fileio.write_array": _wrote_file,
    "fileio.write_encoding": _wrote_file,
    "fileio.read_array": _read_file,
    "fileio.read_encoding": _read_file,
    "fileio.catalog_add": _wrote_sidecar,
    "fileio.catalog_list": _read_sidecars,
    "fileio.catalog_recheck": _read_sidecars,
    "discrepancy.discrepancy_sq": _discrepancy_temp,
    "search.local_pareto_search": _search_run,
    "search.neighborhood_scan": _search_scan,
    "search.front_insert": _search_insert,
    "ipmodel.exhaustive_optimum": _exhaustive,
    "ipmodel.emit_lp": _emitted_lp,
}


def _aoakit_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "aoakit" or name.startswith("aoakit."))
    ]


class Tracer:
    """Records one span per call of a public aoakit function while recording."""

    def __init__(self):
        self.recording = False
        self.labels: list[str] = []
        self.layers: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.outer: list[bool] = []  # no enclosing span of the same layer
        self.depth = collections.Counter()
        self.counts = collections.Counter()
        self.temp_mb = 0.0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every public function of every layer; return the span labels."""
        modules = _aoakit_modules()
        labels = []
        for layer in LAYERS:
            mod = sys.modules[f"aoakit.{layer}"]
            for name in mod.__all__:
                obj = getattr(mod, name)
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                label = f"{layer}.{name}"
                wrapper = self._wrap(layer, label, obj, HOOKS.get(label))
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is obj:
                            self._patch(owner, attr, wrapper)
                labels.append(label)
        field_cls = sys.modules["aoakit.galois"].Field
        for attr, value in list(vars(field_cls).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            label = f"galois.Field.{attr}"
            self._patch(field_cls, attr, self._wrap("galois", label, value, None))
            labels.append(label)
        return labels

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, layer, label, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer._open(layer, label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, layer)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", label)
        traced.__qualname__ = getattr(fn, "__qualname__", label)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- spans ------------------------------------------------------------

    def _open(self, layer, label) -> int:
        idx = len(self.starts)
        self.labels.append(label)
        self.layers.append(layer)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.outer.append(not self.depth[layer])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.depth[layer] += 1
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx, layer) -> None:
        self.ends[idx] = time.perf_counter()
        self.depth[layer] -= 1
        self._stack.pop()

    def begin_pass(self) -> int:
        """Reset the per-pass counters; return the index of the pass's first span."""
        self.counts.clear()
        self.temp_mb = 0.0
        return len(self.starts)

    def pass_metrics(self, first: int, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since ``first``."""
        last = len(self.starts)
        child = collections.defaultdict(float)
        for i in range(first, last):
            p = self.parents[i]
            if p >= first:
                child[p] += self.ends[i] - self.starts[i]
        calls = collections.Counter()
        busy = collections.defaultdict(float)
        self_s = collections.defaultdict(float)
        for i in range(first, last):
            layer = self.layers[i]
            dur = self.ends[i] - self.starts[i]
            calls[layer] += 1
            if self.outer[i]:
                busy[layer] += dur
            self_s[layer] += dur - child[i]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.busy_s"] = busy[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        for metric, family in FAMILY_TIMES.items():
            out[metric] = self._family_time(first, last, family)
        for name in COUNTERS:
            out[name] = self.counts[name]
        out["discrepancy.temp_mb"] = self.temp_mb
        examined = self.counts["search.examined"]
        out["search.insert_ratio"] = self.counts["search.inserts"] / examined if examined else 0.0
        states = self.counts["ipmodel.states"]
        out["ipmodel.feasible_ratio"] = (
            self.counts["ipmodel.feasible_states"] / states if states else 0.0
        )
        out["trace_self_sum_s"] = sum(self_s.values())
        out["trace_wall_s"] = wall_s
        return out

    def _family_time(self, first, last, family) -> float:
        total = 0.0
        for i in range(first, last):
            if self.labels[i] not in family:
                continue
            p = self.parents[i]
            while p >= first and self.labels[p] not in family:
                p = self.parents[p]
            if p < first:
                total += self.ends[i] - self.starts[i]
        return total

    def write_spans(self, path) -> None:
        """One CSV row per span: id, parent, name, start and end in seconds."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "parent", "name", "start_s", "end_s"))
            for i, label in enumerate(self.labels):
                writer.writerow(
                    (i, self.parents[i], label,
                     f"{self.starts[i] - origin:.9f}", f"{self.ends[i] - origin:.9f}")
                )


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of every metric over the traced passes."""
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_ratio"):
        return "ratio"
    if "bytes" in name:
        return "B"
    return "count"

"""aoakit benchmark: CLI-shaped workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload evaluate --seed 0 --seconds 60 --trace 0

Workloads (see ``workloads.py`` for what each runs and why): ``evaluate``
and ``produce``.  One run is one process driven from one thread of
control:

1. Set-up, five times: import ``aoakit`` (in this process the first time,
   in a fresh interpreter the other times) and make the workload's
   inputs from ``--seed``.  ``setup_s`` is the median of the five.
2. Passes over the workload's fixed list of operations, as many as fit in
   ``--seconds`` (at least one).  Every operation is timed, then every
   output is checked.  ``wall_s``, the time of the whole list, is the sum
   over the operations of each one's median time.
3. With ``--trace 1`` the first half of the time runs untraced passes and
   the second half traced ones (see ``tracing.py``); the per-layer metrics
   are medians over the traced passes, ``trace_overhead_s`` is the traced
   minus the untraced list time, and the spans are written to
   ``perfbench/out/trace-<workload>-seed<seed>.csv``.

End-to-end metrics (``--trace 0``): ``wall_s``, ``setup_s``,
``peak_rss_mb`` (``ru_maxrss`` of this process) and ``ok_rate``, the share
of operations whose exit code and checked output were right.  The human
readable lines also give ``fail_rate`` = 1 - ``ok_rate``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Apart from Python's bytecode caches, everything the run writes goes under
``perfbench/out``; its scratch directory there is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import aoakit; "
    "print(repr(time.perf_counter() - t))"
)


def import_aoakit() -> float:
    """Import aoakit from the checkout's ``src`` and return the import time."""
    if not (SRC / "aoakit" / "__init__.py").is_file():
        raise SystemExit(f"error: no aoakit package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import aoakit  # noqa: F401

    return time.perf_counter() - start


def import_in_fresh_interpreter() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip())


def _openblas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when it is not found."""
    import ctypes
    import glob

    import numpy as np

    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    libs = glob.glob(os.path.join(libs_dir, "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _l3_mib():
    """Size of the L3 cache in MiB as the kernel reports it, or None."""
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                scale = {"K": 1 / 1024, "M": 1.0, "G": 1024.0}[size[-1]]
                return int(size[:-1]) * scale
        except (OSError, KeyError, ValueError):
            return None
    return None


def environment(workload) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _openblas_threads(),
        "l3_mib": _l3_mib(),
        **workload.environment(),
    }


def run_pass(ops) -> tuple[list[float], list]:
    """Run the operations in order; return the time of each and the outputs."""
    times, outputs = [], []
    for op in ops:
        start = time.perf_counter()
        try:
            outputs.append(op.run())
        except Exception as exc:  # a raising operation is a failed operation
            outputs.append(exc)
        times.append(time.perf_counter() - start)
    return times, outputs


def list_time(op_times: list[list[float]]) -> float:
    """Time of the whole operation list: the sum of each operation's median.

    Summing per-operation medians over the passes keeps a slow second of the
    machine, which hits one operation of one pass, out of the result.
    """
    return sum(statistics.median(samples) for samples in zip(*op_times))


def check_pass(ops, outputs) -> list[str]:
    """One message per operation whose output is wrong."""
    failures = []
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            failures.append(f"{op.name}: raised {type(out).__name__}: {out}")
            continue
        try:
            problem = op.check(out)
        except Exception as exc:  # a check that cannot read the output fails it
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{op.name}: {problem}")
    return failures


class Runner:
    """Passes of one workload in one scratch directory, with their tallies."""

    def __init__(self, workload, inputs, workdir: Path, seed: int):
        self.workload, self.inputs, self.workdir, self.seed = workload, inputs, workdir, seed
        self.attempted = 0
        self.failures: list[str] = []
        self.passes = 0

    def one_pass(self, tracer=None) -> tuple[list[float], float, dict | None]:
        """Run and check one pass; return the operation times, the time spent
        on the whole pass, and the pass's trace metrics."""
        started = time.perf_counter()
        passdir = self.workdir / f"pass{self.passes}"
        passdir.mkdir()
        ops = self.workload.operations(self.inputs, passdir, self.seed)
        first = None
        if tracer is not None:
            first = tracer.begin_pass()
            tracer.recording = True
        try:
            times, outputs = run_pass(ops)
        finally:
            if tracer is not None:
                tracer.recording = False
        layer_metrics = tracer.pass_metrics(first, sum(times)) if tracer is not None else None
        self.attempted += len(ops)
        self.failures += check_pass(ops, outputs)
        shutil.rmtree(passdir)
        self.passes += 1
        return times, time.perf_counter() - started, layer_metrics

    def run_for(self, seconds: float, tracer=None) -> tuple[list[list[float]], list[dict]]:
        """Passes until the next one would end after ``seconds`` (at least one)."""
        op_times, traced, spent = [], [], []
        start = time.perf_counter()
        while True:
            times, cost, layer_metrics = self.one_pass(tracer)
            op_times.append(times)
            spent.append(cost)
            if layer_metrics is not None:
                traced.append(layer_metrics)
            if time.perf_counter() - start + statistics.median(spent) > seconds:
                return op_times, traced


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_setup(workload, workdir: Path, seed: int, first_import_s: float):
    """Set up ``SETUP_REPEATS`` times; return the last inputs and every set-up time."""
    times, inputs = [], None
    for rep in range(SETUP_REPEATS):
        import_s = import_in_fresh_interpreter() if rep else first_import_s
        setup_dir = workdir / f"setup{rep}"
        setup_dir.mkdir()
        start = time.perf_counter()
        inputs = workload.setup(setup_dir, seed)
        times.append(import_s + time.perf_counter() - start)
    return inputs, times


def end_to_end(runner: Runner, seconds: float, setup_times, lines) -> dict:
    op_times, _ = runner.run_for(seconds)
    fail_rate = len(runner.failures) / runner.attempted
    lines.append(f"passes {len(op_times)}: " + " ".join(f"{sum(t):.3f}" for t in op_times))
    lines.append(f"fail_rate {fail_rate!r} ratio")
    return {
        "wall_s": metric(list_time(op_times), "s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_rate": metric(1 - fail_rate, "ratio"),
    }


def per_layer(runner: Runner, seconds: float, spans_path: Path, lines) -> tuple[dict, bool]:
    """Untraced, then traced passes; return the layer metrics and whether the
    layer self times fit inside every traced pass."""
    import tracing

    untraced, _ = runner.run_for(seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, per_pass = runner.run_for(seconds / 2, tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    layer = tracing.median_metrics(per_pass)
    layer["trace_overhead_s"] = list_time(traced) - list_time(untraced)
    consistent = all(m["trace_self_sum_s"] <= m["trace_wall_s"] for m in per_pass)
    lines.append(f"passes {len(untraced)} untraced, {len(traced)} traced")
    if not consistent:
        lines.append("INCONSISTENT layer self times exceed the traced pass time")
    metrics = {name: metric(value, tracing.unit_of(name)) for name, value in sorted(layer.items())}
    return metrics, consistent


def main(argv=None, size: str = "full", references=None) -> dict:
    """Run one workload and return the result object that is printed last."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("evaluate", "produce"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_aoakit()
    import workloads

    workload = workloads.WORKLOADS[args.workload](size=size, references=references)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}",
             "env " + json.dumps(environment(workload), sort_keys=True)]
    try:
        inputs, setup_times = measure_setup(workload, workdir, args.seed, import_s)
        runner = Runner(workload, inputs, workdir, args.seed)
        if args.trace:
            spans = OUT / f"trace-{args.workload}-seed{args.seed}.csv"
            metrics, consistent = per_layer(runner, args.seconds, spans, lines)
        else:
            metrics, consistent = end_to_end(runner, args.seconds, setup_times, lines), True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    lines += [f"{name} {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    lines += [f"FAILED {msg}" for msg in runner.failures[:20]]
    print("\n".join(lines))
    return {"correct": failed == 0 and consistent, "attempted": runner.attempted,
            "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    result = main()
    print(json.dumps(result))

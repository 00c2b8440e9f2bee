"""Tests of the benchmark itself, on reduced-size workloads.

Run from the repository root (kept out of the default test collection):

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_aoakit()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def small_run(workload, seed=0, trace=0, references=None):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace)]
    return run.main(argv, size="small", references=references)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [0, 7])
def test_reduced_pass_is_correct(workload, seed):
    result = small_run(workload, seed)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_reports_every_layer_metric(workload):
    result = small_run(workload, trace=1)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["trace_self_sum_s"] <= values["trace_wall_s"]
    assert values["cli.calls"] > 0
    arrays = sys.modules["aoakit.arrays"]
    assert not hasattr(arrays.tolerance, "__wrapped__"), "tracer left installed"


def test_tracer_replaces_every_import_by_name():
    modules = {name: sys.modules[f"aoakit.{name}"]
               for name in ("arrays", "fileio", "cli", "search", "constructions", "ipmodel")}
    original = modules["arrays"].tolerance
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = modules["arrays"].tolerance
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert all(mod.tolerance is wrapped for mod in modules.values())
        assert sys.modules["aoakit"].tolerance is wrapped
        assert callable(sys.modules["aoakit"].discrepancy)
    finally:
        tracer.uninstall()
    assert all(mod.tolerance is original for mod in modules.values())


def test_corrupted_evaluate_reference_fails():
    refs = copy.deepcopy(workloads.EVALUATE_REFERENCES)
    refs["half_3_3_1"]["tol_t2"] = "4"
    result = small_run("evaluate", references=refs)
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["ok_rate"]["value"] < 1


def test_corrupted_float_reference_fails():
    refs = copy.deepcopy(workloads.EVALUATE_REFERENCES)
    refs["odd_ext_3_3_1"]["cd"] *= 1 + 1e-6
    result = small_run("evaluate", references=refs)
    assert result["failed"] > 0


def test_corrupted_search_front_fails_only_on_default_seed():
    refs = dict(workloads.SEARCH_REFERENCES)
    refs["8_4_2_plain_p2_x1"] = [(2, 1)]
    assert small_run("produce", references={"search": refs})["failed"] > 0
    assert small_run("produce", seed=3, references={"search": refs})["failed"] == 0


def test_corrupted_exhaustive_optimum_fails():
    refs = (((2, 4, 1, 1), 5), ((2, 5, 1, 2), 8))
    result = small_run("produce", references={"exhaustive": refs})
    assert result["failed"] == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "produce", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""End-to-end tests for the command-line interface.

Exit-code contract: 0 success, 1 usage or invalid parameters, 2 file parse
error, 3 verification failure.
"""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import aoakit
from aoakit.arrays import Array, is_oa
from aoakit.cli import main
from aoakit.fileio import read_array, write_array
from aoakit.ipmodel import Constraint, IpInstance, Variable, canonical_assignment
from aoakit.symmetry import bicyclic_generator, is_automorphism


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lines_of(out):
    return dict(
        line.split(" = ", 1) for line in out.splitlines() if " = " in line
    )


def run_child(*argv):
    """Run aoakit in a child process; ``--verbose`` needs one, because
    logging.basicConfig leaves the test runner's own root handlers alone."""
    paths = [str(Path(aoakit.__file__).resolve().parents[1])]
    paths += os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run(
        [sys.executable, "-m", "aoakit", *map(str, argv)],
        capture_output=True, env=env, timeout=60, check=True,
    )


@pytest.fixture
def t0_file(tmp_path, t0):
    path = tmp_path / "t0.txt"
    write_array(path, t0)
    return path


@pytest.fixture
def oa_file(tmp_path, oa_4_3_2):
    path = tmp_path / "oa.txt"
    write_array(path, oa_4_3_2)
    return path


class TestEval:
    def test_trivial_array_metrics(self, capsys, t0_file):
        code, out, _ = run(capsys, "eval", t0_file)
        assert code == 0
        got = lines_of(out)
        assert got["N"] == "4" and got["k"] == "4" and got["s"] == "2"
        assert got["is_oa_t2"] == "false"
        assert got["tol_t2"] == "1"
        assert got["unb_p1_t2"] == "4"
        assert got["unb_p2_t2"] == "4"

    def test_orthogonal_array_is_all_zero(self, capsys, oa_file):
        code, out, _ = run(capsys, "eval", oa_file)
        assert code == 0
        got = lines_of(out)
        assert got["is_oa_t2"] == "true"
        assert got["tol_t2"] == "0"
        assert got["unb_p1_t2"] == "0"

    def test_d_criteria_on_the_9_run_construction(self, capsys, tmp_path):
        out_path = tmp_path / "c.txt"
        assert run(capsys, "construct", "half", 3, 2, 1, "-o", out_path)[0] == 0
        code, out, _ = run(capsys, "eval", out_path, "--d-criteria")
        assert code == 0
        got = lines_of(out)
        assert got["d1"] == "9/5"
        assert got["d2"] == "9/5"
        assert float(got["d_f"]) > 0

    def test_discrepancies_flag(self, capsys, t0_file):
        code, out, _ = run(capsys, "eval", t0_file, "--discrepancies")
        assert code == 0
        got = lines_of(out)
        assert {"cd", "wd", "md"} <= set(got)
        assert all(float(got[key]) > 0 for key in ("cd", "wd", "md"))

    def test_strength_and_exponent_flags(self, capsys, oa_file):
        code, out, _ = run(capsys, "eval", oa_file, "--t", 1, "--t", 3, "--p", 1)
        assert code == 0
        got = lines_of(out)
        assert got["tol_t1"] == "0"
        assert "unb_p1_t3" in got and "unb_p2_t1" not in got

    def test_out_of_range_strength_is_usage(self, capsys, oa_file):
        code, out, err = run(capsys, "eval", oa_file, "--t", 9)
        assert code == 1
        assert out == ""
        assert "out of range" in err

    @pytest.mark.parametrize("p", [0, -1])
    def test_non_positive_exponent_is_usage_without_output(self, capsys, oa_file, p):
        code, out, err = run(capsys, "eval", oa_file, "--p", 1, "--p", p)
        assert code == 1
        assert out == ""
        assert f"p={p} must be >= 1" in err

    def test_verbose_times_each_metric_group_on_stderr_only(self, t0_file):
        argv = ["eval", t0_file, "--d-criteria", "--discrepancies"]
        quiet, verbose = run_child(*argv), run_child("--verbose", *argv)
        assert quiet.stdout and verbose.stdout == quiet.stdout
        assert quiet.stderr == b""
        for group in ("tables", "d-criteria", "discrepancies"):
            assert f"eval {group}: ".encode() in verbose.stderr

    def test_corrupt_file_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2 2\n1 1\n1 7\n")
        code, _, err = run(capsys, "eval", bad)
        assert code == 2
        assert ":3:3:" in err and "outside 1..2" in err

    def test_oversized_header_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "huge.txt"
        bad.write_text("1 10000000000000 2\n1\n")
        code, _, err = run(capsys, "eval", bad)
        assert code == 2
        assert f"{bad}:2:1: expected 10000000000000 values, found 1" in err

    def test_non_ascii_file_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "accent.txt"
        bad.write_bytes("2 2 2\n1 2\n2 \u00e9\n".encode("utf-8"))
        code, _, err = run(capsys, "eval", bad)
        assert code == 2
        assert f"{bad}:3:3: non-ASCII byte 0xc3" in err

    def test_missing_file_is_parse_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "eval", tmp_path / "absent.txt")
        assert code == 2


class TestConstruct:
    def test_half_3_2_1(self, capsys, tmp_path):
        out_path = tmp_path / "half.txt"
        code, out, _ = run(capsys, "construct", "half", 3, 2, 1, "-o", out_path)
        assert code == 0
        a, meta = read_array(out_path)
        assert (a.n_runs, a.n_factors, a.n_levels) == (9, 5, 3)
        assert meta["variant"] == "half" and meta["kappa"] == "1"
        got = lines_of(out)
        assert got["N"] == "9" and got["k"] == "5"
        for item in ("0", "1a", "1b", "2", "3"):
            assert got[f"item_{item}"] == "pass"
        assert got["tol_t2"].startswith("1")
        assert got["unb_p2_t2"].startswith("18")

    def test_odd_ext_5_2_1(self, capsys, tmp_path):
        out_path = tmp_path / "ext.txt"
        code, out, _ = run(capsys, "construct", "odd-ext", 5, 2, 1, "-o", out_path)
        assert code == 0
        a, _ = read_array(out_path)
        assert (a.n_runs, a.n_factors) == (50, 12)

    def test_non_prime_power_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "construct", "half", 6, 2, 1, "-o", tmp_path / "x")
        assert code == 1
        assert "6 is not a prime power" in err

    def test_parity_mismatch_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "construct", "even-ext", 5, 2, 1, "-o", tmp_path / "x")
        assert code == 1
        assert err.startswith("error:")

    def test_unknown_variant_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "construct", "mirror", 3, 2, 1, "-o", tmp_path / "x")
        assert code == 1


class TestSearch:
    def test_oa_case_finds_the_zero_vector(self, capsys, tmp_path):
        out_dir = tmp_path / "front"
        code, out, _ = run(capsys, "search", 4, 3, 2, "--seed", 0, "-o", out_dir)
        assert code == 0
        assert "front: unb=0 tol=0 file=member_01.txt" in out
        member, meta = read_array(out_dir / "member_01.txt")
        assert is_oa(member, 2)
        assert meta["unbalance"] == "0" and meta["tolerance"] == "0"

    def test_front_files_and_summaries(self, capsys, tmp_path):
        out_dir = tmp_path / "front"
        code, out, _ = run(
            capsys, "search", 4, 4, 2, "--p", 1, "--seed", 7, "-o", out_dir
        )
        assert code == 0
        assert "front: unb=4 tol=1 file=member_01.txt" in out
        csv = (out_dir / "front.csv").read_text().splitlines()
        assert csv[0] == "unbalance,tolerance,file"
        assert "4,1,member_01.txt" in csv[1:]
        summary = json.loads((out_dir / "front.json").read_text())
        assert summary["params"] == {"N": 4, "k": 4, "s": 2}
        assert summary["config"]["seed"] == 7
        assert {"unbalance": 4, "tolerance": 1, "file": "member_01.txt"} in summary["front"]

    def test_bicyclic_target(self, capsys, tmp_path):
        out_dir = tmp_path / "front"
        code, out, _ = run(
            capsys,
            "search", 9, 5, 3,
            "--encoding", "bicyclic", "--p", 2, "--seed", 0, "--restarts", 10,
            "-o", out_dir,
        )
        assert code == 0
        assert "front: unb=18 tol=1" in out
        for line in (out_dir / "front.csv").read_text().splitlines()[1:]:
            member, _ = read_array(out_dir / line.split(",")[2])
            assert is_automorphism(bicyclic_generator(3, 5), member)

    def test_verbose_logs_pass_telemetry_on_stderr_only(self, tmp_path):
        argv = ["search", 9, 5, 3, "--encoding", "bicyclic", "--seed", 0]
        quiet = run_child(*argv, "-o", tmp_path / "quiet")
        verbose = run_child("--verbose", *argv, "-o", tmp_path / "verbose")
        assert quiet.stdout and verbose.stdout == quiet.stdout
        assert quiet.stderr == b""
        files = sorted(p.name for p in (tmp_path / "quiet").iterdir())
        assert "front.json" in files
        assert sorted(p.name for p in (tmp_path / "verbose").iterdir()) == files
        for name in files:
            assert (tmp_path / "verbose" / name).read_bytes() == (
                tmp_path / "quiet" / name
            ).read_bytes()
        passes = re.findall(
            rb"pass (\d+): examined (\d+) in \d+\.\d{3} s, front size \d+, best",
            verbose.stderr,
        )
        assert passes and [int(n) for n, _ in passes] == list(range(1, len(passes) + 1))
        assert all(int(examined) > 0 for _, examined in passes)
        # every completed pass inserts at most one member (the scan restarts
        # after an insertion), and a complete search ends on an unchanged pass
        plain = ["search", 8, 4, 2, "--seed", 3, "--restarts", 2]
        quiet = run_child(*plain, "-o", tmp_path / "plain_quiet")
        verbose_plain = run_child("--verbose", *plain, "-o", tmp_path / "plain_verbose")
        assert verbose_plain.stdout == quiet.stdout
        for name in ("front.csv", "front.json", "member_01.txt"):
            assert (tmp_path / "plain_verbose" / name).read_bytes() == (
                tmp_path / "plain_quiet" / name
            ).read_bytes()
        for stderr in (verbose.stderr, verbose_plain.stderr):
            inserted = [
                int(n)
                for n in re.findall(
                    rb"pass \d+: examined \d+ in \d+\.\d{3} s, front size \d+, "
                    rb"best \([^)]*\), inserted (\d+)\n",
                    stderr,
                )
            ]
            assert inserted and len(inserted) == stderr.count(b"examined")
            assert set(inserted) <= {0, 1}
            assert inserted[-1] == 0

    def test_same_seed_gives_identical_outputs(self, capsys, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            code, _, _ = run(
                capsys, "search", 8, 4, 2, "--p", 2, "--seed", 3,
                "--restarts", 2, "-o", d,
            )
            assert code == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_incompatible_run_count_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "search", 10, 4, 3, "-o", tmp_path / "x")
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv, message", [
        ((9, 3, 3, "--encoding", "plain", "--bicyclic-r", 7),
         "bicyclic_r applies only to the bicyclic encoding"),
        ((9, 4, 3, "--encoding", "quasicyclic", "--bicyclic-r", 1),
         "bicyclic_r applies only to the bicyclic encoding"),
        ((9, 5, 3, "--encoding", "bicyclic", "--bicyclic-r", 0),
         "r must divide s and satisfy 1 <= r <= k"),
        ((0, 3, 3), "N must be >= 1, got 0"),
        ((9, 0, 3), "k must be >= 2, got 0"),
        ((9, 1, 3), "k must be >= 2, got 1"),
        ((9, 3, 0), "s must be >= 1, got 0"),
    ], ids=["plain-r", "quasicyclic-r", "r-zero", "N-zero", "k-zero", "k-one", "s-zero"])
    def test_bad_sizes_and_options_are_located_usage_errors(self, capsys, tmp_path, argv, message):
        code, out, err = run(capsys, "search", *argv, "-o", tmp_path / "x")
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    # Captured from the implementation that expanded each encoding with its
    # own per-kind formula; the rows of member files are in block-major order.
    PINNED = {
        ("9", "5", "3", "--encoding", "bicyclic", "--seed", "0"): {
            "stdout": "front: unb=18 tol=1 file=member_01.txt\ncomplete = true\n",
            "member_01.txt": (
                "9 5 3\n3 2 3 1 3\n1 3 1 1 3\n3 3 2 2 3\n1 1 3 2 1\n2 2 1 2 1\n"
                "3 1 1 3 1\n1 2 2 3 2\n2 3 3 3 2\n2 1 2 1 2\n"
                "# unbalance: 18\n# tolerance: 1\n# seed: 0\n"
            ),
            "front.csv": "unbalance,tolerance,file\n18,1,member_01.txt\n",
            "front.json": (
                '{\n  "complete": true,\n  "config": {\n    "encoding": "bicyclic",\n'
                '    "p": 2,\n    "restarts": 1,\n    "seed": 0\n  },\n  "front": [\n'
                '    {\n      "file": "member_01.txt",\n      "tolerance": 1,\n'
                '      "unbalance": 18\n    }\n  ],\n  "params": {\n    "N": 9,\n'
                '    "k": 5,\n    "s": 3\n  }\n}\n'
            ),
        },
        ("9", "4", "3", "--encoding", "quasicyclic", "--seed", "0"): {
            "stdout": "front: unb=0 tol=0 file=member_01.txt\ncomplete = true\n",
            "member_01.txt": (
                "9 4 3\n1 1 1 1\n3 1 2 2\n1 2 3 2\n2 3 1 2\n3 3 3 1\n2 1 3 3\n"
                "1 3 2 3\n3 2 1 3\n2 2 2 1\n# unbalance: 0\n# tolerance: 0\n# seed: 0\n"
            ),
            "front.csv": "unbalance,tolerance,file\n0,0,member_01.txt\n",
            "front.json": (
                '{\n  "complete": true,\n  "config": {\n    "encoding": "quasicyclic",\n'
                '    "p": 2,\n    "restarts": 1,\n    "seed": 0\n  },\n  "front": [\n'
                '    {\n      "file": "member_01.txt",\n      "tolerance": 0,\n'
                '      "unbalance": 0\n    }\n  ],\n  "params": {\n    "N": 9,\n'
                '    "k": 4,\n    "s": 3\n  }\n}\n'
            ),
        },
    }

    @pytest.mark.parametrize("argv", list(PINNED), ids=["bicyclic", "quasicyclic"])
    def test_encoded_search_outputs_are_pinned(self, capsys, tmp_path, argv):
        want = self.PINNED[argv]
        code, out, _ = run(capsys, "search", *argv, "-o", tmp_path)
        assert code == 0
        assert out == want["stdout"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(set(want) - {"stdout"})
        for name in ("member_01.txt", "front.csv", "front.json"):
            assert (tmp_path / name).read_bytes() == want[name].encode("ascii")

    def test_unknown_encoding_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "search", 9, 5, 3, "--encoding", "spiral", "-o", tmp_path / "x"
        )
        assert code == 1


class TestIp:
    def test_emit_lp_for_2_4_1(self, capsys, tmp_path):
        lp = tmp_path / "m.lp"
        code, out, _ = run(capsys, "ip", 2, 4, 1, "--p", 1, "--eps", 1, "-o", lp)
        assert code == 0
        got = lines_of(out)
        assert got["variables"] == "98"
        text = lp.read_text()
        binaries = text.split("Binaries")[1].split("End")[0].split()
        assert sum(1 for name in binaries if name.startswith("x_")) == 16

    def test_emit_is_deterministic(self, capsys, tmp_path):
        paths = [tmp_path / "a.lp", tmp_path / "b.lp"]
        for p in paths:
            assert run(capsys, "ip", 3, 5, "--p", 2, "-o", p)[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_lambda_is_positional_and_optional(self, capsys, tmp_path):
        _, out1, _ = run(capsys, "ip", 2, 4, "-o", tmp_path / "l1.lp")
        _, out2, _ = run(capsys, "ip", 2, 4, 2, "-o", tmp_path / "l2.lp")
        assert lines_of(out1)["variables"] == "98"
        assert lines_of(out2)["variables"] != "98"

    def test_mps_companion(self, capsys, tmp_path):
        lp, mps = tmp_path / "m.lp", tmp_path / "m.mps"
        code, out, _ = run(capsys, "ip", 2, 4, "-o", lp, "--mps", mps)
        assert code == 0
        assert f"mps = {mps}" in out
        text = mps.read_text()
        assert text.startswith("NAME") and text.rstrip().endswith("ENDATA")

    def test_sizes_build_no_objects(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an object list was built")

        monkeypatch.setattr(Variable, "__init__", refuse)
        monkeypatch.setattr(Constraint, "__init__", refuse)
        code, out, _ = run(capsys, "ip", 3, 5, "-o", tmp_path / "m.lp")
        assert code == 0
        assert (lines_of(out)["variables"], lines_of(out)["constraints"]) == ("576", "255")

    def test_verbose_times_each_stage_on_stderr_only(self, tmp_path):
        argv = ["ip", 3, 5, "--p", 2, "--sym", "semicyclic:2"]
        quiet = run_child(*argv, "-o", tmp_path / "q.lp", "--mps", tmp_path / "q.mps")
        verbose = run_child("--verbose", *argv, "-o", tmp_path / "v.lp", "--mps", tmp_path / "v.mps")
        assert quiet.stdout.replace(b"q.", b"v.") == verbose.stdout
        assert quiet.stderr == b""
        for suffix in ("lp", "mps"):
            assert (tmp_path / f"q.{suffix}").read_bytes() == (tmp_path / f"v.{suffix}").read_bytes()
        for stage in ("build", "lp", "mps"):
            assert re.search(rf"ip {stage}: \d+\.\d{{3}} s".encode(), verbose.stderr)

    def test_semicyclic_ties_appear_in_lp(self, capsys, tmp_path):
        lp = tmp_path / "sym.lp"
        code, _, _ = run(
            capsys, "ip", 3, 5, "--sym", "semicyclic:2", "-o", lp
        )
        assert code == 0
        text = lp.read_text()
        assert sum(1 for line in text.splitlines() if line.startswith(" sim")) == 78

    def test_symmetry_flag_validation(self, capsys, tmp_path):
        out = tmp_path / "x.lp"
        assert run(capsys, "ip", 3, 5, "--sym", "semicyclic", "-o", out)[0] == 1
        assert run(capsys, "ip", 3, 5, "--sym", "klein:3", "-o", out)[0] == 1
        assert run(capsys, "ip", 3, 5, "--sym", "moebius", "-o", out)[0] == 1

    def test_invalid_instance_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "ip", 1, 4, "-o", tmp_path / "x.lp")
        assert code == 1
        assert err.startswith("error:")

    def test_oversized_model_is_refused_before_allocation(self, capsys, tmp_path):
        # s = 12, k = 14: 1,428,228 variables, 1,368,576 of them z
        out = tmp_path / "big.lp"
        tracemalloc.start()
        try:
            code, stdout, err = run(capsys, "ip", 12, 14, "-o", out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, stdout) == (1, "")
        assert err == "error: model has 1428228 variables (> 1000000)\n"
        assert not out.exists()
        assert peak <= 1 << 20


class TestIpVerify:
    def write_solution(self, tmp_path, inst, a):
        assignment = canonical_assignment(inst, a)
        path = tmp_path / "sol.txt"
        path.write_text(
            "".join(f"{name} {value}\n" for name, value in assignment.items())
        )
        return path

    def oa_8_4_2(self):
        rows = [
            [x + 1, y + 1, z + 1, (x + y + z) % 2 + 1]
            for x in range(2)
            for y in range(2)
            for z in range(2)
        ]
        return Array(np.array(rows), n_levels=2)

    def test_orthogonal_solution_verifies_to_zero(self, capsys, tmp_path):
        inst = IpInstance(s=2, k=4, lam=2, p=1, epsilon=1)
        sol = self.write_solution(tmp_path, inst, self.oa_8_4_2())
        out_path = tmp_path / "array.txt"
        code, out, _ = run(
            capsys, "ip-verify", 2, 4, sol, "--lam", 2, "-o", out_path
        )
        assert code == 0
        got = lines_of(out)
        assert got["objective"] == "0"
        assert got["identity"] == "pass" and got["bounds"] == "pass"
        recovered, meta = read_array(out_path)
        assert is_oa(recovered, 2)
        assert meta["objective"] == "0"

    def test_minimal_nonorthogonal_objective(self, capsys, tmp_path):
        # Optimal 4-run, 4-factor assignment: one unbalanced pair, total 4.
        best = Array(
            np.array([[1, 1, 1, 1], [1, 2, 1, 2], [2, 1, 2, 2], [2, 2, 2, 1]]),
            n_levels=2,
        )
        inst = IpInstance(s=2, k=4, lam=1, p=1, epsilon=1)
        sol = self.write_solution(tmp_path, inst, best)
        code, out, _ = run(capsys, "ip-verify", 2, 4, sol)
        assert code == 0
        got = lines_of(out)
        assert got["objective"] == "4"
        assert got["unbalance"] == "4" and got["tolerance"] == "1"

    def test_malformed_solution_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "sol.txt"
        bad.write_text("x_1_3_1 maybe\n")
        code, _, err = run(capsys, "ip-verify", 2, 4, bad)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("line, where, message", [
        ("x_1_3_2 abc", "2:9", "could not convert string to float: 'abc'"),
        ("x_1_3_2 1 0", "2:1", "expected 'name value', got 'x_1_3_2 1 0'"),
    ], ids=["value", "fields"])
    def test_malformed_line_is_located(self, capsys, tmp_path, line, where, message):
        sol = tmp_path / "sol.txt"
        sol.write_text(f"x_1_3_1 1\n{line}\n")
        code, out, err = run(capsys, "ip-verify", 2, 4, sol)
        assert (code, out) == (2, "")
        assert err == f"error: {sol}:{where}: {message}\n"

    def test_missing_solution_file_is_parse_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "ip-verify", 2, 4, tmp_path / "absent.txt")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "absent.txt" in err

    def test_incomplete_solution_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "sol.txt"
        bad.write_text("x_1_3_1 1\n")
        code, _, _ = run(capsys, "ip-verify", 2, 4, bad)
        assert code == 2

    @pytest.mark.parametrize("name, value", [
        ("x_1_3_1", "inf"), ("z_2_1_3", "nan"), ("d3_2_1_4", "-inf"),
    ])
    def test_non_finite_value_is_parse_error(self, capsys, tmp_path, name, value):
        inst = IpInstance(s=2, k=4, lam=2, p=1, epsilon=1)
        assignment = canonical_assignment(inst, self.oa_8_4_2())
        assignment[name] = value
        sol = tmp_path / "sol.txt"
        sol.write_text("".join(f"{n} {v}\n" for n, v in assignment.items()))
        code, out, err = run(capsys, "ip-verify", 2, 4, sol, "--lam", 2)
        assert (code, out) == (2, "")
        assert err == f"error: {sol}:1:1: value of {name} is not finite\n"

    def test_oversized_model_is_refused(self, capsys, tmp_path):
        # refused like `ip` (exit 1), before the solution file is opened
        sol = tmp_path / "sol.txt"
        sol.write_text("x_1_3_1 1\n")
        for path in (sol, tmp_path / "absent.txt"):
            code, out, err = run(capsys, "ip-verify", 12, 14, path)
            assert (code, out) == (1, "")
            assert err == "error: model has 1428228 variables (> 1000000)\n"

    def test_tampered_product_variable_fails_verification(self, capsys, tmp_path):
        inst = IpInstance(s=2, k=4, lam=2, p=1, epsilon=1)
        assignment = canonical_assignment(inst, self.oa_8_4_2())
        z_name = next(name for name in assignment if name.startswith("z_"))
        assignment[z_name] = 1 - assignment[z_name]
        sol = tmp_path / "sol.txt"
        sol.write_text(
            "".join(f"{name} {value}\n" for name, value in assignment.items())
        )
        code, out, err = run(capsys, "ip-verify", 2, 4, sol, "--lam", 2)
        assert code == 3
        assert lines_of(out)["z_linking"] == "FAIL"
        assert "verification failed" in err


class TestCatalog:
    def test_add_list_recheck_flow(self, capsys, tmp_path, t0_file, oa_file):
        cat = tmp_path / "cat"
        cat.mkdir()
        code, out, _ = run(
            capsys, "catalog", "add", cat, t0_file, "--name", "t0",
            "--provenance", "construction",
        )
        assert code == 0 and "added = t0" in out
        code, _, _ = run(capsys, "catalog", "add", cat, oa_file)
        assert code == 0

        code, out, _ = run(capsys, "catalog", "list", cat)
        assert code == 0
        assert [line.split(":")[0] for line in out.splitlines()] == ["oa", "t0"]
        assert "N=4 k=4 s=2 provenance=construction tol2=1 unb2=4" in out

        code, out, _ = run(capsys, "catalog", "list", cat, "--k", 3)
        assert code == 0
        assert out.splitlines() and all(l.startswith("oa:") for l in out.splitlines())

        code, out, _ = run(capsys, "catalog", "recheck", cat)
        assert code == 0
        assert "checked = 2" in out

    def test_construction_catalog_coverage(self, capsys, tmp_path):
        # One catalogued entry per tabulated (s, s+2) half instance.
        cat = tmp_path / "cat"
        cat.mkdir()
        for s in (3, 4, 5, 7, 8, 9):
            path = tmp_path / f"half{s}.txt"
            assert run(capsys, "construct", "half", s, 2, 1, "-o", path)[0] == 0
            code, _, _ = run(
                capsys, "catalog", "add", cat, path, "--provenance", "construction"
            )
            assert code == 0
        entries = run(capsys, "catalog", "list", cat)[1].splitlines()
        assert len(entries) == 6
        assert run(capsys, "catalog", "recheck", cat)[0] == 0

    def test_recheck_fails_after_manual_edit(self, capsys, tmp_path, t0_file, t0):
        cat = tmp_path / "cat"
        cat.mkdir()
        run(capsys, "catalog", "add", cat, t0_file, "--name", "t0")
        cells = t0.cells.copy()
        cells[0, 0] = 3 - cells[0, 0]
        write_array(cat / "t0.txt", Array(cells, n_levels=2))
        code, out, err = run(capsys, "catalog", "recheck", cat)
        assert code == 3
        assert any(line.startswith("mismatch: t0") for line in out.splitlines())
        assert "recheck failed" in err

    def test_recheck_reports_corrupt_sidecar(self, capsys, tmp_path, t0_file):
        cat = tmp_path / "cat"
        cat.mkdir()
        run(capsys, "catalog", "add", cat, t0_file, "--name", "t0")
        (cat / "hollow.json").write_text("{}")
        code, out, _ = run(capsys, "catalog", "recheck", cat)
        assert code == 3
        assert "corrupt: hollow" in out

    def test_add_requires_array_argument(self, capsys, tmp_path):
        cat = tmp_path / "cat"
        cat.mkdir()
        code, _, err = run(capsys, "catalog", "add", cat)
        assert code == 1
        assert "needs an array file" in err

    def test_add_with_unparseable_array(self, capsys, tmp_path):
        cat = tmp_path / "cat"
        cat.mkdir()
        bad = tmp_path / "bad.txt"
        bad.write_text("not an array\n")
        assert run(capsys, "catalog", "add", cat, bad)[0] == 2

    def test_missing_directory_is_usage_error(self, capsys, tmp_path, t0_file):
        code, _, _ = run(capsys, "catalog", "add", tmp_path / "nope", t0_file)
        assert code == 1


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 1

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_unknown_flag(self, capsys, t0_file):
        assert run(capsys, "eval", t0_file, "--shiny")[0] == 1

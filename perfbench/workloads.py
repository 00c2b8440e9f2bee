"""The benchmark's workloads: ``evaluate`` and ``produce``.

Each workload makes its inputs from the workload seed in ``setup`` and then
hands out a fixed list of operations for one pass.  An operation is a CLI
invocation through ``aoakit.cli.main`` or a public library call; its output
is checked after the pass, outside the timed region, so a faster but wrong
program shows up as failed operations and not as a gain.

Why these workloads:

- ``evaluate``: ``construct``, ``eval --d-criteria --discrepancies`` and
  ``catalog add`` on three construction arrays, then ``catalog recheck`` and
  ``catalog list``.  Nearly all time goes to the counting core (``arrays``,
  ``metrics``) and to ``discrepancy``.  The shapes pull these apart: on the
  tall 686 x 114 array the N*N*k float temporary of the discrepancies
  (about 429 MB) exceeds the L3 cache, on the wide 243 x 122 array the
  C(k, 2) column-pair loops dominate.  The seed permutes the rows and
  columns of the arrays that ``eval`` and ``catalog add`` read; every
  metric is invariant under that, so the references hold for every seed.
- ``produce``: the search part, then the IP part below, in one workload.
  Both are interpreter-bound, and on a small shared machine their speed
  drifts by up to a third over minutes, so the benchmark gives them one
  workload with long runs rather than two with shorter ones.
- search part: seeded, unbudgeted (complete and deterministic) CLI searches
  over bicyclic, quasicyclic and plain encodings, then a
  compress / write / read / expand round trip of every encoded front
  member.  The counting core is called tens of thousands of times on arrays
  of at most 16 rows: the same layer as in ``evaluate``, used for per-call
  overhead instead of bulk work.  Search time depends on the seed, so the
  list is many short restarts rather than a few long ones, which keeps the
  run-to-run spread across seeds small.
- IP part: LP/MPS emission on nine instances (s = 3..7, k = 5..12,
  lambda = 1..2, p = 1/2, symmetry none, semicyclic, klein and both), each
  parsed back and compared with ``build_model``; ``ip-verify`` on one
  solution within epsilon (exit 0) and one out of bounds (exit 3);
  ``exhaustive_optimum`` on three tiny instances.  String building and
  parsing in ``ipmodel`` dominate; the counting core is reached only
  through the delta values of 4- to 8-row arrays; ``discrepancy`` is unused.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import operator
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from aoakit import cli, constructions, fileio, ipmodel, symmetry
from aoakit.arrays import Array

arrays = sys.modules["aoakit.arrays"]

DEFAULT_SEED = 0
FLOAT_RTOL = 1e-9


@dataclass
class Op:
    """One timed operation and the check of its output (None when correct)."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class CliOutput:
    code: int
    stdout: str

    def fields(self) -> dict[str, str]:
        out = {}
        for line in self.stdout.splitlines():
            key, sep, value = line.partition(" = ")
            if sep:
                out[key.strip()] = value.strip()
        return out


def run_cli(argv) -> CliOutput:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return CliOutput(code, out.getvalue())


def cli_op(name: str, argv, check: Callable[[CliOutput], str | None]) -> Op:
    return Op(name, lambda: run_cli(argv), check)


def float_matches(text: str, reference: float) -> bool:
    try:
        value = float(text)
    except (TypeError, ValueError):
        return False
    return math.isclose(value, reference, rel_tol=FLOAT_RTOL, abs_tol=0.0)


def same_rows(a: Array, b: Array) -> bool:
    return (a.n_levels == b.n_levels and a.cells.shape == b.cells.shape
            and sorted(a.cells.tolist()) == sorted(b.cells.tolist()))


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

EVALUATE_SPECS = {
    "full": (("odd-ext", 7, 3, 1), ("half", 3, 5, 1), ("odd-ext", 5, 3, 2)),
    "small": (("half", 3, 3, 1), ("odd-ext", 3, 3, 1)),
}

EXACT_KEYS = ("tol_t2", "unb_p1_t2", "unb_p2_t2", "d1", "d2")
FLOAT_KEYS = ("d_f", "cd", "wd", "md")
SNAPSHOT_KEYS = {"tol2": "tol_t2", "unb1": "unb_p1_t2", "unb2": "unb_p2_t2",
                 "d1": "d1", "d2": "d2", "d_f": "d_f", "cd": "cd", "wd": "wd", "md": "md"}

# Metrics of the construction arrays, recorded from the CLI output.
EVALUATE_REFERENCES = {
    'odd_ext_7_3_1': {
        'N': 686, 'k': 114, 's': 7,
        'tol_t2': '35', 'unb_p1_t2': '980', 'unb_p2_t2': '24010',
        'd1': '980/6441', 'd2': '24010/6441',
        'd_f': 0.9974796544661125, 'cd': 30305.882985397493,
        'wd': 416062218.02787864, 'md': 2974275295111.596,
    },
    'half_3_5_1': {
        'N': 243, 'k': 122, 's': 3,
        'tol_t2': '27', 'unb_p1_t2': '486', 'unb_p2_t2': '13122',
        'd1': '486/7381', 'd2': '13122/7381',
        'd_f': 0.9943345751258008, 'cd': 243520.94454900813,
        'wd': 3538682904.235185, 'md': 72228820509454.61,
    },
    'odd_ext_5_3_2': {
        'N': 250, 'k': 63, 's': 5,
        'tol_t2': '15', 'unb_p1_t2': '900', 'unb_p2_t2': '11250', 'd1': '100/217', 'd2': '1250/217',
        'd_f': 0.9989761035695934, 'cd': 102.80955705996557,
        'wd': 22612.199179382616, 'md': 3220325.8265039916,
    },
    'half_3_3_1': {
        'N': 27, 'k': 14, 's': 3,
        'tol_t2': '3', 'unb_p1_t2': '54', 'unb_p2_t2': '162', 'd1': '54/91', 'd2': '162/91',
        'd_f': 0.9516951530106198, 'cd': 0.7447644996480836,
        'wd': 3.7786470722888597, 'md': 10.717674941179608,
    },
    'odd_ext_3_3_1': {
        'N': 54, 'k': 26, 's': 3,
        'tol_t2': '6', 'unb_p1_t2': '36', 'unb_p2_t2': '162', 'd1': '36/325', 'd2': '162/325',
        'd_f': 0.9889962934971548, 'cd': 2.0108645267589753,
        'wd': 33.55815002142938, 'md': 275.1298913094646,
    },
}


def spec_name(spec) -> str:
    variant, s, ell, kappa = spec
    return f"{variant.replace('-', '_')}_{s}_{ell}_{kappa}"


def _construction(spec) -> Array:
    variant, s, ell, kappa = spec
    return constructions.construct(
        constructions.ConstructionSpec(s=s, ell=ell, kappa=kappa, variant=variant.replace("-", "_"))
    )


class Evaluate:
    name = "evaluate"

    def __init__(self, size: str = "full", references=None):
        self.specs = EVALUATE_SPECS[size]
        self.references = EVALUATE_REFERENCES if references is None else references

    def environment(self) -> dict:
        """The N*N*k float64 temporary of the discrepancies, per array, in MiB."""
        temps = {}
        for spec in self.specs:
            ref = self.references[spec_name(spec)]
            temps[spec_name(spec)] = ref["N"] ** 2 * ref["k"] * 8 / 2**20
        return {"evaluate_discrepancy_temp_mib": temps}

    def setup(self, workdir: Path, seed: int) -> dict:
        """Write each construction array with seeded row and column permutations."""
        paths = {}
        for idx, spec in enumerate(self.specs):
            a = _construction(spec)
            rng = np.random.default_rng([seed, idx])
            cells = a.cells[rng.permutation(a.n_runs)][:, rng.permutation(a.n_factors)]
            path = workdir / f"{spec_name(spec)}.txt"
            fileio.write_array(path, Array(cells, a.n_levels))
            paths[spec_name(spec)] = path
        return paths

    def operations(self, inputs: dict, passdir: Path, seed: int) -> list[Op]:
        catalog = passdir / "catalog"
        catalog.mkdir()
        ops = []
        for spec in self.specs:
            name = spec_name(spec)
            ref = self.references[name]
            ops.append(cli_op(f"construct {name}",
                              ["construct", *spec, "-o", passdir / f"{name}.txt"],
                              functools.partial(self._check_construct, ref=ref)))
            ops.append(cli_op(f"eval {name}",
                              ["eval", inputs[name], "--d-criteria", "--discrepancies"],
                              functools.partial(self._check_eval, ref=ref)))
            ops.append(cli_op(f"catalog add {name}",
                              ["catalog", "add", catalog, inputs[name], "--name", name,
                               "--provenance", "construction"],
                              functools.partial(self._check_add, catalog=catalog, name=name)))
        ops.append(cli_op("catalog recheck", ["catalog", "recheck", catalog], self._check_recheck))
        ops.append(cli_op("catalog list", ["catalog", "list", catalog], self._check_list))
        return ops

    @staticmethod
    def _check_construct(out: CliOutput, ref: dict) -> str | None:
        f = out.fields()
        items = {k: v for k, v in f.items() if k.startswith("item_")}
        if out.code != 0 or not items or any(v != "pass" for v in items.values()):
            return f"exit {out.code}, items {items}"
        if (f.get("N"), f.get("k")) != (str(ref["N"]), str(ref["k"])):
            return f"shape N={f.get('N')} k={f.get('k')}"
        return None

    @staticmethod
    def _compare(values: dict, ref: dict, keys: dict) -> str | None:
        for got_key, ref_key in keys.items():
            got = values.get(got_key)
            if ref_key in EXACT_KEYS:
                ok = got == ref[ref_key]
            else:
                ok = float_matches(got, ref[ref_key])
            if not ok:
                return f"{got_key} = {got}, expected {ref[ref_key]}"
        return None

    def _check_eval(self, out: CliOutput, ref: dict) -> str | None:
        if out.code != 0:
            return f"exit code {out.code}"
        f = out.fields()
        if (f.get("N"), f.get("k"), f.get("s")) != (str(ref["N"]), str(ref["k"]), str(ref["s"])):
            return "wrong shape"
        if f.get("is_oa_t2") != "false":
            return f"is_oa_t2 = {f.get('is_oa_t2')}"
        return self._compare(f, ref, {k: k for k in EXACT_KEYS + FLOAT_KEYS})

    def _check_add(self, out: CliOutput, catalog: Path, name: str) -> str | None:
        if out.code != 0 or out.fields().get("added") != name:
            return f"exit {out.code}: {out.stdout.strip()}"
        sidecar = json.loads((catalog / f"{name}.json").read_text(encoding="ascii"))
        if sidecar["metrics"].get("is_oa2") != "0":
            return "sidecar is_oa2 is not 0"
        return self._compare(sidecar["metrics"], self.references[name], SNAPSHOT_KEYS)

    def _check_recheck(self, out: CliOutput) -> str | None:
        if out.code != 0 or out.fields().get("checked") != str(len(self.specs)):
            return f"exit {out.code}: {out.stdout.strip()}"
        return None

    def _check_list(self, out: CliOutput) -> str | None:
        lines = out.stdout.splitlines()
        if out.code != 0 or len(lines) != len(self.specs):
            return f"exit {out.code}, {len(lines)} entries"
        for line, name in zip(lines, sorted(spec_name(s) for s in self.specs)):
            ref = self.references[name]
            expected = (f"{name}: N={ref['N']} k={ref['k']} s={ref['s']} provenance=construction"
                        f" tol2={ref['tol_t2']} unb2={ref['unb_p2_t2']}")
            if line != expected:
                return f"listed {line!r}, expected {expected!r}"
        return None


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

# (N, k, s, encoding, p, restarts)
SEARCH_RUNS = {
    "full": (
        (9, 5, 3, "bicyclic", 2, 20),
        (9, 6, 3, "bicyclic", 2, 4),
        (16, 4, 4, "bicyclic", 2, 3),
        (9, 4, 3, "quasicyclic", 2, 10),
        (8, 4, 2, "plain", 2, 6),
        (8, 6, 2, "plain", 1, 2),
    ),
    "small": (
        (9, 5, 3, "bicyclic", 2, 2),
        (9, 4, 3, "quasicyclic", 2, 1),
        (8, 4, 2, "plain", 2, 1),
    ),
}

# Sorted (unbalance, tolerance) fronts of every run at the default seed.
SEARCH_REFERENCES = {
    '9_5_3_bicyclic_p2_x20': [(18, 1)],
    '9_6_3_bicyclic_p2_x4': [(36, 1)],
    '16_4_4_bicyclic_p2_x3': [(16, 1)],
    '9_4_3_quasicyclic_p2_x10': [(0, 0)],
    '8_4_2_plain_p2_x6': [(0, 0)],
    '8_6_2_plain_p1_x2': [(0, 0)],
    '9_5_3_bicyclic_p2_x2': [(18, 1)],
    '9_4_3_quasicyclic_p2_x1': [(0, 0)],
    '8_4_2_plain_p2_x1': [(0, 0)],
}

# Encoded members round-trip through the symmetry kind of their encoding.
ENCODING_KINDS = {"bicyclic": ("bicyclic", None), "quasicyclic": ("semicyclic", 2)}


def run_label(run) -> str:
    n, k, s, encoding, p, restarts = run
    return f"{n}_{k}_{s}_{encoding}_p{p}_x{restarts}"


def cli_seed(seed: int, index: int) -> int:
    """CLI --seed of the index-th run; restarts use the following seeds."""
    return 1000 * seed + 100 * index


class Search:
    name = "search"

    def __init__(self, size: str = "full", references=None):
        self.runs = SEARCH_RUNS[size]
        self.references = SEARCH_REFERENCES if references is None else references

    def setup(self, workdir: Path, seed: int) -> dict:
        return {}

    def operations(self, inputs: dict, passdir: Path, seed: int) -> list[Op]:
        ops = []
        for idx, run in enumerate(self.runs):
            n, k, s, encoding, p, restarts = run
            label = run_label(run)
            outdir = passdir / label
            argv = ["search", n, k, s, "--p", p, "--encoding", encoding,
                    "--restarts", restarts, "--seed", cli_seed(seed, idx), "-o", outdir]
            check = functools.partial(self._check_search, run=run, outdir=outdir, seed=seed)
            ops.append(cli_op(f"search {label}", argv, check))
            if encoding in ENCODING_KINDS:
                trip = functools.partial(self._round_trip, outdir, encoding)
                ops.append(Op(f"round trip {label}", trip, self._check_round_trip))
        return ops

    def _check_search(self, out: CliOutput, run, outdir: Path, seed: int) -> str | None:
        n, k, s, encoding, p, restarts = run
        if out.code != 0 or out.fields().get("complete") != "true":
            return f"exit {out.code}: {out.stdout.strip()[-200:]}"
        summary = json.loads((outdir / "front.json").read_text(encoding="ascii"))
        if summary["complete"] is not True or not summary["front"]:
            return "front.json is incomplete or empty"
        front = []
        for entry in summary["front"]:
            a, _ = fileio.read_array(outdir / entry["file"])
            if (a.n_runs, a.n_factors, a.n_levels) != (n, k, s):
                return f"{entry['file']} has the wrong shape"
            recomputed = (arrays.unbalance(a, 2, p), arrays.tolerance(a, 2))
            if recomputed != (entry["unbalance"], entry["tolerance"]):
                return f"{entry['file']}: stored {entry}, recomputed {recomputed}"
            front.append(recomputed)
        for u, t in front:
            if sum(u2 <= u and t2 <= t for u2, t2 in front) != 1:
                return f"front member {(u, t)} is dominated or repeated"
        if seed == DEFAULT_SEED:
            expected = self.references[run_label(run)]
            if sorted(front) != sorted(tuple(x) for x in expected):
                return f"front {sorted(front)} differs from the recorded {expected}"
        return None

    @staticmethod
    def _round_trip(outdir: Path, encoding: str) -> list[tuple[Array, Array]]:
        kind, param = ENCODING_KINDS[encoding]
        summary = json.loads((outdir / "front.json").read_text(encoding="ascii"))
        pairs = []
        for entry in summary["front"]:
            a, _ = fileio.read_array(outdir / entry["file"])
            path = outdir / f"{Path(entry['file']).stem}.enc"
            fileio.write_encoding(path, symmetry.compress(a, kind, param))
            pairs.append((a, symmetry.expand(fileio.read_encoding(path))))
        return pairs

    @staticmethod
    def _check_round_trip(pairs) -> str | None:
        if not pairs:
            return "no encoded front members"
        if not all(same_rows(a, b) for a, b in pairs):
            return "expanded encoding differs from the member array"
        return None


# ---------------------------------------------------------------------------
# ip
# ---------------------------------------------------------------------------

# (s, k, lam, p, symmetry)
IP_INSTANCES = {
    "full": (
        (3, 5, 1, 1, None),
        (3, 6, 1, 2, "semicyclic:2"),
        (4, 6, 1, 1, "klein"),
        (5, 6, 1, 2, None),
        (3, 8, 2, 1, "both:2"),
        (4, 8, 1, 2, "semicyclic:2"),
        (3, 12, 1, 1, "klein"),
        (6, 7, 1, 2, "both:3"),
        (7, 8, 1, 1, None),
    ),
    "small": (
        (2, 4, 1, 1, None),
        (3, 5, 1, 2, "semicyclic:2"),
        (3, 5, 2, 1, "both:2"),
    ),
}

# Half construction (s, ell, kappa) behind the ip-verify solution files.
IP_VERIFY_SPEC = {"full": (5, 2, 1), "small": (3, 2, 1)}

# (s, k, lam, p) and the optimum exhaustive enumeration must find.
IP_EXHAUSTIVE = {
    "full": (((2, 4, 1, 1), 4), ((2, 5, 1, 2), 8), ((2, 4, 2, 1), 0)),
    "small": (((2, 4, 1, 1), 4), ((2, 5, 1, 2), 8)),
}


def ip_instance(s, k, lam, p, sym) -> ipmodel.IpInstance:
    kind, _, param = (sym or "").partition(":")
    return ipmodel.IpInstance(s=s, k=k, lam=lam, p=p, symmetry=kind or None,
                              m_bar=int(param) if param else None)


def _solution_text(assignment: dict) -> str:
    return "".join(f"{name} {value}\n" for name, value in sorted(assignment.items()))


class Ip:
    name = "ip"

    def __init__(self, size: str = "full", references=None):
        self.instances = IP_INSTANCES[size]
        self.verify_spec = IP_VERIFY_SPEC[size]
        self.exhaustive = IP_EXHAUSTIVE[size] if references is None else references

    def setup(self, workdir: Path, seed: int) -> dict:
        """Solution files of a seeded relabelling of a half construction.

        Rows, level labels and the columns of the leading orthogonal block
        are permuted, so the first two columns stay a full factorial.  The
        second file copies the third column into the last one, which puts a
        pair deviation of N/s - 1 outside the epsilon = 1 bounds.
        """
        s, ell, kappa = self.verify_spec
        a = _construction(("half", s, ell, kappa))
        rng = np.random.default_rng(seed)
        block = (s**ell - 1) // (s - 1)
        cols = np.concatenate([rng.permutation(block), np.arange(block, a.n_factors)])
        levels = np.array([rng.permutation(s) + 1 for _ in range(a.n_factors)])
        cells = a.cells[rng.permutation(a.n_runs)][:, cols]
        cells = np.take_along_axis(levels.T, cells - 1, axis=0)
        good = Array(cells, s)
        bad_cells = cells.copy()
        bad_cells[:, -1] = cells[:, 2]
        bad = Array(bad_cells, s)
        inst = ipmodel.IpInstance(s=s, k=a.n_factors, lam=1, p=1)
        paths = {"s": s, "k": a.n_factors}
        for label, arr in (("good", good), ("bad", bad)):
            path = workdir / f"{label}.sol"
            assignment = ipmodel.canonical_assignment(inst, arr)
            path.write_text(_solution_text(assignment), encoding="ascii")
            paths[label] = path
        return paths

    def operations(self, inputs: dict, passdir: Path, seed: int) -> list[Op]:
        ops = []
        emitted: dict[str, dict] = {}
        for inst_args in self.instances:
            s, k, lam, p, sym = inst_args
            label = f"{s}_{k}_{lam}_p{p}_{(sym or 'none').replace(':', '')}"
            lp, mps = passdir / f"{label}.lp", passdir / f"{label}.mps"
            argv = ["ip", s, k, lam, "--p", p, "-o", lp, "--mps", mps]
            if sym:
                argv += ["--sym", sym]
            ops.append(cli_op(f"ip {label}", argv, functools.partial(
                self._check_emit, emitted=emitted, label=label, lp=lp, mps=mps)))
            ops.append(Op(f"parse/build {label}",
                          functools.partial(self._parse_and_build, inst_args, lp),
                          functools.partial(self._check_models, emitted=emitted, label=label)))
        s, k = inputs["s"], inputs["k"]
        ops.append(cli_op("ip-verify within epsilon",
                          ["ip-verify", s, k, inputs["good"], "--p", 1,
                           "-o", passdir / "verified.txt"],
                          functools.partial(self._check_verify, code=0, bounds="pass")))
        ops.append(cli_op("ip-verify out of bounds", ["ip-verify", s, k, inputs["bad"], "--p", 1],
                          functools.partial(self._check_verify, code=3, bounds="FAIL")))
        for (s, k, lam, p), optimum in self.exhaustive:
            inst = ipmodel.IpInstance(s=s, k=k, lam=lam, p=p)
            ops.append(Op(f"exhaustive {s}_{k}_{lam}_p{p}",
                          lambda inst=inst: ipmodel.exhaustive_optimum(inst),
                          functools.partial(self._check_optimum, optimum=optimum)))
        return ops

    @staticmethod
    def _check_emit(out: CliOutput, emitted: dict, label: str, lp: Path, mps: Path) -> str | None:
        f = out.fields()
        if out.code != 0 or f.get("lp") != str(lp) or f.get("mps") != str(mps):
            return f"exit {out.code}: {out.stdout.strip()}"
        mps_text = mps.read_text(encoding="ascii")
        if not (mps_text.startswith("NAME") and mps_text.rstrip().endswith("ENDATA")):
            return "MPS file is not framed by NAME and ENDATA"
        emitted[label] = f
        return None

    @staticmethod
    def _parse_and_build(inst_args, lp: Path):
        parsed = ipmodel.parse_lp(lp.read_text(encoding="ascii"))
        inst = ip_instance(*inst_args)
        built = ipmodel.build_model(inst)
        if inst.symmetry is not None:
            ipmodel.add_symmetry(built, inst)
        return parsed, built

    @staticmethod
    def _check_models(models, emitted: dict, label: str) -> str | None:
        parsed, built = models
        fields = emitted.get(label)
        if fields is None:
            return "no emitted model to compare"
        if (fields.get("variables"), fields.get("constraints")) != (
            str(len(built.variables)), str(len(built.constraints))):
            return f"printed sizes {fields} differ from build_model"
        if parsed.constraints != built.constraints:
            return "parsed constraints differ from build_model"
        if (parsed.linear_objective, parsed.quadratic_objective) != (
            built.linear_objective, built.quadratic_objective):
            return "parsed objective differs from build_model"
        by_name = operator.attrgetter("name")
        if sorted(parsed.variables, key=by_name) != sorted(built.variables, key=by_name):
            return "parsed variables differ from build_model"
        return None

    @staticmethod
    def _check_optimum(result, optimum: int) -> str | None:
        if result.value != optimum or result.feasible_states == 0:
            return f"optimum {result.value}, expected {optimum}"
        return None

    @staticmethod
    def _check_verify(out: CliOutput, code: int, bounds: str) -> str | None:
        f = out.fields()
        if out.code != code:
            return f"exit code {out.code}, expected {code}"
        wanted = {"identity": "pass", "z_linking": "pass", "deltas": "pass", "bounds": bounds}
        if any(f.get(key) != value for key, value in wanted.items()):
            return f"report {f}"
        return None


class Produce:
    """The search operations, then the IP operations.

    ``references`` may replace the recorded search fronts (key ``search``)
    and the exhaustive optima (key ``exhaustive``).
    """

    name = "produce"

    def __init__(self, size: str = "full", references=None):
        references = references or {}
        self.parts = (Search(size, references.get("search")),
                      Ip(size, references.get("exhaustive")))

    def environment(self) -> dict:
        return {}

    def setup(self, workdir: Path, seed: int) -> dict:
        return {part.name: part.setup(workdir, seed) for part in self.parts}

    def operations(self, inputs: dict, passdir: Path, seed: int) -> list[Op]:
        return [op for part in self.parts
                for op in part.operations(inputs[part.name], passdir, seed)]


WORKLOADS = {"evaluate": Evaluate, "produce": Produce}

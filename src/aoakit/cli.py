"""Command-line interface: eval, construct, search, ip, ip-verify, catalog.

Exit codes: 0 success, 1 usage or invalid parameters, 2 file parse error,
3 verification failure.  All output is deterministic for fixed flags and
seed; progress logging (the only place timestamps may appear) goes to
stderr and only with --verbose.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import constructions, fileio, ipmodel, search
from .arrays import is_oa, tolerance, unbalance
from .discrepancy import cd, md, wd
from .fileio import ParseError, format_exact
from .metrics import d1, d2, d_value, default_contrast

__all__ = ["main"]

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VERIFY = 3


class _UsageError(Exception):
    pass


class _VerifyFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise _UsageError(message)


def _bool(value: bool) -> str:
    return "true" if value else "false"


@contextmanager
def _timed(stage: str):
    """Log the wall time of one stage, e.g. ``eval tables`` (stderr, with --verbose)."""
    start = time.perf_counter()
    yield
    logger.info("%s: %.3f s", stage, time.perf_counter() - start)


def _cmd_eval(args) -> int:
    a, _ = fileio.read_array(args.path)
    ts = args.t or [2]
    ps = args.p or [1, 2]
    for t in ts:
        if not 1 <= t <= a.n_factors:
            raise _UsageError(f"t={t} out of range 1..{a.n_factors}")
    for p in ps:
        if p < 1:
            raise _UsageError(f"p={p} must be >= 1")
    print(f"N = {a.n_runs}")
    print(f"k = {a.n_factors}")
    print(f"s = {a.n_levels}")
    with _timed("eval tables"):
        for t in ts:
            print(f"is_oa_t{t} = {_bool(is_oa(a, t))}")
            print(f"tol_t{t} = {format_exact(tolerance(a, t))}")
            for p in ps:
                print(f"unb_p{p}_t{t} = {format_exact(unbalance(a, t, p))}")
    if args.d_criteria:
        with _timed("eval d-criteria"):
            f = default_contrast(a.n_levels)
            print(f"d1 = {format_exact(d1(a))}")
            print(f"d2 = {format_exact(d2(a))}")
            print(f"d_f = {format_exact(d_value(a, f))}")
    if args.discrepancies:
        with _timed("eval discrepancies"):
            print(f"cd = {format_exact(cd(a))}")
            print(f"wd = {format_exact(wd(a))}")
            print(f"md = {format_exact(md(a))}")
    return EXIT_OK


_VARIANTS = {"half": "half", "odd-ext": "odd_ext", "even-ext": "even_ext"}


def _cmd_construct(args) -> int:
    spec = constructions.ConstructionSpec(
        s=args.s, ell=args.ell, kappa=args.kappa, variant=_VARIANTS[args.variant]
    )
    a = constructions.construct(spec)
    report = constructions.verify_construction(a, spec)
    metadata = {
        "variant": args.variant,
        "s": str(args.s),
        "ell": str(args.ell),
        "kappa": str(args.kappa),
    }
    fileio.write_array(args.out, a, metadata)
    print(f"written = {args.out}")
    print(f"N = {a.n_runs}")
    print(f"k = {a.n_factors}")
    for item, ok in report.items.items():
        print(f"item_{item} = {'pass' if ok else 'FAIL'}")
    print(f"tol_t2 = {format_exact(report.tol_measured)} (expected {report.tol_expected})")
    for p in sorted(report.unb_expected):
        print(
            f"unb_p{p}_t2 = {format_exact(report.unb_measured[p])}"
            f" (expected {report.unb_expected[p]})"
        )
    if not report.ok:
        raise _VerifyFailure("construction guarantees failed")
    return EXIT_OK


def _cmd_search(args) -> int:
    cfg = search.SearchConfig(
        p=args.p,
        seed=args.seed,
        encoding=args.encoding,
        restarts=args.restarts,
        max_passes=args.max_passes,
        time_budget=args.time_budget,
        bicyclic_r=args.bicyclic_r,
    )
    front = search.local_pareto_search(args.n, args.k, args.s, cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    members = sorted(front.members, key=lambda m: (m.objective.unbalance, m.objective.tolerance))
    rows = []
    for idx, member in enumerate(members, start=1):
        name = f"member_{idx:02d}.txt"
        fileio.write_array(
            outdir / name,
            member.array,
            {
                "unbalance": format_exact(member.objective.unbalance),
                "tolerance": format_exact(member.objective.tolerance),
                "seed": str(args.seed),
            },
        )
        rows.append((member.objective.unbalance, member.objective.tolerance, name))
        print(f"front: unb={member.objective.unbalance} tol={member.objective.tolerance} file={name}")
    csv_lines = ["unbalance,tolerance,file"] + [f"{u},{t},{f}" for u, t, f in rows]
    (outdir / "front.csv").write_text("\n".join(csv_lines) + "\n", encoding="ascii", newline="")
    summary = {
        "params": {"N": args.n, "k": args.k, "s": args.s},
        "config": {
            "p": args.p,
            "encoding": args.encoding,
            "seed": args.seed,
            "restarts": args.restarts,
        },
        "complete": front.complete,
        "front": [{"unbalance": u, "tolerance": t, "file": f} for u, t, f in rows],
    }
    (outdir / "front.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="ascii", newline=""
    )
    print(f"complete = {_bool(front.complete)}")
    return EXIT_OK


def _parse_symmetry(text: str | None) -> tuple[str | None, int | None]:
    if text is None:
        return None, None
    kind, _, param = text.partition(":")
    if kind not in ("semicyclic", "klein", "both"):
        raise _UsageError(f"unknown symmetry {kind!r}")
    if kind in ("semicyclic", "both"):
        if not param:
            raise _UsageError(f"symmetry {kind!r} needs a level, e.g. {kind}:2")
        return kind, int(param)
    if param:
        raise _UsageError("klein symmetry takes no parameter")
    return kind, None


def _instance_from_args(args) -> ipmodel.IpInstance:
    sym, m_bar = _parse_symmetry(getattr(args, "sym", None))
    return ipmodel.IpInstance(
        s=args.s,
        k=args.k,
        lam=args.lam,
        p=args.p,
        epsilon=args.eps,
        symmetry=sym,
        m_bar=m_bar,
    )


def _cmd_ip(args) -> int:
    inst = _instance_from_args(args)
    with _timed("ip build"):
        model = ipmodel.build_model(inst)
        if inst.symmetry is not None:
            ipmodel.add_symmetry(model, inst)
    with _timed("ip lp"):
        Path(args.out).write_text(ipmodel.emit_lp(model), encoding="ascii", newline="")
    print(f"lp = {args.out}")
    if args.mps:
        with _timed("ip mps"):
            Path(args.mps).write_text(ipmodel.emit_mps(model), encoding="ascii", newline="")
        print(f"mps = {args.mps}")
    print(f"variables = {len(model.names)}")
    print(f"constraints = {len(model.row_names)}")
    return EXIT_OK


def _cmd_ip_verify(args) -> int:
    inst = _instance_from_args(args)
    ipmodel._model_size(inst)  # an oversized instance is refused before the file is read
    try:
        text = Path(args.solution).read_text(encoding="ascii")
        assignment = ipmodel.parse_solution(text, args.solution)
        report = ipmodel.verify_solution(inst, assignment)
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1, args.solution) from exc
    if args.out:
        fileio.write_array(args.out, report.array, {"objective": format_exact(report.objective)})
        print(f"written = {args.out}")
    print(f"objective = {format_exact(report.objective)}")
    print(f"unbalance = {format_exact(report.unbalance)}")
    print(f"tolerance = {format_exact(report.tolerance)}")
    print(f"delta1_term = {format_exact(report.delta1_term)}")
    print(f"identity = {'pass' if report.identity_ok else 'FAIL'}")
    print(f"bounds = {'pass' if report.bounds_ok else 'FAIL'}")
    print(f"z_linking = {'pass' if report.z_ok else 'FAIL'}")
    print(f"deltas = {'pass' if report.deltas_match else 'FAIL'}")
    if not report.ok:
        raise _VerifyFailure("solution verification failed")
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if args.action == "add":
        if not args.array:
            raise _UsageError("catalog add needs an array file")
        a, _ = fileio.read_array(args.array)
        name = args.name or Path(args.array).stem
        entry = fileio.catalog_add(args.dir, a, name, provenance=args.provenance)
        print(f"added = {entry.name}")
        return EXIT_OK
    if args.action == "list":
        for entry in fileio.catalog_list(args.dir, s=args.s, k=args.k, n=args.n):
            print(
                f"{entry.name}: N={entry.n_runs} k={entry.n_factors} s={entry.n_levels}"
                f" provenance={entry.provenance}"
                f" tol2={entry.metrics.get('tol2')} unb2={entry.metrics.get('unb2')}"
            )
        return EXIT_OK
    report = fileio.catalog_recheck(args.dir)
    print(f"checked = {report.checked}")
    for name, key, stored, fresh in report.mismatches:
        print(f"mismatch: {name} {key} stored={stored} recomputed={fresh}")
    for name, error in report.corrupt:
        print(f"corrupt: {name} ({error})")
    if not report.ok:
        raise _VerifyFailure("catalog recheck failed")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="aoakit", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="metrics of an array file")
    p.add_argument("path")
    p.add_argument("--t", type=int, action="append", help="strength(s), default 2")
    p.add_argument("--p", type=int, action="append", help="exponent(s), default 1 and 2")
    p.add_argument("--d-criteria", action="store_true", help="also report D1, D2, D_f")
    p.add_argument("--discrepancies", action="store_true", help="also report CD, WD, MD")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("construct", help="build and verify a two-block array")
    p.add_argument("variant", choices=sorted(_VARIANTS))
    p.add_argument("s", type=int)
    p.add_argument("ell", type=int)
    p.add_argument("kappa", type=int)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("search", help="local Pareto search for (unbalance, tolerance)")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("s", type=int)
    p.add_argument("--p", type=int, default=2, choices=(1, 2))
    p.add_argument("--encoding", default="plain", choices=("plain", "bicyclic", "quasicyclic"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--max-passes", type=int, default=None)
    p.add_argument("--time-budget", type=float, default=None, help="seconds per restart")
    p.add_argument("--bicyclic-r", type=int, default=None)
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("ip", help="emit the integer program as LP (and MPS)")
    p.add_argument("s", type=int)
    p.add_argument("k", type=int)
    p.add_argument("lam", type=int, nargs="?", default=1)
    p.add_argument("--p", type=int, default=1, choices=(1, 2))
    p.add_argument("--eps", type=int, default=1)
    p.add_argument("--sym", default=None, help="semicyclic:M, klein, or both:M")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--mps", default=None)
    p.set_defaults(func=_cmd_ip)

    p = sub.add_parser("ip-verify", help="check a solver solution and extract the array")
    p.add_argument("s", type=int)
    p.add_argument("k", type=int)
    p.add_argument("solution", help="'name value' solution file")
    p.add_argument("--lam", type=int, default=1)
    p.add_argument("--p", type=int, default=1, choices=(1, 2))
    p.add_argument("--eps", type=int, default=1)
    p.add_argument("--sym", default=None)
    p.add_argument("-o", "--out", default=None, help="array file to write")
    p.set_defaults(func=_cmd_ip_verify)

    p = sub.add_parser("catalog", help="maintain a directory of catalogued arrays")
    p.add_argument("action", choices=("add", "list", "recheck"))
    p.add_argument("dir")
    p.add_argument("array", nargs="?", help="array file (for add)")
    p.add_argument("--name", default=None)
    p.add_argument("--provenance", default="imported",
                   choices=("construction", "search", "ip", "imported"))
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verbose:
            logging.basicConfig(stream=sys.stderr, level=logging.INFO)
        return args.func(args)
    except (_UsageError, ValueError) as exc:
        error, code = exc, EXIT_USAGE
    except (ParseError, OSError) as exc:
        error, code = exc, EXIT_PARSE
    except _VerifyFailure as exc:
        error, code = exc, EXIT_VERIFY
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

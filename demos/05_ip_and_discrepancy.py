"""Exact optimization via integer programming, and uniformity measures.

The unbalance minimization problem is a small integer program: binaries pick
each cell's level, products linearize pair counts, and bounded deviation
variables carry the objective.  The workbench emits solver-ready LP/MPS
files and verifies solutions independently.  Discrepancies give a second,
geometry-flavoured view of the same arrays.
"""

import tempfile
from pathlib import Path

from aoakit.arrays import cyclic_oa
from aoakit.constructions import ConstructionSpec, construct
from aoakit.discrepancy import (
    DdParams,
    cd,
    check_discrepancy_bounds,
    dd,
    dd_lower_bound,
    md,
    points_of,
    wd,
    wd_coupling,
)
from aoakit.ipmodel import (
    IpInstance,
    add_symmetry,
    build_model,
    canonical_assignment,
    emit_lp,
    emit_mps,
    evaluate_model,
    exhaustive_optimum,
    parse_lp,
    verify_solution,
)

# --- Build and emit a model -------------------------------------------------
inst = IpInstance(s=2, k=4, lam=1, p=1, epsilon=1)
model = build_model(inst)
print(f"model for 4 runs x 4 factors x 2 levels: "
      f"{len(model.variables)} variables, {len(model.constraints)} constraints")

with tempfile.TemporaryDirectory(prefix="aoakit-demo-") as tmp:
    workdir = Path(tmp)
    lp_path = workdir / "aoa_2_4.lp"
    lp_path.write_text(emit_lp(model), encoding="ascii")
    (workdir / "aoa_2_4.mps").write_text(emit_mps(model), encoding="ascii")
    print("wrote", lp_path)
    print("LP round-trips byte-identically:",
          emit_lp(parse_lp(lp_path.read_text())) == emit_lp(model))

# Symmetry ties shrink the search space for a solver.
sym_inst = IpInstance(s=3, k=5, p=1, symmetry="semicyclic", m_bar=2)
sym_model = build_model(sym_inst)
before = len(sym_model.constraints)
add_symmetry(sym_model, sym_inst)
print(f"\nsemicyclic ties on the (3,5) model: +{len(sym_model.constraints) - before} equalities")

# --- Solve tiny instances exactly, in-process -------------------------------
result = exhaustive_optimum(inst)
print(f"\nexhaustive optimum over the feasible set: {result.value} "
      f"({result.feasible_states} of {result.states} states feasible)")

# --- Verify a solution the way a solver's output would be checked -----------
oa_inst = IpInstance(s=2, k=3, lam=1, p=1)
assignment = canonical_assignment(oa_inst, cyclic_oa(2))
check = evaluate_model(build_model(oa_inst), assignment)
print("\northogonal-array assignment: violations =", len(check.violations),
      "objective =", check.objective)
report = verify_solution(oa_inst, assignment)
print("reconstructed array objective:", report.objective,
      "identity check:", "pass" if report.identity_ok else "FAIL")

# --- Discrepancies -----------------------------------------------------------
# Runs map to cube points; three kernels give three classical measures.
a = construct(ConstructionSpec(s=3, ell=2, kappa=1, variant="half"))
pts = points_of(a)
print(f"\n{a.n_runs}-run construction as {pts.n_points} points in"
      f" [0,1]^{pts.dimension}")
print(f"  CD^2 = {cd(a)**2:.4f}   WD^2 = {wd(a)**2:.4f}   MD^2 = {md(a)**2:.4f}")

# The discrete discrepancy lives on level space and has two equal forms:
# one from run-pair coincidences, one from the unbalance spectrum.
params = wd_coupling(3)
res = dd(a, params)
print(f"  DD^2 (wraparound coupling) = {float(res.sq_hamming):.6f},"
      f" dual forms agree: {res.forms_agree}")
bound = dd_lower_bound(a.n_runs, a.n_factors, a.n_levels, params)
print(f"  DD^2 lower bound for any 9x5 array: {float(bound):.6f}")

# Kernel-vs-discrete inequalities, with equality in the stated cases.
print("\nclassical-vs-discrete bound checks:")
for name, chk in check_discrepancy_bounds(a).items():
    state = "equality" if chk.is_equality else "strict"
    print(f"  {name:10s} lhs={chk.lhs_sq:.6f} <= rhs={chk.rhs_sq:.6f}"
          f" ({state}, expected equality: {chk.equality_expected})")

# Rational parameters stay exact end to end.
exact = dd(a, DdParams(2, 1))
print("\nexact DD^2 with integer kernel values:", exact.sq_hamming)

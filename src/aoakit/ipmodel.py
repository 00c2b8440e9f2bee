"""Integer-program builder for the minimum-unbalance problem, with LP/MPS output.

The model searches for an N x k array (N = lambda * s^2) whose first two
columns are pinned to lambda stacked copies of the lexicographic full
factorial; the free columns are 3..k.  Binary variables x_i_j_m select the
level of each free cell and z_i_c_l the level pair of each free column pair
(l = s*(m1 - 1) + m2).  Integer deviation variables count how far each pair
frequency is from lambda:

- d0_c_l: free-free pair (c, l) deviations,
- d1_m:   level balance of the last column (the only relaxed single column),
- d2_m_mp_j: count of level m in column j against rows whose pinned column 1
  equals mp (the rows are read from ``canonical_head``),
- d3_m_mp_j: same against rows whose pinned column 2 equals mp.

The objective minimizes sum |delta|^p: for p = 1 every delta splits as
delta = delta_plus - delta_minus (names d0p_/d0m_ etc.) with a linear
objective, for p = 2 the objective is the diagonal quadratic sum delta^2.
For any feasible assignment the objective equals Unb_{p,2} of the
reconstructed array plus the last-column strength-1 term sum_m |d1_m|^p.

``exhaustive_optimum`` enumerates the feasible set in ``itertools.product``
order: balanced middle columns 3..k-1, then the last column.  The pair
counts without the last column are taken once per tuple of middle columns
(a tuple outside the epsilon bounds is skipped whole); all s^N last columns
are then scored in blocks of one integer count matrix, and the witnesses are
the first optimal states in that order.

Optional symmetry constraints tie variables so that ((m_bar..s)|id) or the
Klein column swap (id|(1,2)(3,4)) is an automorphism of every feasible array;
the forced row maps act on the pinned two-column prefix within each copy.

Emission is a deterministic CPLEX-LP subset (Minimize / Subject To / Bounds /
Generals / Binaries / End, ASCII, LF, lines well under 255 characters) that
round-trips byte-identically through ``parse_lp``; MPS is a secondary format.
A solver is never embedded: ``solve_with_command`` shells out to a
user-supplied command and reads a plain ``name value`` solution file.
"""

from __future__ import annotations

import itertools
import math
import re
import shlex
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .arrays import (
    Array,
    _count_table,
    _last_column_counts,
    _pair_rows,
    _RunningMinimum,
    tolerance,
    unbalance,
)
from .symmetry import cycle_permutation

__all__ = [
    "IpInstance",
    "Variable",
    "Constraint",
    "IpModel",
    "canonical_head",
    "arrange_canonical",
    "build_model",
    "add_symmetry",
    "canonical_assignment",
    "evaluate_model",
    "ModelCheck",
    "VerificationReport",
    "verify_solution",
    "ExhaustiveResult",
    "exhaustive_optimum",
    "emit_lp",
    "parse_lp",
    "emit_mps",
    "parse_solution",
    "solve_with_command",
]


@dataclass(frozen=True)
class IpInstance:
    """Problem data: levels s, columns k, index lam, exponent p, cap epsilon."""

    s: int
    k: int
    lam: int = 1
    p: int = 1
    epsilon: int = 1
    symmetry: str | None = None
    m_bar: int | None = None

    def __post_init__(self):
        if self.s < 2:
            raise ValueError("s must be >= 2")
        if self.k < 3:
            raise ValueError("k must be >= 3 (two pinned columns plus one free)")
        if self.lam < 1:
            raise ValueError("lam must be >= 1")
        if self.p not in (1, 2):
            raise ValueError("p must be 1 or 2")
        if self.epsilon < 1:
            raise ValueError("epsilon must be >= 1")
        if self.symmetry not in (None, "semicyclic", "klein", "both"):
            raise ValueError(f"unknown symmetry {self.symmetry!r}")
        if self.symmetry in ("semicyclic", "both"):
            if self.m_bar is None or not 1 <= self.m_bar <= self.s:
                raise ValueError("semicyclic symmetry needs m_bar in 1..s")
        if self.symmetry in ("klein", "both") and self.k < 4:
            raise ValueError("klein symmetry requires k >= 4")

    @property
    def n_runs(self) -> int:
        return self.lam * self.s**2

    @property
    def free_columns(self) -> range:
        return range(3, self.k + 1)

    @property
    def column_pairs(self) -> list[tuple[int, int]]:
        return list(itertools.combinations(self.free_columns, 2))

    @property
    def delta_lower(self) -> int:
        return max(-self.lam, -self.epsilon)


def canonical_head(s: int, lam: int) -> np.ndarray:
    """First two pinned columns: lam stacked copies of the lexicographic factorial."""
    block = np.array(
        [(u, v) for u in range(1, s + 1) for v in range(1, s + 1)], dtype=np.int64
    )
    return np.vstack([block] * lam)


def arrange_canonical(a: Array) -> Array:
    """Permute rows so the first two columns equal ``canonical_head``.

    Requires the (1,2) column pair to be exactly balanced; metrics are
    invariant under the row permutation.
    """
    s, lam = a.n_levels, a.n_runs // a.n_levels**2
    if a.n_runs != lam * s * s:
        raise ValueError("N must equal lam * s^2")
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, (u, v) in enumerate(a.cells[:, :2]):
        buckets.setdefault((int(u), int(v)), []).append(i)
    if any(len(buckets.get((u, v), ())) != lam for u in range(1, s + 1) for v in range(1, s + 1)):
        raise ValueError("first two columns are not a lam-fold full factorial")
    order = [
        buckets[(u, v)][copy]
        for copy in range(lam)
        for u in range(1, s + 1)
        for v in range(1, s + 1)
    ]
    return Array(a.cells[order], s)


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str  # 'binary' or 'general'
    lower: int = 0
    upper: int = 1


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[int, str], ...]
    relation: str
    rhs: int


_NAME = re.compile(r"[A-Za-z]\w*")
"""The shape of a variable name (matched whole) that LP and MPS text can carry."""


@dataclass
class IpModel:
    """Minimization model: linear and diagonal-quadratic objective parts."""

    linear_objective: list[tuple[int, str]] = field(default_factory=list)
    quadratic_objective: list[tuple[int, str]] = field(default_factory=list)
    variables: list[Variable] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)

    def validate(self) -> None:
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        declared = set(names)
        if not all(map(_NAME.fullmatch, declared)):
            raise ValueError("variable names must be word-shaped")
        used = {n for _, n in self.linear_objective}
        used |= {n for _, n in self.quadratic_objective}
        for c in self.constraints:
            used |= {n for _, n in c.terms}
        missing = used - declared
        if missing:
            raise ValueError(f"undeclared variables referenced: {sorted(missing)[:5]}")


def _x(i, j, m) -> str:
    return f"x_{i}_{j}_{m}"


def _z(i, c, l) -> str:
    return f"z_{i}_{c}_{l}"


def _deviations(inst: IpInstance) -> list[Variable]:
    """The deviation variables d0, d1, d2, d3 with their bounds, in model order."""
    s, lam, eps, lo = inst.s, inst.lam, inst.epsilon, inst.delta_lower
    deltas: list[Variable] = []
    for c in range(1, len(inst.column_pairs) + 1):
        for l in range(1, s * s + 1):
            deltas.append(Variable(f"d0_{c}_{l}", "general", lo, eps))
    for m in range(1, s + 1):
        deltas.append(Variable(f"d1_{m}", "general", -lam * s, lam * s * s - lam * s))
    for fam in ("d2", "d3"):
        for m in range(1, s + 1):
            for mp in range(1, s + 1):
                for j in inst.free_columns:
                    deltas.append(Variable(f"{fam}_{m}_{mp}_{j}", "general", lo, eps))
    return deltas


def _parts(name: str) -> tuple[str, str, str]:
    """Positive part, negative part and abs constraint of deviation ``name`` (p = 1)."""
    fam, rest = name.split("_", 1)
    return f"{fam}p_{rest}", f"{fam}m_{rest}", f"abs{fam[1:]}_{rest}"


def build_model(inst: IpInstance) -> IpModel:
    """Assemble variables, balance/linking constraints, and the objective."""
    s, k, lam = inst.s, inst.k, inst.lam
    n = inst.n_runs
    pairs = inst.column_pairs
    model = IpModel()

    for i in range(1, n + 1):
        for j in inst.free_columns:
            for m in range(1, s + 1):
                model.variables.append(Variable(_x(i, j, m), "binary"))
    for i in range(1, n + 1):
        for c in range(1, len(pairs) + 1):
            for l in range(1, s * s + 1):
                model.variables.append(Variable(_z(i, c, l), "binary"))

    deltas = _deviations(inst)
    model.variables.extend(deltas)

    splits: list[tuple[Variable, Variable, Variable]] = []
    if inst.p == 1:
        for d in deltas:
            plus_name, minus_name, _ = _parts(d.name)
            plus = Variable(plus_name, "general", 0, max(d.upper, 0))
            minus = Variable(minus_name, "general", 0, max(-d.lower, 0))
            model.variables.extend([plus, minus])
            splits.append((d, plus, minus))
        model.linear_objective = [(1, v.name) for _, p_, m_ in splits for v in (p_, m_)]
    else:
        model.quadratic_objective = [(1, d.name) for d in deltas]

    add = model.constraints.append
    for j in list(inst.free_columns)[:-1]:
        for m in range(1, s + 1):
            add(
                Constraint(
                    f"aoa1_{j}_{m}",
                    tuple((1, _x(i, j, m)) for i in range(1, n + 1)),
                    "=",
                    lam * s,
                )
            )
    for m in range(1, s + 1):
        add(
            Constraint(
                f"aoa1k_{m}",
                tuple((1, _x(i, k, m)) for i in range(1, n + 1)) + ((-1, f"d1_{m}"),),
                "=",
                lam * s,
            )
        )
    for i in range(1, n + 1):
        for j in inst.free_columns:
            add(
                Constraint(
                    f"aoa2_{i}_{j}",
                    tuple((1, _x(i, j, m)) for m in range(1, s + 1)),
                    "=",
                    1,
                )
            )
    head = canonical_head(s, lam)
    for c in (1, 2):  # pinned column c against free column j: aoa31 with d2, aoa32 with d3
        for j in inst.free_columns:
            for m in range(1, s + 1):
                for mp in range(1, s + 1):
                    rows = (np.flatnonzero(head[:, c - 1] == mp) + 1).tolist()
                    add(
                        Constraint(
                            f"aoa3{c}_{j}_{m}_{mp}",
                            tuple((1, _x(i, j, m)) for i in rows)
                            + ((-1, f"d{c + 1}_{m}_{mp}_{j}"),),
                            "=",
                            lam,
                        )
                    )
    for i in range(1, n + 1):
        for c, (j1, j2) in enumerate(pairs, start=1):
            add(
                Constraint(
                    f"aoaz1_{i}_{c}",
                    tuple((l, _z(i, c, l)) for l in range(1, s * s + 1))
                    + tuple((-s * m, _x(i, j1, m)) for m in range(1, s + 1))
                    + tuple((-m, _x(i, j2, m)) for m in range(1, s + 1)),
                    "=",
                    -s,
                )
            )
    for i in range(1, n + 1):
        for c in range(1, len(pairs) + 1):
            add(
                Constraint(
                    f"aoaz2_{i}_{c}",
                    tuple((1, _z(i, c, l)) for l in range(1, s * s + 1)),
                    "=",
                    1,
                )
            )
    for c in range(1, len(pairs) + 1):
        for l in range(1, s * s + 1):
            add(
                Constraint(
                    f"aoaz3_{c}_{l}",
                    tuple((1, _z(i, c, l)) for i in range(1, n + 1))
                    + ((-1, f"d0_{c}_{l}"),),
                    "=",
                    lam,
                )
            )
    for d, plus, minus in splits:
        add(
            Constraint(
                _parts(d.name)[2],
                ((1, d.name), (-1, plus.name), (1, minus.name)),
                "=",
                0,
            )
        )
    model.validate()
    return model


def _prefix_row_map(inst: IpInstance, image) -> list[int]:
    """sigma[i-1] = image row of i under (u,v) -> image(u, v), in i's copy of the head."""
    per_copy = inst.s**2
    head = canonical_head(inst.s, inst.lam).tolist()
    row = {(i // per_copy, u, v): i + 1 for i, (u, v) in enumerate(head)}
    return [row[(i // per_copy, *image(u, v))] for i, (u, v) in enumerate(head)]


def add_symmetry(model: IpModel, inst: IpInstance) -> IpModel:
    """Append the variable-tying equalities for the declared automorphism."""
    if inst.symmetry is None:
        raise ValueError("instance declares no symmetry")
    s = inst.s
    add = model.constraints.append
    if inst.symmetry in ("semicyclic", "both") and inst.m_bar < s:
        m_bar = inst.m_bar
        g = cycle_permutation(s, tuple(range(m_bar, s + 1)))
        sigma = _prefix_row_map(inst, lambda u, v: (g[u - 1], g[v - 1]))
        for i in range(1, inst.n_runs + 1):
            for j in inst.free_columns:
                for m in range(1, s + 1):
                    fam = "sim1" if m < m_bar else ("sim2" if m < s else "sim3")
                    a, b = _x(i, j, m), _x(sigma[i - 1], j, g[m - 1])
                    if a == b:
                        continue
                    add(Constraint(f"{fam}_{i}_{j}_{m}", ((1, a), (-1, b)), "=", 0))
    if inst.symmetry in ("klein", "both"):
        sigma0 = _prefix_row_map(inst, lambda u, v: (v, u))  # the prefix swap
        for i in range(1, inst.n_runs + 1):
            for m in range(1, s + 1):
                for j, swapped in ((3, 4), (4, 3)):
                    add(
                        Constraint(
                            f"sim0{j}_{i}_{m}",
                            ((1, _x(i, j, m)), (-1, _x(sigma0[i - 1], swapped, m))),
                            "=",
                            0,
                        )
                    )
        for i in range(1, inst.n_runs + 1):
            for j in range(5, inst.k + 1):
                for m in range(1, s + 1):
                    a, b = _x(i, j, m), _x(sigma0[i - 1], j, m)
                    if a == b:
                        continue
                    add(Constraint(f"sim034_{i}_{j}_{m}", ((1, a), (-1, b)), "=", 0))
    model.validate()
    return model


def _delta_values(inst: IpInstance, a: Array) -> dict[str, int]:
    """All deviation values of a canonical-head array."""
    s, k, lam = inst.s, inst.k, inst.lam
    table = _count_table(a, 2).tolist()
    rows = _pair_rows(k).tolist()
    out: dict[str, int] = {}
    for c, (j1, j2) in enumerate(inst.column_pairs, start=1):
        for l, count in enumerate(table[rows[j1 - 1][j2 - 1]], start=1):
            out[f"d0_{c}_{l}"] = count - lam
    for m in range(1, s + 1):
        out[f"d1_{m}"] = int(np.sum(a.cells[:, k - 1] == m)) - lam * s
    for m in range(1, s + 1):
        for mp in range(1, s + 1):
            code = (mp - 1) * s + m - 1  # pinned column level mp, free column level m
            for j in inst.free_columns:
                out[f"d2_{m}_{mp}_{j}"] = table[rows[0][j - 1]][code] - lam
                out[f"d3_{m}_{mp}_{j}"] = table[rows[1][j - 1]][code] - lam
    return out


def canonical_assignment(inst: IpInstance, a: Array) -> dict[str, int]:
    """Variable values encoding the given array (rows arranged canonically)."""
    if a.n_levels != inst.s or a.n_factors != inst.k or a.n_runs != inst.n_runs:
        raise ValueError("array shape does not match the instance")
    a = arrange_canonical(a)
    s = inst.s
    out: dict[str, int] = {}
    for i in range(1, inst.n_runs + 1):
        for j in inst.free_columns:
            for m in range(1, s + 1):
                out[_x(i, j, m)] = int(a.cells[i - 1, j - 1] == m)
    for i in range(1, inst.n_runs + 1):
        for c, (j1, j2) in enumerate(inst.column_pairs, start=1):
            lval = s * (int(a.cells[i - 1, j1 - 1]) - 1) + int(a.cells[i - 1, j2 - 1])
            for l in range(1, s * s + 1):
                out[_z(i, c, l)] = int(l == lval)
    deltas = _delta_values(inst, a)
    out.update(deltas)
    if inst.p == 1:
        for name, value in deltas.items():
            plus, minus, _ = _parts(name)
            out[plus] = max(value, 0)
            out[minus] = max(-value, 0)
    return out


@dataclass
class ModelCheck:
    """Constraint/bound audit of an assignment against a model."""

    objective: float
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def evaluate_model(model: IpModel, assignment: dict[str, float]) -> ModelCheck:
    """Objective value and every violated bound or constraint (1e-6 slack)."""
    val = lambda name: float(assignment.get(name, 0.0))
    violations = []
    for v in model.variables:
        x = val(v.name)
        if x < v.lower - 1e-6 or x > v.upper + 1e-6:
            violations.append(f"bound {v.name}={x} outside [{v.lower},{v.upper}]")
        if v.kind == "binary" and abs(x - round(x)) > 1e-6:
            violations.append(f"binary {v.name}={x} not integral")
    for c in model.constraints:
        lhs = sum(coef * val(name) for coef, name in c.terms)
        bad = (
            abs(lhs - c.rhs) > 1e-6
            if c.relation == "="
            else lhs > c.rhs + 1e-6
            if c.relation == "<="
            else lhs < c.rhs - 1e-6
        )
        if bad:
            violations.append(f"constraint {c.name}: lhs={lhs} {c.relation} {c.rhs}")
    objective = sum(coef * val(name) for coef, name in model.linear_objective)
    objective += sum(coef * val(name) ** 2 for coef, name in model.quadratic_objective)
    return ModelCheck(objective=objective, violations=violations)


@dataclass
class VerificationReport:
    """Reconstruction of an array from a solution plus metric cross-checks."""

    array: Array
    unbalance: object
    tolerance: object
    objective: object
    delta1_term: object
    identity_ok: bool
    bounds_ok: bool
    z_ok: bool
    deltas_match: bool

    @property
    def ok(self) -> bool:
        return self.identity_ok and self.bounds_ok and self.z_ok and self.deltas_match


def verify_solution(inst: IpInstance, assignment: dict[str, float]) -> VerificationReport:
    """Rebuild the array from x values and audit the solution's bookkeeping.

    Only the x variables are mandatory; z and delta values, when present, are
    compared against the reconstruction.
    """
    s, n = inst.s, inst.n_runs
    head = canonical_head(s, inst.lam)
    cols = [head[:, 0], head[:, 1]]
    for j in inst.free_columns:
        col = np.zeros(n, dtype=np.int64)
        for i in range(1, n + 1):
            weights = [assignment.get(_x(i, j, m)) for m in range(1, s + 1)]
            if any(w is None for w in weights):
                raise ValueError(f"assignment is missing x values for row {i}, column {j}")
            ones = [m for m, w in zip(range(1, s + 1), weights) if round(w) == 1]
            if len(ones) != 1:
                raise ValueError(f"cell ({i},{j}) does not select exactly one level")
            col[i - 1] = ones[0]
        cols.append(col)
    a = Array(np.column_stack(cols), s)

    expected = canonical_assignment(inst, a)
    bounds = {d.name: d for d in _deviations(inst)}
    deltas = {name: v for name, v in expected.items() if name in bounds}
    deltas_match = all(
        round(float(assignment[name])) == value
        for name, value in deltas.items()
        if name in assignment
    )
    bounds_ok = all(bounds[name].lower <= v <= bounds[name].upper for name, v in deltas.items())
    # a list, not a generator: every given z is rounded, so a NaN anywhere raises
    z_ok = all([
        (round(float(assignment[name])) == 1) == (value == 1)
        for name, value in expected.items()
        if name.startswith("z_") and name in assignment
    ])

    p = inst.p
    objective = sum(abs(v) ** p for v in deltas.values())
    delta1_term = sum(abs(v) ** p for n_, v in deltas.items() if n_.startswith("d1"))
    unb = unbalance(a, 2, p)
    identity_ok = objective - delta1_term == unb
    return VerificationReport(
        array=a,
        unbalance=unb,
        tolerance=tolerance(a, 2),
        objective=objective,
        delta1_term=delta1_term,
        identity_ok=identity_ok,
        bounds_ok=bounds_ok,
        z_ok=z_ok,
        deltas_match=deltas_match,
    )


def _balanced_columns(n: int, s: int, lam: int):
    """All level vectors of length n with each level appearing lam*s times."""
    counts = {m: lam * s for m in range(1, s + 1)}

    def rec(prefix: list[int]):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for m in range(1, s + 1):
            if counts[m]:
                counts[m] -= 1
                prefix.append(m)
                yield from rec(prefix)
                prefix.pop()
                counts[m] += 1

    yield from rec([])


def _balanced_column_count(n: int, s: int, lam: int) -> int:
    """Number of vectors ``_balanced_columns`` yields: the multinomial n!/((lam*s)!)^s."""
    return math.factorial(n) // math.factorial(lam * s) ** s


@dataclass
class ExhaustiveResult:
    value: int
    witnesses: list[Array]
    states: int
    feasible_states: int


def exhaustive_optimum(inst: IpInstance, max_states: int = 10**7) -> ExhaustiveResult:
    """Optimal objective by direct enumeration of the model's feasible set.

    Free non-last columns satisfy exact level balance; the last column is
    only delta1-relaxed; candidates violating the epsilon bounds on the pair
    deviations are discarded.  Intended for tiny instances.

    The witnesses are the first eight optimal states in enumeration order
    (see the module docstring).
    """
    if inst.symmetry is not None:
        raise ValueError("exhaustive enumeration does not support symmetry constraints")
    s, k, lam, n, p = inst.s, inst.k, inst.lam, inst.n_runs, inst.p
    states = _balanced_column_count(n, s, lam) ** (k - 3) * s**n
    if states > max_states:
        raise ValueError(f"feasible set has {states} states (> {max_states})")
    balanced = list(_balanced_columns(n, s, lam)) if k > 3 else []
    head = canonical_head(s, lam)
    # a pair count c is within the epsilon bounds iff low <= c <= high
    low, high = lam + inst.delta_lower, lam + inst.epsilon

    best = _RunningMinimum(8)
    feasible = 0
    for mids in itertools.product(balanced, repeat=k - 3):
        cells = np.column_stack([head] + [np.array(col, dtype=np.int64) for col in mids])
        # every pair without the last column except the pinned one: d0, d2, d3
        table = _count_table(Array(cells, s), 2)[1:]
        if table.size and (table.min() < low or table.max() > high):
            continue
        fixed_objective = int((np.abs(table - lam) ** p).sum())
        for last, counts in _last_column_counts(cells - 1, s, 0, s**n):
            flat = counts.reshape(len(last), -1)
            ok = (flat.min(axis=1) >= low) & (flat.max(axis=1) <= high)
            # level counts of the last column, summed over pinned column 1
            d1 = counts[:, 0].reshape(-1, s, s).sum(axis=1) - lam * s
            objective = (np.abs(flat - lam) ** p).sum(axis=1) + (np.abs(d1) ** p).sum(axis=1)
            keep = np.flatnonzero(ok)
            feasible += len(keep)
            best.update(
                objective[keep] + fixed_objective,
                lambda i: Array(np.column_stack([cells, last[keep[i]] + 1]), s),
            )
    if best.value is None:
        raise ValueError("no feasible assignment under the epsilon cap")
    return ExhaustiveResult(
        value=best.value, witnesses=best.witnesses, states=states, feasible_states=feasible
    )


# ---------------------------------------------------------------------------
# LP / MPS emission and parsing
# ---------------------------------------------------------------------------

_LP_WIDTH = 78


def _term_tokens(terms, first_bare: bool = True) -> list[str]:
    tokens = []
    for idx, (coef, name) in enumerate(terms):
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        body = name if mag == 1 else f"{mag} {name}"
        if idx == 0 and first_bare:
            tokens.append(body if coef > 0 else f"- {body}")
        else:
            tokens.append(f"{sign} {body}")
    return tokens


def _wrap(head: str, tokens: list[str], out: list[str], width: int = _LP_WIDTH) -> None:
    line = head
    for tok in tokens:
        if line and len(line) + 1 + len(tok) > width:
            out.append(line)
            line = "   " + tok
        else:
            line = tok if not line else f"{line} {tok}"
    out.append(line)


def emit_lp(model: IpModel) -> str:
    """Deterministic CPLEX-LP text for the model."""
    model.validate()
    out: list[str] = ["\\ almost-orthogonal-array minimum-unbalance model", "Minimize"]
    tokens = _term_tokens(model.linear_objective)
    if model.quadratic_objective:
        qt = _term_tokens(
            [(2 * c, f"{n} ^2") for c, n in model.quadratic_objective],
            first_bare=not tokens,
        )
        qt[0] = f"[ {qt[0]}" if not tokens else f"+ [ {qt[0].lstrip('+ ')}"
        qt[-1] += " ] / 2"
        tokens += qt
    _wrap(" obj:", tokens, out)
    out.append("Subject To")
    for c in model.constraints:
        tokens = _term_tokens(c.terms) + [c.relation, str(c.rhs)]
        _wrap(f" {c.name}:", tokens, out)
    out.append("Bounds")
    for v in model.variables:
        if v.kind == "general":
            out.append(f" {v.lower} <= {v.name} <= {v.upper}")
    generals = [v.name for v in model.variables if v.kind == "general"]
    if generals:
        out.append("Generals")
        _wrap("", generals, out)
    binaries = [v.name for v in model.variables if v.kind == "binary"]
    if binaries:
        out.append("Binaries")
        _wrap("", binaries, out)
    out.append("End")
    return "\n".join(out) + "\n"


def _parse_terms(tokens: list[str]) -> list[tuple[int, str]]:
    terms = []
    sign, coef = 1, None
    for tok in tokens:
        if tok == "+":
            sign, coef = 1, None
        elif tok == "-":
            sign = -1
            coef = None
        elif tok.isdecimal():
            coef = int(tok)
        else:
            terms.append((sign * (1 if coef is None else coef), tok))
            sign, coef = 1, None
    return terms


def parse_lp(text: str) -> IpModel:
    """Parse the subset of LP format produced by ``emit_lp``."""
    lines = [l for l in text.splitlines() if not l.lstrip().startswith("\\")]
    section = None
    bodies: dict[str, list[str]] = {}
    for line in lines:
        stripped = line.strip()
        if stripped in ("Minimize", "Subject To", "Bounds", "Generals", "Binaries", "End"):
            section = stripped
            bodies.setdefault(section, [])
            continue
        if section is None or not stripped:
            continue
        bodies[section].append(line)

    if "Minimize" not in bodies:
        raise ValueError("LP text has no Minimize section")
    if "End" not in bodies:
        raise ValueError("LP text has no End marker")

    model = IpModel()

    obj_tokens = " ".join(bodies.get("Minimize", [])).split()
    if obj_tokens and obj_tokens[0] == "obj:":
        obj_tokens = obj_tokens[1:]
    if "[" in obj_tokens:
        b = obj_tokens.index("[")
        linear_part, quad_part = obj_tokens[:b], obj_tokens[b + 1 :]
        if linear_part and linear_part[-1] == "+":
            linear_part = linear_part[:-1]
        close = quad_part.index("]")
        if quad_part[close : close + 3] != ["]", "/", "2"]:
            raise ValueError("quadratic block must end with ] / 2")
        quad_tokens = quad_part[:close]
        squares = []
        for coef, name in _parse_terms([t for t in quad_tokens if t != "^2"]):
            if coef % 2:
                raise ValueError("quadratic coefficients must be doubled inside [ ]")
            squares.append((coef // 2, name))
        model.quadratic_objective = squares
        model.linear_objective = _parse_terms(linear_part)
    else:
        model.linear_objective = _parse_terms(obj_tokens)

    body = " ".join(bodies.get("Subject To", []))
    pieces = re.split(r"(?=\b[A-Za-z]\w*:)", body)
    for piece in pieces:
        piece = piece.strip()
        if not piece:
            continue
        name, rest = piece.split(":", 1)
        tokens = rest.split()
        rel_idx = next(i for i, t in enumerate(tokens) if t in ("=", "<=", ">="))
        terms = _parse_terms(tokens[:rel_idx])
        model.constraints.append(
            Constraint(
                name=name.strip(),
                terms=tuple(terms),
                relation=tokens[rel_idx],
                rhs=int(tokens[rel_idx + 1]),
            )
        )

    bounds: dict[str, tuple[int, int]] = {}
    for line in bodies.get("Bounds", []):
        m = re.fullmatch(r"\s*(-?\d+)\s*<=\s*(\w+)\s*<=\s*(-?\d+)\s*", line)
        if not m:
            raise ValueError(f"unsupported bounds line: {line!r}")
        bounds[m.group(2)] = (int(m.group(1)), int(m.group(3)))
    for name in " ".join(bodies.get("Binaries", [])).split():
        model.variables.append(Variable(name, "binary"))
    for name in " ".join(bodies.get("Generals", [])).split():
        lo, hi = bounds[name]
        model.variables.append(Variable(name, "general", lo, hi))
    model.validate()
    return model


def emit_mps(model: IpModel) -> str:
    """Free-format MPS emission (secondary to the LP format)."""
    model.validate()
    out = ["NAME          AOAMODEL", "ROWS", " N  obj"]
    for c in model.constraints:
        tag = {"=": "E", "<=": "L", ">=": "G"}[c.relation]
        out.append(f" {tag}  {c.name}")
    lin = {}
    for coef, name in model.linear_objective:
        lin[name] = lin.get(name, 0) + coef
    by_var: dict[str, list[tuple[str, int]]] = {}
    for c in model.constraints:
        for coef, name in c.terms:
            by_var.setdefault(name, []).append((c.name, coef))
    out.append("COLUMNS")
    out.append("    MARKER                 'MARKER'                 'INTORG'")
    for v in model.variables:
        entries = by_var.get(v.name, [])
        if v.name in lin:
            entries = [("obj", lin[v.name])] + entries
        for row, coef in entries:
            out.append(f"    {v.name}  {row}  {coef}")
    out.append("    MARKER                 'MARKER'                 'INTEND'")
    out.append("RHS")
    for c in model.constraints:
        if c.rhs:
            out.append(f"    RHS  {c.name}  {c.rhs}")
    out.append("BOUNDS")
    for v in model.variables:
        if v.kind == "binary":
            out.append(f" BV BND  {v.name}")
        else:
            out.append(f" LO BND  {v.name}  {v.lower}")
            out.append(f" UP BND  {v.name}  {v.upper}")
    if model.quadratic_objective:
        out.append("QMATRIX")
        for coef, name in model.quadratic_objective:
            out.append(f"    {name}  {name}  {2 * coef}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


def parse_solution(text: str) -> dict[str, float]:
    """Read whitespace-separated ``name value`` lines; ``#`` starts a comment."""
    out: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'name value', got {raw!r}")
        out[parts[0]] = float(parts[1])
    return out


def solve_with_command(
    model: IpModel, command_template: str, workdir: str | None = None
) -> dict[str, float]:
    """Write the LP, run ``command_template`` (placeholders {lp} and {sol}),
    and parse the resulting solution file."""
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        lp_path = Path(tmp) / "model.lp"
        sol_path = Path(tmp) / "model.sol"
        lp_path.write_text(emit_lp(model), encoding="ascii")
        argv = [
            part.format(lp=str(lp_path), sol=str(sol_path))
            for part in shlex.split(command_template)
        ]
        subprocess.run(argv, check=True)
        return parse_solution(sol_path.read_text())

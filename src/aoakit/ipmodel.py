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
order: balanced middle columns 3..k-1, then the last column, through the
state scan ``arrays._state_blocks`` that ``search.brute_force_optimum`` also
runs.  A tuple of middle columns outside the epsilon bounds is skipped
whole, and the witnesses are the first optimal states in that order.

Optional symmetry constraints tie variables so that ((m_bar..s)|id) or the
Klein column swap (id|(1,2)(3,4)) is an automorphism of every feasible array;
the forced row maps act on the pinned two-column prefix within each copy.

An ``IpModel`` is arrays over one variable table: ``build_model`` and
``add_symmetry`` compute its CSR rows by index arithmetic, ``emit_lp`` and
``emit_mps`` write the text straight from them, and ``parse_lp`` fills them.
Emission is a deterministic CPLEX-LP subset (Minimize / Subject To / Bounds /
Generals / Binaries / End, ASCII, LF, lines well under 255 characters) that
round-trips byte-identically through ``parse_lp``; MPS is a secondary format.
A solver is never embedded: ``solve_with_command`` shells out to a
user-supplied command and reads a plain ``name value`` solution file.

The variable table is written out once, by ``_layout``: the names, kinds
and bounds, and the table index of every block (x, z, d0..d3 and, for p = 1,
their plus and minus parts).  ``build_model`` takes its table and indices
from it, ``canonical_assignment`` fills one value per variable by index
arithmetic over the pair-count table, and ``verify_solution`` gathers a
solution into the same order.  ``_layout`` counts the variables in closed
form first (``_model_size``) and refuses a model of more than
``_MAX_VARIABLES``.
"""

from __future__ import annotations

import itertools
import math
import re
import shlex
import subprocess
import tempfile
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arrays import (
    Array,
    _count_table,
    _pair_rows,
    _RunningMinimum,
    _state_blocks,
    tolerance,
    unbalance,
)
from .fileio import ParseError
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
    u, v = a.cells[:, :2].T
    codes = (u - 1) * s + v - 1
    if not (np.bincount(codes, minlength=s * s) == lam).all():
        raise ValueError("first two columns are not a lam-fold full factorial")
    # each code's lam rows in row order; copy c takes the c-th row of every code
    order = np.argsort(codes, kind="stable").reshape(s * s, lam).T.ravel()
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

_KINDS = ("binary", "general")
_RELATIONS = ("=", "<=", ">=")


def _undeclared(missing) -> ValueError:
    return ValueError(f"undeclared variables referenced: {sorted(missing)[:5]}")


class IpModel:
    """Minimization model: a variable table and constraint rows in CSR form.

    Variable v is ``names[v]``, of kind ``_KINDS[kinds[v]]``, in ``lower[v]..upper[v]``.
    Row r is ``row_names[r]``: ``coefs[a:b]`` on ``cols[a:b]`` (a, b = ``indptr[r:r+2]``),
    ``_RELATIONS[relations[r]]`` and ``rhs[r]``.  The objective sums ``lin_coefs *
    x[lin_vars]`` and ``quad_coefs * x[quad_vars]^2``.  A new model is empty; only
    ``build_model`` (with ``add_symmetry``) and ``parse_lp`` fill it.  Its sizes are
    ``len(names)`` and ``len(row_names)``.  ``variables``, ``constraints``,
    ``linear_objective`` and ``quadratic_objective`` are read-only object lists, built
    afresh on every read and kept only for the benchmark's parse check.
    """

    def __init__(self):
        self.names, self.row_names = [], []
        self.kinds, self.relations = np.zeros((2, 0), np.int8)
        self.lower, self.upper, self.coefs, self.cols, self.rhs = np.zeros((5, 0), np.int64)
        self.lin_coefs, self.lin_vars, self.quad_coefs, self.quad_vars = np.zeros((4, 0), np.int64)
        self.indptr = np.zeros(1, np.int64)

    def _name_index(self) -> dict[str, int]:
        """Position of each name in the table, after checking the names."""
        index = dict(zip(self.names, itertools.count()))
        if len(index) != len(self.names):
            raise ValueError("duplicate variable names")
        if not all(map(_NAME.fullmatch, self.names)):
            raise ValueError("variable names must be word-shaped")
        return index

    def validate(self) -> None:
        """Check the name table and that every referenced index is in it."""
        self._name_index()
        for used in (self.cols, self.lin_vars, self.quad_vars):
            bad = used[(used < 0) | (used >= len(self.names))]
            if bad.size:
                raise _undeclared(set(bad.tolist()))

    def _add_rows(self, names: list[str], cols, coefs, rhs) -> None:
        """Append equality rows: ``cols`` is rows x terms; ``coefs``, ``rhs`` broadcast."""
        cols = np.asarray(cols, dtype=np.int64)
        rows, terms = cols.shape
        self.row_names += names
        self.indptr = np.append(self.indptr, self.indptr[-1] + terms * np.arange(1, rows + 1))
        self.cols = np.append(self.cols, cols)
        self.coefs = np.append(self.coefs, np.broadcast_to(coefs, cols.shape))
        self.relations = np.append(self.relations, np.zeros(rows, np.int8))
        self.rhs = np.append(self.rhs, np.broadcast_to(rhs, rows))

    def _terms(self, coefs: np.ndarray, cols: np.ndarray) -> list[tuple[int, str]]:
        return list(zip(coefs.tolist(), map(self.names.__getitem__, cols.tolist())))

    @property
    def variables(self) -> list[Variable]:
        kinds = map(_KINDS.__getitem__, self.kinds.tolist())
        return list(map(Variable, self.names, kinds, self.lower.tolist(), self.upper.tolist()))

    @property
    def constraints(self) -> list[Constraint]:
        terms, bounds = self._terms(self.coefs, self.cols), self.indptr.tolist()
        rows = zip(self.row_names, bounds, bounds[1:], self.relations.tolist(), self.rhs.tolist())
        return [Constraint(n, tuple(terms[a:b]), _RELATIONS[r], rhs) for n, a, b, r, rhs in rows]

    linear_objective = property(lambda self: self._terms(self.lin_coefs, self.lin_vars))
    quadratic_objective = property(lambda self: self._terms(self.quad_coefs, self.quad_vars))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IpModel):
            return NotImplemented
        return vars(self).keys() == vars(other).keys() and all(
            np.array_equal(value, getattr(other, key)) for key, value in vars(self).items())


def _names(prefix: str, *axes) -> list[str]:
    """``prefix_a_b..`` for every (a, b, ..) of the product of ``axes``, in order."""
    names = [prefix]
    for axis in axes:
        suffixes = [f"_{v}" for v in axis]
        names = [name + suffix for name in names for suffix in suffixes]
    return names


def _parts(name: str) -> tuple[str, str, str]:
    """Positive part, negative part and abs constraint of deviation ``name`` (p = 1)."""
    fam, rest = name.split("_", 1)
    return f"{fam}p_{rest}", f"{fam}m_{rest}", f"abs{fam[1:]}_{rest}"


_MAX_VARIABLES = 10**6
"""The most variables ``_layout`` lays out: a larger model is refused before allocation."""


_Layout = namedtuple("_Layout", "names kinds lower upper x z d0 d1 d23 deviation plus minus")


def _model_size(inst: IpInstance) -> tuple[int, list[int]]:
    """The number of model variables and the sizes of the deviation blocks (d0, d1, then d2
    and d3), in closed form; raises ``ValueError`` above ``_MAX_VARIABLES`` variables."""
    s, n, free, pairs = inst.s, inst.n_runs, inst.k - 2, math.comb(inst.k - 2, 2)
    blocks = [pairs * s * s, s, 2 * s * s * free]
    size = n * free * s + n * pairs * s * s + sum(blocks) * (3 if inst.p == 1 else 1)
    if size > _MAX_VARIABLES:
        raise ValueError(f"model has {size} variables (> {_MAX_VARIABLES})")
    return size, blocks


def _layout(inst: IpInstance) -> _Layout:
    """The variable table (x, z, d0, d1, d2, d3, then each deviation's plus and minus part)
    and the table index of every block: ``x[i-1, j-3, m-1]``, ``z[i-1, c-1, l-1]``,
    ``d0[c-1, l-1]``, ``d1[m-1]``, ``d23[f, m-1, mp-1, j-3]`` (f = 0 for d2, 1 for d3),
    ``deviation`` (d0..d3 in order) and its parts ``plus`` and ``minus`` (empty for p = 2).
    """
    size, blocks = _model_size(inst)
    s, lam, eps, lo, n = inst.s, inst.lam, inst.epsilon, inst.delta_lower, inst.n_runs
    free, pairs, ss = inst.k - 2, math.comb(inst.k - 2, 2), s * s
    runs, columns, levels = range(1, n + 1), inst.free_columns, range(1, s + 1)
    pair_ids, codes = range(1, pairs + 1), range(1, ss + 1)
    names = _names("x", runs, columns, levels) + _names("z", runs, pair_ids, codes)
    binaries, deviations = len(names), sum(blocks)
    deviation_names = _names("d0", pair_ids, codes) + _names("d1", levels)
    deviation_names += _names("d2", levels, levels, columns) + _names("d3", levels, levels, columns)
    names += deviation_names
    lower = np.repeat(np.int64([0, lo, -lam * s, lo]), [binaries] + blocks)
    upper = np.repeat(np.int64([1, eps, lam * s * s - lam * s, eps]), [binaries] + blocks)
    if inst.p == 1:
        names += [part for name in deviation_names for part in _parts(name)[:2]]
        parts = np.column_stack([upper[binaries:], -lower[binaries:]]).clip(0).ravel()
        lower = np.append(lower, np.zeros_like(parts))
        upper = np.append(upper, parts)
    index = np.arange(size)
    x, z = index[: n * free * s], index[n * free * s : binaries]
    deviation = index[binaries : binaries + deviations]
    d0, d1, d23 = np.split(deviation, np.cumsum(blocks)[:2])
    return _Layout(names, np.repeat(np.int8([0, 1]), [binaries, size - binaries]), lower, upper,
                   x.reshape(n, free, s), z.reshape(n, pairs, ss), d0.reshape(pairs, ss), d1,
                   d23.reshape(2, s, s, free), deviation, index[binaries + deviations :: 2],
                   index[binaries + deviations + 1 :: 2])


def build_model(inst: IpInstance) -> IpModel:
    """Assemble variables, balance/linking constraints, and the objective."""
    s, lam, ss, n = inst.s, inst.lam, inst.s**2, inst.n_runs
    free, levels, runs = list(inst.free_columns), range(1, s + 1), range(1, n + 1)
    pairs = np.array(inst.column_pairs, np.int64).reshape(-1, 2) - 3  # as x's second axis
    pair_ids, codes = range(1, len(pairs) + 1), range(1, ss + 1)
    names, kinds, lower, upper, x, z, d0, d1, d23, deviation, plus, minus = _layout(inst)
    model = IpModel()
    model.names, model.kinds, model.lower, model.upper = names, kinds, lower, upper
    if inst.p == 1:
        split = np.column_stack([plus, minus]).ravel()
        model.lin_coefs, model.lin_vars = np.ones_like(split), split
    else:
        model.quad_coefs, model.quad_vars = np.ones_like(deviation), deviation

    add = model._add_rows
    add([f"aoa1_{j}_{m}" for j in free[:-1] for m in levels],
        x[:, :-1].transpose(1, 2, 0).reshape(-1, n), 1, lam * s)
    add([f"aoa1k_{m}" for m in levels], np.column_stack([x[:, -1].T, d1]), [1] * n + [-1], lam * s)
    add([f"aoa2_{i}_{j}" for i in runs for j in free], x.reshape(-1, s), 1, 1)
    head = canonical_head(s, lam)
    for c in (1, 2):  # pinned column c against free column j: aoa31 with d2, aoa32 with d3
        rows = np.array([np.flatnonzero(head[:, c - 1] == mp) for mp in levels])
        add([f"aoa3{c}_{j}_{m}_{mp}" for j in free for m in levels for mp in levels],
            np.column_stack([x[rows].transpose(2, 3, 0, 1).reshape(-1, lam * s),
                             d23[c - 1].transpose(2, 0, 1).reshape(-1)]),
            [1] * (lam * s) + [-1], lam)
    pair_rows = [f"_{i}_{c}" for i in runs for c in pair_ids]
    add(["aoaz1" + row for row in pair_rows],
        np.concatenate([z, x[:, pairs[:, 0]], x[:, pairs[:, 1]]], axis=2).reshape(-1, ss + 2 * s),
        np.concatenate([codes, -s * np.array(levels), -np.array(levels)]), -s)
    add(["aoaz2" + row for row in pair_rows], z.reshape(-1, ss), 1, 1)
    add([f"aoaz3_{c}_{l}" for c in pair_ids for l in codes],
        np.column_stack([z.transpose(1, 2, 0).reshape(-1, n), d0.reshape(-1)]), [1] * n + [-1], lam)
    if inst.p == 1:
        add([_parts(names[d])[2] for d in deviation.tolist()],
            np.column_stack([deviation, plus, minus]), (1, -1, 1), 0)
    return model


def _prefix_row_map(inst: IpInstance, image) -> list[int]:
    """sigma[i-1] = image row of i under (u,v) -> image(u, v), in i's copy of the head."""
    per_copy = inst.s**2
    head = canonical_head(inst.s, inst.lam).tolist()
    row = {(i // per_copy, u, v): i + 1 for i, (u, v) in enumerate(head)}
    return [row[(i // per_copy, *image(u, v))] for i, (u, v) in enumerate(head)]


def add_symmetry(model: IpModel, inst: IpInstance) -> IpModel:
    """Append the variable-tying equalities for the declared automorphism.

    ``model`` comes from ``build_model(inst)``, which declares the x variables first.
    """
    if inst.symmetry is None:
        raise ValueError("instance declares no symmetry")
    s, n, free = inst.s, inst.n_runs, inst.k - 2
    x = np.arange(n * free * s).reshape(n, free, s)
    if model.names[x.size - 1 : x.size] != [f"x_{n}_{inst.k}_{s}"]:
        raise ValueError("model was not built for this instance")

    def tie(a: np.ndarray, b: np.ndarray, name) -> None:
        """Rows a = b in cell order, named by ``name`` of the 0-based cell; a = a is skipped."""
        keep = a != b
        names = itertools.starmap(name, zip(*(axis.tolist() for axis in np.nonzero(keep))))
        model._add_rows(list(names), np.column_stack([a[keep], b[keep]]), (1, -1), 0)

    if inst.symmetry in ("semicyclic", "both") and inst.m_bar < s:
        m_bar = inst.m_bar
        g = cycle_permutation(s, tuple(range(m_bar, s + 1)))
        sigma = np.array(_prefix_row_map(inst, lambda u, v: (g[u - 1], g[v - 1]))) - 1
        fam = ["sim1"] * (m_bar - 1) + ["sim2"] * (s - m_bar) + ["sim3"]
        tie(x, x[sigma][:, :, np.array(g) - 1],
            lambda i, j, m: f"{fam[m]}_{i + 1}_{j + 3}_{m + 1}")
    if inst.symmetry in ("klein", "both"):
        swapped = x[np.array(_prefix_row_map(inst, lambda u, v: (v, u))) - 1]  # the prefix swap
        tie(x[:, :2].transpose(0, 2, 1), swapped[:, 1::-1].transpose(0, 2, 1),
            lambda i, m, j: f"sim0{j + 3}_{i + 1}_{m + 1}")  # columns 3 and 4 swap
        tie(x[:, 2:], swapped[:, 2:], lambda i, j, m: f"sim034_{i + 1}_{j + 5}_{m + 1}")
    return model


def _canonical_values(inst: IpInstance, layout: _Layout, a: Array) -> np.ndarray:
    """The value of every variable in the table for a canonical-head array."""
    s, k, lam = inst.s, inst.k, inst.lam
    levels = a.cells - 1
    pairs = np.array(inst.column_pairs, np.int64).reshape(-1, 2) - 1
    values = np.zeros(len(layout.names), np.int64)
    values[np.take_along_axis(layout.x, levels[:, 2:, None], 2)] = 1
    codes = s * levels[:, pairs[:, 0]] + levels[:, pairs[:, 1]]
    values[np.take_along_axis(layout.z, codes[:, :, None], 2)] = 1
    table, rows = _count_table(a, 2) - lam, _pair_rows(k)
    values[layout.d0] = table[rows[pairs[:, 0], pairs[:, 1]]]
    values[layout.d1] = np.bincount(levels[:, -1], minlength=s) - lam * s
    # pinned column f+1 at level mp against free column j at level m: code (mp-1)*s + m-1
    values[layout.d23] = table[rows[:2, 2:]].reshape(2, k - 2, s, s).transpose(0, 3, 2, 1)
    if inst.p == 1:
        values[layout.plus] = np.maximum(values[layout.deviation], 0)
        values[layout.minus] = np.maximum(-values[layout.deviation], 0)
    return values


def canonical_assignment(inst: IpInstance, a: Array) -> dict[str, int]:
    """Variable values encoding the given array (rows arranged canonically)."""
    if a.n_levels != inst.s or a.n_factors != inst.k or a.n_runs != inst.n_runs:
        raise ValueError("array shape does not match the instance")
    a = arrange_canonical(a)
    layout = _layout(inst)
    return dict(zip(layout.names, _canonical_values(inst, layout, a).tolist()))


@dataclass
class ModelCheck:
    """Constraint/bound audit of an assignment against a model."""

    objective: float
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def evaluate_model(model: IpModel, assignment: dict[str, float]) -> ModelCheck:
    """Objective value and every violated bound or constraint (1e-6 slack).

    Bounds and rows are read from the variable table and the CSR rows.  Each
    row's left-hand side adds its terms from the left, as ``sum`` does, so
    the values in the messages do not depend on numpy's summation order.  A
    NaN value is reported as outside its bounds, and a binary variable that
    is not finite as not integral.
    """
    x = np.array([float(assignment.get(name, 0.0)) for name in model.names], dtype=np.float64)
    values, lower, upper = x.tolist(), model.lower.tolist(), model.upper.tolist()
    outside = ~((x >= model.lower - 1e-6) & (x <= model.upper + 1e-6))  # NaN is outside
    fractional = (model.kinds == _KINDS.index("binary")) & ~(np.abs(x - np.round(x)) <= 1e-6)
    violations = []
    for v in np.flatnonzero(outside | fractional).tolist():
        name, value = model.names[v], values[v]
        if outside[v]:
            violations.append(f"bound {name}={value} outside [{lower[v]},{upper[v]}]")
        if fractional[v]:
            violations.append(f"binary {name}={value} not integral")
    terms = model.coefs * x[model.cols]
    lengths = np.diff(model.indptr)
    order = np.argsort(-lengths, kind="stable")
    falling, starts = lengths[order], model.indptr[:-1][order]
    sums = np.zeros(len(order))
    # rows with a t-th term are a prefix of the longest-first order
    lives = np.searchsorted(-falling, -np.arange(falling.max(initial=0)), side="left")
    for t, live in enumerate(lives.tolist()):
        sums[:live] += terms[starts[:live] + t]
    lhs = np.empty_like(sums)
    lhs[order] = sums
    rhs, relations = model.rhs, model.relations
    bad = np.choose(relations, (np.abs(lhs - rhs) > 1e-6, lhs > rhs + 1e-6, lhs < rhs - 1e-6))
    for r in np.flatnonzero(bad).tolist():
        value = lhs[r].item() if lengths[r] else 0  # sum() of no terms is the int 0
        violations.append(f"constraint {model.row_names[r]}: "
                          f"lhs={value} {_RELATIONS[relations[r]]} {rhs[r].item()}")
    lin = zip(model.lin_coefs.tolist(), model.lin_vars.tolist())
    quad = zip(model.quad_coefs.tolist(), model.quad_vars.tolist())
    objective = sum(c * values[v] for c, v in lin)
    objective += sum(c * values[v] ** 2 for c, v in quad)
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
    compared against the reconstruction.  A value that is not finite is refused.
    """
    s, n, layout = inst.s, inst.n_runs, _layout(inst)
    names = layout.names[: layout.deviation[-1] + 1]  # x, z and the deviations
    present = np.fromiter(map(assignment.__contains__, names), bool, len(names))
    given = np.array(list(map(assignment.get, names, itertools.repeat(np.nan))), np.float64)
    infinite = np.flatnonzero(present & ~np.isfinite(given))
    if infinite.size:
        raise ValueError(f"value of {names[infinite[0]]} is not finite")
    missing = ~present[layout.x].all(axis=2)
    ones = np.round(given[layout.x]) == 1
    bad = (missing | (ones.sum(axis=2) != 1)).T  # column by column
    if bad.any():
        j, i = divmod(int(np.argmax(bad)), n)
        if missing[i, j]:
            raise ValueError(f"assignment is missing x values for row {i + 1}, column {j + 3}")
        raise ValueError(f"cell ({i + 1},{j + 3}) does not select exactly one level")
    a = Array(np.column_stack([canonical_head(s, inst.lam), ones.argmax(axis=2) + 1]), s)

    expected = _canonical_values(inst, layout, a)
    dev, z = layout.deviation, layout.z.ravel()
    deltas = expected[dev]
    deltas_match = bool(np.all((np.round(given[dev]) == deltas) | ~present[dev]))
    bounds_ok = bool(np.all((layout.lower[dev] <= deltas) & (deltas <= layout.upper[dev])))
    z_ok = bool(np.all(((np.round(given[z]) == 1) == (expected[z] == 1)) | ~present[z]))

    p = inst.p
    objective = int((np.abs(deltas) ** p).sum())
    delta1_term = int((np.abs(expected[layout.d1]) ** p).sum())
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
    prefixes = ((mids, 0) for mids in itertools.product(balanced, repeat=k - 3))
    best, feasible = _RunningMinimum(8), 0
    # a state is within the epsilon bounds iff its tolerance is at most epsilon
    blocks = _state_blocks(canonical_head(s, lam), prefixes, s, p, prune=inst.epsilon)
    for tol, unb, counts, witness in blocks:
        # level counts of the last column, summed over pinned column 1
        d1 = counts[:, 0].reshape(-1, s, s).sum(axis=1) - lam * s
        objective = unb + (np.abs(d1) ** p).sum(axis=1)
        keep = np.flatnonzero(tol <= inst.epsilon)
        feasible += len(keep)
        best.update(objective[keep], lambda i: witness(keep[i]))
    if best.value is None:
        raise ValueError("no feasible assignment under the epsilon cap")
    return ExhaustiveResult(
        value=best.value, witnesses=best.witnesses, states=states, feasible_states=feasible
    )


# ---------------------------------------------------------------------------
# LP / MPS emission and parsing
# ---------------------------------------------------------------------------

_LP_WIDTH = 78


def _term_tokens(coefs: np.ndarray, names: np.ndarray, first: np.ndarray) -> np.ndarray:
    """LP tokens ``+ x``, ``- 3 x`` of terms; a ``first`` positive term drops its ``+``."""
    distinct, inverse = np.unique(coefs, return_inverse=True)
    distinct = distinct.tolist()
    mags = ["" if abs(c) == 1 else f"{abs(c)} " for c in distinct]
    lead = np.array([("" if c > 0 else "- ") + m for c, m in zip(distinct, mags)], object)
    rest = np.array([("- " if c < 0 else "+ ") + m for c, m in zip(distinct, mags)], object)
    return np.where(first, lead[inverse], rest[inverse]) + names


def _wrap_rows(heads: list[str], tokens: np.ndarray, indptr: np.ndarray) -> str:
    """Every row's lines: its head, then tokens ``indptr[r]:indptr[r+1]`` wrapped greedily
    at ``_LP_WIDTH``, continuation lines indented by three spaces.

    With ``cum`` the running sum of token length + 1, a line of tokens a..b-1
    is ``cum[b] - cum[a]`` long plus the head's length after a head, plus 2 on
    a continuation line, minus 1 after an empty head (whose tokens start its line).
    """
    count, start, end = len(tokens), indptr[:-1], indptr[1:]
    cum = np.append(0, np.cumsum(np.fromiter(map(len, tokens), np.int64, count) + 1))
    lead = np.array([len(h) or -1 for h in heads], np.int64)
    first = np.clip(np.searchsorted(cum, cum[start] + _LP_WIDTH - lead, "right") - 1,
                    start + (lead < 0), end)
    following = np.clip(np.searchsorted(cum, cum[:-1] + _LP_WIDTH - 2, "right") - 1,
                        np.arange(1, count + 1), np.repeat(end, end - start))
    breaks, following = [], following.tolist()
    for b, e in zip(first.tolist(), end.tolist()):
        while b < e:
            breaks.append(b)
            b = following[b]
    sep = np.full(count, " ", dtype=object)
    sep[breaks] = "\n   "
    sep[start[(lead < 0) & (end > start)]] = ""
    return "".join(np.insert(sep + tokens, start, ["\n" + h for h in heads]).tolist())[1:]


def emit_lp(model: IpModel) -> str:
    """Deterministic CPLEX-LP text for the model."""
    names = np.array(model.names, dtype=object)
    lin, quad = len(model.lin_vars), len(model.quad_vars)
    tokens = list(_term_tokens(model.lin_coefs, names[model.lin_vars], np.arange(lin) == 0))
    if quad:
        qt = list(_term_tokens(2 * model.quad_coefs, names[model.quad_vars] + " ^2",
                               np.arange(quad) == (-1 if tokens else 0)))
        qt[0] = f"[ {qt[0]}" if not tokens else f"+ [ {qt[0].lstrip('+ ')}"
        qt[-1] += " ] / 2"
        tokens += qt
    out = ["\\ almost-orthogonal-array minimum-unbalance model", "Minimize",
           _wrap_rows([" obj:"], np.array(tokens, dtype=object), np.array([0, len(tokens)])),
           "Subject To"]
    if model.row_names:
        first = np.zeros(len(model.cols), bool)
        first[model.indptr[:-1][np.diff(model.indptr) > 0]] = True
        # each row's term tokens, then its relation and right-hand side
        tails = np.column_stack([np.array(_RELATIONS, object)[model.relations],
                                 np.array(list(map(str, model.rhs.tolist())), object)])
        stream = np.insert(_term_tokens(model.coefs, names[model.cols], first),
                           np.repeat(model.indptr[1:], 2), tails.ravel())
        heads = [f" {name}:" for name in model.row_names]
        out.append(_wrap_rows(heads, stream, model.indptr + 2 * np.arange(len(heads) + 1)))
    out.append("Bounds")
    general = model.kinds == 1
    out += [f" {lo} <= {name} <= {hi}" for name, lo, hi in zip(
        names[general].tolist(), model.lower[general].tolist(), model.upper[general].tolist())]
    for section, members in (("Generals", names[general]), ("Binaries", names[~general])):
        if len(members):
            out += [section, _wrap_rows([""], members, np.array([0, len(members)]))]
    out.append("End")
    return "\n".join(out) + "\n"


_TOKEN_CODES = {"+": -1, "-": -2, "=": -3, "<=": -4, ">=": -5}  # relation r: -3 - r
_OTHER = -6  # a number, a row name or an undeclared name
_INT = re.compile(r"[-+]?\d+")


def _parse_terms(tokens: list[str], code: np.ndarray, skip=np.False_):
    """Coefficients, variables and positions of the terms among ``tokens``, and the
    undeclared names.  A variable takes the last sign since the previous term (default +)
    and the decimal right before it (default 1); tokens in ``skip`` only end a term.
    """
    other = np.flatnonzero((code == _OTHER) & ~skip)
    words = [tokens[t] for t in other.tolist()]
    value = np.full(len(tokens) + 1, -1, np.int64)  # [t + 1]: the decimal token t; [0] a boundary
    value[other + 1] = [int(w) if w.isdecimal() else -1 for w in words]
    at = np.flatnonzero(code >= 0)
    last = np.maximum.accumulate(np.where(value < 0, np.arange(len(tokens) + 1), 0))[at]
    sign = np.where(np.append(_OTHER, code)[last] == _TOKEN_CODES["-"], -1, 1)
    missing = {w for w in words if not w.isdecimal()}
    return sign * np.where(value[at] < 0, 1, value[at]), code[at], at, missing


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

    bounds: dict[str, tuple[int, int]] = {}
    for line in bodies.get("Bounds", []):
        m = re.fullmatch(r"\s*(-?\d+)\s*<=\s*(\w+)\s*<=\s*(-?\d+)\s*", line)
        if not m:
            raise ValueError(f"unsupported bounds line: {line!r}")
        bounds[m.group(2)] = (int(m.group(1)), int(m.group(3)))
    binaries = " ".join(bodies.get("Binaries", [])).split()
    generals = " ".join(bodies.get("Generals", [])).split()
    unbounded = [name for name in generals if name not in bounds]
    if unbounded:
        raise ValueError(f"general variable {unbounded[0]!r} has no Bounds line")
    model = IpModel()
    model.names = binaries + generals
    model.kinds = np.repeat(np.int8([0, 1]), [len(binaries), len(generals)])
    model.lower, model.upper = np.array([(0, 1)] * len(binaries) + [bounds[n] for n in generals],
                                        np.int64).reshape(-1, 2).T
    index = {**model._name_index(), **_TOKEN_CODES}  # token -> variable index or token code
    codes = lambda tokens: np.fromiter(map(index.get, tokens, itertools.repeat(_OTHER)), np.int64)

    obj_tokens = " ".join(bodies.get("Minimize", [])).split()
    if obj_tokens and obj_tokens[0] == "obj:":
        obj_tokens = obj_tokens[1:]
    linear_part, quad_tokens = obj_tokens, []
    if "[" in obj_tokens:
        b = obj_tokens.index("[")
        linear_part, quad_part = obj_tokens[:b], obj_tokens[b + 1 :]
        if linear_part and linear_part[-1] == "+":
            linear_part = linear_part[:-1]
        if "]" not in quad_part:
            raise ValueError("objective 'obj' opens '[' and never closes it")
        close = quad_part.index("]")
        if quad_part[close : close + 3] != ["]", "/", "2"]:
            raise ValueError("quadratic block must end with ] / 2")
        quad_tokens = [t for t in quad_part[:close] if t != "^2"]
    model.lin_coefs, model.lin_vars, _, missing = _parse_terms(linear_part, codes(linear_part))
    doubled, model.quad_vars, _, missing_quad = _parse_terms(quad_tokens, codes(quad_tokens))
    if (doubled % 2).any():
        raise ValueError("quadratic coefficients must be doubled inside [ ]")
    model.quad_coefs = doubled // 2

    # rows: a name with a colon, terms, one relation, an integer right-hand side
    tokens = " ".join(bodies.get("Subject To", [])).split()
    code = codes(tokens)
    start = np.array([t for t in np.flatnonzero(code == _OTHER).tolist()
                      if tokens[t][-1] == ":" and _NAME.fullmatch(tokens[t][:-1])], np.int64)
    if tokens and not (start.size and start[0] == 0):
        raise ValueError(f"constraint text {tokens[0]!r} comes before any constraint name")
    end = np.append(start[1:], len(tokens))[: len(start)]
    model.row_names = [tokens[t][:-1] for t in start.tolist()]
    relation = (code <= _TOKEN_CODES["="]) & (code >= _TOKEN_CODES[">="])
    count = np.add.reduceat(relation.astype(np.int64), start) if start.size else start
    rhs = [tokens[t] for t in (end - 1).tolist()]
    ok = (count == 1) & relation[np.maximum(end - 2, 0)] & [bool(_INT.fullmatch(v)) for v in rhs]
    if not ok.all():
        name = model.row_names[int(np.argmin(ok))]
        raise ValueError(f"constraint {name!r} does not end with a relation and an integer")
    model.relations = (_TOKEN_CODES["="] - code[end - 2]).astype(np.int8)
    model.rhs = np.array(list(map(int, rhs)), np.int64)
    skip = np.zeros(len(tokens), bool)
    skip[np.concatenate([start, end - 2, end - 1])] = True
    model.coefs, model.cols, at, missing_rows = _parse_terms(tokens, code, skip)
    model.indptr = np.searchsorted(at, np.append(start, len(tokens)))
    if missing | missing_quad | missing_rows:
        raise _undeclared(missing | missing_quad | missing_rows)
    return model


def emit_mps(model: IpModel) -> str:
    """Free-format MPS emission (secondary to the LP format)."""
    names = np.array(model.names, dtype=object)
    out = ["NAME          AOAMODEL", "ROWS", " N  obj"]
    out += [f" {'ELG'[r]}  {name}" for r, name in zip(model.relations.tolist(), model.row_names)]
    # one entry per objective variable (its summed coefficient), then per row term,
    # listed by variable in a stable order
    lin_vars, inverse = np.unique(model.lin_vars, return_inverse=True)
    lin_coefs = np.zeros(len(lin_vars), np.int64)
    np.add.at(lin_coefs, inverse, model.lin_coefs)
    cols = np.append(lin_vars, model.cols)
    order = np.argsort(cols, kind="stable")
    rows = np.append(np.zeros(len(lin_vars), np.int64),
                     np.repeat(np.arange(1, len(model.row_names) + 1), np.diff(model.indptr)))
    coefs, coef_index = np.unique(np.append(lin_coefs, model.coefs), return_inverse=True)
    entries = np.empty((len(cols), 6), dtype=object)
    entries[:, 0], entries[:, 2], entries[:, 4] = "\n    ", "  ", "  "
    entries[:, 1] = names[cols[order]]
    entries[:, 3] = np.array(["obj"] + model.row_names, dtype=object)[rows[order]]
    entries[:, 5] = np.array(list(map(str, coefs.tolist())), dtype=object)[coef_index[order]]
    marker = "    MARKER                 'MARKER'                 "
    out += ["COLUMNS", marker + "'INTORG'" + "".join(entries.ravel().tolist()), marker + "'INTEND'"]
    out.append("RHS")
    out += [f"    RHS  {name}  {v}" for name, v in zip(model.row_names, model.rhs.tolist()) if v]
    out.append("BOUNDS")
    out += [f" LO BND  {name}  {lo}\n UP BND  {name}  {hi}" if kind else f" BV BND  {name}"
            for name, kind, lo, hi in zip(
                model.names, model.kinds.tolist(), model.lower.tolist(), model.upper.tolist())]
    if len(model.quad_vars):
        out.append("QMATRIX")
        out += [f"    {name}  {name}  {2 * coef}" for coef, name in model._terms(
            model.quad_coefs, model.quad_vars)]
    out.append("ENDATA")
    return "\n".join(out) + "\n"


def parse_solution(text: str, path: str | None = None) -> dict[str, float]:
    """Read whitespace-separated ``name value`` lines; ``#`` starts a comment.  A
    malformed line raises ``ParseError`` there, at the column of a value not a number."""
    out: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = list(re.finditer(r"\S+", raw.split("#", 1)[0]))
        if not fields:
            continue
        if len(fields) != 2:
            raise ParseError(f"expected 'name value', got {raw!r}", lineno, 1, path)
        name, value = fields
        try:
            out[name.group()] = float(value.group())
        except ValueError as exc:
            raise ParseError(str(exc), lineno, value.start() + 1, path) from None
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
        return parse_solution(sol_path.read_text(), str(sol_path))

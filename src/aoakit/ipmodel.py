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
round-trips byte-identically through ``parse_lp``, each row wrapped by one
greedy loop (``_wrap``); MPS is a secondary format.  The text is made and read
in row blocks, so memory stays near the model's own size:
``_lp_pieces`` and ``_mps_pieces`` yield it in pieces of at most
``_piece_size()`` terms (from ``arrays._CHUNK_BYTES``), a line that crosses two
pieces carried as ``_wrap``'s open line; ``emit_lp`` and ``emit_mps`` join the
pieces, and ``aoakit ip`` and ``solve_with_command`` write each piece to the
file as it comes.  ``parse_lp`` cuts the ``Subject To`` lines into blocks
before a row name and parses each block on its own.  A solver is never
embedded: ``solve_with_command`` shells out to a user-supplied command and
reads a plain ``name value`` solution file (each name once).
``verify_solution`` also checks the ties of a declared symmetry.

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
    _CHUNK_BYTES,
    Array,
    _count_table,
    _level_digits,
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
    """lam stacked lexicographic factorials: row c*s^2 + (u-1)*s + v-1 is (u, v) in copy c."""
    return np.tile(_level_digits(np.arange(s * s), 2, s) + 1, (lam, 1))


def _head_rows(s: int, lam: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """0-based row of the 0-based level pair (u[i], v[i]) in the copy of head row i."""
    return np.arange(lam * s * s) // (s * s) * (s * s) + u * s + v


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

    u, v = canonical_head(s, inst.lam).T - 1
    if inst.symmetry in ("semicyclic", "both") and inst.m_bar < s:
        m_bar = inst.m_bar
        g = np.array(cycle_permutation(s, tuple(range(m_bar, s + 1)))) - 1
        sigma = _head_rows(s, inst.lam, g[u], g[v])
        fam = ["sim1"] * (m_bar - 1) + ["sim2"] * (s - m_bar) + ["sim3"]
        tie(x, x[sigma][:, :, g],
            lambda i, j, m: f"{fam[m]}_{i + 1}_{j + 3}_{m + 1}")
    if inst.symmetry in ("klein", "both"):
        swapped = x[_head_rows(s, inst.lam, v, u)]  # the prefix swap
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
    row's left-hand side is the built-in ``sum`` of its terms, so the values
    in the messages follow Python's float summation (compensated from 3.12
    on) and not numpy's summation order.  A NaN value is reported as outside
    its bounds, and a binary variable that is not finite as not integral.
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
    terms, bounds = (model.coefs * x[model.cols]).tolist(), model.indptr.tolist()
    sums = [sum(terms[a:b]) for a, b in zip(bounds, bounds[1:])]
    lhs, rhs, relations = np.array(sums, dtype=np.float64), model.rhs, model.relations
    bad = np.choose(relations, (np.abs(lhs - rhs) > 1e-6, lhs > rhs + 1e-6, lhs < rhs - 1e-6))
    for r in np.flatnonzero(bad).tolist():
        violations.append(f"constraint {model.row_names[r]}: "
                          f"lhs={sums[r]} {_RELATIONS[relations[r]]} {rhs[r].item()}")
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
    symmetry_ok: bool = True  # the ties of ``add_symmetry``; true when none is declared

    @property
    def ok(self) -> bool:
        return (self.identity_ok and self.bounds_ok and self.z_ok and self.deltas_match
                and self.symmetry_ok)


class _NonFinite(ValueError):
    """A value that is not finite, given for the variable ``name``."""

    def __init__(self, name: str):
        super().__init__(f"value of {name} is not finite")
        self.name = name


def verify_solution(inst: IpInstance, assignment: dict[str, float]) -> VerificationReport:
    """Rebuild the array from x values and audit the solution's bookkeeping.

    Only the x variables are mandatory; z and delta values, when present, are
    compared against the reconstruction.  A value that is not finite is refused.
    A declared symmetry's tie rows (``add_symmetry``) are checked on the reconstruction.
    """
    s, n, layout = inst.s, inst.n_runs, _layout(inst)
    names = layout.names[: layout.deviation[-1] + 1]  # x, z and the deviations
    present = np.fromiter(map(assignment.__contains__, names), bool, len(names))
    given = np.array(list(map(assignment.get, names, itertools.repeat(np.nan))), np.float64)
    infinite = np.flatnonzero(present & ~np.isfinite(given))
    if infinite.size:
        raise _NonFinite(names[infinite[0]])
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
    symmetry_ok = True
    if inst.symmetry is not None:
        ties = IpModel()
        ties.names = layout.names
        add_symmetry(ties, inst)  # equality rows only
        sums = np.cumsum(np.append(0, ties.coefs * expected[ties.cols]))
        symmetry_ok = bool(np.all(sums[ties.indptr[1:]] - sums[ties.indptr[:-1]] == ties.rhs))

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
        symmetry_ok=symmetry_ok,
    )


def _balanced_pool(n: int, s: int, lam: int) -> np.ndarray:
    """The 1-based level vectors of length n with each level lam*s times, in product order."""
    grid = _level_digits(np.arange(s**n), n, s)
    return grid[(np.sort(grid, axis=1) == np.arange(n) // (lam * s)).all(axis=1)] + 1


def _balanced_column_count(n: int, s: int, lam: int) -> int:
    """Number of rows of ``_balanced_pool``: the multinomial n!/((lam*s)!)^s."""
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
    balanced = _balanced_pool(n, s, lam) if k > 3 else []
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

_TERM_BYTES = 128
"""What a piece of LP or MPS text spends on one term, name or bound line: its token
string, list slot and the block's index arrays."""


def _piece_size() -> int:
    """Terms, names or bound lines per piece of LP or MPS text, and terms per block of
    ``parse_lp`` rows, so that a piece stays within about ``_CHUNK_BYTES``."""
    return max(1, _CHUNK_BYTES // _TERM_BYTES)


def _blocks(n: int):
    """The ranges ``(a, b)`` that cover 0..n in order, each ``_piece_size()`` long but the last."""
    step = _piece_size()
    return ((a, min(a + step, n)) for a in range(0, n, step))


def _text(lines: list[str]) -> str:
    """``lines``, each ended by LF."""
    return "\n".join(lines) + "\n" if lines else ""


def _write_text(path, pieces) -> None:
    """Write text ``pieces`` to ``path`` as ASCII, each as it comes."""
    with open(path, "w", encoding="ascii", newline="") as f:
        f.writelines(pieces)


def _term_tokens(coefs: np.ndarray, names: np.ndarray, first: np.ndarray) -> np.ndarray:
    """LP tokens ``+ x``, ``- 3 x`` of terms; a ``first`` positive term drops its ``+``."""
    distinct, inverse = np.unique(coefs, return_inverse=True)
    distinct = distinct.tolist()
    mags = ["" if abs(c) == 1 else f"{abs(c)} " for c in distinct]
    lead = np.array([("" if c > 0 else "- ") + m for c, m in zip(distinct, mags)], object)
    rest = np.array([("- " if c < 0 else "+ ") + m for c, m in zip(distinct, mags)], object)
    return np.where(first, lead[inverse], rest[inverse]) + names


def _wrap(line: str, tokens: list[str], out: list[str]) -> str:
    """Add ``tokens`` to the open ``line``, breaking greedily at ``_LP_WIDTH``: full lines
    go to ``out`` and the line left open is returned.  Continuation lines are indented by
    three spaces, and an empty line's first token starts it."""
    for token in tokens:
        if line and len(line) + 1 + len(token) > _LP_WIDTH:
            out.append(line)
            line = "   " + token
        else:
            line = f"{line} {token}" if line else token
    return line


def _lp_objective(model: IpModel, names: np.ndarray):
    """The ``Minimize`` lines of ``emit_lp``, one list per block of terms, the last one closed."""
    lin, quad, line = len(model.lin_vars), len(model.quad_vars), " obj:"
    for a, b in _blocks(lin):
        out = []
        line = _wrap(line, _term_tokens(model.lin_coefs[a:b], names[model.lin_vars[a:b]],
                                        np.arange(a, b) == 0).tolist(), out)
        yield out
    for a, b in _blocks(quad):
        out = []
        tokens = _term_tokens(2 * model.quad_coefs[a:b], names[model.quad_vars[a:b]] + " ^2",
                              np.arange(a, b) == (-1 if lin else 0)).tolist()
        if a == 0:
            tokens[0] = f"+ [ {tokens[0].lstrip('+ ')}" if lin else f"[ {tokens[0]}"
        if b == quad:
            tokens[-1] += " ] / 2"
        line = _wrap(line, tokens, out)
        yield out
    yield [line]


def _lp_rows(model: IpModel, names: np.ndarray):
    """The ``Subject To`` lines of ``emit_lp``, one list per block of terms.  A row that
    goes on into the next block is carried there as its open line."""
    indptr, row, line = model.indptr, 0, ""
    for a, b in list(_blocks(len(model.cols))) or [(0, 0)]:
        stop = int(np.searchsorted(indptr[1:], b, "right"))  # rows row..stop-1 end here
        bounds = indptr[row : stop + 2].tolist()
        first = np.zeros(b - a, bool)
        first[[s - a for s in bounds if a <= s < b]] = True
        tokens = _term_tokens(model.coefs[a:b], names[model.cols[a:b]], first).tolist()
        tails = [[_RELATIONS[r], str(v)] for r, v in zip(
            model.relations[row:stop].tolist(), model.rhs[row:stop].tolist())]
        out = []
        for r, s, e in zip(range(row, stop + 1), bounds, bounds[1:]):
            if s >= a:  # the row starts in this block
                if r == stop and s == b:
                    break
                line = f" {model.row_names[r]}:"
            if r < stop:
                out.append(_wrap(line, tokens[max(s - a, 0) : e - a] + tails[r - row], out))
                line = ""
            else:
                line = _wrap(line, tokens[max(s - a, 0) :], out)
        row = stop
        yield out


def _lp_pieces(model: IpModel):
    """The text of ``emit_lp`` in pieces of whole lines, one per block of at most
    ``_piece_size()`` terms or variables, so that no token list of the whole model is built."""
    names = np.array(model.names, dtype=object)
    yield _text(["\\ almost-orthogonal-array minimum-unbalance model", "Minimize"])
    yield from map(_text, _lp_objective(model, names))
    yield "Subject To\n"
    yield from map(_text, _lp_rows(model, names))
    yield "Bounds\n"
    for a, b in _blocks(len(names)):
        v = np.flatnonzero(model.kinds[a:b] == 1) + a
        yield _text([f" {lo} <= {name} <= {hi}" for name, lo, hi in zip(
            names[v].tolist(), model.lower[v].tolist(), model.upper[v].tolist())])
    for section, kind in (("Generals", 1), ("Binaries", 0)):
        if (model.kinds == kind).any():
            line = ""
            yield section + "\n"
            for a, b in _blocks(len(names)):
                out = []
                line = _wrap(line, names[a:b][model.kinds[a:b] == kind].tolist(), out)
                yield _text(out)
            yield line + "\n"
    yield "End\n"


def emit_lp(model: IpModel) -> str:
    """Deterministic CPLEX-LP text for the model."""
    return "".join(_lp_pieces(model))


_TOKEN_CODES = {"+": -1, "-": -2, "=": -3, "<=": -4, ">=": -5}  # relation r: -3 - r
_OTHER = -6  # a number, a row name or an undeclared name
_INT = re.compile(r"[-+]?\d+")
_SECTIONS = ("Minimize", "Subject To", "Bounds", "Generals", "Binaries", "End")
_INT64 = range(-(1 << 63), 1 << 63)


def _int64(values: list[int], error) -> np.ndarray:
    """``values`` as int64; the first one that does not fit raises ``ValueError(error(i))``."""
    try:
        return np.array(values, np.int64)
    except OverflowError:
        i = next(i for i, v in enumerate(values) if v not in _INT64)
        raise ValueError(error(i)) from None


def _parse_terms(tokens: list[str], code: np.ndarray, skip=np.False_,
                 owner=lambda t: "objective 'obj'"):
    """Coefficients, variables and positions of the terms among ``tokens``, and the
    undeclared names.  A variable takes the last sign since the previous term (default +)
    and the decimal right before it (default 1); tokens in ``skip`` only end a term.  A
    decimal beyond int64 is a ``ValueError`` naming the ``owner`` of its token position.
    """
    other = np.flatnonzero((code == _OTHER) & ~skip)
    words = [tokens[t] for t in other.tolist()]
    value = np.full(len(tokens) + 1, -1, np.int64)  # [t + 1]: the decimal token t; [0] a boundary
    value[other + 1] = _int64(
        [int(w) if w.isdecimal() else -1 for w in words],
        lambda i: f"{owner(int(other[i]))} coefficient {words[i]} does not fit int64")
    at = np.flatnonzero(code >= 0)
    last = np.maximum.accumulate(np.where(value < 0, np.arange(len(tokens) + 1), 0))[at]
    sign = np.where(np.append(_OTHER, code)[last] == _TOKEN_CODES["-"], -1, 1)
    missing = {w for w in words if not w.isdecimal()}
    return sign * np.where(value[at] < 0, 1, value[at]), code[at], at, missing


def _text_lines(text: str):
    """The lines of ``str.splitlines``, split from slices of about ``_CHUNK_BYTES // 4``
    characters that end after an LF, so that the list of every line is never held."""
    a = 0
    while a < len(text):
        b = text.find("\n", a + _CHUNK_BYTES // 4) + 1 or len(text)
        yield from text[a:b].splitlines()
        a = b


def _opens_row(token: str) -> bool:
    """Whether ``token`` names a constraint row: a name-shaped word and a colon."""
    return token[-1] == ":" and bool(_NAME.fullmatch(token[:-1]))


def _split_sections(text: str) -> tuple[dict[str, list[str]], list[str]]:
    """The lines of each section that are neither blank nor ``\\`` comments, by heading
    (every heading seen is a key), but for ``Subject To``, whose stripped lines come as
    blocks of text instead.  A block is cut once it holds about ``_piece_size()`` terms
    (8 characters each), before a line whose first token names a row, so no row spans
    two blocks."""
    bodies, blocks, block, size, limit = {}, [], [], 0, 8 * _piece_size()
    lines = rows = None
    for line in _text_lines(text):
        stripped = line.strip()
        if stripped in _SECTIONS:
            lines, rows = bodies.setdefault(stripped, []), stripped == "Subject To"
        elif lines is None or not stripped or stripped[0] == "\\":
            continue
        elif not rows:
            lines.append(line)
        else:
            if size >= limit and _opens_row(stripped.split(None, 1)[0]):
                blocks.append("\n".join(block))
                block, size = [], 0
            block.append(stripped)
            size += len(stripped)
    if block:
        blocks.append("\n".join(block))
    return bodies, blocks


def parse_lp(text: str) -> IpModel:
    """Parse the subset of LP format produced by ``emit_lp``.

    The ``Subject To`` rows are read in blocks of lines (``_split_sections``), each split,
    coded and parsed on its own, so that no token list of the whole section is built.
    """
    bodies, blocks = _split_sections(text)

    if "Minimize" not in bodies:
        raise ValueError("LP text has no Minimize section")
    if "End" not in bodies:
        raise ValueError("LP text has no End marker")

    bounds: dict[str, tuple[int, int]] = {}
    for line in bodies.get("Bounds", []):
        m = re.fullmatch(r"\s*(-?\d+)\s*<=\s*(\w+)\s*<=\s*(-?\d+)\s*", line)
        if not m:
            raise ValueError(f"unsupported bounds line: {line!r}")
        lo, name, hi = int(m.group(1)), m.group(2), int(m.group(3))
        if lo not in _INT64 or hi not in _INT64:
            raise ValueError(f"bounds of {name!r} do not fit int64")
        bounds[name] = (lo, hi)
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
    missing |= missing_quad
    if (doubled % 2).any():
        raise ValueError("quadratic coefficients must be doubled inside [ ]")
    model.quad_coefs = doubled // 2

    # rows: a name with a colon, terms, one relation, an integer right-hand side
    coefs, cols, relations, rhs = [model.coefs], [model.cols], [model.relations], [model.rhs]
    starts, terms = [], 0
    blocks.reverse()
    while blocks:
        tokens = blocks.pop().split()
        code = codes(tokens)
        start = np.array([t for t in np.flatnonzero(code == _OTHER).tolist()
                          if _opens_row(tokens[t])], np.int64)
        if not (start.size and start[0] == 0):  # a later block starts with a row name
            raise ValueError(f"constraint text {tokens[0]!r} comes before any constraint name")
        end = np.append(start[1:], len(tokens))
        names = [tokens[t][:-1] for t in start.tolist()]
        relation = (code <= _TOKEN_CODES["="]) & (code >= _TOKEN_CODES[">="])
        count = np.add.reduceat(relation.astype(np.int64), start)
        words = [tokens[t] for t in (end - 1).tolist()]
        integral = np.array([bool(_INT.fullmatch(v)) for v in words], bool)
        ok = (count == 1) & relation[np.maximum(end - 2, 0)] & integral
        if not ok.all():
            name = names[int(np.argmin(ok))]
            raise ValueError(f"constraint {name!r} does not end with a relation and an integer")
        rhs.append(_int64(list(map(int, words)), lambda i: (
            f"constraint {names[i]!r} right-hand side {words[i]} does not fit int64")))
        relations.append((_TOKEN_CODES["="] - code[end - 2]).astype(np.int8))
        skip = np.zeros(len(tokens), bool)
        skip[np.concatenate([start, end - 2, end - 1])] = True
        row_of = lambda t: f"constraint {names[np.searchsorted(start, t, 'right') - 1]!r}"
        block_coefs, block_cols, at, missing_rows = _parse_terms(tokens, code, skip, row_of)
        starts.append(np.searchsorted(at, start) + terms)
        terms += len(at)
        coefs.append(block_coefs)
        cols.append(block_cols)
        model.row_names += names
        missing |= missing_rows
    if missing:
        raise _undeclared(missing)
    seen = set()
    for name in model.row_names:
        if name in seen:
            raise ValueError(f"constraint {name!r} is repeated")
        seen.add(name)
    model.coefs, model.cols, model.relations, model.rhs = map(
        np.concatenate, (coefs, cols, relations, rhs))
    model.indptr = np.concatenate(starts + [[terms]])
    return model


def _mps_columns(model: IpModel, names: np.ndarray):
    """The ``COLUMNS`` entries of ``emit_mps``, one string per block of entries: each
    variable's summed objective coefficient, then its row terms, variable by variable."""
    lin_vars, inverse = np.unique(model.lin_vars, return_inverse=True)
    lin_coefs = np.zeros(len(lin_vars), np.int64)
    np.add.at(lin_coefs, inverse, model.lin_coefs)
    cols = np.append(lin_vars, model.cols)
    order = np.argsort(cols, kind="stable")
    first = np.append(0, np.cumsum(np.bincount(cols, minlength=len(names))))  # of each variable
    del cols
    labels = np.array(["obj"] + model.row_names, dtype=object)
    for a, b in _blocks(len(order)):
        term = order[a:b] - len(lin_vars)  # a row term, or an objective entry if negative
        objective = term < 0
        coefs = np.empty(b - a, np.int64)
        coefs[objective] = lin_coefs[order[a:b][objective]]
        coefs[~objective] = model.coefs[term[~objective]]
        distinct, coef_index = np.unique(coefs, return_inverse=True)
        entries = np.empty((b - a, 7), dtype=object)
        entries[:, 0], entries[:, 2], entries[:, 4], entries[:, 6] = "    ", "  ", "  ", "\n"
        entries[:, 1] = names[np.searchsorted(first, np.arange(a, b), "right") - 1]
        entries[:, 3] = labels[np.searchsorted(model.indptr, term, "right")]  # 0 (obj) if negative
        entries[:, 5] = np.array(list(map(str, distinct.tolist())), dtype=object)[coef_index]
        yield "".join(entries.ravel().tolist())


def _mps_pieces(model: IpModel):
    """The text of ``emit_mps`` in pieces, one per block of at most ``_piece_size()`` rows,
    entries or variables."""
    names = np.array(model.names, dtype=object)
    yield _text(["NAME          AOAMODEL", "ROWS", " N  obj"])
    for a, b in _blocks(len(model.row_names)):
        yield _text([f" {'ELG'[r]}  {name}" for r, name in zip(
            model.relations[a:b].tolist(), model.row_names[a:b])])
    marker = "    MARKER                 'MARKER'                 "
    yield _text(["COLUMNS", marker + "'INTORG'"])
    yield from _mps_columns(model, names)
    yield _text([marker + "'INTEND'", "RHS"])
    for a, b in _blocks(len(model.row_names)):
        yield _text([f"    RHS  {name}  {v}" for name, v in zip(
            model.row_names[a:b], model.rhs[a:b].tolist()) if v])
    yield "BOUNDS\n"
    for a, b in _blocks(len(names)):
        rows = zip(names[a:b].tolist(), model.kinds[a:b].tolist(), model.lower[a:b].tolist(),
                   model.upper[a:b].tolist())
        yield _text([f" LO BND  {name}  {lo}\n UP BND  {name}  {hi}" if kind else f" BV BND  {name}"
                     for name, kind, lo, hi in rows])
    if len(model.quad_vars):
        yield "QMATRIX\n"
    for a, b in _blocks(len(model.quad_vars)):
        yield _text([f"    {name}  {name}  {2 * coef}" for coef, name in zip(
            model.quad_coefs[a:b].tolist(), names[model.quad_vars[a:b]].tolist())])
    yield "ENDATA\n"


def emit_mps(model: IpModel) -> str:
    """Free-format MPS emission (secondary to the LP format)."""
    return "".join(_mps_pieces(model))


def parse_solution(text: str, path: str | None = None) -> dict[str, float]:
    """Read whitespace-separated ``name value`` lines; ``#`` starts a comment.  A
    malformed line raises ``ParseError`` there, at the column of a value not a number
    or of a name given on an earlier line."""
    out: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != 2:
            raise ParseError(f"expected 'name value', got {raw!r}", lineno, 1, path)
        name, value = fields
        if name in out:
            raise ParseError(f"name {name!r} is repeated", lineno, raw.index(name) + 1, path)
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise ParseError(str(exc), lineno, _value_column(raw, name, value), path) from None
    return out


def _value_column(raw: str, name: str, value: str) -> int:
    """1-based column of ``value`` after ``name`` on one solution line."""
    return raw.index(value, raw.index(name) + len(name)) + 1


def _value_position(text: str, name: str) -> tuple[int, int]:
    """Line and column of ``name``'s value in solution text that ``parse_solution`` read."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields[:1] == [name]:
            return lineno, _value_column(raw, name, fields[1])
    raise KeyError(name)


def solve_with_command(
    model: IpModel, command_template: str, workdir: str | None = None
) -> dict[str, float]:
    """Write the LP, run ``command_template`` (placeholders {lp} and {sol}),
    and parse the resulting solution file."""
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        lp_path = Path(tmp) / "model.lp"
        sol_path = Path(tmp) / "model.sol"
        _write_text(lp_path, _lp_pieces(model))
        argv = [
            part.format(lp=str(lp_path), sol=str(sol_path))
            for part in shlex.split(command_template)
        ]
        subprocess.run(argv, check=True)
        return parse_solution(sol_path.read_text(), str(sol_path))

"""Local Pareto-front search over arrays and orbit-compressed encodings.

The heuristic keeps a Pareto front for the objective pair
(strength-2 p-unbalance, strength-2 tolerance) and repeatedly scans the
radius-r Hamming neighborhood of the front members in a fixed deterministic
order: all single-cell changes (member index, then cell row-major, then
replacement level ascending), then all ordered two-cell changes.  The scan
restarts from the beginning after every successful front insertion and the
search stops when one full scan changes nothing, so the result is a local
Pareto front of radius r.

Compressed encodings (``bicyclic``: run orbits under ((1..s)|(1..r));
``quasicyclic``: all-ones fixed rows plus orbits under ((2..s)|id)) search
over core cells only.  A member is expanded by one gather over the
generator's powers (``symmetry._orbit_gather``), block-major: the fixed
rows, then g^0 of every core row, then g^1 of every core row, and so on.
Every move is scored by the member's pair-count tables (``_PairTables``)
over the expanded cells it sets; only an undominated move is expanded.

A ``time_budget`` is checked before every move a scan visits, so a search
stops within one evaluation of running out and reports ``complete`` False.
With ``--verbose`` every pass logs the moves it examined, the front size,
the best objectives, its insertions and its time.

``brute_force_optimum`` is an exhaustive oracle for tiny instances: it pins
the first two columns to the lexicographic lambda-fold full factorial and
enumerates the remaining columns as a sorted multiset (both reductions leave
the optimal objective values unchanged because the metrics are invariant
under level/column/row permutations), optionally under a tolerance cap.
A state is a sorted tuple of indices into the s^N level vectors listed in
``itertools.product`` order, and states are taken in
``combinations_with_replacement`` order.  All but the last column of a state
form its prefix, which is counted once; every last column from the prefix's
last index up is then scored in blocks of one integer count matrix
(``arrays._last_column_counts``).  The witnesses of each minimum are its
first states in that order.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .arrays import (
    Array,
    Exact,
    _count_table,
    _last_column_counts,
    _level_digits,
    _pair_rows,
    _RunningMinimum,
    tolerance,
    unbalance,
)
from .symmetry import (
    GroupElement,
    _orbit_gather,
    _powers,
    bicyclic_generator,
    cycle_permutation,
    identity_element,
)

__all__ = [
    "ObjectiveVector",
    "FrontMember",
    "ParetoFront",
    "SearchConfig",
    "ScanReport",
    "front_insert",
    "neighborhood_scan",
    "local_pareto_search",
    "OracleResult",
    "brute_force_optimum",
]

logger = logging.getLogger(__name__)

CROSS_CHECK_DELTA = False
"""When true, the objectives of every scored move are re-verified by full
recomputation before the dominance test (enabled by the test suite)."""


@dataclass(frozen=True, order=True)
class ObjectiveVector:
    """(Unb_{p,2}, Tol_2), compared componentwise."""

    unbalance: Exact
    tolerance: Exact

    def dominates_or_equals(self, other: "ObjectiveVector") -> bool:
        return self.unbalance <= other.unbalance and self.tolerance <= other.tolerance


@dataclass(frozen=True)
class FrontMember:
    """A front entry: the searched cells, their expansion, and its objectives."""

    cells: np.ndarray
    array: Array
    objective: ObjectiveVector


@dataclass
class ParetoFront:
    """Antichain of members under the componentwise objective order."""

    members: list[FrontMember] = field(default_factory=list)
    complete: bool = True

    def objectives(self) -> list[tuple[Exact, Exact]]:
        return [(m.objective.unbalance, m.objective.tolerance) for m in self.members]

    def best_unbalance(self) -> Exact:
        return min(m.objective.unbalance for m in self.members)

    def best_tolerance(self) -> Exact:
        return min(m.objective.tolerance for m in self.members)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the local search; radius > 2 is rejected at scan time."""

    p: int = 2
    radius: int = 2
    seed: int = 0
    encoding: str = "plain"
    max_passes: int | None = None
    time_budget: float | None = None
    restarts: int = 1
    bicyclic_r: int | None = None

    def __post_init__(self):
        if self.p not in (1, 2):
            raise ValueError("p must be 1 or 2")
        if self.radius < 1:
            raise ValueError("radius must be >= 1")
        if self.encoding not in ("plain", "bicyclic", "quasicyclic"):
            raise ValueError(f"unknown encoding {self.encoding!r}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.bicyclic_r is not None and self.encoding != "bicyclic":
            raise ValueError("bicyclic_r applies only to the bicyclic encoding")


def front_insert(front: ParetoFront, member: FrontMember) -> bool:
    """Insert unless dominated-or-equalled; then drop newly dominated members."""
    obj = member.objective
    if any(m.objective.dominates_or_equals(obj) for m in front.members):
        return False
    front.members = [
        m for m in front.members if not obj.dominates_or_equals(m.objective)
    ]
    front.members.append(member)
    return True


class _Encoder:
    """Block-major expansion of searched core cells into full arrays.

    The generator is the identity (plain), ((1..s)|(1..r)) or ((2..s)|id).
    """

    def __init__(self, kind: str, n_runs: int, k: int, s: int, r: int | None):
        self.kind, self.s = kind, s
        n_fixed = 0
        if kind == "plain":
            g = identity_element(s, k)
        elif kind == "bicyclic":
            g = bicyclic_generator(s, k, r)
        elif kind == "quasicyclic":
            g = GroupElement(cycle_permutation(s, tuple(range(2, s + 1))), tuple(range(1, k + 1)))
            n_fixed = n_runs // (s * s)
        else:
            raise ValueError(f"unknown encoding {kind!r}")
        self.powers = _powers(g)
        self.fixed = np.ones((n_fixed, k), dtype=np.int64)
        self.core_shape = ((n_runs - n_fixed) // len(self.powers[0]), k)
        # expanded cell (offset_t + i, j) is core cell (i, sources[t, j]) under
        # levels[t], so per power t core column c drives the one j sourced from c
        levels, sources = (table.tolist() for table in self.powers)
        offsets = [n_fixed + t * self.core_shape[0] for t in range(len(levels))]
        self.drives = [
            [(lv, offset, row.index(c)) for lv, offset, row in zip(levels, offsets, sources)]
            for c in range(k)
        ]

    def random_cells(self, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "quasicyclic":
            # core rows must leave the all-ones fixed rows to the fixed part
            while True:
                cells = rng.integers(1, self.s + 1, size=self.core_shape)
                if np.all(cells.max(axis=1) > 1):
                    return cells
        return rng.integers(1, self.s + 1, size=self.core_shape)

    def to_array(self, cells: np.ndarray) -> Array:
        orbits = _orbit_gather(self.powers, cells).reshape(-1, cells.shape[1])
        return Array(np.concatenate([self.fixed, orbits]), self.s)

    def driven(self, move) -> list[tuple[int, int, int]]:
        """0-based (row, column, level) of every expanded cell a move of core cells sets."""
        return [
            (offset + i, j, level_map[level] - 1)
            for (i, c), level in move
            for level_map, offset, j in self.drives[c]
        ]


class _PairTables:
    """Per-column-pair level-pair counts giving exact objectives after a batch of changes."""

    def __init__(self, array: Array, p: int):
        self.s, self.p = array.n_levels, p
        self.lam = lam = array.n_runs // (self.s * self.s)
        self.levels = (array.cells - 1).tolist()
        table = _count_table(array, 2)
        dev = np.abs(table - lam)
        self.counts = table.tolist()
        self.unb = int((dev**p).sum())
        self.row_dev = dev.max(axis=1).tolist()
        # rows by falling deviation: the first a batch leaves alone is the untouched maximum
        self.by_dev = sorted(range(len(self.row_dev)), key=self.row_dev.__getitem__, reverse=True)
        self.pair_rows = _pair_rows(array.n_factors).tolist()

    def change(self, cells) -> ObjectiveVector:
        """Objectives after setting every 0-based (row, column, level) of
        ``cells`` in turn, without mutating the tables."""
        s, lam, p = self.s, self.lam, self.p
        rows: dict[int, list[int]] = {}  # touched array rows, as set so far
        delta: dict[int, dict[int, int]] = {}  # table row -> code -> count change
        for i, j, level in cells:
            row = rows.setdefault(i, self.levels[i].copy())
            old, row[j] = row[j], level
            for c, r in enumerate(self.pair_rows[j]):
                if c != j and old != level:
                    codes = delta.setdefault(r, {})
                    for lv, d in ((old, -1), (level, 1)):
                        code = lv * s + row[c] if j < c else row[c] * s + lv
                        codes[code] = codes.get(code, 0) + d
        unb = self.unb
        tol = next((self.row_dev[r] for r in self.by_dev if r not in delta), 0)
        for r, codes in delta.items():
            counts = self.counts[r].copy()
            for code, d in codes.items():
                unb += abs(counts[code] + d - lam) ** p - abs(counts[code] - lam) ** p
                counts[code] += d
            # |count - lam| is convex: the row's extremes hold its largest deviation
            tol = max(tol, max(counts) - lam, lam - min(counts))
        return ObjectiveVector(unb, tol)


def _evaluate(enc: _Encoder, cells: np.ndarray, p: int) -> FrontMember:
    arr = enc.to_array(cells)
    obj = ObjectiveVector(unbalance(arr, 2, p), tolerance(arr, 2))
    return FrontMember(cells=cells.copy(), array=arr, objective=obj)


def _moved(cells: np.ndarray, move) -> np.ndarray:
    out = cells.copy()
    for pos, level in move:
        out[pos] = level
    return out


class _OutOfTime(Exception):
    """Raised inside a scan when the search's time budget has run out."""


@dataclass
class ScanReport:
    """Outcome of one neighborhood scan (stopped at the first insertion)."""

    changed: bool
    examined: int


def neighborhood_scan(front: ParetoFront, radius: int, visitor) -> ScanReport:
    """Visit every radius-r neighbor of every member in the fixed scan order.

    ``visitor(member_index, move)`` gets the neighbor as a tuple of
    ``((row, column), level)`` pairs, each setting a 0-based cell of the
    member's ``cells`` to a new level, and returns True when it inserted the
    neighbor; the scan then stops so the caller can restart it.
    """
    if radius > 2:
        raise ValueError("radius > 2 is not supported (search need not terminate)")
    examined = 0
    snapshot = list(front.members)
    for stage in (1, 2) if radius >= 2 else (1,):
        for idx, member in enumerate(snapshot):
            current = member.cells.tolist()
            rows, cols = member.cells.shape
            s = member.array.n_levels
            flat = [(i, j) for i in range(rows) for j in range(cols)]
            if stage == 1:
                moves = (((pos, lv),) for pos in flat for lv in range(1, s + 1))
            else:
                moves = (
                    ((p1, l1), (p2, l2))
                    for p1, p2 in itertools.combinations(flat, 2)
                    for l1 in range(1, s + 1)
                    for l2 in range(1, s + 1)
                )
            for move in moves:
                if any(current[i][j] == lv for (i, j), lv in move):
                    continue
                examined += 1
                if visitor(idx, move):
                    return ScanReport(changed=True, examined=examined)
    return ScanReport(changed=False, examined=examined)


def _single_search(enc: _Encoder, cfg: SearchConfig, seed: int) -> ParetoFront:
    rng = np.random.default_rng(seed)
    front = ParetoFront()
    front_insert(front, _evaluate(enc, enc.random_cells(rng), cfg.p))

    deadline = None if cfg.time_budget is None else time.monotonic() + cfg.time_budget
    passes = 0
    tables: dict[int, _PairTables] = {}

    def visitor(idx: int, move) -> bool:
        if deadline is not None and time.monotonic() > deadline:
            raise _OutOfTime
        member = front.members[idx]
        if idx not in tables:
            tables[idx] = _PairTables(member.array, cfg.p)
        obj = tables[idx].change(enc.driven(move))
        if CROSS_CHECK_DELTA:
            full = _evaluate(enc, _moved(member.cells, move), cfg.p)
            assert full.objective == obj, "delta evaluation mismatch"
        if any(m.objective.dominates_or_equals(obj) for m in front.members):
            return False
        cells = _moved(member.cells, move)
        return front_insert(front, FrontMember(cells, enc.to_array(cells), obj))

    while True:
        began = time.perf_counter()
        passes += 1
        try:
            report = neighborhood_scan(front, cfg.radius, visitor)
        except _OutOfTime:
            front.complete = False
            logger.info(
                "pass %d: time budget ran out after %.3f s",
                passes,
                time.perf_counter() - began,
            )
            break
        tables.clear()
        logger.info(
            "pass %d: examined %d in %.3f s, front size %d, best %s, inserted %d",
            passes,
            report.examined,
            time.perf_counter() - began,
            len(front.members),
            min(front.objectives()),
            report.changed,  # a scan stops at its first insertion
        )
        if not report.changed:
            break
        if cfg.max_passes is not None and passes >= cfg.max_passes:
            front.complete = False
            break
    return front


def local_pareto_search(n_runs: int, k: int, s: int, cfg: SearchConfig) -> ParetoFront:
    """Run the two-stage local search; merge fronts over cfg.restarts seeds.

    Every returned member's objectives are recomputed from its expanded array
    before return.
    """
    for name, value, least in (("N", n_runs, 1), ("k", k, 2), ("s", s, 1)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    if n_runs % (s * s):
        raise ValueError("N must be a multiple of s^2")
    enc = _Encoder(cfg.encoding, n_runs, k, s, cfg.bicyclic_r)
    merged = ParetoFront()
    for i in range(cfg.restarts):
        front = _single_search(enc, cfg, cfg.seed + i)
        merged.complete = merged.complete and front.complete
        for m in front.members:
            front_insert(merged, m)
    for m in merged.members:
        check = ObjectiveVector(unbalance(m.array, 2, cfg.p), tolerance(m.array, 2))
        if check != m.objective:
            raise AssertionError("stored objectives failed final verification")
    return merged


@dataclass
class OracleResult:
    """Exact minima over the reduced exhaustive space (plus witnesses)."""

    min_unbalance: Exact
    min_tolerance: Exact
    unbalance_witnesses: list[Array]
    tolerance_witnesses: list[Array]
    tol_cap: int | None = None
    states: int = 0


def brute_force_optimum(
    n_runs: int,
    k: int,
    s: int,
    p: int = 2,
    tol_cap: int | None = None,
    max_states: int = 10**8,
    max_witnesses: int = 8,
) -> OracleResult:
    """Exhaustive minimum unbalance/tolerance for tiny (N, k, s).

    The first two columns are pinned to the lambda-fold lexicographic full
    factorial and the remaining k-2 columns range over sorted multisets of
    column vectors.  With ``tol_cap`` the unbalance minimum is taken over
    arrays with Tol_2 <= tol_cap (the hierarchy variant).
    """
    if n_runs % (s * s):
        raise ValueError("N must be a multiple of s^2")
    if k < 2:
        raise ValueError("need at least two columns")
    lam = n_runs // (s * s)
    n_vectors = s**n_runs
    states = math.comb(n_vectors + k - 3, k - 2)
    if states > max_states:
        raise ValueError(f"search space has {states} states (> {max_states})")
    if k > 2 and n_vectors > 10**6:
        raise ValueError(f"column-vector pool has {n_vectors} entries (> 10^6)")

    head = np.array(
        [(u, v) for u in range(1, s + 1) for v in range(1, s + 1)] * lam,
        dtype=np.int64,
    )
    head = head[np.lexsort((head[:, 1], head[:, 0]))]

    tol_best = _RunningMinimum(max_witnesses)
    unb_best = _RunningMinimum(max_witnesses)

    def fold(tol: np.ndarray, unb: np.ndarray, witness) -> None:
        tol_best.update(tol, witness)
        if tol_cap is None:
            unb_best.update(unb, witness)
        else:
            keep = np.flatnonzero(tol <= tol_cap)
            unb_best.update(unb[keep], lambda i: witness(keep[i]))

    if k == 2:
        only = Array(head, s)
        fold(np.array([tolerance(only, 2)]), np.array([unbalance(only, 2, p)]), lambda i: only)
        prefixes = ()
    else:
        # a state is a sorted tail of k-2 pool indices: its first k-3 entries
        # fix the prefix, and the last one runs from the prefix's last entry up
        prefixes = itertools.combinations_with_replacement(range(n_vectors), k - 3)
    for prefix in prefixes:
        prefix_cols = _level_digits(np.array(prefix, dtype=np.int64), n_runs, s) + 1
        cells = np.column_stack([head, *prefix_cols])
        dev = np.abs(_count_table(Array(cells, s), 2) - lam)
        prefix_tol, prefix_unb = int(dev.max()), int((dev**p).sum())
        start = prefix[-1] if prefix else 0
        for last, counts in _last_column_counts(cells - 1, s, start, n_vectors):
            dev = np.abs(counts.reshape(len(last), -1) - lam)
            fold(
                np.maximum(dev.max(axis=1), prefix_tol),
                (dev**p).sum(axis=1) + prefix_unb,
                lambda i: Array(np.column_stack([cells, last[i] + 1]), s),
            )
    if unb_best.value is None:
        raise ValueError(f"no array satisfies the tolerance cap {tol_cap}")
    return OracleResult(
        min_unbalance=unb_best.value,
        min_tolerance=tol_best.value,
        unbalance_witnesses=unb_best.witnesses,
        tolerance_witnesses=tol_best.witnesses,
        tol_cap=tol_cap,
        states=states,
    )

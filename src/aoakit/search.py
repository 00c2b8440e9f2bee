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
Moves are scored in blocks (``_BlockScorer``): the scan builds the moves of
one member and stage in scan order as index arrays, in blocks whose scoring
stays within ``arrays._CHUNK_BYTES``, and one offset ``np.bincount`` over the
expanded cells each move sets gives a block's exact count changes over the
whole pair-count table.  The first move of a block that no front member
dominates or equals, and whose changed core rows the encoding can hold
(``_Encoder.held``), is the one inserted, as if the moves were scored one
at a time; only that move is expanded.

A ``time_budget`` is checked before every block a scan scores, so a search
stops within one block of running out and reports ``complete`` False.
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
form its prefix, and the prefixes are made one at a time.  The oracle's
states are scored by the state scan it shares with ``ipmodel``
(``arrays._state_blocks``): each prefix is counted once, and every last
column from the prefix's last index up is then scored in integer blocks.
The witnesses of each minimum are its first states in that order.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .arrays import (
    _CHUNK_BYTES,
    Array,
    Exact,
    _count_table,
    _level_digits,
    _pair_rows,
    _RunningMinimum,
    _state_blocks,
    tolerance,
    unbalance,
)
from .symmetry import (
    GroupElement,
    _orbit_gather,
    _powers,
    _short_orbits,
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
        # per power t, core cell (i, c) at level v sets expanded cell
        # (drive_rows[t] + i, drive_cols[c, t]) to 0-based level drive_levels[v, t]
        levels, sources = self.powers
        self.drive_rows = n_fixed + self.core_shape[0] * np.arange(len(levels))
        self.drive_cols = np.argsort(sources, axis=1).T  # sources[t, j] = c
        self.drive_levels = (levels - 1).T
        # partners[j] are the columns x != j; the pair-table entry of (j at
        # level n, x at level q) is entry[j, x] + n * high[j, x] + q * low[j, x]
        self.partners = np.array([[x for x in range(k) if x != j] for j in range(k)]).reshape(k, -1)
        before = self.partners > np.arange(k)[:, None]  # j is the pair's first column
        self.entry = _pair_rows(k)[np.arange(k)[:, None], self.partners] * (s * s)
        self.high = np.where(before, s, 1)
        self.low = np.where(before, 1, s)

    def held(self, rows: np.ndarray) -> np.ndarray:
        """Which core rows the encoding can hold: a full orbit, and no quasicyclic all-ones row."""
        held = ~_short_orbits(self.powers, rows)
        if self.kind == "quasicyclic":  # the fixed part holds those, also at s = 2 where g = id
            held &= rows.max(axis=1) > 1
        return held

    def random_cells(self, rng: np.random.Generator) -> np.ndarray:
        cells = rng.integers(1, self.s + 1, size=self.core_shape)
        while not (held := self.held(cells)).all():  # redraw only the rows it cannot hold
            cells[~held] = rng.integers(1, self.s + 1, size=(int((~held).sum()), cells.shape[1]))
        return cells

    def to_array(self, cells: np.ndarray) -> Array:
        orbits = _orbit_gather(self.powers, cells).reshape(-1, cells.shape[1])
        return Array(np.concatenate([self.fixed, orbits]), self.s)


class _BlockScorer:
    """Exact objectives of blocks of moves of one member, from its pair-count table.

    A set cell of column j going from level o to level n moves one count of
    every partner column x from code (o, q) to code (n, q), q being x's
    level in that row once the move's earlier cells are set.  One offset
    ``np.bincount`` of the +1 and -1 codes of a block gives its moves x
    C(k,2)*s^2 count changes.
    """

    def __init__(self, enc: _Encoder, array: Array, p: int):
        self.enc, self.p = enc, p
        self.lam = array.n_runs // array.n_levels**2
        self.levels = array.cells - 1
        self.table = _count_table(array, 2)

    def objectives(self, moves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """int64 (Unb_{p,2}, Tol_2) of every move of an M x r x 3 block."""
        enc, width = self.enc, self.table.size
        core, col, level = moves[..., 0], moves[..., 1], moves[..., 2]
        rows = core[..., None] + enc.drive_rows  # M x r x size
        cols = enc.drive_cols[col]
        new = enc.drive_levels[level]
        old = self.levels[rows, cols]
        partners = enc.partners[cols]  # M x r x size x (k - 1)
        seen = self.levels[rows[..., None], partners]
        if moves.shape[1] == 2:
            # the second cell's row holds the first one's new level when they share it
            same = np.flatnonzero(core[:, 0] == core[:, 1])
            first, second = cols[same, 0], cols[same, 1]
            power = np.arange(rows.shape[2])
            seen[same[:, None], 1, power, first - (first > second)] = new[same, 0]
        common = enc.entry[cols] + seen * enc.low[cols]
        del partners, seen
        common += np.arange(0, len(moves) * width, width).reshape(-1, 1, 1, 1)
        high = enc.high[cols]
        delta = np.bincount((common + new[..., None] * high).ravel(), minlength=len(moves) * width)
        delta -= np.bincount((common + old[..., None] * high).ravel(), minlength=len(moves) * width)
        del common, high
        dev = delta.reshape(len(moves), width)
        dev += self.table.reshape(1, width)
        dev -= self.lam
        np.abs(dev, out=dev)
        tol = dev.max(axis=1)
        if self.p == 2:
            dev *= dev
        return dev.sum(axis=1), tol


def _block_moves(member: "FrontMember", stage: int) -> int:
    """Moves per block of a stage, so that a block's scoring stays within ``_CHUNK_BYTES``.

    Scoring holds two dense moves x C(k,2)*s^2 count arrays and a few arrays
    of (expanded cells per core cell, rounded up) x (k - 1) codes per set cell.
    """
    arr = member.array
    width = math.comb(arr.n_factors, 2) * arr.n_levels**2
    driven = -(-arr.n_runs // member.cells.shape[0])
    codes = stage * driven * (arr.n_factors - 1)
    return max(1, _CHUNK_BYTES // (8 * (2 * width + 8 * codes)))


def _stage_moves(cells: np.ndarray, s: int, stage: int, lo: int, hi: int) -> np.ndarray:
    """Moves lo..hi-1 of a scan stage as a block: row m sets (row, column) to level.

    Stage 1 takes the cells in row-major order, and per cell every level but
    its own, ascending.  Stage 2 takes the cell pairs in
    ``itertools.combinations`` order, and per pair the two cells' level pairs
    in lexicographic order.
    """
    flat, alt = cells.ravel(), s - 1
    index = np.arange(lo, hi)
    if stage == 1:
        pos, choice = np.divmod(index, alt)
        pos, choice = pos[:, None], choice[:, None]
    else:
        pair, rest = np.divmod(index, alt * alt)
        # the pairs led by cell q start at starts[q]
        q = np.arange(len(flat) - 1)
        starts = q * (2 * len(flat) - q - 1) // 2
        first = np.searchsorted(starts, pair, side="right") - 1
        pos = np.stack([first, pair - starts[first] + first + 1], axis=1)
        choice = np.stack(np.divmod(rest, alt), axis=1)
    level = choice + 1
    level += level >= flat[pos]  # skip the cell's own level
    return np.stack([*np.divmod(pos, cells.shape[1]), level], axis=-1)


def _evaluate(enc: _Encoder, cells: np.ndarray, p: int) -> FrontMember:
    arr = enc.to_array(cells)
    obj = ObjectiveVector(unbalance(arr, 2, p), tolerance(arr, 2))
    return FrontMember(cells=cells.copy(), array=arr, objective=obj)


def _moved(cells: np.ndarray, move: np.ndarray) -> np.ndarray:
    out = cells.copy()
    out[move[:, 0], move[:, 1]] = move[:, 2]
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

    The neighbors of a member come in blocks of consecutive moves, each
    sized by ``_block_moves``.  ``visitor(member_index, moves)`` gets a block
    as an M x r x 3 int64 array: move m sets the 0-based cell
    ``moves[m, c, :2]`` of the member's ``cells`` to level ``moves[m, c, 2]``
    for each of its r cells.  It returns the position in the block of the
    neighbor it inserted, or None; after an insertion the scan stops so the
    caller can restart it.
    """
    if radius > 2:
        raise ValueError("radius > 2 is not supported (search need not terminate)")
    examined = 0
    snapshot = list(front.members)
    for stage in (1, 2) if radius >= 2 else (1,):
        for idx, member in enumerate(snapshot):
            s = member.array.n_levels
            total = math.comb(member.cells.size, stage) * (s - 1) ** stage
            step = _block_moves(member, stage)
            for lo in range(0, total, step):
                moves = _stage_moves(member.cells, s, stage, lo, min(lo + step, total))
                hit = visitor(idx, moves)
                if hit is not None:
                    return ScanReport(changed=True, examined=examined + hit + 1)
                examined += len(moves)
    return ScanReport(changed=False, examined=examined)


def _single_search(enc: _Encoder, cfg: SearchConfig, seed: int) -> ParetoFront:
    rng = np.random.default_rng(seed)
    front = ParetoFront()
    front_insert(front, _evaluate(enc, enc.random_cells(rng), cfg.p))

    deadline = None if cfg.time_budget is None else time.monotonic() + cfg.time_budget
    passes = 0
    scorers: dict[int, _BlockScorer] = {}

    def visitor(idx: int, moves: np.ndarray) -> int | None:
        if deadline is not None and time.monotonic() > deadline:
            raise _OutOfTime
        member = front.members[idx]
        if idx not in scorers:
            scorers[idx] = _BlockScorer(enc, member.array, cfg.p)
        unb, tol = scorers[idx].objectives(moves)
        bests = np.array(front.objectives(), dtype=np.int64)
        free = ~((bests[:, :1] <= unb) & (bests[:, 1:] <= tol)).any(axis=0)
        for pos in np.flatnonzero(free).tolist():  # the first undominated move the encoding holds
            cells = _moved(member.cells, moves[pos])
            if enc.held(cells[moves[pos, :, 0]]).all():
                objective = ObjectiveVector(int(unb[pos]), int(tol[pos]))
                front_insert(front, FrontMember(cells, enc.to_array(cells), objective))
                return pos
        return None

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
        scorers.clear()
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

    head = _level_digits(np.arange(n_runs) // lam, 2, s) + 1  # each level pair lam times

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
        # a state is a sorted tail of k-2 pool indices: its first k-3 entries fix the prefix
        # and the last runs up from the prefix's last; the function copies the pool: () at k = 3
        tails = itertools.combinations_with_replacement(range(n_vectors) if k > 3 else (), k - 3)
        prefixes = ((_level_digits(np.array(t, np.int64), n_runs, s) + 1, t[-1] if t else 0)
                    for t in tails)
    for tol, unb, _, witness in _state_blocks(head, prefixes, s, p):
        fold(tol, unb, witness)
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

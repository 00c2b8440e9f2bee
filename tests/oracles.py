"""Slow, independent reference implementations used to cross-check the package.

Everything here is written in plain Python (loops, Fractions, itertools) with
no reuse of the library's own vectorised code paths, so that agreement between
the two is meaningful evidence of correctness.  The exceptions are
``discrepancy_sq_broadcast``, the library's earlier numpy formula, kept as a
bit-for-bit reference for the float arithmetic order, and the two per-state
exact oracles ``exhaustive_optimum_loop`` and ``brute_force_optimum_loop``,
the library's earlier enumerations kept verbatim as the reference for the
block-scored ones (value, state counts and witnesses in order), the
earlier orbit expansions (``EncoderLoop``, the search's block-major per-kind
formulas, and ``expand_loop``/``compress_loop``, the per-row ``_orbit``
loop of ``symmetry``), kept verbatim as the reference for the orbit gather,
and the IP model's earlier pinned-prefix rows and solution audit
(``prefix_constraints_loop``, ``verify_solution_loop``: row formulas per
pinned column, per-family bound formulas and a per-row z loop), kept verbatim
as the reference for the versions that read ``canonical_head`` and
``canonical_assignment``, the earlier per-cell ``canonical_assignment_loop``
and the deviation lists it and the other IP references read (``_deviations``
for names and bounds, ``_delta_values`` for values), kept verbatim as the
reference for the value vectors over ``ipmodel._layout``, and the IP model's earlier
object form (``IpModelLists`` with ``build_model_loop``,
``add_symmetry_loop``, ``emit_lp_loop``, ``emit_mps_loop`` and
``parse_lp_loop``: lists of ``Variable`` and ``Constraint`` filled one name
at a time), kept verbatim as the reference for the array-backed model, with
``model_of`` to convert such lists into an ``IpModel``,
the search's earlier per-move scoring (``driven`` and ``_PairTables``: the
expanded cells a move sets, and dict-based count changes per move), kept
verbatim as the reference for the block scorer, and the earlier
``evaluate_model_loop`` over the object lists, kept as the reference for the
array-backed audit, and the earlier full-table ``is_oa``, ``tolerance``,
``unbalance`` and ``bandwidth`` (``is_oa_table``, ``tolerance_table``,
``unbalance_table``, ``bandwidth_table``: each reduces the whole
``_count_table``), kept verbatim as the reference for the versions read off
the count histogram and, for non-integer p, summed chunk by chunk, and the
earlier bucket-dict ``arrange_canonical`` (``arrange_canonical_loop``), kept
verbatim as the reference for the argsort of the head-pair codes.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from aoakit.arrays import (
    Array,
    _as_exact,
    _check_strength,
    _count_table,
    _pair_rows,
    tolerance,
    unbalance,
)
from aoakit.ipmodel import (
    Constraint,
    ExhaustiveResult,
    IpInstance,
    IpModel,
    ModelCheck,
    Variable,
    VerificationReport,
    _KINDS,
    _LP_WIDTH,
    _NAME,
    _RELATIONS,
    _balanced_column_count,
    _balanced_columns,
    _parts,
    _prefix_row_map,
    arrange_canonical,
    canonical_head,
)
from aoakit.search import ObjectiveVector, OracleResult
from aoakit.symmetry import (
    GroupElement,
    SymmetricEncoding,
    _default_bicyclic_r,
    bicyclic_generator,
    cycle_permutation,
    is_automorphism,
    klein_generator,
    semicyclic_generator,
)


def count_tuple_slow(a: Array, x, cols) -> int:
    """Count rows whose projection onto ``cols`` equals ``x`` by direct scan."""
    hits = 0
    for row in a.cells:
        if all(row[c] == want for c, want in zip(cols, x)):
            hits += 1
    return hits


def tolerance_slow(a: Array, t: int) -> int:
    """Max deviation of any t-tuple count from N / s^t, by full enumeration."""
    target = Fraction(a.n_runs, a.n_levels**t)
    worst = Fraction(0)
    for cols in itertools.combinations(range(a.n_factors), t):
        for x in itertools.product(range(1, a.n_levels + 1), repeat=t):
            dev = abs(count_tuple_slow(a, x, cols) - target)
            worst = max(worst, dev)
    return worst


def unbalance_slow(a: Array, t: int, p: int):
    """Sum of |count - N/s^t|^p over all column t-subsets and level t-tuples."""
    target = Fraction(a.n_runs, a.n_levels**t)
    total = Fraction(0)
    for cols in itertools.combinations(range(a.n_factors), t):
        for x in itertools.product(range(1, a.n_levels + 1), repeat=t):
            total += abs(count_tuple_slow(a, x, cols) - target) ** p
    return total


def is_oa_table(a: Array, t: int) -> bool:
    """Whether every t-tuple count equals N/s^t exactly (strength-t OA)."""
    table = _count_table(a, t)
    return bool(np.all(table * a.n_levels**t == a.n_runs))


def tolerance_table(a: Array, t: int):
    """Largest deviation ``|count - N/s^t|`` over all tuples and columns."""
    table = _count_table(a, t)
    st, n = a.n_levels**t, a.n_runs
    # |c*s^t - N| is convex in c, so the extreme counts attain the maximum
    worst = max(abs(int(table.min()) * st - n), abs(int(table.max()) * st - n))
    return _as_exact(worst, st)


def unbalance_table(a: Array, t: int, p):
    """Sum of p-th powers of all deviations ``|count - N/s^t|``.

    Exact (int or Fraction) for integer ``p``; float for non-integer ``p``.
    """
    _check_strength(a, t)
    if p < 1:
        raise ValueError("p must be >= 1")
    table = _count_table(a, t)
    st, n = a.n_levels**t, a.n_runs
    if isinstance(p, int) or (isinstance(p, float) and p.is_integer()):
        p = int(p)
        counts, weights = np.unique(table, return_counts=True)
        devs = np.abs(counts * st - n).tolist()
        total = sum(w * d**p for d, w in zip(devs, weights.tolist()))
        return _as_exact(total, st**p)
    total_f = 0.0  # summed row by row, in table order: the float result depends on it
    for row_sum in (np.abs(table - n / st) ** p).sum(axis=1).tolist():
        total_f += row_sum
    return total_f


def bandwidth_table(a: Array, t: int):
    """Largest gap between any two t-tuple counts, across all column tuples."""
    table = _count_table(a, t)
    return int(table.max()) - int(table.min())


def hamming_slow(a: Array):
    """N x N matrix of coincidence counts between row pairs."""
    rows = a.cells.tolist()
    n = len(rows)
    return [
        [sum(1 for u, v in zip(rows[i], rows[j]) if u == v) for j in range(n)]
        for i in range(n)
    ]


def unbalance2_from_hamming_slow(a: Array, t: int):
    """Power-2 unbalance through the coincidence identity, evaluated naively.

    Sums C(H(r, r~), t) over all ordered row pairs including the diagonal,
    then subtracts C(k, t) * N^2 / s^t.
    """
    from math import comb

    h = hamming_slow(a)
    total = sum(comb(hij, t) for row in h for hij in row)
    return total - Fraction(
        comb(a.n_factors, t) * a.n_runs**2, a.n_levels**t
    )


def discrepancy_sq_slow(points, kernel) -> float:
    """Squared projection discrepancy by the direct O(N^2 k) double sum."""
    n, k = len(points), len(points[0])
    sq = kernel.i2**k
    for x in points:
        prod = 1.0
        for u in x:
            prod *= kernel.i1(u)
        sq -= 2.0 * prod / n
    for x in points:
        for y in points:
            prod = 1.0
            for u, v in zip(x, y):
                prod *= kernel.k1(u, v)
            sq += prod / (n * n)
    return sq


def discrepancy_sq_broadcast(ps, kernel) -> float:
    """Squared discrepancy through the full N x N x k kernel tensor.

    The library's earlier formula, kept verbatim: its float result is the
    exact-equality reference for the column fold in ``discrepancy_sq``.
    """
    pts = ps.points
    n, k = pts.shape
    cross = float(np.prod(kernel.i1(pts), axis=1).sum())
    pair = float(np.prod(kernel.k1(pts[:, None, :], pts[None, :, :]), axis=2).sum())
    return kernel.i2**k - 2.0 * cross / n + pair / (n * n)


def dd_sq_slow(a: Array, pa, pb):
    """Squared two-level projection discrepancy straight from its definition.

    DD^2 = -((pa - pb)/s + pb)^k + (1/N^2) * sum over ordered row pairs of
    pa^H * pb^(k - H), with H the coincidence count of the pair.
    """
    pa, pb = Fraction(pa), Fraction(pb)
    s, k, n = a.n_levels, a.n_factors, a.n_runs
    h = hamming_slow(a)
    pair_sum = sum(pa**hij * pb ** (k - hij) for row in h for hij in row)
    return -(((pa - pb) / s + pb) ** k) + Fraction(pair_sum, n * n)


def min_unbalance_grid_4_4_2(p: int):
    """Exhaustive minimum over every 4-run, 4-factor, 2-level array.

    Enumerates all 2^16 arrays (each column is a 4-bit mask), so this does not
    rely on any symmetry or head-pinning reduction.  Returns (min unbalance,
    min tolerance among unbalance-minimal arrays).
    """
    pair_unb = [[0] * 16 for _ in range(16)]
    pair_tol = [[0] * 16 for _ in range(16)]
    for x in range(16):
        for y in range(16):
            counts = [0, 0, 0, 0]
            for i in range(4):
                counts[2 * ((x >> i) & 1) + ((y >> i) & 1)] += 1
            pair_unb[x][y] = sum(abs(c - 1) ** p for c in counts)
            pair_tol[x][y] = max(abs(c - 1) for c in counts)

    best_unb = None
    best_tol = None
    for c1 in range(16):
        for c2 in range(16):
            u12 = pair_unb[c1][c2]
            for c3 in range(16):
                u13 = u12 + pair_unb[c1][c3] + pair_unb[c2][c3]
                for c4 in range(16):
                    unb = (
                        u13
                        + pair_unb[c1][c4]
                        + pair_unb[c2][c4]
                        + pair_unb[c3][c4]
                    )
                    if best_unb is not None and unb > best_unb:
                        continue
                    tol = max(
                        pair_tol[c1][c2],
                        pair_tol[c1][c3],
                        pair_tol[c1][c4],
                        pair_tol[c2][c3],
                        pair_tol[c2][c4],
                        pair_tol[c3][c4],
                    )
                    if best_unb is None or unb < best_unb:
                        best_unb, best_tol = unb, tol
                    elif tol < best_tol:
                        best_tol = tol
    return best_unb, best_tol


def exhaustive_optimum_loop(inst: IpInstance, max_states: int = 10**7) -> ExhaustiveResult:
    """Optimal objective by direct enumeration of the model's feasible set.

    Free non-last columns satisfy exact level balance; the last column is
    only delta1-relaxed; candidates violating the epsilon bounds on the pair
    deviations are discarded.  Intended for tiny instances.
    """
    if inst.symmetry is not None:
        raise ValueError("exhaustive enumeration does not support symmetry constraints")
    s, k, lam, n = inst.s, inst.k, inst.lam, inst.n_runs
    states = _balanced_column_count(n, s, lam) ** (k - 3) * s**n
    if states > max_states:
        raise ValueError(f"feasible set has {states} states (> {max_states})")
    balanced = list(_balanced_columns(n, s, lam))
    head = canonical_head(s, lam)
    last_options = list(itertools.product(range(1, s + 1), repeat=n))

    best: int | None = None
    witnesses: list[Array] = []
    feasible = 0
    lo = inst.delta_lower
    for mids in itertools.product(balanced, repeat=k - 3):
        for last in last_options:
            cells = np.column_stack(
                [head] + [np.array(col, dtype=np.int64) for col in mids + (last,)]
            )
            a = Array(cells, s)
            deltas = _delta_values(inst, a)
            if any(
                not lo <= v <= inst.epsilon
                for name, v in deltas.items()
                if not name.startswith("d1")
            ):
                continue
            feasible += 1
            objective = sum(abs(v) ** inst.p for v in deltas.values())
            if best is None or objective < best:
                best, witnesses = objective, [a]
            elif objective == best and len(witnesses) < 8:
                witnesses.append(a)
    if best is None:
        raise ValueError("no feasible assignment under the epsilon cap")
    return ExhaustiveResult(
        value=best, witnesses=witnesses, states=states, feasible_states=feasible
    )


def brute_force_optimum_loop(
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

    vectors = (
        list(itertools.product(range(1, s + 1), repeat=n_runs)) if k > 2 else []
    )
    best_unb = None
    best_tol = None
    unb_wit: list[Array] = []
    tol_wit: list[Array] = []
    for tail in itertools.combinations_with_replacement(vectors, k - 2):
        cells = np.column_stack([head] + [np.array(v, dtype=np.int64) for v in tail])
        arr = Array(cells, s)
        tol = tolerance(arr, 2)
        if best_tol is None or tol < best_tol:
            best_tol, tol_wit = tol, [arr]
        elif tol == best_tol and len(tol_wit) < max_witnesses:
            tol_wit.append(arr)
        if tol_cap is not None and tol > tol_cap:
            continue
        unb = unbalance(arr, 2, p)
        if best_unb is None or unb < best_unb:
            best_unb, unb_wit = unb, [arr]
        elif unb == best_unb and len(unb_wit) < max_witnesses:
            unb_wit.append(arr)
    if best_unb is None:
        raise ValueError(f"no array satisfies the tolerance cap {tol_cap}")
    return OracleResult(
        min_unbalance=best_unb,
        min_tolerance=best_tol,
        unbalance_witnesses=unb_wit,
        tolerance_witnesses=tol_wit,
        tol_cap=tol_cap,
        states=states,
    )


# --- orbit expansion: the per-kind and per-row loops the gather replaced ----


class EncoderLoop:
    """The search's earlier per-kind expansion of searched cell matrices
    (block-major), kept verbatim as the reference for the orbit gather."""

    def __init__(self, kind: str, n_runs: int, k: int, s: int, r: int | None):
        self.kind, self.n_runs, self.k, self.s = kind, n_runs, k, s
        lam = n_runs // (s * s)
        if kind == "plain":
            self.core_shape = (n_runs, k)
        elif kind == "bicyclic":
            if n_runs % s:
                raise ValueError("bicyclic encoding requires s | N")
            if r is None:
                r = _default_bicyclic_r(s, k)
            if s % r or not 1 <= r <= k:
                raise ValueError("bicyclic r must divide s and satisfy 1 <= r <= k")
            self.r = r
            self.core_shape = (n_runs // s, k)
        elif kind == "quasicyclic":
            if lam < 1 or n_runs != lam * s * s:
                raise ValueError("quasicyclic encoding requires N = lambda * s^2")
            if (n_runs - lam) % (s - 1):
                raise ValueError("quasicyclic core size is not integral")
            self.lam = lam
            self.core_shape = ((n_runs - lam) // (s - 1), k)
        else:
            raise ValueError(f"unknown encoding {kind!r}")

    def expand(self, cells: np.ndarray) -> np.ndarray:
        s, k = self.s, self.k
        if self.kind == "plain":
            return cells
        if self.kind == "bicyclic":
            blocks = []
            base = np.arange(k)
            for t in range(s):
                perm = base.copy()
                perm[: self.r] = (np.arange(self.r) - t) % self.r
                blocks.append((cells[:, perm] - 1 + t) % s + 1)
            return np.vstack(blocks)
        blocks = [np.ones((self.lam, k), dtype=np.int64)]
        moving = cells - 2  # levels >= 2 shift cyclically; level 1 is fixed
        for t in range(s - 1):
            block = np.where(cells == 1, 1, (moving + t) % (s - 1) + 2)
            blocks.append(block)
        return np.vstack(blocks)


# --- search moves: the per-move scoring the block scorer replaced ------------


def driven(enc, move) -> list[tuple[int, int, int]]:
    """0-based (row, column, level) of every expanded cell that a move of the
    search encoder ``enc``'s core cells sets; ``move`` holds (row, column,
    level) triples with 1-based levels."""
    levels, sources = (table.tolist() for table in enc.powers)
    offsets = [len(enc.fixed) + t * enc.core_shape[0] for t in range(len(levels))]
    drives = [
        [(lv, offset, row.index(c)) for lv, offset, row in zip(levels, offsets, sources)]
        for c in range(enc.core_shape[1])
    ]
    return [
        (offset + i, j, level_map[level] - 1)
        for i, c, level in move
        for level_map, offset, j in drives[c]
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


def _act_row(g: GroupElement, row: tuple[int, ...]) -> tuple[int, ...]:
    inv = g.inverse().col_perm
    return tuple(g.level_perm[row[inv[j] - 1] - 1] for j in range(len(row)))


def _orbit(g: GroupElement, row: tuple[int, ...], size: int) -> list[tuple[int, ...]]:
    rows = [row]
    for _ in range(size - 1):
        rows.append(_act_row(g, rows[-1]))
    return rows


def orbit_size_loop(e: SymmetricEncoding) -> int:
    """The earlier ``SymmetricEncoding.orbit_size``, kept verbatim."""
    if e.kind == "bicyclic":
        return e.n_levels
    if e.kind == "semicyclic":
        return e.n_levels - e.param + 1
    return 2


def expanded_runs_loop(e: SymmetricEncoding) -> int:
    """The earlier ``SymmetricEncoding.expanded_runs``, kept verbatim."""
    if e.kind == "klein":
        g = e.generator
        return sum(1 if _act_row(g, r) == r else 2 for r in e.core)
    return len(e.fixed_rows) + orbit_size_loop(e) * len(e.core)


def expand_loop(e: SymmetricEncoding, s: int | None = None, k: int | None = None) -> Array:
    """The earlier per-row ``symmetry.expand``, kept verbatim.

    Rebuild the full array: fixed rows once, then each core row's orbit.
    Klein core rows that the generator fixes are emitted once (deduplicated);
    everything else contributes its full orbit.  The stated generator is an
    automorphism of the result.
    """
    if s is not None and s != e.n_levels:
        raise ValueError("s does not match the encoding")
    if k is not None and k != e.n_factors:
        raise ValueError("k does not match the encoding")
    rows: list[tuple[int, ...]] = list(e.fixed_rows)
    for row in e.core:
        orbit = _orbit(e.generator, row, orbit_size_loop(e))
        if e.kind == "klein" and orbit[1] == orbit[0]:
            orbit = orbit[:1]
        rows.extend(orbit)
    return Array.from_rows(rows, e.n_levels)


def compress_loop(a: Array, kind: str, param: int | None = None) -> SymmetricEncoding:
    """The earlier per-row ``symmetry.compress``, kept verbatim.

    Inverse of expand: partition the rows of ``a`` into generator orbits.
    Raises if the generator is not an automorphism of ``a`` or if the row
    multiset does not split into full orbits (plus fixed rows where the kind
    allows them).
    """
    s, k = a.n_levels, a.n_factors
    if kind == "bicyclic":
        if param is None:
            param = _default_bicyclic_r(s, k)
        g = bicyclic_generator(s, k, param)
    elif kind == "semicyclic":
        if param is None:
            param = 2
        g = semicyclic_generator(s, k, param)
    elif kind == "klein":
        g = klein_generator(s, k)
    else:
        raise ValueError(f"unknown encoding kind {kind!r}")
    if not is_automorphism(g, a):
        raise ValueError(f"the {kind} generator is not an automorphism of the array")

    counts: dict[tuple[int, ...], int] = {}
    for row in a.cells.tolist():
        counts[tuple(row)] = counts.get(tuple(row), 0) + 1

    fixed: list[tuple[int, ...]] = []
    if kind == "semicyclic":
        for row in sorted(r for r in counts if max(r) < param):
            fixed.extend([row] * counts.pop(row))

    orbit_size = s if kind == "bicyclic" else (s - param + 1) if kind == "semicyclic" else 2
    core: list[tuple[int, ...]] = []
    while counts:
        rep = min(counts)
        orbit = _orbit(g, rep, orbit_size)
        if kind == "klein" and orbit[1] == orbit[0]:
            orbit = orbit[:1]
        elif len(set(orbit)) != orbit_size:
            raise ValueError(f"orbit of {rep} has fewer than {orbit_size} distinct rows")
        multiplicity = min(counts.get(r, 0) for r in orbit)
        if multiplicity == 0:
            raise ValueError(f"rows do not split into full {kind} orbits")
        core.extend([rep] * multiplicity)
        for r in orbit:
            counts[r] -= multiplicity
            if not counts[r]:
                del counts[r]
    return SymmetricEncoding(
        kind=kind,
        n_levels=s,
        n_factors=k,
        generator=g,
        core=tuple(sorted(core)),
        fixed_rows=tuple(fixed),
        param=None if kind == "klein" else param,
    )


def _x(i, j, m) -> str:
    return f"x_{i}_{j}_{m}"


def _z(i, c, l) -> str:
    return f"z_{i}_{c}_{l}"


def prefix_constraints_loop(inst: IpInstance) -> list[Constraint]:
    """The aoa31 and aoa32 rows of the earlier ``build_model``, kept verbatim.

    One block per pinned column, each with its own row formula.
    """
    s, lam = inst.s, inst.lam
    out: list[Constraint] = []
    add = out.append
    for j in inst.free_columns:
        for m in range(1, s + 1):
            for mp in range(1, s + 1):
                rows = [
                    (copy - 1) * s * s + (mp - 1) * s + r
                    for copy in range(1, lam + 1)
                    for r in range(1, s + 1)
                ]
                add(
                    Constraint(
                        f"aoa31_{j}_{m}_{mp}",
                        tuple((1, _x(i, j, m)) for i in rows)
                        + ((-1, f"d2_{m}_{mp}_{j}"),),
                        "=",
                        lam,
                    )
                )
    for j in inst.free_columns:
        for m in range(1, s + 1):
            for mp in range(1, s + 1):
                rows = [
                    (copy - 1) * s * s + q
                    for copy in range(1, lam + 1)
                    for q in range(1, s * s + 1)
                    if (q - mp) % s == 0
                ]
                add(
                    Constraint(
                        f"aoa32_{j}_{m}_{mp}",
                        tuple((1, _x(i, j, m)) for i in rows)
                        + ((-1, f"d3_{m}_{mp}_{j}"),),
                        "=",
                        lam,
                    )
                )
    return out


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


def arrange_canonical_loop(a: Array) -> Array:
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


def canonical_assignment_loop(inst: IpInstance, a: Array) -> dict[str, int]:
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


def verify_solution_loop(inst: IpInstance, assignment: dict[str, float]) -> VerificationReport:
    """The earlier ``verify_solution``, kept verbatim.

    Bounds by per-family formulas; z values by a per-row loop over the levels.
    """
    s, k, n = inst.s, inst.k, inst.n_runs
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

    deltas = _delta_values(inst, a)
    deltas_match = all(
        round(float(assignment[name])) == value
        for name, value in deltas.items()
        if name in assignment
    )
    lo = inst.delta_lower
    bounds_ok = all(
        lo <= v <= inst.epsilon
        for name, v in deltas.items()
        if name.startswith(("d0", "d2", "d3"))
    ) and all(
        -inst.lam * s <= v <= inst.lam * s * s - inst.lam * s
        for name, v in deltas.items()
        if name.startswith("d1")
    )

    z_ok = True
    for i in range(1, n + 1):
        for c, (j1, j2) in enumerate(inst.column_pairs, start=1):
            lval = s * (int(a.cells[i - 1, j1 - 1]) - 1) + int(a.cells[i - 1, j2 - 1])
            claimed = [
                l
                for l in range(1, s * s + 1)
                if round(float(assignment.get(_z(i, c, l), l == lval))) == 1
            ]
            if claimed != [lval]:
                z_ok = False

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


# The IP model as lists of objects, kept verbatim from before the array-backed model.


@dataclass
class IpModelLists:
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


def model_of(lists: IpModelLists) -> IpModel:
    """The array-backed model of ``lists``, filled field by field, then validated.

    An undeclared name becomes index -1, which ``validate`` refuses.
    """
    model = IpModel()
    model.names = [v.name for v in lists.variables]
    model.kinds = np.array([_KINDS.index(v.kind) for v in lists.variables], np.int8)
    model.lower = np.array([v.lower for v in lists.variables], np.int64)
    model.upper = np.array([v.upper for v in lists.variables], np.int64)
    index = dict(zip(model.names, itertools.count()))
    coefs = lambda terms: np.array([coef for coef, _ in terms], np.int64)
    cols = lambda terms: np.array([index.get(name, -1) for _, name in terms], np.int64)
    rows = [term for c in lists.constraints for term in c.terms]
    model.lin_coefs, model.lin_vars = coefs(lists.linear_objective), cols(lists.linear_objective)
    model.quad_coefs = coefs(lists.quadratic_objective)
    model.quad_vars = cols(lists.quadratic_objective)
    model.coefs, model.cols = coefs(rows), cols(rows)
    model.row_names = [c.name for c in lists.constraints]
    model.indptr = np.cumsum([0] + [len(c.terms) for c in lists.constraints], dtype=np.int64)
    model.relations = np.array([_RELATIONS.index(c.relation) for c in lists.constraints], np.int8)
    model.rhs = np.array([c.rhs for c in lists.constraints], np.int64)
    model.validate()
    return model


def build_model_loop(inst: IpInstance) -> IpModelLists:
    """Assemble variables, balance/linking constraints, and the objective."""
    s, k, lam = inst.s, inst.k, inst.lam
    n = inst.n_runs
    pairs = inst.column_pairs
    model = IpModelLists()

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


def add_symmetry_loop(model: IpModelLists, inst: IpInstance) -> IpModelLists:
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


def emit_lp_loop(model: IpModelLists) -> str:
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


def parse_lp_loop(text: str) -> IpModelLists:
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

    model = IpModelLists()

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


def emit_mps_loop(model: IpModelLists) -> str:
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


def evaluate_model_loop(model, assignment: dict[str, float]) -> ModelCheck:
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

"""Slow, independent reference implementations used to cross-check the package.

Everything here is written in plain Python (loops, Fractions, itertools) with
no reuse of the library's own vectorised code paths, so that agreement between
the two is meaningful evidence of correctness.  The exceptions are
``discrepancy_sq_broadcast``, the library's earlier numpy formula, kept as a
bit-for-bit reference for the float arithmetic order, and
``discrepancy_sq_column_fold``, the earlier one-pass-per-column fold, kept
verbatim as the same reference at large N, and
``discrepancy_sq_row_blocks``, the earlier fold over the whole accumulator
in row blocks, kept verbatim as the reference for the triangle fold, and
``discrepancy_sq_triangle``, the earlier triangle fold with its column
setup (``np.unique``, kernel table and symmetry check) run per call and per
column, kept verbatim as the reference for the shared column setup, and
``serialize_array_loop``, the earlier per-cell array writer, kept verbatim
as the byte reference for the level-name table, and the two per-state
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
verbatim as the reference for the argsort of the head-pair codes, and the
earlier product-order enumerations (``canonical_head_list``, the dict
row map ``_prefix_row_map``, the recursive generator ``_balanced_columns``,
and ``gamma_set_product`` and ``row_coordinates_product`` over
``itertools.product``), kept verbatim as the reference for the ones read off
``arrays._level_digits``, and the earlier field build (``field_tables_poly``: seven polynomial helpers over
GF(p) and a loop over every cell of the tables), kept verbatim as the
reference for the vectorised tables and moduli, and the earlier one-column-at-
a-time constructions (``ak_half_loop``, ``ak_ext_odd_loop`` and
``ak_ext_even_loop``, with ``_gamma_dot`` and ``_linear_block``), kept
verbatim as the reference for the whole-block table lookups, and the earlier
per-line ``parse_array_loop`` (every body row through ``fileio._level_row``),
kept verbatim as the reference for the whole-buffer array reader, and the
earlier per-line regex reader of solution files (``parse_solution_loop``),
kept verbatim as the reference for the ``str.split`` reader.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from aoakit.arrays import (
    _CHUNK_BYTES,
    Array,
    _as_exact,
    _check_strength,
    _count_table,
    _pair_rows,
    tolerance,
    unbalance,
)
from aoakit.constructions import ConstructionSpec, GammaSet, _row_coordinates, gamma_set
from aoakit.galois import Field, is_prime_power, make_field
from aoakit.fileio import ParseError, _int_fields, _level_row
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
    _parts,
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


def discrepancy_sq_column_fold(ps, kernel) -> float:
    """Squared discrepancy by one pass over the N x N accumulator per column.

    The library's earlier fold, kept verbatim: its float result is the
    exact-equality reference for the cache-blocked fold in ``discrepancy_sq``
    at sizes where the tensor would be too large.
    """
    pts = ps.points
    n, k = pts.shape
    cross = float(np.prod(kernel.i1(pts), axis=1).sum())
    # Left to right over the columns, the same sequential product np.prod
    # takes along the last axis of the N x N x k kernel tensor: bit-identical.
    # The inverse indices are always in range, so mode="clip" never clips; it
    # spares the N x N buffer that take's default mode puts behind ``out``.
    prod = np.ones((n, n))
    factor = np.empty((n, n))
    for x in pts.T:
        vals, inv = np.unique(x, return_inverse=True)
        table = kernel.k1(vals[:, None], vals[None, :])
        np.take(table[inv], inv, axis=1, out=factor, mode="clip")
        prod *= factor
    pair = float(prod.sum())
    return kernel.i2**k - 2.0 * cross / n + pair / (n * n)


def discrepancy_sq_row_blocks(ps, kernel) -> float:
    """Squared discrepancy by row blocks over column groups, whole matrix.

    The library's earlier cache-blocked fold, kept verbatim: its float result
    is the exact-equality reference for the fold that multiplies only the
    upper trapezoid of each row block and mirrors it.
    """
    pts = ps.points
    n, k = pts.shape
    cross = float(np.prod(kernel.i1(pts), axis=1).sum())
    # Row blocks over column groups.  Per column, its u kernel rows are taken
    # out to u x N once (``take``: ``table[:, inv]`` is not C-ordered), and
    # each block of ``step`` accumulator rows gathers its factor rows from
    # them.  A group's rows and inverse indices (one row's worth each) fill at
    # most ``step`` rows unless one column needs more, so the group and one
    # factor block stay within ``_CHUNK_BYTES``.  Each entry still takes its
    # factors left to right over the columns, the same sequential product
    # np.prod takes along the last axis of the N x N x k kernel tensor:
    # bit-identical.  The inverse indices are always in range, so mode="clip"
    # never clips; it spares the buffer take's default mode puts behind ``out``.
    prod = np.ones((n, n))
    step = max(1, min(n // 2, _CHUNK_BYTES // (16 * n)))
    factor = np.empty((step, n))

    def fold(group):
        for r0 in range(0, n, step):
            block = factor[: min(step, n - r0)]
            for inv, rows in group:
                np.take(rows, inv[r0 : r0 + step], axis=0, out=block, mode="clip")
                prod[r0 : r0 + step] *= block

    group, width = [], 0
    for x in pts.T:
        vals, inv = np.unique(x, return_inverse=True)
        if group and width + len(vals) + 1 > step:
            fold(group)
            group, width = [], 0
        group.append((inv, np.take(kernel.k1(vals[:, None], vals[None, :]), inv, axis=1)))
        width += len(vals) + 1
    fold(group)
    pair = float(prod.sum())
    return kernel.i2**k - 2.0 * cross / n + pair / (n * n)


def discrepancy_sq_triangle(ps, kernel) -> float:
    """Squared discrepancy by the triangle fold, with the column setup per call.

    The library's earlier ``discrepancy_sq``, kept verbatim: every call runs
    ``np.unique`` on each column and builds and checks each column's kernel
    table.  Its float result is the exact-equality reference for the fold
    that shares one column setup per point set and one table per distinct
    column.
    """
    pts = ps.points
    n, k = pts.shape
    cross = float(np.prod(kernel.i1(pts), axis=1).sum())
    # Row blocks over column groups, upper trapezoids only.  Per column, its u
    # kernel rows are taken out to u x N once (``take``: ``table[:, inv]`` is
    # not C-ordered).  The block of rows r0:r0+step needs only columns r0:N;
    # it is kept packed, h x (N - r0) and C-ordered, at the front of its own
    # rows of ``prod``, so no second N x N array is needed, and gathers its
    # factor rows from each column's kernel rows.  A group's rows and inverse
    # indices (one row's worth each) fill at most ``step`` rows unless one
    # column needs more, so the group and one gathered block stay within
    # ``_CHUNK_BYTES``.  Each entry takes its factors left to right over the
    # columns, the same sequential product np.prod takes along the last axis
    # of the N x N x k kernel tensor, and the exactly symmetric kernel tables
    # give entry (j, i) the very factors of (i, j): the mirrored matrix is
    # the tensor's product, bit for bit.
    prod = np.ones((n, n))
    step = max(1, min(n // 2, _CHUNK_BYTES // (16 * n)))
    starts = range(0, n, step)
    flat = prod.reshape(-1)
    blocks = [
        flat[r0 * n : r0 * n + min(step, n - r0) * (n - r0)].reshape(-1, n - r0)
        for r0 in starts
    ]

    def fold(group):
        for r0, block in zip(starts, blocks):
            for inv, rows in group:
                block *= rows[inv[r0 : r0 + step], r0:]

    group, width = [], 0
    for x in pts.T:
        vals, inv = np.unique(x, return_inverse=True)
        table = kernel.k1(vals[:, None], vals[None, :])
        if not np.array_equal(table, table.T):
            raise ValueError(f"kernel {kernel.name!r} is not exactly symmetric")
        if group and width + len(vals) + 1 > step:
            fold(group)
            group, width = [], 0
        group.append((inv, np.take(table, inv, axis=1)))
        width += len(vals) + 1
    fold(group)
    # Unpack every block before mirroring, which writes into later blocks'
    # rows.  A packed block starts inside its destination, hence the copy.
    for r0, block in zip(starts[1:], blocks[1:]):
        prod[r0 : r0 + step, r0:] = block.copy()
    for r0 in starts:
        prod[r0 + step :, r0 : r0 + step] = prod[r0 : r0 + step, r0 + step :].T
    pair = float(prod.sum())
    return kernel.i2**k - 2.0 * cross / n + pair / (n * n)


def serialize_array_loop(a: Array, metadata: dict[str, str] | None = None) -> str:
    """Array file text with one ``str`` per numpy cell (the earlier writer)."""
    lines = [f"{a.n_runs} {a.n_factors} {a.n_levels}"]
    lines.extend(" ".join(str(v) for v in row) for row in a.cells)
    for key, value in (metadata or {}).items():
        lines.append(f"# {key}: {value}")
    return "\n".join(lines) + "\n"


def parse_array_loop(text: str, path: str | None = None) -> tuple[Array, dict[str, str]]:
    """Parse an array file row by row (the earlier reader)."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty file", 1, 1, path)
    header = _int_fields(lines[0], 1, path)
    if len(header) != 3:
        raise ParseError("header must be 'N k s'", 1, 1, path)
    n, k, s = header
    if n < 1 or k < 1 or s < 1:
        raise ParseError("N, k, s must be positive", 1, 1, path)
    if len(lines) < 1 + n:
        raise ParseError(f"expected {n} rows, found {len(lines) - 1}", len(lines), 1, path)
    rows = [_level_row(lines[lineno - 1], k, s, lineno, path) for lineno in range(2, 2 + n)]
    metadata: dict[str, str] = {}
    for offset, line in enumerate(lines[1 + n :], start=2 + n):
        if not line.strip():
            continue
        if not line.startswith("#"):
            raise ParseError("trailing lines must be '# key: value' metadata", offset, 1, path)
        body = line[1:].strip()
        if ":" not in body:
            raise ParseError("metadata line lacks 'key: value'", offset, 1, path)
        key, value = body.split(":", 1)
        metadata[key.strip()] = value.strip()
    return Array(np.array(rows, dtype=np.int64), s), metadata


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


# --- product-order enumerations written out one at a time -------------------


def canonical_head_list(s: int, lam: int) -> np.ndarray:
    """First two pinned columns: lam stacked copies of the lexicographic factorial."""
    block = np.array(
        [(u, v) for u in range(1, s + 1) for v in range(1, s + 1)], dtype=np.int64
    )
    return np.vstack([block] * lam)


def _prefix_row_map(inst: IpInstance, image) -> list[int]:
    """sigma[i-1] = image row of i under (u,v) -> image(u, v), in i's copy of the head."""
    per_copy = inst.s**2
    head = canonical_head(inst.s, inst.lam).tolist()
    row = {(i // per_copy, u, v): i + 1 for i, (u, v) in enumerate(head)}
    return [row[(i // per_copy, *image(u, v))] for i, (u, v) in enumerate(head)]


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


def gamma_set_product(f: Field, ell: int) -> GammaSet:
    """Pairwise linearly independent direction vectors in F_s^(ell-1).

    Size ``(s^(ell-1) - 1) / (s - 1)``.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    s = f.order
    vectors = [
        v
        for v in itertools.product(range(s), repeat=ell - 1)
        if any(v) and next(c for c in v if c) == 1
    ]
    expected = (s ** (ell - 1) - 1) // (s - 1)
    if len(vectors) != expected:
        raise AssertionError("projective representative count mismatch")
    return GammaSet(order=s, ell=ell, vectors=tuple(vectors))


def row_coordinates_product(f: Field, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """All of F_s^ell as (x, y) with x major and y lexicographic."""
    s = f.order
    ys = np.array(list(itertools.product(range(s), repeat=ell - 1)), dtype=np.int64)
    ys = ys.reshape(s ** (ell - 1), ell - 1)
    xs = np.repeat(np.arange(s, dtype=np.int64), s ** (ell - 1))
    ys = np.tile(ys, (s, 1))
    return xs, ys


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


def parse_solution_loop(text: str, path: str | None = None) -> dict[str, float]:
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


# --- Galois fields: the polynomial helpers and the per-cell table build ------


def _poly_trim(c: list[int]) -> list[int]:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], -1, p)
    while len(a) - 1 >= dm and any(a):
        shift = len(a) - 1 - dm
        factor = (a[-1] * inv_lead) % p
        for i, mi in enumerate(mod):
            a[shift + i] = (a[shift + i] - factor * mi) % p
        _poly_trim(a)
        if len(a) == 1 and a[0] == 0:
            break
    return a


def _int_to_poly(e: int, p: int) -> list[int]:
    if e == 0:
        return [0]
    digits = []
    while e:
        digits.append(e % p)
        e //= p
    return digits


def _poly_to_int(c: list[int], p: int) -> int:
    value = 0
    for coef in reversed(c):
        value = value * p + coef
    return value


def _is_irreducible(mod: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(mod) - 1
    for d in range(1, deg // 2 + 1):
        # monic degree-d divisors, enumerated by their lower coefficients
        for low in range(p**d):
            div = _int_to_poly(low, p)
            div += [0] * (d - len(div)) + [1]
            if _poly_to_int(_poly_mod(mod, div, p), p) == 0:
                return False
    return True


def _smallest_irreducible(p: int, m: int) -> list[int]:
    """Lexicographically smallest irreducible monic polynomial of degree m."""
    if m == 1:
        return [0, 1]  # x
    for low in range(p**m):
        mod = _int_to_poly(low, p)
        mod += [0] * (m - len(mod)) + [1]
        if _is_irreducible(mod, p):
            return mod
    raise RuntimeError(f"no irreducible polynomial of degree {m} over GF({p})")


def field_tables_poly(order: int):
    """``(add, mul, neg, inv, modulus)`` of GF(order), built cell by cell."""
    p, m = is_prime_power(order)
    mod = _smallest_irreducible(p, m)
    modulus = tuple(mod)

    s = order
    add = np.empty((s, s), dtype=np.int64)
    mul = np.empty((s, s), dtype=np.int64)
    polys = [_int_to_poly(e, p) for e in range(s)]
    for a in range(s):
        for b in range(s):
            pa, pb = polys[a], polys[b]
            width = max(len(pa), len(pb))
            summed = [
                ((pa[i] if i < len(pa) else 0) + (pb[i] if i < len(pb) else 0)) % p
                for i in range(width)
            ]
            add[a, b] = _poly_to_int(_poly_trim(summed), p)
            mul[a, b] = _poly_to_int(_poly_mod(_poly_mul(pa, pb, p), mod, p), p)
    neg = np.array(
        [int(np.where(add[a] == 0)[0][0]) for a in range(s)], dtype=np.int64
    )
    inv = np.full(s, -1, dtype=np.int64)
    for a in range(1, s):
        inv[a] = int(np.where(mul[a] == 1)[0][0])
    return add, mul, neg, inv, modulus


# --- constructions: one column at a time ------------------------------------


def _gamma_dot(f: Field, gamma: tuple[int, ...], ys: np.ndarray) -> np.ndarray:
    acc = np.zeros(ys.shape[0], dtype=np.int64)
    for coef, col in zip(gamma, ys.T):
        acc = f.vadd(acc, f.vmul(coef, col))
    return acc


def _linear_block(f: Field, gammas: GammaSet, xs, ys, twist=None) -> list[np.ndarray]:
    """Columns x and a*x + gamma'y (+ optional per-(a) twist term)."""
    cols = [xs.copy()]
    for a in f.elements:
        ax = f.vmul(a, xs)
        extra = twist(a) if twist is not None else None
        for gamma in gammas.vectors:
            col = f.vadd(ax, _gamma_dot(f, gamma, ys))
            if extra is not None:
                col = f.vadd(col, extra)
            cols.append(col)
    return cols


def ak_half_loop(spec: ConstructionSpec) -> Array:
    """Linear block plus ``kappa`` quadratic columns x^2 + beta*x + gamma'y.

    The quadratic column index set is the first ``kappa`` pairs (beta, gamma)
    in enumeration order.
    """
    if spec.variant != "half":
        raise ValueError("spec.variant must be 'half'")
    f = make_field(spec.s)
    gammas = gamma_set(f, spec.ell)
    xs, ys = _row_coordinates(f, spec.ell)
    cols = _linear_block(f, gammas, xs, ys)
    xi = list(itertools.product(f.elements, gammas.vectors))[: spec.kappa]
    x2 = f.vmul(xs, xs)
    for beta, gamma in xi:
        col = f.vadd(f.vadd(x2, f.vmul(beta, xs)), _gamma_dot(f, gamma, ys))
        cols.append(col)
    return Array(np.column_stack(cols) + 1, spec.s)


def ak_ext_odd_loop(spec: ConstructionSpec) -> Array:
    """Two stacked blocks twisted by a non-square, for odd s > 2.

    Top rows:    ( x | a*x+g'y | (x-beta)^2+g'y      | x^2-a*x                  )
    Bottom rows: ( x | a*x+g'y+c*a^2 | w*(x-beta)^2+g'y | w*x^2-a*x-c*a^2 )
    with w the first non-square, c = (1 - 1/w)/4, quadratic columns over all
    (beta, gamma), and extension columns over a in {1..kappa} (beta0 = 0).
    """
    if spec.variant != "odd_ext":
        raise ValueError("spec.variant must be 'odd_ext'")
    f = make_field(spec.s)
    omega = f.find_nonsquare()
    inv4 = f.inv(f.from_int(4))
    shrink = f.mul(f.sub(1, f.inv(omega)), inv4)  # (1 - 1/w) / 4
    gammas = gamma_set(f, spec.ell)
    xs, ys = _row_coordinates(f, spec.ell)

    def twist(a: int) -> np.ndarray:
        return np.full(xs.shape, f.mul(shrink, f.mul(a, a)), dtype=np.int64)

    top = _linear_block(f, gammas, xs, ys)
    bot = _linear_block(f, gammas, xs, ys, twist=twist)
    for beta, gamma in itertools.product(f.elements, gammas.vectors):
        diff = f.vadd(xs, f.neg(beta))
        sq = f.vmul(diff, diff)
        gdot = _gamma_dot(f, gamma, ys)
        top.append(f.vadd(sq, gdot))
        bot.append(f.vadd(f.vmul(omega, sq), gdot))
    x2 = f.vmul(xs, xs)
    for a in range(1, spec.kappa + 1):
        minus_ax = f.vmul(f.neg(a), xs)
        shift = f.mul(shrink, f.mul(a, a))
        top.append(f.vadd(x2, minus_ax))
        bot.append(f.vadd(f.vadd(f.vmul(omega, x2), minus_ax), f.neg(shift)))
    cells = np.vstack([np.column_stack(top), np.column_stack(bot)])
    return Array(cells + 1, spec.s)


def ak_ext_even_loop(spec: ConstructionSpec) -> Array:
    """Two stacked blocks twisted by a subfield-avoiding element, even s > 2.

    Top rows:    ( x | a*x+g'y | x^2+beta*x+g'y          | x^2+d*x         )
    Bottom rows: ( x | a*x+g'y+a^2*z | x^2+beta*x+g'y+beta^2*z | x^2+d*x+d^2*z )
    with z the first element outside the half-order subfield, quadratic
    columns over all (beta, gamma), and extension columns d in {1..kappa}.
    """
    if spec.variant != "even_ext":
        raise ValueError("spec.variant must be 'even_ext'")
    f = make_field(spec.s)
    zeta = f.find_zeta()
    gammas = gamma_set(f, spec.ell)
    xs, ys = _row_coordinates(f, spec.ell)

    def twist(a: int) -> np.ndarray:
        return np.full(xs.shape, f.mul(zeta, f.mul(a, a)), dtype=np.int64)

    top = _linear_block(f, gammas, xs, ys)
    bot = _linear_block(f, gammas, xs, ys, twist=twist)
    x2 = f.vmul(xs, xs)
    for beta, gamma in itertools.product(f.elements, gammas.vectors):
        base = f.vadd(f.vadd(x2, f.vmul(beta, xs)), _gamma_dot(f, gamma, ys))
        top.append(base)
        bot.append(f.vadd(base, f.mul(zeta, f.mul(beta, beta))))
    for delta in range(1, spec.kappa + 1):
        base = f.vadd(x2, f.vmul(delta, xs))
        top.append(base)
        bot.append(f.vadd(base, f.mul(zeta, f.mul(delta, delta))))
    cells = np.vstack([np.column_stack(top), np.column_stack(bot)])
    return Array(cells + 1, spec.s)

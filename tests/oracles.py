"""Slow, independent reference implementations used to cross-check the package.

Everything here is written in plain Python (loops, Fractions, itertools) with
no reuse of the library's own vectorised code paths, so that agreement between
the two is meaningful evidence of correctness.  The exception is
``discrepancy_sq_broadcast``, the library's earlier numpy formula, kept as a
bit-for-bit reference for the float arithmetic order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from aoakit.arrays import Array


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

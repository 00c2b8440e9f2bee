"""Core array type and counting-based balance metrics.

An array is an N×k grid of levels ``1..s``. For a strength ``t``, the count of
a level tuple ``x`` in a column tuple ``j`` is the number of rows matching
``x`` on those columns; a perfectly balanced (orthogonal) array hits every
tuple exactly ``N / s^t`` times. The tolerance is the worst deviation from
that target, the p-unbalance the sum of p-th powers of all deviations.

All strength-t counting goes through one generator, ``_count_chunks(a, t)``,
which yields the rows of the count table in blocks within ``_CHUNK_BYTES``:
row r holds the level-tuple counts of the r-th column t-tuple.
``_count_table(a, t)`` stacks the blocks into the whole table, for the
callers that need rows: the pairwise criteria in ``metrics`` and the
incremental tables of ``search`` and ``ipmodel``.  ``_count_histogram(a, t)``
reduces each block as it is counted to how many cells hold each count 0..N;
it is kept on the array, so each strength is counted once per array.
``is_oa``, tolerance, bandwidth and the integer-p unbalance are read off the
histogram, and every metric built on them (D1/D2, the catalog snapshot, the
construction checks) with them; the float-p unbalance sums the blocks' rows
as they arrive.  The exact oracles of ``search`` and ``ipmodel`` share one
state scan, ``_state_blocks``: it counts each prefix's pairs once and scores
its last columns in integer blocks.

``_level_digits`` is the one writer of the lexicographic grid of level vectors:
the oracles' heads, pools and last columns and the constructions' rows read it.

All counting metrics are exact: deviations are computed as integers scaled by
``s^t`` and reduced at the end, so results are python ints (or Fractions when
``s^t`` does not divide ``N``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "Array",
    "count_tuple",
    "is_oa",
    "tolerance",
    "unbalance",
    "unbalance2_via_hamming",
    "normalized_unbalance",
    "bandwidth",
    "rao_max_factors",
    "lower_bound_unb22",
    "trivial_construct",
    "repeat_factors_bounds",
    "RepeatReport",
    "cyclic_oa",
    "random_array",
    "hamming_similarity",
]

Exact = int | Fraction


def _as_exact(num: int, den: int) -> Exact:
    """Reduce num/den to an int when possible, else a Fraction."""
    f = Fraction(num, den)
    return int(f) if f.denominator == 1 else f


@dataclass(frozen=True)
class Array:
    """A fixed-level array: N runs (rows) by k factors (columns) over 1..s.

    Parameters
    ----------
    cells : numpy.ndarray
        Integer matrix of shape (N, k) with values in ``1..n_levels``.
    n_levels : int
        Number of levels s.
    """

    cells: np.ndarray
    n_levels: int
    _histograms: dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )  # strength -> ``_count_histogram``

    def __post_init__(self):
        cells = np.array(self.cells, dtype=np.int64)  # a copy: the caller's array stays writable
        if cells.ndim != 2 or cells.size == 0:
            raise ValueError("cells must be a non-empty 2-D matrix")
        if self.n_levels < 1:
            raise ValueError("n_levels must be >= 1")
        if cells.min() < 1 or cells.max() > self.n_levels:
            raise ValueError(f"cell values must lie in 1..{self.n_levels}")
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)

    @property
    def n_runs(self) -> int:
        return self.cells.shape[0]

    @property
    def n_factors(self) -> int:
        return self.cells.shape[1]

    @classmethod
    def from_rows(cls, rows, n_levels: int) -> "Array":
        return cls(np.array(rows, dtype=np.int64), n_levels)

    def select_columns(self, cols) -> "Array":
        """Sub-array keeping the given 0-based columns, in the given order."""
        return Array(self.cells[:, list(cols)], self.n_levels)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Array)
            and self.n_levels == other.n_levels
            and self.cells.shape == other.cells.shape
            and bool(np.array_equal(self.cells, other.cells))
        )

    def __hash__(self) -> int:
        return hash((self.n_levels, self.cells.tobytes(), self.cells.shape))


_MAX_ROW_CELLS = 1 << 24
"""Largest s^t: one row of the strength-t count table, 128 MiB of int64."""


def _check_strength(a: Array, t: int) -> None:
    if not 1 <= t <= a.n_factors:
        raise ValueError(f"strength t={t} out of range 1..{a.n_factors}")
    if a.n_levels**t > _MAX_ROW_CELLS:
        raise ValueError(
            f"strength t={t} needs s^t = {a.n_levels**t} cells per table row (limit 2^24)"
        )


_CHUNK_BYTES = 1 << 20
"""Bound on the temporaries of one chunk of column tuples in ``_count_chunks``
(and of one column block in ``hamming_similarity``).

Kept small on purpose: at 16 MiB each chunk's temporaries were fresh
``mmap`` pages from glibc, whose page faults cost the counting core about a
quarter of its time; 1 MiB chunks run as fast as 16 MiB ones whose pages are
already mapped.
"""


def _count_chunks(a: Array, t: int):
    """Yield the rows of ``_count_table(a, t)`` in consecutive blocks.

    Each block counts its column tuples by one offset-coded ``np.bincount``,
    sized so that the block's temporaries stay within ``_CHUNK_BYTES``.
    ``t`` must already be checked.
    """
    n, s, st = a.n_runs, a.n_levels, a.n_levels**t
    # levels stay 1-based, which saves a copy per call; the offsets take off ``ones``,
    # the code of the all-ones level tuple
    levels = np.ascontiguousarray(a.cells.T)
    ones = (st - 1) // (s - 1) if s > 1 else t
    step = max(1, _CHUNK_BYTES // (8 * (2 * n + st + t)))
    tuples = itertools.combinations(range(a.n_factors), t)
    for _ in range(0, math.comb(a.n_factors, t), step):
        flat = itertools.chain.from_iterable(itertools.islice(tuples, step))
        chunk = np.fromiter(flat, dtype=np.intp).reshape(-1, t)
        code = levels[chunk[:, 0]]
        for c in range(1, t):
            code *= s
            code += levels[chunk[:, c]]
        code += np.arange(-ones, len(chunk) * st - ones, st)[:, None]
        yield np.bincount(code.ravel(), minlength=len(chunk) * st).reshape(-1, st)


def _count_table(a: Array, t: int) -> np.ndarray:
    """Level-tuple counts of every column t-tuple.

    Returns an int64 matrix of shape C(k,t) x s^t.  Row r counts the level
    tuples of the r-th column tuple in ``itertools.combinations`` order; a
    level tuple is coded base s with the first column most significant.
    """
    _check_strength(a, t)
    table = np.empty((math.comb(a.n_factors, t), a.n_levels**t), dtype=np.int64)
    lo = 0
    for chunk in _count_chunks(a, t):
        table[lo : lo + len(chunk)] = chunk
        lo += len(chunk)
    return table


def _count_histogram(a: Array, t: int) -> np.ndarray:
    """Read-only int64 vector of length N+1: entry c is how many cells of
    ``_count_table(a, t)`` hold the count c.

    Accumulated chunk by chunk, so the table is never held whole, and kept on
    ``a`` so that each strength is counted once per array.
    """
    hist = a._histograms.get(t)
    if hist is None:
        _check_strength(a, t)
        hist = np.zeros(a.n_runs + 1, dtype=np.int64)
        for chunk in _count_chunks(a, t):
            hist += np.bincount(chunk.ravel(), minlength=a.n_runs + 1)
        hist.setflags(write=False)
        a._histograms[t] = hist
    return hist


def _level_digits(index: np.ndarray, n: int, s: int) -> np.ndarray:
    """len(index) x n base-s digits of column indices, most significant first.

    Row i is the 0-based level vector that ``itertools.product(range(s),
    repeat=n)`` yields at position ``index[i]``.
    """
    digits = index[:, None] // s ** np.arange(n - 1, -1, -1, dtype=np.int64)
    digits %= s
    return digits


def _state_blocks(head: np.ndarray, prefixes, s: int, p: int, prune: int | None = None):
    """Exact strength-2 objectives of an exhaustive oracle's states, in blocks.

    A state is the N x 2 balanced ``head``, a prefix's columns and one last
    column, all 1-based.  ``prefixes`` yields ``(cols, start)``: the columns
    after the head, and the index of the first last column; the last columns
    run from there to s^N - 1 in ``_level_digits`` order.  A prefix's pairs
    are counted once, and a prefix whose own tolerance exceeds ``prune`` is
    skipped.  Per block of C last columns this yields the int64 Tol_2 and
    Unb_{p,2} of its states (the head pair adds 0 to both), the C x m x s^2
    counts of the m prefix columns against each last column, coded like
    ``_count_table`` rows, and ``witness(i)``, which builds the i-th state's
    array until the next block is drawn.  One offset-coded ``np.bincount``
    counts a block, sized so that its codes, the copy ``np.bincount`` makes
    of them, the previous block and a few caller temporaries stay within
    ``_CHUNK_BYTES``.
    """
    n, ss = len(head), s * s
    lam = n // ss

    def objectives(counts):  # row-wise max and p-power sum of |count - lam|
        dev = np.abs(counts - lam)
        return dev.max(axis=-1), (dev**p).sum(axis=-1)

    for cols, start in prefixes:
        cells = np.column_stack([head, *cols])
        prefix_tol, prefix_unb = objectives(_count_table(Array(cells, s), 2).ravel())
        if prune is not None and prefix_tol > prune:
            continue
        m = cells.shape[1]
        scaled = (cells.T - 1) * s
        step = max(1, _CHUNK_BYTES // (8 * (2 * (n * (m + 1) + m * ss) + 8)))
        for lo in range(start, s**n, step):
            last = _level_digits(np.arange(lo, min(lo + step, s**n)), n, s)
            code = scaled + last[:, None, :]
            code += np.arange(0, len(last) * m * ss, ss).reshape(-1, m, 1)
            counts = np.bincount(code.ravel(), minlength=len(last) * m * ss).reshape(-1, m, ss)
            del code  # not held while the caller works on the block
            tol, unb = objectives(counts.reshape(len(last), -1))
            yield (np.maximum(tol, prefix_tol), unb + prefix_unb, counts,
                   lambda i: Array(np.column_stack([cells, last[i] + 1]), s))


class _RunningMinimum:
    """Minimum of values met in enumeration order, with its first witnesses.

    Same result as visiting the values one by one and keeping the first
    witness of every strictly lower value, then appending ties while fewer
    than ``cap`` witnesses are held.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self.value: int | None = None
        self.witnesses: list[Array] = []

    def update(self, values: np.ndarray, witness) -> None:
        """Fold in a block of values; ``witness(i)`` builds the i-th state's array."""
        if not len(values):
            return
        low = int(values.min())
        if self.value is not None and low > self.value:
            return
        if self.value is None or low < self.value:
            self.value, self.witnesses = low, []
            room = max(1, self.cap)
        else:
            room = self.cap - len(self.witnesses)
        if room > 0:
            hits = np.flatnonzero(values == low)[:room]
            self.witnesses += [witness(int(i)) for i in hits]


def _pair_rows(k: int) -> np.ndarray:
    """k x k map from a column pair, in either order, to its t=2 table row."""
    rows = np.zeros((k, k), dtype=np.intp)
    rows[np.triu_indices(k, 1)] = np.arange(math.comb(k, 2))
    return rows + rows.T


def _balanced_pairs(a: Array) -> np.ndarray:
    """k x k bool matrix: columns i and j form a strength-2 OA (True for i = j).

    ``pairs[np.ix_(cols, cols)].all()`` is ``is_oa(a.select_columns(cols), 2)``.
    The whole table is at hand here, so it also fills ``a``'s strength-2
    count histogram if that is not kept yet.
    """
    table = _count_table(a, 2)
    if 2 not in a._histograms:
        hist = np.bincount(table.ravel(), minlength=a.n_runs + 1)
        hist.setflags(write=False)
        a._histograms[2] = hist
    balanced = np.all(table * a.n_levels**2 == a.n_runs, axis=1)
    return balanced[_pair_rows(a.n_factors)] | np.eye(a.n_factors, dtype=bool)


def count_tuple(a: Array, x, j) -> int:
    """Number of rows whose values on columns ``j`` equal the tuple ``x``.

    Parameters
    ----------
    a : Array
    x : sequence of int
        Levels in ``1..s``, one per column of ``j``.
    j : sequence of int
        Strictly increasing 1-based column indices.

    Returns
    -------
    int
    """
    x = tuple(int(v) for v in x)
    j = tuple(int(c) for c in j)
    if len(x) != len(j):
        raise ValueError("level tuple and column tuple must have equal length")
    if not j or len(j) > a.n_factors:
        raise ValueError("column tuple length out of range")
    if any(not 1 <= c <= a.n_factors for c in j) or any(
        j[i] >= j[i + 1] for i in range(len(j) - 1)
    ):
        raise ValueError("column indices must be strictly increasing and in range")
    if any(not 1 <= v <= a.n_levels for v in x):
        raise ValueError(f"levels must lie in 1..{a.n_levels}")
    mask = np.ones(a.n_runs, dtype=bool)
    for v, c in zip(x, j):
        mask &= a.cells[:, c - 1] == v
    return int(mask.sum())


def _extreme_counts(hist: np.ndarray) -> tuple[int, int]:
    """Smallest and largest count that some table cell holds."""
    held = np.flatnonzero(hist)
    return int(held[0]), int(held[-1])


def is_oa(a: Array, t: int) -> bool:
    """Whether every t-tuple count equals N/s^t exactly (strength-t OA)."""
    low, high = _extreme_counts(_count_histogram(a, t))
    return low == high and low * a.n_levels**t == a.n_runs


def tolerance(a: Array, t: int) -> Exact:
    """Largest deviation ``|count - N/s^t|`` over all tuples and columns."""
    low, high = _extreme_counts(_count_histogram(a, t))
    st, n = a.n_levels**t, a.n_runs
    # |c*s^t - N| is convex in c, so the extreme counts attain the maximum
    return _as_exact(max(abs(low * st - n), abs(high * st - n)), st)


def unbalance(a: Array, t: int, p) -> Exact | float:
    """Sum of p-th powers of all deviations ``|count - N/s^t|``.

    Exact (int or Fraction) for integer ``p``; float for non-integer ``p``.
    """
    _check_strength(a, t)
    if p < 1:
        raise ValueError("p must be >= 1")
    st, n = a.n_levels**t, a.n_runs
    if isinstance(p, int) or (isinstance(p, float) and p.is_integer()):
        p = int(p)
        hist = _count_histogram(a, t)
        held = np.flatnonzero(hist)
        total = sum(w * abs(c * st - n) ** p for c, w in zip(held.tolist(), hist[held].tolist()))
        return _as_exact(total, st**p)
    total_f = 0.0  # summed row by row, in table order: the float result depends on it
    for chunk in _count_chunks(a, t):
        for row_sum in (np.abs(chunk - n / st) ** p).sum(axis=1).tolist():
            total_f += row_sum
    return total_f


def _indicator_gram(cells: np.ndarray, s: int) -> np.ndarray:
    """float32 E·Eᵀ of the 0/1 level-indicator matrix E of some columns' cells."""
    onehot = (cells[:, :, None] == np.arange(1, s + 1)).reshape(len(cells), -1)
    onehot = onehot.astype(np.float32)
    return onehot @ onehot.T


def hamming_similarity(a: Array) -> np.ndarray:
    """N×N matrix of coordinate-agreement counts between all row pairs.

    The Gram product E·Eᵀ of the N×(k·s) 0/1 level-indicator matrix E,
    summed over blocks of columns whose indicators stay within
    ``_CHUNK_BYTES`` or the N×N float32 product, whichever is larger (so a
    large s does not cost one N² add per few columns).  Each entry of a
    block's product counts agreements within the block, an integer below
    2^24, so float32 holds it exactly.
    """
    n, s = a.n_runs, a.n_levels
    h = np.zeros((n, n), dtype=np.int64)
    step = max(1, max(_CHUNK_BYTES, 4 * n * n) // (4 * n * s))
    for lo in range(0, a.n_factors, step):
        np.add(h, _indicator_gram(a.cells[:, lo : lo + step], s), out=h, casting="unsafe")
    return h


def unbalance2_via_hamming(a: Array, t: int) -> Exact:
    """2-unbalance of strength t computed from row-pair agreement counts.

    Equals ``unbalance(a, t, 2)`` exactly: summing binomial(H(r, r'), t) over
    all ordered row pairs counts coincident t-tuples, and subtracting the
    orthogonal-array target ``binom(k, t) * N^2 / s^t`` leaves the squared
    deviations.
    """
    _check_strength(a, t)
    h = hamming_similarity(a)
    comb_table = np.array([math.comb(v, t) for v in range(a.n_factors + 1)])
    total = int(comb_table[h].sum())
    st = a.n_levels**t
    target_num = math.comb(a.n_factors, t) * a.n_runs**2
    return _as_exact(total * st - target_num, st)


def normalized_unbalance(a: Array, t: int, p) -> float | Exact:
    """p-mean form of the unbalance: ``(Unb / (s^t * binom(k,t)))^(1/p)``.

    Nondecreasing in ``p``; the limit ``p = math.inf`` returns the tolerance.
    """
    _check_strength(a, t)
    if p == math.inf:
        return tolerance(a, t)
    if p < 1:
        raise ValueError("p must be >= 1")
    cells = a.n_levels**t * math.comb(a.n_factors, t)
    return float(unbalance(a, t, p) / cells) ** (1.0 / float(p))


def bandwidth(a: Array, t: int) -> Exact:
    """Largest gap between any two t-tuple counts, across all column tuples.

    Sandwiched between the tolerance and twice the tolerance.
    """
    low, high = _extreme_counts(_count_histogram(a, t))
    return high - low


def rao_max_factors(n_runs: int, n_levels: int) -> int:
    """Largest factor count a strength-2 OA with these runs/levels allows."""
    if n_levels < 2:
        raise ValueError("n_levels must be >= 2")
    return (n_runs - 1) // (n_levels - 1)


def lower_bound_unb22(n_runs: int, n_factors: int, n_levels: int) -> Exact:
    """Universal lower bound on the 2-unbalance of strength 2.

    Requires ``s^2 | N``. May be negative, in which case it is vacuous.
    """
    n, k, s = n_runs, n_factors, n_levels
    if n % s**2:
        raise ValueError("n_levels^2 must divide n_runs")
    lam = n // s**2
    gamma = Fraction((lam * s - 1) * k, lam * s**2 - 1)
    fl = math.floor(gamma)
    value = Fraction(lam * s**2 * (lam * s**2 - 1)) * (
        math.comb(fl, 2) + fl * (gamma - fl)
    ) - lam * (lam - 1) * s**2 * math.comb(k, 2)
    return _as_exact(value.numerator, value.denominator)


def trivial_construct(b: Array) -> Array:
    """Duplicate the first factor of a strength-2 OA.

    The result (B1 | B) keeps strength 1, its strength-2 tolerance is at most
    ``lam*(s-1)``, and its strength-2 p-unbalance is exactly
    ``lam^p * s*(s-1) * (1 + (s-1)^(p-1))`` where ``lam = N/s^2``.
    """
    if not is_oa(b, 2):
        raise ValueError("input must be an orthogonal array of strength 2")
    cells = np.hstack([b.cells[:, :1], b.cells])
    return Array(cells, b.n_levels)


@dataclass
class RepeatReport:
    """Repeated-factors array together with its guaranteed metric bounds."""

    array: Array
    tol_bound: Exact
    tol_actual: Exact
    unb_bounds: dict[int, Exact]
    unb_actuals: dict[int, Exact]

    @property
    def ok(self) -> bool:
        return self.tol_actual <= self.tol_bound and all(
            self.unb_actuals[p] <= self.unb_bounds[p] for p in self.unb_bounds
        )


def repeat_factors_bounds(b: Array, kappa: int, ps: tuple[int, ...] = (1, 2)) -> RepeatReport:
    """Prepend copies of the first ``kappa`` factors and bound the result.

    For any array B with ``s^2 | N``, the array (B[:kappa] | B) satisfies
    ``Tol2 <= max(Tol2(B), lam*(s-1))`` and, for each p,
    ``Unb2 <= 2*Unb2(B) + 2*Unb2(B[:kappa]) + kappa*lam^p*s*(s-1)*(1+(s-1)^(p-1))``.
    The report carries both bounds and the measured values.
    """
    if not 1 <= kappa <= b.n_factors - 1:
        raise ValueError("kappa must lie in 1..k-1")
    s = b.n_levels
    lam = _as_exact(b.n_runs, s**2)
    repeated = Array(np.hstack([b.cells[:, :kappa], b.cells]), s)

    tol_b = tolerance(b, 2)
    tol_bound = max(tol_b, lam * (s - 1))
    head = b.select_columns(range(kappa)) if kappa >= 2 else None
    unb_bounds: dict[int, Exact] = {}
    unb_actuals: dict[int, Exact] = {}
    for p in ps:
        unb_b = unbalance(b, 2, p)
        unb_head = unbalance(head, 2, p) if head is not None else 0
        per_pair = lam**p * s * (s - 1) * (1 + (s - 1) ** (p - 1))
        unb_bounds[p] = 2 * unb_b + 2 * unb_head + kappa * per_pair
        unb_actuals[p] = unbalance(repeated, 2, p)
    return RepeatReport(
        array=repeated,
        tol_bound=tol_bound,
        tol_actual=tolerance(repeated, 2),
        unb_bounds=unb_bounds,
        unb_actuals=unb_actuals,
    )


def cyclic_oa(s: int, lam: int = 1) -> Array:
    """Three-column strength-2 OA from modular addition, for any s >= 2.

    Rows are ``(u, v, u+v mod s)`` over all pairs, repeated ``lam`` times
    (stacked blocks, each in lexicographic row order), mapped to levels 1..s.
    """
    if s < 2:
        raise ValueError("s must be >= 2")
    if lam < 1:
        raise ValueError("lam must be >= 1")
    uv = _level_digits(np.arange(s * s), 2, s)
    block = np.column_stack([uv, uv.sum(axis=1) % s]) + 1
    return Array(np.vstack([block] * lam), s)


def random_array(n_runs: int, n_factors: int, n_levels: int, rng) -> Array:
    """Uniformly random array with the given shape, from a numpy Generator."""
    cells = rng.integers(1, n_levels + 1, size=(n_runs, n_factors))
    return Array(cells, n_levels)

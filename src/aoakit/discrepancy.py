"""Quadrature discrepancy measures for arrays mapped into the unit cube.

The runs of an N x k array over 1..s map to N points in [0,1]^k with
coordinates (2a - 1) / (2s).  Three classical product-kernel L2 discrepancies
are computed from their kernel definitions (centered, wrap-around, mixture),
with the per-coordinate integrals

    i1(x) = int_0^1 K(x, y) dy        i2 = int_0^1 int_0^1 K(x, y) dx dy

derived analytically.  The column setup is made once per point set: a
``PointSet`` keeps each column's distinct values and inverse (``np.unique``,
the inverse in the smallest unsigned dtype) from the first call that needs
them, and ``metrics_snapshot``, ``eval --discrepancies`` and
``check_discrepancy_bounds`` hand one ``points_of(a)`` to all three kernels.
Each call builds, and checks for exact symmetry, one kernel table per
distinct set of column values: a single table when every column of an array
takes all s levels.  The pair term sum_{i,i'} prod_j K(x_ij, x_i'j) is
folded into one N x N accumulator, so memory is O(N^2), not O(N^2 k), and
the fold is cache-blocked: each column's kernel rows (its kernel table over
the column's u distinct values, s x s for an array's points, gathered out to
u x N) are made once; consecutive columns are grouped while their rows fit a
block, and each block of accumulator rows takes the factors of a whole group
before the next block is touched.  Each 1-D kernel is exactly symmetric,
k1(x, y) and k1(y, x) being the same float, so entries (i, i') and (i', i)
take the same factors in the same order and are bitwise equal: only the
upper trapezoid of each row block (its columns from the block's first row
on) is folded, packed at the front of the block's own rows, then unpacked
and mirrored into the lower triangle.  Every entry still takes its factors
left to right over the columns and the final sum runs over the same matrix,
in the order of the direct N x N x k product, on purpose: catalogs store the
float values as ``repr`` strings and ``catalog recheck`` compares them
exactly, so a reordered product or sum would make existing catalogs fail.

The discrete discrepancy DD (a two-valued kernel on level space, parameters
a > b > 0) is computed in two provably equal ways — from Hamming similarity
counts and from the strength-t unbalances — and is exact rational whenever
the parameters are.  ``check_discrepancy_bounds`` evaluates the
inequalities that sandwich each classical discrepancy by a DD with coupled
parameters; they are equalities for CD at s = 2, WD at s <= 3 and MD at
s = 2 because the kernels are then two-valued on the point lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arrays import _CHUNK_BYTES, Array, Exact, hamming_similarity, unbalance

__all__ = [
    "PointSet",
    "ProductKernel",
    "CENTERED",
    "WRAPAROUND",
    "MIXTURE",
    "DdParams",
    "DdResult",
    "points_of",
    "discrepancy_sq",
    "discrepancy",
    "cd",
    "wd",
    "md",
    "dd",
    "dd_lower_bound",
    "cd_coupling",
    "wd_coupling",
    "md_coupling",
    "BoundCheck",
    "check_discrepancy_bounds",
]


@dataclass(frozen=True)
class PointSet:
    """N points in the unit cube, one row per point.

    Two point sets are equal when their points are; the per-column levels
    that ``discrepancy_sq`` keeps on a point set take no part in that.
    """

    points: np.ndarray
    _columns: list[tuple[np.ndarray, np.ndarray]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )  # per column (distinct values, inverse), filled by ``_column_levels``

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)  # a copy: the caller's array stays writable
        if pts.ndim != 2 or pts.size == 0:
            raise ValueError("points must form a non-empty 2-D matrix")
        if not np.isfinite(pts).all():
            raise ValueError("coordinates must be finite")
        if pts.min() < 0.0 or pts.max() > 1.0:
            raise ValueError("coordinates must lie in [0, 1]")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and bool(np.array_equal(self.points, other.points))

    def __hash__(self) -> int:
        # -0.0 + 0.0 is 0.0: points that compare equal hash from equal bytes
        return hash(((self.points + 0.0).tobytes(), self.points.shape))


def _column_levels(ps: PointSet) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each column's distinct values and inverse, computed once per point set.

    The inverse is held in the smallest unsigned dtype that indexes the
    values; both arrays are read-only, since later calls share them.
    """
    if not ps._columns:
        levels = []
        for x in ps.points.T:
            vals, inv = np.unique(x, return_inverse=True)
            inv = inv.astype(np.min_scalar_type(len(vals) - 1))
            vals.setflags(write=False)
            inv.setflags(write=False)
            levels.append((vals, inv))
        ps._columns.extend(levels)
    return ps._columns


def points_of(a: Array) -> PointSet:
    """Map each run to the cube point ((2*a[i,1]-1)/(2s), ..., (2*a[i,k]-1)/(2s))."""
    return PointSet((2 * a.cells - 1) / (2 * a.n_levels))


@dataclass(frozen=True)
class ProductKernel:
    """A product-form kernel given by its 1-D factor and that factor's integrals.

    ``k1`` must be exactly symmetric, k1(x, y) == k1(y, x) as floats:
    ``discrepancy_sq`` folds one triangle of the pair matrix and refuses a
    kernel whose table is not.
    """

    name: str
    i2: float

    def k1(self, x, y):
        raise NotImplementedError

    def i1(self, x):
        raise NotImplementedError


class _Centered(ProductKernel):
    """K(x,y) = 1 + |x-1/2|/2 + |y-1/2|/2 - |x-y|/2."""

    def k1(self, x, y):
        return 1 + 0.5 * (np.abs(x - 0.5) + np.abs(y - 0.5) - np.abs(x - y))

    def i1(self, x):
        u = np.abs(x - 0.5)
        return 1 + 0.5 * u - 0.5 * u * u


class _Wraparound(ProductKernel):
    """K(x,y) = 3/2 - |x-y| + |x-y|^2 (constant 1-D mean 4/3)."""

    def k1(self, x, y):
        d = np.abs(x - y)
        return 1.5 - d + d * d

    def i1(self, x):
        return np.full_like(np.asarray(x, dtype=float), 4.0 / 3.0)


class _Mixture(ProductKernel):
    """K(x,y) = 15/8 - |x-1/2|/4 - |y-1/2|/4 - 3|x-y|/4 + |x-y|^2/2."""

    def k1(self, x, y):
        d = np.abs(x - y)
        return (
            1.875
            - 0.25 * (np.abs(x - 0.5) + np.abs(y - 0.5))
            - 0.75 * d
            + 0.5 * d * d
        )

    def i1(self, x):
        u = np.abs(x - 0.5)
        return 5.0 / 3.0 - 0.25 * u - 0.25 * u * u


CENTERED = _Centered("centered", i2=13.0 / 12.0)
WRAPAROUND = _Wraparound("wraparound", i2=4.0 / 3.0)
MIXTURE = _Mixture("mixture", i2=19.0 / 12.0)


def discrepancy_sq(ps: PointSet, kernel: ProductKernel) -> float:
    """Squared L2 discrepancy i2^k - (2/N) sum_i prod_j i1 + (1/N^2) sum_{i,i'} prod_j K."""
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

    # Columns with the same distinct values share one kernel table, built
    # and checked for exact symmetry once: a lattice needs a single table.
    tables: dict[bytes, np.ndarray] = {}
    group, width = [], 0
    for vals, inv in _column_levels(ps):
        key = vals.tobytes()
        if key not in tables:
            table = kernel.k1(vals[:, None], vals[None, :])
            if not np.array_equal(table, table.T):
                raise ValueError(f"kernel {kernel.name!r} is not exactly symmetric")
            tables[key] = table
        table = tables[key]
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


def discrepancy(ps: PointSet, kernel: ProductKernel) -> float:
    return math.sqrt(max(discrepancy_sq(ps, kernel), 0.0))


def cd(a: Array) -> float:
    """Centered L2 discrepancy of the array's point set."""
    return discrepancy(points_of(a), CENTERED)


def wd(a: Array) -> float:
    """Wrap-around L2 discrepancy of the array's point set."""
    return discrepancy(points_of(a), WRAPAROUND)


def md(a: Array) -> float:
    """Mixture L2 discrepancy of the array's point set."""
    return discrepancy(points_of(a), MIXTURE)


Rational = int | Fraction


@dataclass(frozen=True)
class DdParams:
    """Parameters of the two-valued level-space kernel: a on agreement, b off."""

    a: float | Rational
    b: float | Rational

    def __post_init__(self):
        if not self.a > self.b > 0:
            raise ValueError("parameters must satisfy a > b > 0")

    @property
    def exact(self) -> bool:
        return isinstance(self.a, (int, Fraction)) and isinstance(
            self.b, (int, Fraction)
        )


def _reduced(value: Fraction | float) -> Exact | float:
    """An integral Fraction as an int; anything else unchanged."""
    return int(value) if isinstance(value, Fraction) and value.denominator == 1 else value


@dataclass(frozen=True)
class DdResult:
    """Squared discrete discrepancy by both formulas, plus the root."""

    params: DdParams
    sq_hamming: Exact | float
    sq_unbalance: Exact | float

    @property
    def value(self) -> float:
        return math.sqrt(max(float(self.sq_hamming), 0.0))

    @property
    def forms_agree(self) -> bool:
        lhs, rhs = float(self.sq_hamming), float(self.sq_unbalance)
        return abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def _agreement_counts(a: Array) -> list[int]:
    """Number of ordered run pairs that agree in exactly t coordinates, t = 0..k."""
    return np.bincount(hamming_similarity(a).ravel(), minlength=a.n_factors + 1).tolist()


def _dd_sq_hamming(
    a: Array, counts: list[int], pa: Fraction | float, pb: Fraction | float
) -> Fraction | float:
    """Squared discrete discrepancy from the ``_agreement_counts`` of the runs."""
    n, k, s = a.n_runs, a.n_factors, a.n_levels
    ratio = pa / pb
    profile = sum(c * ratio**t for t, c in enumerate(counts))
    return -(((pa - pb) / s + pb) ** k) + pb**k * profile / n**2


def dd(a: Array, params: DdParams) -> DdResult:
    """Discrete discrepancy of the runs, via Hamming counts and via unbalances.

    Exact rational arithmetic whenever both parameters are rational.
    """
    n, k = a.n_runs, a.n_factors
    num = Fraction if params.exact else float  # one arithmetic for every formula
    pa, pb = num(params.a), num(params.b)
    sq_h = _reduced(_dd_sq_hamming(a, _agreement_counts(a), pa, pb))
    sq_u = sum(num(unbalance(a, t, 2)) * (pa - pb) ** t * pb ** (k - t) for t in range(1, k + 1))
    return DdResult(params=params, sq_hamming=sq_h, sq_unbalance=_reduced(sq_u / n**2))


def dd_lower_bound(n: int, k: int, s: int, params: DdParams) -> Exact | float:
    """Smallest possible squared discrete discrepancy over N x k arrays, s^2 | N."""
    if n % s**2:
        raise ValueError("requires s^2 | N")
    lam = n // s**2
    num = Fraction if params.exact else float
    pa, pb = num(params.a), num(params.b)
    gamma = num((lam * s - 1) * k) / (lam * s**2 - 1)
    fl = math.floor(gamma)
    ratio = pa / pb
    return _reduced(
        -(((pa - pb) / s + pb) ** k)
        + pa**k / (lam * s**2)
        + pb**k
        * (1 - 1 / num(lam * s**2))
        * (1 + (ratio - 1) * (gamma - fl))
        * ratio**fl
    )


def cd_coupling(s: int) -> DdParams:
    """DD parameters (max diagonal, max off-diagonal centered-kernel value)."""
    if s == 2:
        return DdParams(Fraction(5, 4), Fraction(1))
    return DdParams(Fraction(3 * s - 1, 2 * s), Fraction(3 * s - 3, 2 * s))


def wd_coupling(s: int) -> DdParams:
    return DdParams(Fraction(3, 2), Fraction(3 * s**2 - 2 * s + 2, 2 * s**2))


def md_coupling(s: int) -> DdParams:
    a = Fraction(15, 8) if s % 2 else Fraction(15, 8) - Fraction(1, 4 * s)
    return DdParams(a, Fraction(15 * s**2 - 8 * s + 4, 8 * s**2))


def _cross_min(kernel_name: str, s: int) -> Fraction:
    """Minimum of the 1-D kernel mean over the s-level lattice points."""
    if kernel_name == "centered":
        if s % 2:
            return Fraction(1)
        return Fraction(8 * s**2 + 2 * s - 1, 8 * s**2)
    if kernel_name == "wraparound":
        return Fraction(4, 3)
    # mixture: the mean decreases away from the centre; extreme lattice point
    u = Fraction(s - 1, 2 * s)
    return Fraction(5, 3) - u / 4 - u * u / 4


@dataclass(frozen=True)
class BoundCheck:
    """One classical-vs-discrete comparison: lhs_sq <= rhs_sq (maybe equality)."""

    name: str
    lhs_sq: float
    rhs_sq: float
    equality_expected: bool

    @property
    def holds(self) -> bool:
        return self.lhs_sq <= self.rhs_sq + 1e-8 * max(1.0, abs(self.rhs_sq))

    @property
    def is_equality(self) -> bool:
        return abs(self.lhs_sq - self.rhs_sq) <= 1e-8 * max(1.0, abs(self.rhs_sq))

    @property
    def ok(self) -> bool:
        return self.holds and (self.is_equality or not self.equality_expected)


def check_discrepancy_bounds(a: Array) -> dict[str, BoundCheck]:
    """Evaluate both sides of the CD/WD/MD vs DD inequalities on one array."""
    s, k = a.n_levels, a.n_factors
    i2 = {"centered": Fraction(13, 12), "wraparound": Fraction(4, 3), "mixture": Fraction(19, 12)}
    couplings = {
        "centered": cd_coupling(s),
        "wraparound": wd_coupling(s),
        "mixture": md_coupling(s),
    }
    ps = points_of(a)  # one column setup for all three kernels
    measured = {kernel.name: discrepancy(ps, kernel) for kernel in (CENTERED, WRAPAROUND, MIXTURE)}
    equality_at = {"centered": s == 2, "wraparound": s <= 3, "mixture": s == 2}
    counts = _agreement_counts(a)

    out: dict[str, BoundCheck] = {}
    for name, params in couplings.items():
        pa, pb = Fraction(params.a), Fraction(params.b)
        third = ((pa - pb) / s + pb) ** k
        rhs = (
            float(i2[name] ** k - 2 * _cross_min(name, s) ** k + third)
            + float(_dd_sq_hamming(a, counts, pa, pb))
        )
        out[name] = BoundCheck(
            name=name,
            lhs_sq=measured[name] ** 2,
            rhs_sq=rhs,
            equality_expected=equality_at[name],
        )
    return out

"""Design-matrix non-orthogonality measures.

A level contrast ``f`` maps levels to centered reals; normalizing each column
of ``f`` applied cellwise gives the design matrix X whose Gram matrix X'X is
the identity exactly when the array's columns are pairwise balanced. The
D-value ``det(X'X)^(1/k)``, the pairwise criteria D1/D2, and the J2 statistic
quantify how far an array is from that ideal, and the inequality checkers
relate them to the counting metrics (tolerance/unbalance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arrays import Array, Exact, _as_exact, _balanced_pairs, _count_table
from .arrays import is_oa, tolerance, unbalance

__all__ = [
    "LevelContrast",
    "default_contrast",
    "design_matrix",
    "d_value",
    "deviations",
    "d_phi_theta",
    "d1",
    "d2",
    "j2",
    "check_dcriterion_bounds",
    "DCriterionReport",
]


@dataclass(frozen=True)
class LevelContrast:
    """Real values assigned to the levels 1..s, averaging to zero.

    Parameters
    ----------
    values : numpy.ndarray
        ``values[v-1]`` is the contrast of level ``v``. Must be non-constant
        and sum to zero (within 1e-12).
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)  # a copy: the caller's array stays writable
        if values.ndim != 1 or values.size < 2:
            raise ValueError("a contrast needs at least two levels")
        if abs(values.sum()) > 1e-12 * max(1.0, np.abs(values).max()):
            raise ValueError("contrast values must sum to zero")
        if np.allclose(values, values[0]):
            raise ValueError("contrast must not be constant")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_levels(self) -> int:
        return self.values.size

    def __call__(self, level: int) -> float:
        return float(self.values[level - 1])

    def apply(self, cells: np.ndarray) -> np.ndarray:
        return self.values[cells - 1]


def default_contrast(s: int) -> LevelContrast:
    """Centered arithmetic contrast ``f(a) = a - (s+1)/2``."""
    if s < 2:
        raise ValueError("s must be >= 2")
    return LevelContrast(np.arange(1, s + 1) - (s + 1) / 2.0)


def design_matrix(a: Array, f: LevelContrast) -> np.ndarray:
    """Column-normalized contrast image of the array.

    ``X[i, j] = f(a[i, j]) / sqrt(sum_i f(a[i, j])^2)``; every column has unit
    Euclidean norm.

    Raises
    ------
    ValueError
        If some column is constant under ``f`` (zero norm).
    """
    if f.n_levels != a.n_levels:
        raise ValueError("contrast level count does not match the array")
    raw = f.apply(a.cells)
    norms = np.sqrt((raw**2).sum(axis=0))
    if np.any(norms == 0):
        bad = int(np.where(norms == 0)[0][0]) + 1
        raise ValueError(f"column {bad} is constant under the contrast")
    return raw / norms


def d_value(a: Array, f: LevelContrast) -> float:
    """Determinant criterion ``det(X'X)^(1/k)`` in [0, 1]; 1 iff orthogonal."""
    x = design_matrix(a, f)
    gram = x.T @ x
    eigs = np.linalg.eigvalsh(gram)
    eigs = np.clip(eigs, 0.0, None)
    if np.any(eigs == 0.0):
        return 0.0
    return float(np.exp(np.log(eigs).mean()))


def deviations(f: LevelContrast) -> tuple[float, float]:
    """Minimal mean absolute deviation and root-mean-square deviation.

    The first is minimized at a median of the contrast values (midpoint of
    the median interval for even s), the second at their mean. Their squared
    ratio always lies in ``[1/(s-1), 1]``.
    """
    values = np.sort(f.values)
    s = values.size
    if s % 2:
        med = values[s // 2]
    else:
        med = 0.5 * (values[s // 2 - 1] + values[s // 2])
    sigma1 = float(np.abs(values - med).mean())
    sigma2 = float(np.sqrt(((values - values.mean()) ** 2).mean()))
    return sigma1, sigma2


def d_phi_theta(a: Array, alpha, beta) -> float | Exact:
    """Pairwise-aggregated deviation criterion.

    For each pair of columns, the inner sum of ``|count - N/s^2|^alpha`` is
    raised to ``beta``, and the outer sum runs over all pairs. Exact for
    integer exponents, float otherwise.
    """
    if alpha < 1 or beta < 1:
        raise ValueError("alpha and beta must be >= 1")
    s2, n = a.n_levels**2, a.n_runs
    table = _count_table(a, 2)
    if float(alpha).is_integer() and float(beta).is_integer():
        alpha_i, beta_i = int(alpha), int(beta)
        counts, inverse = np.unique(table, return_inverse=True)
        powers = np.array([abs(c * s2 - n) ** alpha_i for c in counts.tolist()], dtype=object)
        inner = powers[inverse.reshape(table.shape)].sum(axis=1)
        total = sum(int(v) ** beta_i for v in inner)
        return _as_exact(total, s2 ** (alpha_i * beta_i))
    total_f = 0.0
    for inner_f in (np.abs(table - n / s2) ** alpha).sum(axis=1).tolist():
        total_f += inner_f**beta
    return total_f


def d1(a: Array) -> Exact:
    """Average absolute pair deviation: ``d_phi_theta(a,1,1) / binom(k,2)``."""
    # with beta = 1 (here and in d2) that criterion is the pair unbalance
    value = Fraction(unbalance(a, 2, 1)) / math.comb(a.n_factors, 2)
    return _as_exact(value.numerator, value.denominator)


def d2(a: Array) -> Exact:
    """Average squared pair deviation: ``d_phi_theta(a,2,1) / binom(k,2)``."""
    value = Fraction(unbalance(a, 2, 2)) / math.comb(a.n_factors, 2)
    return _as_exact(value.numerator, value.denominator)


def j2(a: Array, f: LevelContrast) -> float:
    """Coincidence-weighted balance statistic of a strength-1 OA.

    Computed as ``(N^2/2) * ||X'X - I||_F^2 + (N/2) * (N*k*(k-1) + N*k*s - k^2*s^2)``.
    """
    if not is_oa(a, 1):
        raise ValueError("j2 requires a strength-1 orthogonal array")
    n, k, s = a.n_runs, a.n_factors, a.n_levels
    x = design_matrix(a, f)
    frob2 = float(((x.T @ x - np.eye(k)) ** 2).sum())
    return 0.5 * n * n * frob2 + 0.5 * n * (n * k * (k - 1) + n * k * s - k * k * s * s)


@dataclass
class DCriterionReport:
    """Evaluated sides of the Gram-matrix-vs-counting inequalities."""

    frobenius_lhs: float
    frobenius_rhs: float
    max_lhs: float
    max_mid: float
    max_rhs: float
    frobenius_ok: bool
    max_ok: bool
    corollary_applicable: bool = False
    corollary_r: int | None = None
    corollary_condition: float | None = None
    d_value: float | None = None
    d_value_bound: float | None = None
    corollary_ok: bool | None = None

    @property
    def ok(self) -> bool:
        checks = [self.frobenius_ok, self.max_ok]
        if self.corollary_applicable:
            checks.append(bool(self.corollary_ok))
        return all(checks)


def check_dcriterion_bounds(a: Array, f: LevelContrast, removable=None) -> DCriterionReport:
    """Check the Gram-deviation inequalities against tolerance/unbalance.

    Verifies ``||X'X - I||_F <= sqrt(2*Unb_2)/ (lam*s)`` and
    ``||X'X - I||_max <= (sigma1/sigma2)^2 * Tol2 / lam <= Tol2 / lam`` on a
    strength-1 OA. When the array additionally becomes a strength-2 OA after
    dropping the last column, and after dropping some set of ``r`` other
    columns (given via ``removable`` or auto-detected from the deviating
    pairs), and ``sqrt(r)*(sigma1/sigma2)^2*Tol2/lam < 1``, the determinant
    bound ``d_value >= (1 - r*(sigma1/sigma2)^4*Tol2^2/lam^2)^(1/k)`` is
    checked as well.
    """
    if not is_oa(a, 1):
        raise ValueError("requires a strength-1 orthogonal array")
    n, k, s = a.n_runs, a.n_factors, a.n_levels
    lam = Fraction(n, s**2)
    x = design_matrix(a, f)
    delta = x.T @ x - np.eye(k)
    frob_lhs = float(np.sqrt((delta**2).sum()))
    unb2 = unbalance(a, 2, 2)
    frob_rhs = float(math.sqrt(2.0 * float(unb2)) / float(lam * s))
    tol2 = tolerance(a, 2)
    sigma1, sigma2 = deviations(f)
    ratio2 = (sigma1 / sigma2) ** 2
    max_lhs = float(np.abs(delta).max())
    max_mid = ratio2 * float(tol2) / float(lam)
    max_rhs = float(tol2) / float(lam)
    tol_num = 1e-9
    report = DCriterionReport(
        frobenius_lhs=frob_lhs,
        frobenius_rhs=frob_rhs,
        max_lhs=max_lhs,
        max_mid=max_mid,
        max_rhs=max_rhs,
        frobenius_ok=frob_lhs <= frob_rhs + tol_num,
        max_ok=max_lhs <= max_mid + tol_num <= max_rhs + 2 * tol_num,
    )

    # Structural hypotheses for the determinant bound.
    last = k - 1
    pairs = _balanced_pairs(a)
    if not pairs[:last, :last].all():
        return report
    if removable is None:
        deviating = set(np.flatnonzero(~pairs.all(axis=1)).tolist())
        deviating.discard(last)
        removable = sorted(deviating)
    removed = {int(c) for c in removable}
    if last in removed or not removed:
        return report
    kept = [c for c in range(k) if c not in removed]
    if not pairs[np.ix_(kept, kept)].all():
        return report
    r = len(removed)
    condition = math.sqrt(r) * ratio2 * float(tol2) / float(lam)
    report.corollary_r = r
    report.corollary_condition = condition
    if condition < 1.0:
        report.corollary_applicable = True
        dv = d_value(a, f)
        bound = (1.0 - r * ratio2**2 * float(tol2) ** 2 / float(lam) ** 2) ** (1.0 / k)
        report.d_value = dv
        report.d_value_bound = bound
        report.corollary_ok = dv >= bound - tol_num
    return report

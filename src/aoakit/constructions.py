"""Finite-field constructions of almost-orthogonal arrays.

Three Addelman-Kempthorne-style constructions over GF(s), for a size
parameter ``ell >= 2`` and an extra-column count ``kappa``:

- ``ak_half``: s^ell runs; a linear block (one column per projective
  direction) extended by ``kappa`` quadratic columns. Strength-1 OA with
  strength-2 tolerance ``s^(ell-2)`` and p-unbalance
  ``kappa * s^2 * (s-1) * s^((ell-2)p)``.
- ``ak_ext_odd`` / ``ak_ext_even``: 2*s^ell runs (two stacked blocks twisted
  by a non-square / by a subfield-avoiding element), with
  ``2*(s^ell-1)/(s-1) - 1 + kappa`` columns, tolerance
  ``max(2, s-2) * s^(ell-2)`` and p-unbalance
  ``binom(kappa+1, 2) * 2s(s-2) * ((s-2)^(p-1) + 2^(p-1)) * s^((ell-2)p)``.

``verify_construction`` re-measures every guaranteed property on a built
array and reports item-by-item results.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .arrays import Array, _balanced_pairs, _level_digits, is_oa, tolerance, unbalance
from .galois import Field, is_prime_power, make_field

__all__ = [
    "GammaSet",
    "ConstructionSpec",
    "gamma_set",
    "ak_half",
    "ak_ext_odd",
    "ak_ext_even",
    "construct",
    "verify_construction",
    "ConstructionReport",
]


@dataclass(frozen=True)
class GammaSet:
    """Canonical projective representatives of F_s^(ell-1).

    One vector per linear line: each has first nonzero coordinate 1 and the
    list is in lexicographic order, so the set is deterministic.
    """

    order: int
    ell: int
    vectors: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.vectors)


def gamma_set(f: Field, ell: int) -> GammaSet:
    """Pairwise linearly independent direction vectors in F_s^(ell-1).

    Size ``(s^(ell-1) - 1) / (s - 1)``.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    s = f.order
    grid = _level_digits(np.arange(s ** (ell - 1)), ell - 1, s)
    first = grid[np.arange(len(grid)), (grid != 0).argmax(axis=1)]  # 0 on the zero vector
    vectors = list(map(tuple, grid[first == 1].tolist()))
    expected = (s ** (ell - 1) - 1) // (s - 1)
    if len(vectors) != expected:
        raise AssertionError("projective representative count mismatch")
    return GammaSet(order=s, ell=ell, vectors=tuple(vectors))


_MAX_CELLS = 10**8
"""Largest N*k a spec may ask for: 0.8 GB of int64 cells, before any copy."""


@dataclass(frozen=True)
class ConstructionSpec:
    """Parameters of one construction instance.

    variant: 'half', 'odd_ext' or 'even_ext'. kappa counts the quadratic
    extension columns: at most ``s*(s^(ell-1)-1)/(s-1)`` for 'half' and at
    most ``s - 1`` for the extensions (which also require s > 2 of matching
    parity). The array may hold at most 10^8 cells (N*k).
    """

    s: int
    ell: int
    kappa: int
    variant: str

    def __post_init__(self):
        if self.variant not in ("half", "odd_ext", "even_ext"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.ell < 2:
            raise ValueError("ell must be >= 2")
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")
        if self.s < 2:
            raise ValueError(f"{self.s} is not a prime power")
        if self.ell >= 27:  # N >= 2^27; sizes go before the slow s**ell and is_prime_power
            raise ValueError(f"array too large: ell = {self.ell} means N >= 2^27 (limit 10^8)")
        cells = self.n_runs * self.n_factors
        if cells > _MAX_CELLS:
            raise ValueError(f"array too large: N*k = {cells} cells (limit 10^8)")
        if is_prime_power(self.s) is None:
            raise ValueError(f"{self.s} is not a prime power")
        if self.variant == "half":
            limit = self.s * (self.s ** (self.ell - 1) - 1) // (self.s - 1)
            if self.kappa > limit:
                raise ValueError(f"kappa must be <= {limit} for variant 'half'")
        else:
            if self.s == 2:
                raise ValueError(
                    "the two-block extensions require s > 2 "
                    "(at s = 2 they collapse to an orthogonal array)"
                )
            if self.variant == "odd_ext" and self.s % 2 == 0:
                raise ValueError("variant 'odd_ext' requires odd s")
            if self.variant == "even_ext" and self.s % 2 == 1:
                raise ValueError("variant 'even_ext' requires even s")
            if self.kappa > self.s - 1:
                raise ValueError("kappa must be <= s - 1 for the extensions")

    @property
    def n_runs(self) -> int:
        base = self.s**self.ell
        return base if self.variant == "half" else 2 * base

    @property
    def n_factors(self) -> int:
        block = (self.s**self.ell - 1) // (self.s - 1)
        if self.variant == "half":
            return block + self.kappa
        return 2 * block - 1 + self.kappa

    @property
    def tol_formula(self) -> int:
        if self.variant == "half":
            return self.s ** (self.ell - 2)
        return max(2, self.s - 2) * self.s ** (self.ell - 2)

    def unb_formula(self, p: int) -> int:
        s, ell, kappa = self.s, self.ell, self.kappa
        if self.variant == "half":
            return kappa * s * s * (s - 1) * s ** ((ell - 2) * p)
        return (
            math.comb(kappa + 1, 2)
            * 2
            * s
            * (s - 2)
            * ((s - 2) ** (p - 1) + 2 ** (p - 1))
            * s ** ((ell - 2) * p)
        )


def _row_coordinates(f: Field, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """All of F_s^ell as (x, y) with x major and y lexicographic."""
    grid = _level_digits(np.arange(f.order**ell), ell, f.order)
    return grid[:, 0], grid[:, 1:]


def _gamma_dots(f: Field, gammas: GammaSet, ys: np.ndarray) -> np.ndarray:
    """N x |Gamma| matrix of gamma'y, one column per direction."""
    g = np.array(gammas.vectors, dtype=np.int64)
    acc = np.zeros((ys.shape[0], len(gammas)), dtype=np.int64)
    for j in range(ys.shape[1]):
        acc = f.vadd(acc, f.vmul(ys[:, j, None], g[:, j]))
    return acc


def _linear_block(f: Field, xs, gdot, twist=None) -> np.ndarray:
    """Columns x and a*x + gamma'y (+ twist[a]), a-major and then gamma."""
    ax = f.vmul(xs[:, None], np.arange(f.order))
    if twist is not None:
        ax = f.vadd(ax, twist)
    lin = f.vadd(ax[:, :, None], gdot[:, None, :]).reshape(len(xs), -1)
    return np.column_stack([xs, lin])


def _pairs(count: int, gammas: GammaSet) -> tuple[np.ndarray, np.ndarray]:
    """(beta, gamma index) of the first ``count`` pairs of product(elements, gammas)."""
    return divmod(np.arange(count), len(gammas))


def ak_half(spec: ConstructionSpec) -> Array:
    """Linear block plus ``kappa`` quadratic columns x^2 + beta*x + gamma'y.

    The quadratic column index set is the first ``kappa`` pairs (beta, gamma)
    in enumeration order.
    """
    if spec.variant != "half":
        raise ValueError("spec.variant must be 'half'")
    f = make_field(spec.s)
    gammas = gamma_set(f, spec.ell)
    xs, ys = _row_coordinates(f, spec.ell)
    gdot = _gamma_dots(f, gammas, ys)
    beta, g = _pairs(spec.kappa, gammas)
    quad = f.vadd(f.vadd(f.vmul(xs, xs)[:, None], f.vmul(xs[:, None], beta)), gdot[:, g])
    return Array(np.column_stack([_linear_block(f, xs, gdot), quad]) + 1, spec.s)


def ak_ext_odd(spec: ConstructionSpec) -> Array:
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
    gdot = _gamma_dots(f, gammas, ys)
    elems = np.arange(f.order)
    twist = f.vmul(shrink, f.vmul(elems, elems))
    beta, g = _pairs(f.order * len(gammas), gammas)
    diff = f.vadd(xs[:, None], f._neg[beta])
    sq = f.vmul(diff, diff)
    a = elems[1 : spec.kappa + 1]
    x2 = f.vmul(xs, xs)[:, None]
    minus_ax = f.vmul(xs[:, None], f._neg[a])
    top = [_linear_block(f, xs, gdot), f.vadd(sq, gdot[:, g]), f.vadd(x2, minus_ax)]
    bot = [
        _linear_block(f, xs, gdot, twist),
        f.vadd(f.vmul(omega, sq), gdot[:, g]),
        f.vadd(f.vadd(f.vmul(omega, x2), minus_ax), f._neg[twist[a]]),
    ]
    return Array(np.vstack([np.hstack(top), np.hstack(bot)]) + 1, spec.s)


def ak_ext_even(spec: ConstructionSpec) -> Array:
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
    gdot = _gamma_dots(f, gammas, ys)
    elems = np.arange(f.order)
    twist = f.vmul(zeta, f.vmul(elems, elems))
    beta, g = _pairs(f.order * len(gammas), gammas)
    delta = elems[1 : spec.kappa + 1]
    x2 = f.vmul(xs, xs)[:, None]
    quad = f.vadd(f.vadd(x2, f.vmul(xs[:, None], beta)), gdot[:, g])
    ext = f.vadd(x2, f.vmul(xs[:, None], delta))
    top = [_linear_block(f, xs, gdot), quad, ext]
    bot = [_linear_block(f, xs, gdot, twist), f.vadd(quad, twist[beta]), f.vadd(ext, twist[delta])]
    return Array(np.vstack([np.hstack(top), np.hstack(bot)]) + 1, spec.s)


def construct(spec: ConstructionSpec) -> Array:
    """Dispatch to the variant named in the spec."""
    return {"half": ak_half, "odd_ext": ak_ext_odd, "even_ext": ak_ext_even}[
        spec.variant
    ](spec)


@dataclass
class ConstructionReport:
    """Item-by-item verification of a construction's guarantees."""

    spec: ConstructionSpec
    strength1: bool
    leading_block: bool
    trailing_block: list[tuple[tuple[int, ...], bool]]
    tol_expected: int
    tol_measured: object
    unb_expected: dict[int, int]
    unb_measured: dict[int, object]

    @property
    def items(self) -> dict[str, bool]:
        return {
            "0": self.strength1,
            "1a": self.leading_block,
            "1b": all(ok for _, ok in self.trailing_block),
            "2": self.tol_measured == self.tol_expected,
            "3": all(
                self.unb_measured[p] == self.unb_expected[p] for p in self.unb_expected
            ),
        }

    @property
    def ok(self) -> bool:
        return all(self.items.values())


def verify_construction(a: Array, spec: ConstructionSpec, ps=(1, 2, 3)) -> ConstructionReport:
    """Measure every theorem guarantee on a built array.

    Checks strength 1, the leading strength-2 block, the trailing sub-OA
    property (for the extensions: dropping the first column plus each choice
    of kappa-1 of the last columns; reported per choice), and the exact
    tolerance/unbalance closed forms.
    """
    if (a.n_runs, a.n_factors) != (spec.n_runs, spec.n_factors):
        raise ValueError("array shape does not match the spec")
    k = spec.n_factors
    block = (spec.s**spec.ell - 1) // (spec.s - 1)

    pairs = _balanced_pairs(a)
    if spec.variant == "half":
        leading = bool(pairs[:block, :block].all())
        trailing = [(tuple(range(block, k)), bool(pairs[block:, block:].all()))]
    else:
        leading = bool(pairs[: 2 * block - 1, : 2 * block - 1].all())
        trailing = []
        tail = list(range(k - spec.kappa, k))
        for removed in itertools.combinations(tail, spec.kappa - 1):
            kept = [c for c in range(1, k) if c not in removed]
            trailing.append((removed, bool(pairs[np.ix_(kept, kept)].all())))

    unb_expected = {p: spec.unb_formula(p) for p in ps}
    unb_measured = {p: unbalance(a, 2, p) for p in ps}
    return ConstructionReport(
        spec=spec,
        strength1=is_oa(a, 1),
        leading_block=leading,
        trailing_block=trailing,
        tol_expected=spec.tol_formula,
        tol_measured=tolerance(a, 2),
        unb_expected=unb_expected,
        unb_measured=unb_measured,
    )

import itertools
from fractions import Fraction
from math import comb, isclose

import numpy as np
import pytest

from aoakit.arrays import Array, cyclic_oa, is_oa, unbalance
from aoakit.constructions import ConstructionSpec, construct
from aoakit.metrics import (
    LevelContrast,
    check_dcriterion_bounds,
    d1,
    d2,
    d_phi_theta,
    d_value,
    default_contrast,
    design_matrix,
    deviations,
    j2,
)

from conftest import random_array
from oracles import count_tuple_slow, unbalance_slow


def strength1_oa(rng, n, k, s) -> Array:
    """Random strength-1 OA: each column is a permutation of balanced levels."""
    base = np.repeat(np.arange(1, s + 1), n // s)
    cols = [rng.permutation(base) for _ in range(k)]
    return Array(np.column_stack(cols), s)


class TestContrast:
    def test_default_contrast_values(self):
        f = default_contrast(3)
        assert np.allclose(f.values, [-1.0, 0.0, 1.0])
        assert f(1) == -1.0 and f(3) == 1.0
        f = default_contrast(4)
        assert np.allclose(f.values, [-1.5, -0.5, 0.5, 1.5])

    def test_rejects_biased_or_constant(self):
        with pytest.raises(ValueError):
            LevelContrast((1.0, 2.0))
        with pytest.raises(ValueError):
            LevelContrast((0.0, 0.0))
        with pytest.raises(ValueError):
            LevelContrast((1.0,))

    def test_values_are_write_locked_and_the_callers_array_stays_writable(self):
        values = np.array([-1.0, 0.0, 1.0])
        f = LevelContrast(values)
        with pytest.raises(ValueError):
            f.values[0] = 2.0
        values[0] = 2.0
        assert f.values.tolist() == [-1.0, 0.0, 1.0]

    def test_apply_matches_call(self, t0):
        f = default_contrast(2)
        applied = f.apply(t0.cells)
        for i in range(t0.n_runs):
            for j in range(t0.n_factors):
                assert applied[i, j] == f(int(t0.cells[i, j]))


class TestDesignMatrix:
    @pytest.mark.parametrize("s", [2, 3, 4, 5])
    def test_unit_norm_columns(self, s, rng):
        a = strength1_oa(rng, 2 * s, 4, s)
        x = design_matrix(a, default_contrast(s))
        assert np.allclose((x**2).sum(axis=0), 1.0)

    def test_zero_norm_column_rejected(self):
        # A column stuck at the contrast's zero level has no direction.
        a = Array(np.array([[2, 1], [2, 3]]), 3)
        with pytest.raises(ValueError):
            design_matrix(a, default_contrast(3))
        # Constant at a nonzero contrast value is legal.
        b = Array(np.array([[1, 1], [1, 2]]), 2)
        design_matrix(b, default_contrast(2))


class TestDValue:
    @pytest.mark.parametrize("s", [2, 3, 4, 5, 7])
    def test_orthogonal_array_scores_one(self, s):
        a = cyclic_oa(s)
        assert d_value(a, default_contrast(s)) == pytest.approx(1.0, abs=1e-12)

    def test_duplicated_column_scores_zero(self, t0):
        # Two identical columns make the design matrix singular.
        assert d_value(t0, default_contrast(2)) == 0.0

    def test_between_zero_and_one(self, rng):
        for _ in range(20):
            s = int(rng.integers(2, 5))
            a = strength1_oa(rng, 2 * s, 4, s)
            v = d_value(a, default_contrast(s))
            assert 0.0 <= v <= 1.0 + 1e-12


class TestDeviations:
    def test_two_levels(self):
        sigma1, sigma2 = deviations(default_contrast(2))
        assert sigma1 == pytest.approx(0.5)
        assert sigma2 == pytest.approx(0.5)

    def test_three_levels(self):
        sigma1, sigma2 = deviations(default_contrast(3))
        assert sigma1 == pytest.approx(2.0 / 3.0)
        assert sigma2 == pytest.approx(np.sqrt(2.0 / 3.0))

    @pytest.mark.parametrize("s", range(2, 10))
    def test_squared_ratio_range(self, s):
        sigma1, sigma2 = deviations(default_contrast(s))
        q = (sigma1 / sigma2) ** 2
        assert 1.0 / (s - 1) - 1e-12 <= q <= 1.0 + 1e-12


class TestPairCriteria:
    def test_construction_golden(self):
        a = construct(ConstructionSpec(s=3, ell=2, kappa=1, variant="half"))
        assert d1(a) == Fraction(9, 5)
        assert d2(a) == Fraction(9, 5)

    def test_equal_average_pair_unbalance(self, rng):
        for _ in range(50):
            a = random_array(rng, n_factors=int(rng.integers(2, 7)))
            pairs = comb(a.n_factors, 2)
            assert d1(a) == Fraction(unbalance(a, 2, 1)) / pairs
            assert d2(a) == Fraction(unbalance(a, 2, 2)) / pairs
            assert d1(a) == Fraction(d_phi_theta(a, 1, 1)) / pairs
            assert d2(a) == Fraction(d_phi_theta(a, 2, 1)) / pairs

    def test_theta_aggregation(self, rng):
        # With beta = 2 the per-pair sums are squared before aggregation,
        # so column order of operations matters; check against a direct sum.
        a = random_array(rng, n_runs=8, n_factors=4, n_levels=2)
        per_pair = []
        for c1 in range(4):
            for c2 in range(c1 + 1, 4):
                sub = a.select_columns([c1, c2])
                per_pair.append(unbalance(sub, 2, 1))
        expected = sum(Fraction(v) ** 2 for v in per_pair)
        assert d_phi_theta(a, 1, 2) == expected

    def test_exponents_match_slow_pair_sums(self, rng):
        for _ in range(30):
            a = random_array(rng, n_factors=int(rng.integers(2, 6)))
            s2 = a.n_levels**2
            per_pair = [
                unbalance_slow(a.select_columns(cols), 2, alpha)
                for alpha in (1, 2, 3)
                for cols in itertools.combinations(range(a.n_factors), 2)
            ]
            n_pairs = comb(a.n_factors, 2)
            for i, alpha in enumerate((1, 2, 3)):
                sums = per_pair[i * n_pairs : (i + 1) * n_pairs]
                for beta in (1, 2, 3):
                    assert d_phi_theta(a, alpha, beta) == sum(v**beta for v in sums)
                loose = d_phi_theta(a, alpha + 0.5, 1.5)
                target = Fraction(a.n_runs, s2)
                want = sum(
                    sum(
                        float(abs(count_tuple_slow(a, x, cols) - target)) ** (alpha + 0.5)
                        for x in itertools.product(range(1, a.n_levels + 1), repeat=2)
                    )
                    ** 1.5
                    for cols in itertools.combinations(range(a.n_factors), 2)
                )
                assert loose == pytest.approx(want, rel=1e-12)

    def test_float_exponent_path(self, rng):
        a = random_array(rng, n_runs=8, n_factors=3, n_levels=2)
        exact = d_phi_theta(a, 2, 1)
        loose = d_phi_theta(a, 2.0, 1.5)
        assert isinstance(loose, float)
        assert loose >= 0.0
        assert float(d_phi_theta(a, 2.0, 1.0)) == pytest.approx(float(exact))

    def test_validation(self, t0):
        with pytest.raises(ValueError):
            d_phi_theta(t0, 0.5, 1)
        with pytest.raises(ValueError):
            d_phi_theta(t0, 1, 0)


class TestJ2:
    def test_requires_strength_one(self, rng):
        a = Array(np.array([[1, 1], [1, 2], [2, 1]]), 2)
        with pytest.raises(ValueError):
            j2(a, default_contrast(2))

    def test_two_level_coincidence_identity(self, rng):
        # For two levels the single contrast column is a complete system, so
        # the Gram form equals the combinatorial sum of squared
        # coincidence weights s*H(r, r~) over unordered row pairs.
        for _ in range(20):
            a = strength1_oa(rng, 8, int(rng.integers(2, 6)), 2)
            h = (a.cells[:, None, :] == a.cells[None, :, :]).sum(axis=2)
            iu = np.triu_indices(a.n_runs, 1)
            direct = float(((2 * h)[iu] ** 2).sum())
            assert j2(a, default_contrast(2)) == pytest.approx(direct)

    @pytest.mark.parametrize("s", [2, 3, 4, 5])
    def test_strength_two_closed_form(self, s):
        a = cyclic_oa(s)
        n, k = a.n_runs, a.n_factors
        expected = 0.5 * n * (n * k * (k - 1) + n * k * s - k * k * s * s)
        assert j2(a, default_contrast(s)) == pytest.approx(expected)
        # At strength 2 the coincidence sum is forced, so the two agree.
        h = (a.cells[:, None, :] == a.cells[None, :, :]).sum(axis=2)
        iu = np.triu_indices(n, 1)
        assert expected == pytest.approx(float(((s * h)[iu] ** 2).sum()))


class TestDCriterionBounds:
    def test_oa_all_tight(self):
        a = cyclic_oa(3)
        report = check_dcriterion_bounds(a, default_contrast(3))
        assert report.ok
        assert report.frobenius_lhs == pytest.approx(0.0, abs=1e-12)
        assert report.max_lhs == pytest.approx(0.0, abs=1e-12)

    def test_half_construction_default_contrast(self):
        a = construct(ConstructionSpec(s=3, ell=2, kappa=1, variant="half"))
        report = check_dcriterion_bounds(a, default_contrast(3))
        assert report.ok
        assert report.frobenius_ok and report.max_ok
        # Three linear columns carry all deviation against the quadratic one,
        # but sqrt(3) * (2/3) > 1, so the determinant corollary stays silent.
        assert report.corollary_r == 3
        assert report.corollary_condition == pytest.approx(
            np.sqrt(3.0) * (2.0 / 3.0)
        )
        assert not report.corollary_applicable

    def test_half_construction_corollary_with_skewed_contrast(self):
        # A lopsided contrast brings the sigma ratio down to its floor
        # 1/(s-1), which is enough for the determinant bound to apply.
        a = construct(ConstructionSpec(s=3, ell=2, kappa=1, variant="half"))
        f = LevelContrast((1.0, 1.0, -2.0))
        report = check_dcriterion_bounds(a, f)
        assert report.ok
        assert report.corollary_applicable
        assert report.corollary_r == 3
        assert report.corollary_condition == pytest.approx(np.sqrt(3.0) / 2.0)
        assert report.d_value_bound == pytest.approx(0.25 ** (1.0 / 5.0))
        assert report.d_value >= report.d_value_bound - 1e-9

    def test_explicit_removable_witness(self):
        a = construct(ConstructionSpec(s=3, ell=2, kappa=1, variant="half"))
        deviating = set()
        for c1 in range(a.n_factors):
            for c2 in range(c1 + 1, a.n_factors):
                if not is_oa(a.select_columns([c1, c2]), 2):
                    deviating.update((c1, c2))
        deviating.discard(a.n_factors - 1)
        report = check_dcriterion_bounds(
            a, LevelContrast((1.0, 1.0, -2.0)), removable=sorted(deviating)
        )
        assert report.corollary_applicable and report.ok

    def test_random_strength1_holds(self, rng):
        for _ in range(30):
            s = int(rng.integers(2, 5))
            a = strength1_oa(rng, s * s, int(rng.integers(2, 6)), s)
            report = check_dcriterion_bounds(a, default_contrast(s))
            assert report.frobenius_ok and report.max_ok

    def test_rejects_unbalanced(self):
        a = Array(np.array([[1, 1], [1, 2], [2, 1]]), 2)
        with pytest.raises(ValueError):
            check_dcriterion_bounds(a, default_contrast(2))

"""Tests for the L2 discrepancy measures and their discrete counterparts."""

import importlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from aoakit import (
    CENTERED,
    MIXTURE,
    WRAPAROUND,
    DdParams,
    cd,
    cd_coupling,
    check_discrepancy_bounds,
    dd,
    dd_lower_bound,
    discrepancy,
    discrepancy_sq,
    md,
    md_coupling,
    points_of,
    wd,
    wd_coupling,
)
from aoakit.arrays import _CHUNK_BYTES, Array, cyclic_oa, hamming_similarity, unbalance
from aoakit.constructions import ConstructionSpec, ak_half, construct
from aoakit.discrepancy import BoundCheck, PointSet, ProductKernel, _cross_min

from conftest import random_array
from oracles import (
    dd_sq_slow,
    discrepancy_sq_broadcast,
    discrepancy_sq_column_fold,
    discrepancy_sq_row_blocks,
    discrepancy_sq_slow,
    discrepancy_sq_triangle,
)

KERNELS = [CENTERED, WRAPAROUND, MIXTURE]
COUPLINGS = {"centered": cd_coupling, "wraparound": wd_coupling, "mixture": md_coupling}


@st.composite
def lattice_point_sets(draw):
    s = draw(st.integers(2, 7))
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 12))
    cells = draw(
        st.lists(
            st.lists(st.integers(1, s), min_size=k, max_size=k),
            min_size=n,
            max_size=n,
        )
    )
    return points_of(Array(np.array(cells), s))


@st.composite
def cube_point_sets(draw):
    """Points in [0,1]^k with repeated rows, repeated and boundary coordinates."""
    k = draw(st.integers(1, 12))
    coord = st.one_of(
        st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(0.0, 1.0)
    )
    rows = draw(
        st.lists(st.lists(coord, min_size=k, max_size=k), min_size=1, max_size=10)
    )
    picks = draw(
        st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=40)
    )
    return PointSet(np.array([rows[i] for i in picks], dtype=float))


# Row blocks are max(1, min(N // 2, _CHUNK_BYTES // (16 N))) rows: one block
# at N = 1, blocks of one row at 2 and 3, two blocks (plus one row at odd N)
# up to 362, three from 363 (180-row blocks, 3 rows left), and four whole
# 128-row blocks at 512, four plus 5 rows at 513.
BLOCK_EDGE_RUNS = (1, 2, 3, 4, 5, 361, 362, 363, 512, 513)


@st.composite
def block_edge_point_sets(draw):
    """Lattice, continuous or special-value points with N on a block edge."""
    n = draw(st.sampled_from(BLOCK_EDGE_RUNS))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["lattice", "continuous", "special"]))
    if kind == "lattice":
        s = draw(st.integers(2, 12))
        return points_of(Array(rng.integers(1, s + 1, size=(n, k)), s))
    if kind == "continuous":
        return PointSet(rng.random((n, k)))
    return PointSet(rng.choice([0.0, -0.0, 0.5, 1.0], size=(n, k)))


@st.composite
def partial_level_point_sets(draw):
    """Lattice points whose columns each take a drawn subset of the s levels,
    so that columns differ in their distinct values and kernel tables."""
    s = draw(st.integers(2, 7))
    n = draw(st.integers(1, 40))
    columns = draw(
        st.lists(st.sets(st.integers(1, s), min_size=1), min_size=1, max_size=12)
    )
    cells = [
        draw(st.lists(st.sampled_from(sorted(levels)), min_size=n, max_size=n))
        for levels in columns
    ]
    return points_of(Array(np.array(cells).T, s))


@st.composite
def signed_zero_point_sets(draw):
    """Continuous points with a 0.0 and a -0.0 in every column, rows shuffled."""
    base = draw(cube_point_sets()).points
    zeros = np.array([[0.0], [-0.0]]) * np.ones(base.shape[1])
    pts = np.vstack([base, zeros])
    return PointSet(pts[draw(st.permutations(range(len(pts))))])


class _Skewed(ProductKernel):
    """A centered kernel plus an x-only term: k1(x, y) != k1(y, x)."""

    def k1(self, x, y):
        return CENTERED.k1(x, y) + 0.125 * x

    def i1(self, x):
        return CENTERED.i1(x) + 0.125 * x


class _SkewedAtOne(ProductKernel):
    """A centered kernel skewed only at x = 1: k1(1, y) != k1(y, 1)."""

    def k1(self, x, y):
        return CENTERED.k1(x, y) + np.where(x == 1.0, 0.125, 0.0)

    def i1(self, x):
        return CENTERED.i1(x)


class _Tabled(ProductKernel):
    """The centered kernel, recording the values of every table it builds."""

    tables = []  # a class attribute, not a dataclass field

    def k1(self, x, y):
        self.tables.append(np.ravel(x).tolist())
        return CENTERED.k1(x, y)

    def i1(self, x):
        return CENTERED.i1(x)


class TestPointSet:
    def test_points_of_maps_levels_to_cell_midpoints(self):
        a = Array(np.array([[1, 3], [2, 1]]), n_levels=3)
        ps = points_of(a)
        np.testing.assert_allclose(
            ps.points, [[1 / 6, 5 / 6], [3 / 6, 1 / 6]], rtol=0, atol=1e-15
        )
        assert ps.n_points == 2 and ps.dimension == 2

    def test_midpoints_stay_interior(self, rng):
        a = random_array(rng)
        pts = points_of(a).points
        s = a.n_levels
        assert pts.min() >= 1 / (2 * s) - 1e-15
        assert pts.max() <= 1 - 1 / (2 * s) + 1e-15

    def test_rejects_bad_shapes_and_ranges(self):
        with pytest.raises(ValueError):
            PointSet(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            PointSet(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            PointSet(np.array([[0.1, 1.2]]))
        with pytest.raises(ValueError):
            PointSet(np.array([[-0.1, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coordinates(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PointSet(np.array([[0.5, 0.25], [bad, 0.5]]))

    def test_points_are_write_locked(self):
        ps = PointSet(np.array([[0.25, 0.75]]))
        with pytest.raises(ValueError):
            ps.points[0, 0] = 0.5

    def test_callers_array_stays_writable(self):
        points = np.array([[0.25, 0.75]])
        ps = PointSet(points)
        points[0, 0] = 0.5
        assert ps.points.tolist() == [[0.25, 0.75]]

    def test_equality_and_hash_follow_the_points(self, rng):
        p = rng.random((6, 3))
        used, unused = PointSet(p), PointSet(p.copy())
        discrepancy_sq(used, CENTERED)  # keeps its column levels
        assert used == unused and hash(used) == hash(unused)
        assert len({used, unused}) == 1
        assert used != PointSet(p[::-1])
        assert used != PointSet(p.reshape(3, 6))
        assert used != p

    def test_signed_zeros_compare_and_hash_equal(self):
        plus, minus = PointSet([[0.0, 0.5]]), PointSet([[-0.0, 0.5]])
        assert plus == minus and hash(plus) == hash(minus)


class TestKernelIntegrals:
    """The closed-form 1-D integrals must match numerical quadrature."""

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    @pytest.mark.parametrize("x", [0.0, 0.17, 0.25, 0.5, 0.63, 0.9, 1.0])
    def test_i1_is_the_section_integral(self, kernel, x):
        val, err = quad(
            lambda y: kernel.k1(x, y), 0.0, 1.0, points=[x, 0.5], epsabs=1e-12
        )
        assert err < 1e-10
        assert float(kernel.i1(x)) == pytest.approx(val, abs=1e-10)

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_i2_is_the_double_integral(self, kernel):
        # i1 is already validated above, so one more quadrature pass suffices.
        val, err = quad(
            lambda x: float(kernel.i1(x)), 0.0, 1.0, points=[0.5], epsabs=1e-12
        )
        assert err < 1e-10
        assert kernel.i2 == pytest.approx(val, abs=1e-10)

    def test_i2_closed_forms(self):
        assert CENTERED.i2 == pytest.approx(13 / 12, abs=1e-15)
        assert WRAPAROUND.i2 == pytest.approx(4 / 3, abs=1e-15)
        assert MIXTURE.i2 == pytest.approx(19 / 12, abs=1e-15)

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_k1_is_symmetric_and_vectorized(self, rng, kernel):
        # bitwise: the fold mirrors its upper triangle, and discrepancy_sq
        # refuses a column whose kernel table is not exactly symmetric
        x = rng.random(7)
        y = rng.random(7)
        assert np.array_equal(kernel.k1(x, y), kernel.k1(y, x))
        for s in range(2, 13):
            pts = (2 * np.arange(1, s + 1) - 1) / (2 * s)
            table = kernel.k1(pts[:, None], pts[None, :])
            assert np.array_equal(table, table.T)
        scalar = [kernel.k1(float(a), float(b)) for a, b in zip(x, y)]
        np.testing.assert_allclose(kernel.k1(x, y), scalar)

    def test_full_double_integral_once(self):
        # End-to-end sanity for one kernel: no reliance on i1 at all.
        val, _ = dblquad(lambda y, x: CENTERED.k1(x, y), 0, 1, 0, 1, epsabs=1e-10)
        assert CENTERED.i2 == pytest.approx(val, abs=1e-8)


class TestDiscrepancy:
    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_matches_direct_double_sum(self, rng, kernel):
        for _ in range(10):
            a = random_array(rng)
            ps = points_of(a)
            fast = discrepancy_sq(ps, kernel)
            slow = discrepancy_sq_slow(ps.points.tolist(), kernel)
            assert fast == pytest.approx(slow, abs=1e-10)

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_nonnegative_and_root(self, rng, kernel):
        a = random_array(rng)
        ps = points_of(a)
        sq = discrepancy_sq(ps, kernel)
        assert sq >= -1e-9
        assert discrepancy(ps, kernel) == pytest.approx(
            np.sqrt(max(sq, 0.0)), abs=1e-12
        )

    def test_wrappers_use_the_matching_kernel(self, rng):
        a = random_array(rng)
        ps = points_of(a)
        assert cd(a) == discrepancy(ps, CENTERED)
        assert wd(a) == discrepancy(ps, WRAPAROUND)
        assert md(a) == discrepancy(ps, MIXTURE)

    def test_golden_values_for_the_9_run_half_construction(self):
        # Frozen squared-discrepancy references for the 5-factor, 9-run half
        # construction (level relabelings leave all three invariant).
        a = ak_half(ConstructionSpec(s=3, ell=2, kappa=1, variant="half"))
        assert wd(a) ** 2 == pytest.approx(0.3386, abs=5e-4)
        assert cd(a) ** 2 == pytest.approx(0.0841, abs=5e-4)
        assert md(a) ** 2 == pytest.approx(0.5341, abs=5e-4)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(lattice_point_sets(), cube_point_sets()))
    def test_column_fold_is_bit_identical_to_the_tensor(self, ps):
        for kernel in KERNELS:
            assert discrepancy_sq(ps, kernel) == discrepancy_sq_broadcast(ps, kernel)

    @settings(max_examples=40, deadline=None)
    @given(block_edge_point_sets())
    def test_triangle_fold_is_bit_identical_at_block_edges(self, ps):
        for kernel in KERNELS:
            value = discrepancy_sq(ps, kernel)
            assert value == discrepancy_sq_row_blocks(ps, kernel)
            assert value == discrepancy_sq_broadcast(ps, kernel)

    def test_asymmetric_kernel_is_refused(self, rng):
        ps = points_of(random_array(rng, n_runs=12, n_factors=3, n_levels=3))
        with pytest.raises(ValueError, match="'skewed' is not exactly symmetric"):
            discrepancy_sq(ps, _Skewed("skewed", i2=CENTERED.i2 + 0.0625))

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(partial_level_point_sets(), signed_zero_point_sets()),
        st.permutations(KERNELS),
        st.integers(1, 3),
    )
    def test_shared_column_setup_is_bit_identical_to_the_per_call_setup(
        self, ps, order, repeats
    ):
        for _ in range(repeats):
            for kernel in order:
                expected = discrepancy_sq_triangle(PointSet(ps.points), kernel)
                assert discrepancy_sq(ps, kernel).hex() == expected.hex()

    def test_one_table_per_distinct_column(self):
        # columns 0 and 2 take levels {1, 2, 3}, column 1 {1, 3}, column 3 {2}
        a = Array(np.array([[1, 1, 3, 2], [2, 3, 2, 2], [3, 1, 1, 2]]), 3)
        kernel = _Tabled("tabled", i2=CENTERED.i2)
        kernel.tables.clear()
        value = discrepancy_sq(points_of(a), kernel)
        assert value == discrepancy_sq(points_of(a), CENTERED)
        assert kernel.tables == [[1 / 6, 3 / 6, 5 / 6], [1 / 6, 5 / 6], [3 / 6]]
        kernel.tables.clear()
        discrepancy_sq(points_of(construct(ConstructionSpec(3, 3, 1, "half"))), kernel)
        assert len(kernel.tables) == 1  # each column of this construction takes all 3 levels

    def test_asymmetry_in_a_later_column_is_refused(self):
        # columns 0 and 1 share the symmetric table over {0.25, 0.5}; only
        # column 2's table, over {0.25, 0.5, 1.0}, shows the skew
        pts = np.array([[0.25, 0.5, 1.0], [0.5, 0.25, 0.25], [0.25, 0.5, 0.5]])
        kernel = _SkewedAtOne("skewed at one", i2=CENTERED.i2)
        discrepancy_sq(PointSet(pts[:, :2]), kernel)
        with pytest.raises(ValueError, match="'skewed at one' is not exactly symmetric"):
            discrepancy_sq(PointSet(pts), kernel)

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_memory_is_quadratic_in_runs_only(self, rng, kernel):
        # An N x N x k float tensor would be 48 MB here.  The fold keeps two
        # N x N arrays; the cross term's N x k temporaries, freed before the
        # fold starts, peak at about three.
        n, k = 200, 150
        ps = points_of(random_array(rng, n_runs=n, n_factors=k, n_levels=5))
        tracemalloc.start()
        try:
            discrepancy_sq(ps, kernel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * n * 8 + 64 * 1024

    @pytest.mark.parametrize("kind", ["lattice", "continuous"])
    def test_blocked_fold_is_bit_identical_to_the_column_fold(self, rng, kind):
        # At N = 600 a row block is 109 rows (< N/2); s = 7 columns fall into
        # groups of 13, continuous columns (u = N) into one group each.  With
        # 114 columns a reassociated product shows in the last bits; with 40
        # it often does not.
        n = 600
        if kind == "lattice":
            ps = points_of(random_array(rng, n_runs=n, n_factors=114, n_levels=7))
        else:
            ps = PointSet(rng.random((n, 5)))
        for kernel in KERNELS:
            value = discrepancy_sq(ps, kernel)
            assert value == discrepancy_sq_column_fold(ps, kernel)
            assert value == discrepancy_sq_row_blocks(ps, kernel)

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_blocked_fold_holds_one_accumulator_and_one_chunk(self, rng, kernel):
        n = 600
        ps = points_of(random_array(rng, n_runs=n, n_factors=40, n_levels=3))
        tracemalloc.start()
        try:
            discrepancy_sq(ps, kernel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= n * n * 8 + _CHUNK_BYTES + 64 * 1024

    @pytest.mark.parametrize("spec, values", [
        (ConstructionSpec(s=7, ell=3, kappa=1, variant="odd_ext"),
         ("30305.882985397493", "416062218.02787864", "2974275295111.596")),
        (ConstructionSpec(s=3, ell=5, kappa=1, variant="half"),
         ("243520.94454900813", "3538682904.235185", "72228820509454.61")),
        (ConstructionSpec(s=5, ell=3, kappa=2, variant="odd_ext"),
         ("102.80955705996557", "22612.199179382616", "3220325.8265039916")),
    ], ids=["odd_ext_7_3_1", "half_3_5_1", "odd_ext_5_3_2"])
    def test_construction_values_keep_their_catalog_strings(self, spec, values):
        # catalog sidecars store repr(cd) etc. and `catalog recheck` compares
        # the strings, so these must never change
        a = construct(spec)
        assert (repr(cd(a)), repr(wd(a)), repr(md(a))) == values

    def test_row_order_is_irrelevant(self, rng):
        a = random_array(rng)
        perm = rng.permutation(a.n_runs)
        b = Array(a.cells[perm], n_levels=a.n_levels)
        for f in (cd, wd, md):
            assert f(a) == pytest.approx(f(b), abs=1e-12)


class TestDdParams:
    def test_exact_detection(self):
        assert DdParams(Fraction(3, 2), 1).exact
        assert DdParams(2, 1).exact
        assert not DdParams(1.5, 1).exact
        assert not DdParams(Fraction(3, 2), 1.0).exact

    def test_ordering_validation(self):
        with pytest.raises(ValueError):
            DdParams(1, 1)
        with pytest.raises(ValueError):
            DdParams(1, 2)
        with pytest.raises(ValueError):
            DdParams(Fraction(1, 2), 0)


class TestDiscreteDiscrepancy:
    def test_both_forms_match_the_definition(self, rng):
        for _ in range(10):
            a = random_array(rng)
            params = DdParams(Fraction(7, 4), Fraction(2, 3))
            res = dd(a, params)
            ref = dd_sq_slow(a, params.a, params.b)
            assert Fraction(res.sq_hamming) == ref
            assert Fraction(res.sq_unbalance) == ref
            assert res.forms_agree
            assert res.value == pytest.approx(float(ref) ** 0.5, abs=1e-12)

    def test_exact_arithmetic_for_rational_params(self, rng):
        a = random_array(rng)
        res = dd(a, DdParams(Fraction(5, 4), Fraction(1, 2)))
        assert isinstance(res.sq_hamming, (int, Fraction))
        assert isinstance(res.sq_unbalance, (int, Fraction))
        assert res.sq_hamming == res.sq_unbalance

    def test_float_params_take_float_path(self, rng):
        a = random_array(rng)
        res = dd(a, DdParams(1.25, 0.5))
        exact = dd(a, DdParams(Fraction(5, 4), Fraction(1, 2)))
        assert isinstance(res.sq_hamming, float)
        assert res.sq_hamming == pytest.approx(float(exact.sq_hamming), rel=1e-12)
        assert res.forms_agree

    def test_unbalance_form_is_the_projection_sum(self, rng):
        # sq_unbalance must equal sum_t Unb_{2,t} (a-b)^t b^(k-t) / N^2 term by term.
        a = random_array(rng)
        pa, pb = Fraction(9, 5), Fraction(3, 4)
        res = dd(a, DdParams(pa, pb))
        total = sum(
            Fraction(unbalance(a, t, 2)) * (pa - pb) ** t * pb ** (a.n_factors - t)
            for t in range(1, a.n_factors + 1)
        ) / a.n_runs**2
        assert Fraction(res.sq_unbalance) == total

    def test_zero_on_full_factorial(self):
        # A full factorial balances every projection, so every DD term vanishes.
        s = 3
        cells = np.array([[x + 1, y + 1] for x in range(s) for y in range(s)])
        a = Array(cells, n_levels=s)
        res = dd(a, DdParams(Fraction(2), Fraction(1)))
        assert res.sq_hamming == 0
        assert res.value == 0.0


class TestDdLowerBound:
    @pytest.mark.parametrize("kind", ["centered", "wraparound", "mixture"])
    def test_never_exceeds_measured_dd(self, rng, kind):
        for _ in range(8):
            s = int(rng.integers(2, 5))
            lam = int(rng.integers(1, 3))
            k = int(rng.integers(2, 7))
            n = lam * s * s
            a = Array(rng.integers(1, s + 1, size=(n, k)), n_levels=s)
            params = COUPLINGS[kind](s)
            bound = dd_lower_bound(n, k, s, params)
            assert float(bound) <= float(dd(a, params).sq_hamming) + 1e-9

    def test_exact_params_give_exact_bound(self):
        b = dd_lower_bound(9, 4, 3, DdParams(Fraction(2), Fraction(1)))
        assert isinstance(b, (int, Fraction))

    def test_float_params_give_float_bound(self):
        b = dd_lower_bound(9, 4, 3, DdParams(2.0, 1.0))
        exact = dd_lower_bound(9, 4, 3, DdParams(Fraction(2), Fraction(1)))
        assert isinstance(b, float)
        assert b == pytest.approx(float(exact), rel=1e-12)

    def test_requires_s_squared_dividing_n(self):
        with pytest.raises(ValueError):
            dd_lower_bound(10, 4, 3, DdParams(2, 1))

    def test_tight_for_an_orthogonal_array(self):
        # At strength 2 every pairwise projection is exact, and for k <= s + 1
        # the bound's floor term matches, so the bound is attained.
        a = cyclic_oa(3)
        params = cd_coupling(3)
        bound = dd_lower_bound(a.n_runs, a.n_factors, a.n_levels, params)
        assert Fraction(bound) == Fraction(dd(a, params).sq_hamming)


class TestCouplings:
    def test_centered_values(self):
        assert cd_coupling(2) == DdParams(Fraction(5, 4), Fraction(1))
        for s in (3, 4, 5, 6):
            assert cd_coupling(s) == DdParams(
                Fraction(3 * s - 1, 2 * s), Fraction(3 * s - 3, 2 * s)
            )

    def test_wraparound_values(self):
        for s in (2, 3, 4, 5, 6):
            assert wd_coupling(s) == DdParams(
                Fraction(3, 2), Fraction(3 * s**2 - 2 * s + 2, 2 * s**2)
            )

    def test_mixture_values(self):
        for s in (3, 5, 7):
            assert md_coupling(s) == DdParams(
                Fraction(15, 8), Fraction(15 * s**2 - 8 * s + 4, 8 * s**2)
            )
        for s in (2, 4, 6):
            assert md_coupling(s) == DdParams(
                Fraction(15, 8) - Fraction(1, 4 * s),
                Fraction(15 * s**2 - 8 * s + 4, 8 * s**2),
            )

    @pytest.mark.parametrize("make", [cd_coupling, wd_coupling, md_coupling])
    @pytest.mark.parametrize("s", range(2, 8))
    def test_couplings_dominate_the_lattice_kernel_values(self, make, s):
        # a must be >= every same-level kernel value, b >= every cross-level one.
        kernel = {cd_coupling: CENTERED, wd_coupling: WRAPAROUND, md_coupling: MIXTURE}[
            make
        ]
        params = make(s)
        pts = [(2 * a - 1) / (2 * s) for a in range(1, s + 1)]
        same = max(kernel.k1(x, x) for x in pts)
        cross = max(
            kernel.k1(x, y) for i, x in enumerate(pts) for y in pts[i + 1 :]
        )
        assert float(params.a) >= same - 1e-12
        assert float(params.b) >= cross - 1e-12

    @pytest.mark.parametrize("s", range(2, 8))
    def test_cross_min_closed_forms(self, s):
        if s % 2:
            assert _cross_min("centered", s) == 1
        else:
            assert _cross_min("centered", s) == Fraction(8 * s**2 + 2 * s - 1, 8 * s**2)
        assert _cross_min("wraparound", s) == Fraction(4, 3)
        u = Fraction(s - 1, 2 * s)
        assert _cross_min("mixture", s) == Fraction(5, 3) - u / 4 - u**2 / 4

    @pytest.mark.parametrize("name", ["centered", "wraparound", "mixture"])
    @pytest.mark.parametrize("s", range(2, 9))
    def test_cross_min_is_the_lattice_minimum_of_i1(self, name, s):
        kernel = {"centered": CENTERED, "wraparound": WRAPAROUND, "mixture": MIXTURE}[
            name
        ]
        pts = [(2 * a - 1) / (2 * s) for a in range(1, s + 1)]
        true_min = min(float(kernel.i1(x)) for x in pts)
        assert float(_cross_min(name, s)) == pytest.approx(true_min, abs=1e-12)


class TestBoundChecks:
    def test_bound_check_tolerances(self):
        assert BoundCheck("x", 1.0, 1.0, True).ok
        assert BoundCheck("x", 1.0, 1.0 + 1e-9, True).is_equality
        loose = BoundCheck("x", 1.0, 2.0, False)
        assert loose.holds and not loose.is_equality and loose.ok
        strict = BoundCheck("x", 1.0, 2.0, True)
        assert strict.holds and not strict.ok
        assert not BoundCheck("x", 2.0, 1.0, False).holds

    def test_bounds_hold_on_random_arrays(self, rng):
        for _ in range(20):
            a = random_array(rng)
            for chk in check_discrepancy_bounds(a).values():
                assert chk.holds

    @pytest.mark.parametrize(
        "name, s_values",
        [("centered", [2]), ("wraparound", [2, 3]), ("mixture", [2])],
    )
    def test_stated_equalities(self, rng, name, s_values):
        for s in s_values:
            a = Array(rng.integers(1, s + 1, size=(12, 5)), n_levels=s)
            chk = check_discrepancy_bounds(a)[name]
            assert chk.equality_expected and chk.ok and chk.is_equality

    def test_inequalities_are_strict_away_from_equality_cases(self, rng):
        a = Array(rng.integers(1, 6, size=(10, 4)), n_levels=5)
        for name, chk in check_discrepancy_bounds(a).items():
            assert not chk.equality_expected
            assert chk.holds and not chk.is_equality

    def test_check_reads_only_the_hamming_form(self, rng):
        # dd's unbalance form sums unbalance(a, t, 2) for t = 1..k, whose count
        # tables took a 74 MiB peak here; the Hamming form needs a 27 x 27 matrix
        a = random_array(rng, n_runs=27, n_factors=12, n_levels=3)
        tracemalloc.start()
        try:
            out = check_discrepancy_bounds(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20
        i2 = {"centered": Fraction(13, 12), "wraparound": Fraction(4, 3), "mixture": Fraction(19, 12)}
        for name, chk in out.items():
            params = COUPLINGS[name](3)
            third = ((params.a - params.b) / 3 + params.b) ** 12
            rhs = float(i2[name] ** 12 - 2 * _cross_min(name, 3) ** 12 + third)
            assert chk.rhs_sq == rhs + float(dd(a, params).sq_hamming)  # the same Hamming form

    def test_hamming_matrix_is_taken_once(self, rng, monkeypatch):
        calls = []

        def counted(a):
            calls.append(a)
            return hamming_similarity(a)

        # the package exports a function named discrepancy, so import the module by path
        module = importlib.import_module("aoakit.discrepancy")
        monkeypatch.setattr(module, "hamming_similarity", counted)
        a = random_array(rng, n_runs=20, n_factors=5, n_levels=3)
        check_discrepancy_bounds(a)
        assert len(calls) == 1

    def test_reports_all_three_kernels(self, t0):
        out = check_discrepancy_bounds(t0)
        assert sorted(out) == ["centered", "mixture", "wraparound"]
        assert all(c.ok for c in out.values())

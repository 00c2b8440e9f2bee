import itertools
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aoakit.arrays as arrays_mod
from aoakit.arrays import (
    Array,
    bandwidth,
    count_tuple,
    cyclic_oa,
    hamming_similarity,
    is_oa,
    lower_bound_unb22,
    normalized_unbalance,
    random_array,
    rao_max_factors,
    repeat_factors_bounds,
    tolerance,
    trivial_construct,
    unbalance,
    unbalance2_via_hamming,
)

from aoakit import fileio
from conftest import random_array as draw_array
from oracles import (
    bandwidth_table,
    count_tuple_slow,
    hamming_slow,
    is_oa_table,
    tolerance_slow,
    tolerance_table,
    unbalance2_from_hamming_slow,
    unbalance_slow,
    unbalance_table,
)


@st.composite
def arrays(draw, max_runs=12, max_factors=5, max_levels=4):
    s = draw(st.integers(2, max_levels))
    k = draw(st.integers(2, max_factors))
    n = draw(st.integers(2, max_runs))
    cells = draw(
        st.lists(
            st.lists(st.integers(1, s), min_size=k, max_size=k),
            min_size=n,
            max_size=n,
        )
    )
    return Array(np.array(cells), s)


class TestArrayBasics:
    def test_shape_properties(self, oa_4_3_2):
        assert oa_4_3_2.n_runs == 4
        assert oa_4_3_2.n_factors == 3
        assert oa_4_3_2.n_levels == 2

    def test_rejects_out_of_range_levels(self):
        with pytest.raises(ValueError):
            Array(np.array([[1, 2], [3, 1]]), 2)
        with pytest.raises(ValueError):
            Array(np.array([[0, 1]]), 2)

    def test_rejects_empty_and_bad_shapes(self):
        with pytest.raises(ValueError):
            Array(np.zeros((0, 3), dtype=int), 2)
        with pytest.raises(ValueError):
            Array(np.array([1, 2, 1]), 2)

    def test_cells_are_write_locked(self, oa_4_3_2):
        with pytest.raises(ValueError):
            oa_4_3_2.cells[0, 0] = 2

    def test_callers_array_stays_writable(self):
        cells = np.array([[1, 2], [2, 1]])
        a = Array(cells, 2)
        cells[0, 0] = 2
        assert a.cells.tolist() == [[1, 2], [2, 1]]

    def test_from_rows_equals_constructor(self, oa_4_3_2):
        again = Array.from_rows([tuple(r) for r in oa_4_3_2.cells], 2)
        assert again == oa_4_3_2
        assert hash(again) == hash(oa_4_3_2)

    def test_select_columns(self, t0):
        sub = t0.select_columns([0, 1])
        assert sub.n_factors == 2
        assert np.array_equal(sub.cells, t0.cells[:, :2])


class TestCounting:
    def test_count_tuple_examples(self, t0):
        # Column indices are 1-based and strictly increasing.
        assert count_tuple(t0, (1, 1), (1, 2)) == 2
        assert count_tuple(t0, (1, 2), (1, 2)) == 0
        assert count_tuple(t0, (1,), (3,)) == 2

    @settings(max_examples=60, deadline=None)
    @given(arrays(), st.data())
    def test_count_tuple_matches_slow(self, a, data):
        t = data.draw(st.integers(1, min(3, a.n_factors)))
        cols = tuple(
            sorted(
                data.draw(
                    st.lists(
                        st.integers(1, a.n_factors),
                        min_size=t,
                        max_size=t,
                        unique=True,
                    )
                )
            )
        )
        x = tuple(data.draw(st.integers(1, a.n_levels)) for _ in range(t))
        zero_based = tuple(c - 1 for c in cols)
        assert count_tuple(a, x, cols) == count_tuple_slow(a, x, zero_based)

    def test_count_tuple_validation(self, oa_4_3_2):
        with pytest.raises(ValueError):
            count_tuple(oa_4_3_2, (1,), (1, 2))
        with pytest.raises(ValueError):
            count_tuple(oa_4_3_2, (3,), (1,))
        with pytest.raises(ValueError):
            count_tuple(oa_4_3_2, (1, 1), (2, 1))


class TestCountTable:
    @settings(max_examples=40, deadline=None)
    @given(arrays(), st.integers(1, 3))
    def test_entries_match_slow_count(self, a, t):
        t = min(t, a.n_factors)
        table = arrays_mod._count_table(a, t)
        tuples = list(itertools.combinations(range(a.n_factors), t))
        levels = list(itertools.product(range(1, a.n_levels + 1), repeat=t))
        assert table.shape == (len(tuples), len(levels))
        for r, cols in enumerate(tuples):
            for code, x in enumerate(levels):
                assert table[r, code] == count_tuple_slow(a, x, cols)

    @settings(max_examples=40, deadline=None)
    @given(arrays(), st.integers(1, 3))
    def test_table_metrics_match_slow_counts(self, a, t):
        t = min(t, a.n_factors)
        counts = [
            count_tuple_slow(a, x, cols)
            for cols in itertools.combinations(range(a.n_factors), t)
            for x in itertools.product(range(1, a.n_levels + 1), repeat=t)
        ]
        target = Fraction(a.n_runs, a.n_levels**t)
        assert bandwidth(a, t) == max(counts) - min(counts)
        assert is_oa(a, t) == all(c == target for c in counts)
        loose = sum(float(abs(c - target)) ** 1.5 for c in counts)
        assert unbalance(a, t, 1.5) == pytest.approx(loose, rel=1e-12)

    def test_chunking_does_not_change_the_table(self, rng, monkeypatch):
        a = draw_array(rng, n_runs=20, n_factors=7, n_levels=3)
        whole = arrays_mod._count_table(a, 3)
        monkeypatch.setattr(arrays_mod, "_CHUNK_BYTES", 1)
        assert np.array_equal(arrays_mod._count_table(a, 3), whole)

    def test_strength_three_temporaries_are_bounded(self, rng):
        a = draw_array(rng, n_runs=60, n_factors=80, n_levels=2)
        table_bytes = comb(80, 3) * 2**3 * 8
        tracemalloc.start()
        try:
            tolerance(a, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # two transposed copies of the cells are the only other allocations
        assert peak <= arrays_mod._CHUNK_BYTES + table_bytes + 2 * a.cells.nbytes

    def test_table_row_above_the_limit_is_refused_before_counting(self):
        a = Array(np.array([[1, 1], [1, 2]]), 10**6)
        for metric in (lambda: is_oa(a, 2), lambda: tolerance(a, 2), lambda: unbalance(a, 2, 2)):
            with pytest.raises(ValueError, match=r"s\^t = 1000000000000 cells"):
                metric()
        with pytest.raises(ValueError, match="strength t=3 out of range 1..2"):
            tolerance(a, 3)
        assert not is_oa(a, 1)  # one row of 10^6 cells is still counted

    def test_balanced_pairs_answer_sub_array_strength_two(self, rng):
        b = cyclic_oa(3)
        a = Array(np.hstack([b.cells, b.cells[:, :1], b.cells[:, 1:]]), 3)
        pairs = arrays_mod._balanced_pairs(a)
        for size in (2, 3, 4):
            for cols in itertools.combinations(range(a.n_factors), size):
                want = is_oa(a.select_columns(cols), 2)
                assert bool(pairs[np.ix_(cols, cols)].all()) == want


class TestCountHistogram:
    @settings(max_examples=60, deadline=None)
    @given(arrays(), st.integers(1, 3))
    def test_metrics_match_the_full_table_and_slow_oracles(self, a, p):
        strengths = range(1, min(3, a.n_factors) + 1)
        fresh = Array(a.cells, a.n_levels)
        want = {t: (is_oa_table(fresh, t), tolerance_table(fresh, t), bandwidth_table(fresh, t),
                    unbalance_table(fresh, t, p)) for t in strengths}
        for _ in range(2):  # the second round reads every strength's histogram from the memo
            for t in strengths:
                got = (is_oa(a, t), tolerance(a, t), bandwidth(a, t), unbalance(a, t, p))
                assert got == want[t]
                assert list(map(type, got)) == list(map(type, want[t]))
        for t in strengths:
            assert tolerance(a, t) == tolerance_slow(a, t)
            assert unbalance(a, t, p) == unbalance_slow(a, t, p)
            hist = arrays_mod._count_histogram(a, t)
            table = arrays_mod._count_table(a, t)
            assert np.array_equal(hist, np.bincount(table.ravel(), minlength=a.n_runs + 1))
            with pytest.raises(ValueError):
                hist[0] = 1
        assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)

    @settings(max_examples=40, deadline=None)
    @given(arrays(), st.integers(1, 3), st.sampled_from([1.5, 2.5]),
           st.sampled_from([1, 1 << 9, 1 << 20]))
    def test_float_unbalance_is_bit_equal_to_the_row_loop(self, a, t, p, chunk_bytes):
        t = min(t, a.n_factors)
        want = unbalance_table(a, t, p)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arrays_mod, "_CHUNK_BYTES", chunk_bytes)
            got = unbalance(a, t, p)
        assert got.hex() == want.hex()

    def test_snapshot_counts_the_table_once(self, rng, monkeypatch):
        calls = []
        count_chunks = arrays_mod._count_chunks

        def counted(a, t):
            calls.append((a, t))
            return count_chunks(a, t)

        monkeypatch.setattr(arrays_mod, "_count_chunks", counted)
        a = draw_array(rng, n_runs=18, n_factors=6, n_levels=3)
        fileio.metrics_snapshot(a)
        assert len(calls) == 1 and calls[0][0] is a and calls[0][1] == 2

    def test_strength_three_metrics_do_not_hold_the_table(self, rng):
        a = draw_array(rng, n_runs=64, n_factors=60, n_levels=4)
        assert comb(60, 3) * 4**3 * 8 > 16 << 20  # the table, were it held whole
        for metric in (lambda b: tolerance(b, 3), lambda b: unbalance(b, 3, 2),
                       lambda b: unbalance(b, 3, 1.5)):
            b = Array(a.cells, a.n_levels)  # nothing memoized
            tracemalloc.start()
            try:
                metric(b)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 4 << 20


class TestToleranceUnbalance:
    @settings(max_examples=50, deadline=None)
    @given(arrays(), st.integers(1, 3), st.integers(1, 3))
    def test_match_slow_oracles(self, a, t, p):
        if t > a.n_factors:
            t = a.n_factors
        assert tolerance(a, t) == tolerance_slow(a, t)
        assert unbalance(a, t, p) == unbalance_slow(a, t, p)

    def test_exact_rational_target(self):
        # 3 runs at 2 levels: each single count deviates from 3/2 by 1/2.
        a = Array(np.array([[1, 1], [1, 2], [2, 1]]), 2)
        assert tolerance(a, 1) == Fraction(1, 2)
        assert unbalance(a, 1, 1) == Fraction(2)
        assert unbalance(a, 1, 2) == Fraction(1)

    def test_is_oa(self, oa_4_3_2, t0):
        assert is_oa(oa_4_3_2, 2)
        assert is_oa(t0, 1)
        assert not is_oa(t0, 2)

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 7])
    @pytest.mark.parametrize("lam", [1, 2])
    def test_cyclic_oa_strength_two(self, s, lam):
        a = cyclic_oa(s, lam)
        assert a.n_runs == lam * s * s and a.n_factors == 3
        assert is_oa(a, 2)
        assert unbalance(a, 2, 2) == 0 and tolerance(a, 2) == 0

    def test_validation(self, oa_4_3_2):
        with pytest.raises(ValueError):
            tolerance(oa_4_3_2, 0)
        with pytest.raises(ValueError):
            tolerance(oa_4_3_2, 4)
        with pytest.raises(ValueError):
            unbalance(oa_4_3_2, 2, 0)

    def test_normalized_unbalance(self, t0):
        import math

        cells = 2**2 * comb(4, 2)
        assert normalized_unbalance(t0, 2, 1) == pytest.approx(
            float(unbalance(t0, 2, 1)) / cells
        )
        # p-mean form: nondecreasing in p and capped by the tolerance.
        values = [normalized_unbalance(t0, 2, p) for p in (1, 2, 4, 8, 16)]
        assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))
        assert values[-1] <= tolerance(t0, 2)
        assert normalized_unbalance(t0, 2, math.inf) == tolerance(t0, 2)


class TestHammingIdentity:
    def test_hamming_matrix_matches_slow(self, rng):
        for n_runs, n_factors in [(1, 1), (1, 4), (6, 1)] + [(None, None)] * 20:
            a = draw_array(rng, n_runs=n_runs, n_factors=n_factors)
            h = hamming_similarity(a)
            assert h.dtype == np.int64
            assert np.array_equal(h, np.array(hamming_slow(a)))

    @settings(max_examples=40, deadline=None)
    @given(arrays(max_factors=8, max_levels=5), st.sampled_from([1, 1 << 8, 1 << 20]))
    def test_gram_product_matches_slow_in_any_column_blocks(self, a, chunk_bytes):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arrays_mod, "_CHUNK_BYTES", chunk_bytes)
            h = hamming_similarity(a)
        assert h.dtype == np.int64
        assert np.array_equal(h, np.array(hamming_slow(a)))

    def test_hamming_temporaries_are_quadratic_in_runs_only(self, rng):
        a = draw_array(rng, n_runs=200, n_factors=150, n_levels=3)
        tracemalloc.start()
        try:
            hamming_similarity(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the int64 result, one boolean column comparison, a transposed copy
        # of the cells and numpy's casting buffers; no N x N x k temporary
        n = a.n_runs
        assert peak <= 2 * n * n * 8 + a.cells.nbytes

    def test_large_s_takes_few_column_blocks(self, rng, monkeypatch):
        # blocks are bounded by the N x N float32 product when it is larger
        # than _CHUNK_BYTES: 700 x 12 at s = 50 is one block, not two
        a = draw_array(rng, n_runs=700, n_factors=12, n_levels=50)
        grams = []
        indicator_gram = arrays_mod._indicator_gram

        def counted(cells, s):
            grams.append(cells.shape[1])
            return indicator_gram(cells, s)

        monkeypatch.setattr(arrays_mod, "_indicator_gram", counted)
        h = hamming_similarity(a)
        assert grams == [12]
        assert np.array_equal(h, (a.cells[:, None, :] == a.cells[None, :, :]).sum(axis=2))

    @settings(max_examples=60, deadline=None)
    @given(arrays(max_factors=6), st.integers(1, 3))
    def test_identity_exact(self, a, t):
        if t > a.n_factors:
            t = a.n_factors
        via_h = unbalance2_via_hamming(a, t)
        assert via_h == unbalance(a, t, 2)
        assert via_h == unbalance2_from_hamming_slow(a, t)


class TestTrivialConstruction:
    @pytest.mark.parametrize("s", range(2, 8))
    @pytest.mark.parametrize("lam", [1, 2])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_closed_forms(self, s, lam, p):
        a = trivial_construct(cyclic_oa(s, lam))
        expected = lam**p * s * (s - 1) * (1 + (s - 1) ** (p - 1))
        assert unbalance(a, 2, p) == expected
        assert tolerance(a, 2) <= lam * (s - 1)

    def test_t0_values(self, t0):
        assert unbalance(t0, 2, 1) == 4
        assert tolerance(t0, 2) == 1
        assert is_oa(t0, 1)

    def test_rejects_weak_input(self, t0):
        with pytest.raises(ValueError):
            trivial_construct(t0)


class TestBandwidthRao:
    @settings(max_examples=40, deadline=None)
    @given(arrays())
    def test_bandwidth_sandwiched_by_tolerance(self, a):
        tol = tolerance(a, 2) if a.n_factors >= 2 else tolerance(a, 1)
        t = 2 if a.n_factors >= 2 else 1
        bw = bandwidth(a, t)
        assert tolerance(a, t) <= bw <= 2 * tolerance(a, t)

    def test_rao_max_factors(self):
        assert rao_max_factors(9, 3) == 4
        assert rao_max_factors(4, 2) == 3
        assert rao_max_factors(25, 5) == 6
        with pytest.raises(ValueError):
            rao_max_factors(4, 1)


class TestLowerBound:
    @pytest.mark.parametrize("s", [2, 3, 4, 5, 7])
    def test_lambda_one_closed_form(self, s):
        # With N = s^2 and k = alpha*(s+1) + extra, the general bound reduces
        # to a short polynomial; check the two expressions agree term by term.
        for alpha in range(0, 4):
            for extra in range(0, s + 1):
                k = alpha * (s + 1) + extra
                if k < 2:
                    continue
                closed = alpha * extra * s * s * (s - 1) + comb(
                    alpha, 2
                ) * s * s * (s * s - 1)
                assert lower_bound_unb22(s * s, k, s) == closed

    @pytest.mark.parametrize("s", [3, 4, 5, 7, 8, 9])
    def test_lambda_two_closed_form(self, s):
        for extra in range(1, s + 1):
            k = 2 * s + 1 + extra
            closed = 2 * s * s * (
                (2 * extra - 1) * (s - 1) - comb(extra + 1, 2)
            )
            assert lower_bound_unb22(2 * s * s, k, s) == closed

    def test_unattainable_region_is_nonpositive(self):
        # With two rows per pair and at most 2s+1 factors the bound carries
        # no information: full-strength arrays of that size exist.
        for s in (3, 4, 5):
            assert lower_bound_unb22(2 * s * s, 2 * s + 1, s) <= 0

    def test_bound_respected_by_random_arrays(self, rng):
        for _ in range(200):
            s = int(rng.integers(2, 5))
            k = int(rng.integers(2, 7))
            a = draw_array(rng, n_runs=s * s, n_factors=k, n_levels=s)
            assert unbalance(a, 2, 2) >= lower_bound_unb22(s * s, k, s)

    def test_requires_divisible_runs(self):
        with pytest.raises(ValueError):
            lower_bound_unb22(10, 4, 3)


class TestRepeatFactors:
    @pytest.mark.parametrize("s,extra", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_bounds_hold(self, s, extra):
        report = repeat_factors_bounds(cyclic_oa(s), extra, ps=(1, 2))
        assert report.ok
        assert report.tol_actual <= report.tol_bound
        for p, bound in report.unb_bounds.items():
            assert report.unb_actuals[p] <= bound
        assert report.array.n_factors == 3 + extra

    def test_rejects_too_many_repeats(self):
        with pytest.raises(ValueError):
            repeat_factors_bounds(cyclic_oa(3), 4)


class TestRandomArray:
    def test_deterministic_per_generator_state(self):
        a = random_array(6, 4, 3, np.random.default_rng(7))
        b = random_array(6, 4, 3, np.random.default_rng(7))
        c = random_array(6, 4, 3, np.random.default_rng(8))
        assert a == b
        assert a != c
        assert a.n_runs == 6 and a.n_factors == 4 and a.n_levels == 3

import itertools
import logging
import re
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aoakit.search as search
from aoakit.arrays import Array, is_oa, tolerance, unbalance
from aoakit.search import (
    FrontMember,
    ObjectiveVector,
    ParetoFront,
    SearchConfig,
    brute_force_optimum,
    front_insert,
    local_pareto_search,
    neighborhood_scan,
)
from aoakit.symmetry import bicyclic_generator, is_automorphism

from oracles import EncoderLoop, brute_force_optimum_loop, min_unbalance_grid_4_4_2


def member(unb, tol) -> FrontMember:
    cells = np.zeros((1, 1), dtype=np.int64)
    arr = Array(np.array([[1]]), 2)
    return FrontMember(cells=cells, array=arr, objective=ObjectiveVector(unb, tol))


class TestParetoFront:
    def test_insert_keeps_antichain(self):
        front = ParetoFront()
        assert front_insert(front, member(10, 3))
        assert front_insert(front, member(8, 4))
        assert not front_insert(front, member(12, 5))  # dominated by (10, 3)
        assert not front_insert(front, member(10, 3))  # equal is rejected
        assert front_insert(front, member(9, 3))  # evicts (10, 3)
        assert sorted(front.objectives()) == [(8, 4), (9, 3)]

    def test_insert_can_evict_several(self):
        front = ParetoFront()
        front_insert(front, member(10, 1))
        front_insert(front, member(5, 5))
        assert front_insert(front, member(4, 1))
        assert front.objectives() == [(4, 1)]

    def test_best_accessors(self):
        front = ParetoFront()
        front_insert(front, member(8, 4))
        front_insert(front, member(9, 2))
        assert front.best_unbalance() == 8
        assert front.best_tolerance() == 2

    def test_dominates_or_equals(self):
        assert ObjectiveVector(3, 2).dominates_or_equals(ObjectiveVector(3, 2))
        assert ObjectiveVector(2, 2).dominates_or_equals(ObjectiveVector(3, 2))
        assert not ObjectiveVector(2, 3).dominates_or_equals(ObjectiveVector(3, 2))


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SearchConfig(p=3)
        with pytest.raises(ValueError):
            SearchConfig(radius=0)
        with pytest.raises(ValueError):
            SearchConfig(encoding="spiral")
        with pytest.raises(ValueError):
            SearchConfig(restarts=0)

    @pytest.mark.parametrize("encoding", ["plain", "quasicyclic"])
    def test_bicyclic_r_needs_the_bicyclic_encoding(self, encoding):
        with pytest.raises(ValueError, match="bicyclic_r applies only to the bicyclic encoding"):
            SearchConfig(encoding=encoding, bicyclic_r=3)
        assert SearchConfig(encoding="bicyclic", bicyclic_r=3).bicyclic_r == 3

    @pytest.mark.parametrize("n, k, s, message", [
        (0, 3, 3, "N must be >= 1, got 0"),
        (-9, 3, 3, "N must be >= 1, got -9"),
        (9, 0, 3, "k must be >= 2, got 0"),
        (9, 1, 3, "k must be >= 2, got 1"),
        (9, 3, 0, "s must be >= 1, got 0"),
        (9, 3, -3, "s must be >= 1, got -3"),
    ], ids=["N-zero", "N-negative", "k-zero", "k-one", "s-zero", "s-negative"])
    def test_sizes_are_checked_before_any_work(self, n, k, s, message, monkeypatch):
        monkeypatch.setattr(search, "_Encoder", None)  # any work would fail differently
        with pytest.raises(ValueError, match=f"^{message}$"):
            local_pareto_search(n, k, s, SearchConfig())

    def test_radius_cap_at_scan_time(self):
        front = ParetoFront()
        front_insert(front, member(1, 1))
        with pytest.raises(ValueError):
            neighborhood_scan(front, 3, lambda i, c: False)


class TestNeighborhoodScan:
    def test_visits_singles_then_pairs(self):
        cells = np.array([[1, 1]], dtype=np.int64)
        arr = Array(cells, 2)
        front = ParetoFront()
        front_insert(
            front,
            FrontMember(cells=cells, array=arr, objective=ObjectiveVector(0, 0)),
        )
        seen = []
        neighborhood_scan(front, 2, lambda i, move: seen.append((i, move)) and False)
        # Two cells with one alternative each: 2 singles, then 1 pair move
        # (both flipped), in deterministic order; the member's cells stay as they were.
        assert seen == [
            (0, (((0, 0), 2),)),
            (0, (((0, 1), 2),)),
            (0, (((0, 0), 2), ((0, 1), 2))),
        ]
        assert front.members[0].cells is cells and cells.tolist() == [[1, 1]]

    def test_moves_skip_current_levels_in_scan_order(self):
        cells = np.array([[1, 3], [2, 2]], dtype=np.int64)
        front = ParetoFront()
        front_insert(front, FrontMember(cells, Array(cells, 3), ObjectiveVector(0, 0)))
        seen = []
        neighborhood_scan(front, 2, lambda i, move: seen.append(move) and False)
        flat = [(i, j) for i in range(2) for j in range(2)]
        singles = [((pos, lv),) for pos in flat for lv in (1, 2, 3) if cells[pos] != lv]
        pairs = [
            ((p1, l1), (p2, l2))
            for p1, p2 in itertools.combinations(flat, 2)
            for l1 in (1, 2, 3)
            for l2 in (1, 2, 3)
            if cells[p1] != l1 and cells[p2] != l2
        ]
        assert seen == singles + pairs

    def test_stops_on_first_insertion(self):
        cells = np.array([[1, 1]], dtype=np.int64)
        arr = Array(cells, 2)
        front = ParetoFront()
        front_insert(
            front,
            FrontMember(cells=cells, array=arr, objective=ObjectiveVector(9, 9)),
        )
        report = neighborhood_scan(front, 2, lambda i, c: True)
        assert report.changed and report.examined == 1

    def test_radius_one_skips_pairs(self):
        cells = np.array([[1, 1]], dtype=np.int64)
        arr = Array(cells, 2)
        front = ParetoFront()
        front_insert(
            front,
            FrontMember(cells=cells, array=arr, objective=ObjectiveVector(0, 0)),
        )
        report = neighborhood_scan(front, 1, lambda i, c: False)
        assert report.examined == 2


def full_objective(cells: np.ndarray, s: int, p: int) -> ObjectiveVector:
    a = Array(cells, s)
    return ObjectiveVector(unbalance(a, 2, p), tolerance(a, 2))


class TestDeltaEvaluation:
    def test_change_matches_full_recount(self, rng):
        from conftest import random_array

        for p, k, _ in itertools.product((1, 2), range(2, 7), range(6)):
            s = int(rng.integers(2, 5))
            a = random_array(rng, n_runs=s * s, n_factors=k, n_levels=s)
            tables = search._PairTables(a, p)
            assert tables.change(()) == full_objective(a.cells, s, p)
            for j in range(k):
                i = int(rng.integers(0, a.n_runs))
                value = int(a.cells[i, j]) % s + 1
                got = tables.change([(i, j, value - 1)])
                mutated = a.cells.copy()
                mutated[i, j] = value
                assert got == full_objective(mutated, s, p)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_batched_change_matches_full_recount(self, data):
        s = data.draw(st.integers(2, 5))
        lam = data.draw(st.integers(1, 2))
        k = data.draw(st.integers(2, 7))
        p = data.draw(st.sampled_from([1, 2]))
        n = lam * s * s
        level = st.integers(1, s)
        cells = np.array(data.draw(st.lists(
            st.lists(level, min_size=k, max_size=k), min_size=n, max_size=n)))
        # rows from a few, so that one batch often sets several cells of a row
        row = st.integers(0, n - 1) if data.draw(st.booleans()) else st.integers(0, 1)
        positions = data.draw(st.lists(
            st.tuples(row, st.integers(0, k - 1)), min_size=1, max_size=2 * s, unique=True))
        batch = [(i, j, data.draw(level) - 1) for i, j in positions]
        if data.draw(st.booleans()):  # one cell set to the level it already has
            i, j = positions[0]
            batch[0] = (i, j, int(cells[i, j]) - 1)
        tables = search._PairTables(Array(cells, s), p)
        mutated = cells.copy()
        for i, j, lv in batch:
            mutated[i, j] = lv + 1
        assert tables.change(batch) == full_objective(mutated, s, p)
        assert tables.change(()) == full_objective(cells, s, p)  # tables left as they were

    def test_search_with_cross_check_enabled(self, monkeypatch):
        monkeypatch.setattr(search, "CROSS_CHECK_DELTA", True)
        evaluate, scan, full, examined = search._evaluate, search.neighborhood_scan, [], []

        def counted_evaluate(*args):
            full.append(args)
            return evaluate(*args)

        def counted_scan(*args):
            report = scan(*args)
            examined.append(report.examined)
            return report

        monkeypatch.setattr(search, "_evaluate", counted_evaluate)
        monkeypatch.setattr(search, "neighborhood_scan", counted_scan)
        shapes = {"plain": [(4, 4, 2)], "bicyclic": [(9, 4, 3)], "quasicyclic": [(9, 4, 3), (8, 3, 2)]}
        for encoding, radius, p in itertools.product(shapes, (1, 2), (1, 2)):
            for n, k, s in shapes[encoding]:
                full.clear()
                examined.clear()
                cfg = SearchConfig(p=p, radius=radius, seed=3, encoding=encoding)
                assert local_pareto_search(n, k, s, cfg).complete
                # one full evaluation for the first member, then one per scored move
                assert len(full) == 1 + sum(examined)


class TestLocalSearch:
    def test_finds_orthogonal_array(self):
        front = local_pareto_search(4, 3, 2, SearchConfig(p=2, seed=0))
        assert front.objectives() == [(0, 0)]
        assert is_oa(front.members[0].array, 2)

    def test_target_4_4_2(self):
        front = local_pareto_search(4, 4, 2, SearchConfig(p=1, seed=0, restarts=10))
        assert (4, 1) in front.objectives()

    def test_target_9_5_3_bicyclic(self):
        cfg = SearchConfig(p=2, seed=0, restarts=10, encoding="bicyclic")
        front = local_pareto_search(9, 5, 3, cfg)
        assert (18, 1) in front.objectives()

    def test_front_members_verify(self):
        cfg = SearchConfig(p=2, seed=1, restarts=2)
        front = local_pareto_search(9, 4, 3, cfg)
        for m in front.members:
            assert m.objective.unbalance == unbalance(m.array, 2, 2)
            assert m.objective.tolerance == tolerance(m.array, 2)

    def test_deterministic_for_seed(self):
        cfg = SearchConfig(p=1, seed=5, restarts=2)
        a = local_pareto_search(4, 4, 2, cfg)
        b = local_pareto_search(4, 4, 2, cfg)
        assert a.objectives() == b.objectives()
        for ma, mb in zip(a.members, b.members):
            assert ma.array == mb.array

    def test_time_budget_is_checked_within_a_pass(self):
        # Unbudgeted, this search runs for more than 8 s: its 35th pass starts
        # after about 1.2 s and scans for more than 7 s (2-vCPU VM), so the
        # budget runs out long before the search could complete.
        cfg = SearchConfig(p=2, seed=1, encoding="bicyclic", time_budget=0.3)
        start = time.monotonic()
        front = local_pareto_search(49, 8, 7, cfg)
        elapsed = time.monotonic() - start
        assert front.complete is False
        assert front.members
        assert elapsed < cfg.time_budget + 0.8

    def test_time_budget_stops_within_one_move_on_a_fake_clock(self, monkeypatch, caplog):
        # The clock advances one tick per read.  The deadline is read at tick
        # 0 and every move reads the clock once before it is scored, so a
        # per-move check scores exactly the moves of ticks 1..200.  Unbudgeted,
        # this search examines 2, 3, 8, 15, 71 and 450 moves in its six
        # passes, so the deadline falls 101 moves into the sixth pass.
        ticks, reads, scored = itertools.count(), [], []

        def monotonic():
            reads.append(next(ticks))
            return float(reads[-1])

        change = search._PairTables.change

        def counted_change(tables, driven):
            scored.append(reads[-1])
            return change(tables, driven)

        clock = types.SimpleNamespace(monotonic=monotonic, perf_counter=time.perf_counter)
        monkeypatch.setattr(search, "time", clock)
        monkeypatch.setattr(search._PairTables, "change", counted_change)
        cfg = SearchConfig(p=2, seed=1, encoding="bicyclic", time_budget=200.5)
        with caplog.at_level(logging.INFO, logger="aoakit.search"):
            front = local_pareto_search(9, 5, 3, cfg)
        assert front.complete is False
        assert scored == list(range(1, 201))  # one move per read, none after the deadline
        assert reads[-1] == 201
        assert "pass 5: examined 71 " in caplog.text
        assert "pass 6: time budget ran out" in caplog.text

    def test_requires_square_divisor(self):
        with pytest.raises(ValueError):
            local_pareto_search(10, 3, 3, SearchConfig())

    def test_max_passes_cap(self):
        cfg = SearchConfig(p=2, seed=0, max_passes=1)
        front = local_pareto_search(9, 4, 3, cfg)
        assert front.members  # capped but still returns a valid front


class TestEncodings:
    def test_bicyclic_expansion_is_automorphic(self):
        cfg = SearchConfig(p=2, seed=2, encoding="bicyclic")
        front = local_pareto_search(9, 5, 3, cfg)
        g = bicyclic_generator(3, 5)
        for m in front.members:
            assert m.cells.shape == (3, 5)  # N/s core rows
            assert is_automorphism(g, m.array)

    def test_quasicyclic_has_fixed_ones_rows(self):
        cfg = SearchConfig(p=2, seed=2, encoding="quasicyclic")
        front = local_pareto_search(9, 4, 3, cfg)
        for m in front.members:
            arr = m.array
            ones = (arr.cells == 1).all(axis=1).sum()
            assert ones >= 1  # lambda all-ones fixed rows
            assert arr.n_runs == 9

    def test_bicyclic_r_override(self):
        cfg = SearchConfig(p=2, seed=0, encoding="bicyclic", bicyclic_r=1)
        front = local_pareto_search(4, 3, 2, cfg)
        assert front.members

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_expansion_equals_per_kind_formulas(self, data):
        s = data.draw(st.integers(2, 6))
        lam = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(2, 6))
        kind = data.draw(st.sampled_from(["plain", "bicyclic", "quasicyclic"]))
        r = None
        if kind == "bicyclic":
            divisors = [d for d in range(1, s + 1) if s % d == 0 and d <= k]
            r = data.draw(st.sampled_from([None, *divisors]))
        n_runs = lam * s * s
        enc = search._Encoder(kind, n_runs, k, s, r)
        want = EncoderLoop(kind, n_runs, k, s, r)
        assert enc.core_shape == want.core_shape
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for _ in range(3):
            cells = enc.random_cells(rng)
            got = enc.to_array(cells).cells
            assert got.dtype == np.int64
            assert np.array_equal(got, want.expand(cells))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_driven_cells_of_a_move_equal_the_moved_expansion(self, data):
        kind = data.draw(st.sampled_from(["plain", "bicyclic", "quasicyclic"]))
        s = data.draw(st.integers(2, 6))
        k = data.draw(st.integers(2, 6))
        lam = data.draw(st.integers(1, 2))
        r = None
        if kind == "bicyclic":
            divisors = [d for d in range(1, s + 1) if s % d == 0 and d <= k]
            r = data.draw(st.sampled_from([None, *divisors]))
        enc = search._Encoder(kind, lam * s * s, k, s, r)
        cells = enc.random_cells(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
        rows, cols = cells.shape
        positions = data.draw(st.lists(
            st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
            min_size=1, max_size=2, unique=True))
        move = tuple((pos, data.draw(st.integers(1, s))) for pos in positions)
        driven = enc.driven(move)
        assert len(driven) == len(move) * len(enc.powers[0])
        assert len({(i, j) for i, j, _ in driven}) == len(driven)
        got = enc.to_array(cells).cells.copy()
        for i, j, lv in driven:
            got[i, j] = lv + 1
        moved = cells.copy()
        for pos, lv in move:
            moved[pos] = lv
        assert np.array_equal(got, enc.to_array(moved).cells)

    def test_bad_bicyclic_r_is_rejected_by_the_generator(self):
        for r in (0, 2, 4, -3):
            with pytest.raises(ValueError, match=r"r must divide s and satisfy 1 <= r <= k"):
                local_pareto_search(9, 3, 3, SearchConfig(encoding="bicyclic", bicyclic_r=r))


class TestBruteForce:
    def test_matches_unreduced_grid_enumeration(self):
        # The oracle pins the first two columns; the reference enumerates all
        # 2^16 arrays without any reduction.
        for p in (1, 2):
            expected_unb, expected_tol = min_unbalance_grid_4_4_2(p)
            got = brute_force_optimum(4, 4, 2, p=p)
            assert got.min_unbalance == expected_unb == 4
            assert got.min_tolerance == expected_tol == 1

    def test_witnesses_realize_minima(self):
        r = brute_force_optimum(4, 4, 2, p=1)
        assert r.unbalance_witnesses and r.tolerance_witnesses
        for w in r.unbalance_witnesses:
            assert unbalance(w, 2, 1) == r.min_unbalance
        for w in r.tolerance_witnesses:
            assert tolerance(w, 2) == r.min_tolerance

    def test_oa_case_is_zero(self):
        r = brute_force_optimum(4, 3, 2, p=2)
        assert r.min_unbalance == 0 and r.min_tolerance == 0

    def test_tol_cap_variant(self):
        capped = brute_force_optimum(4, 4, 2, p=1, tol_cap=1)
        assert capped.tol_cap == 1
        assert capped.min_unbalance == 4
        # Tolerance 0 is infeasible at these parameters (no OA exists).
        with pytest.raises(ValueError):
            brute_force_optimum(4, 4, 2, p=1, tol_cap=0)

    @staticmethod
    def _assert_same(n, k, s, p, tol_cap):
        try:
            want = brute_force_optimum_loop(n, k, s, p=p, tol_cap=tol_cap)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                brute_force_optimum(n, k, s, p=p, tol_cap=tol_cap)
            return
        got = brute_force_optimum(n, k, s, p=p, tol_cap=tol_cap)
        for name in ("min_unbalance", "min_tolerance", "tol_cap", "states"):
            assert getattr(got, name) == getattr(want, name)
            assert type(getattr(got, name)) is type(getattr(want, name))
        assert got.unbalance_witnesses == want.unbalance_witnesses
        assert got.tolerance_witnesses == want.tolerance_witnesses

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(4, 2, 2), (4, 3, 2), (4, 4, 2), (4, 5, 2), (8, 3, 2), (9, 2, 3)]),
        st.sampled_from([1, 2]),
        st.sampled_from([None, 0, 1, 2]),
    )
    def test_blocks_equal_per_state_loop(self, shape, p, tol_cap):
        self._assert_same(*shape, p, tol_cap)

    # the per-state loop takes about 2 s on each of these
    @pytest.mark.parametrize("n, k, s, p, tol_cap", [(8, 4, 2, 2, 0), (9, 3, 3, 1, 1)])
    def test_blocks_equal_per_state_loop_on_large_pools(self, n, k, s, p, tol_cap):
        self._assert_same(n, k, s, p, tol_cap)

    def test_guards(self):
        with pytest.raises(ValueError):
            brute_force_optimum(10, 3, 3)
        with pytest.raises(ValueError):
            brute_force_optimum(25, 8, 5, max_states=1000)

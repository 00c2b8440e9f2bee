import dataclasses
import itertools
import logging
import re
import time
import tracemalloc
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

from oracles import (
    EncoderLoop,
    _PairTables,
    brute_force_optimum_loop,
    driven,
    min_unbalance_grid_4_4_2,
)


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


def moves_of(block: np.ndarray) -> list[tuple[tuple[int, int, int], ...]]:
    return [tuple(map(tuple, move)) for move in block.tolist()]


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
        neighborhood_scan(front, 2, lambda i, block: seen.append((i, moves_of(block))))
        # Two cells with one alternative each: one block of 2 singles, then a
        # block of 1 pair move (both flipped), in deterministic order; the
        # member's cells stay as they were.
        assert seen == [
            (0, [((0, 0, 2),), ((0, 1, 2),)]),
            (0, [((0, 0, 2), (0, 1, 2))]),
        ]
        assert front.members[0].cells is cells and cells.tolist() == [[1, 1]]

    @staticmethod
    def _scan_blocks(cells, s):
        front = ParetoFront()
        front_insert(front, FrontMember(cells, Array(cells, s), ObjectiveVector(0, 0)))
        blocks = []
        neighborhood_scan(front, 2, lambda i, block: blocks.append(block))
        assert all(block.dtype == np.int64 for block in blocks)
        return blocks, [move for block in blocks for move in moves_of(block)]

    def test_moves_skip_current_levels_in_scan_order(self):
        cells = np.array([[1, 3], [2, 2]], dtype=np.int64)
        blocks, seen = self._scan_blocks(cells, 3)
        flat = [(i, j) for i in range(2) for j in range(2)]
        singles = [((*pos, lv),) for pos in flat for lv in (1, 2, 3) if cells[pos] != lv]
        pairs = [
            ((*p1, l1), (*p2, l2))
            for p1, p2 in itertools.combinations(flat, 2)
            for l1 in (1, 2, 3)
            for l2 in (1, 2, 3)
            if cells[p1] != l1 and cells[p2] != l2
        ]
        assert seen == singles + pairs
        assert [block.shape[1] for block in blocks] == [1, 2]  # one block per stage

    def test_small_chunks_keep_the_scan_order(self, monkeypatch):
        cells = np.array([[1, 3, 2], [2, 2, 1], [3, 1, 1]], dtype=np.int64)
        whole, want = self._scan_blocks(cells, 3)
        monkeypatch.setattr(search, "_CHUNK_BYTES", 1)
        blocks, seen = self._scan_blocks(cells, 3)
        assert seen == want
        assert len(blocks) == len(seen)  # at least one move per block
        monkeypatch.setattr(search, "_CHUNK_BYTES", 6000)
        blocks, seen = self._scan_blocks(cells, 3)
        assert seen == want
        assert len(whole) < len(blocks) < len(seen)

    def test_stops_on_first_insertion(self):
        cells = np.array([[1, 1]], dtype=np.int64)
        arr = Array(cells, 2)
        front = ParetoFront()
        front_insert(
            front,
            FrontMember(cells=cells, array=arr, objective=ObjectiveVector(9, 9)),
        )
        report = neighborhood_scan(front, 2, lambda i, block: 0)
        assert report.changed and report.examined == 1
        report = neighborhood_scan(front, 2, lambda i, block: 1 if block.shape[1] == 1 else None)
        assert report.changed and report.examined == 2

    def test_radius_one_skips_pairs(self):
        cells = np.array([[1, 1]], dtype=np.int64)
        arr = Array(cells, 2)
        front = ParetoFront()
        front_insert(
            front,
            FrontMember(cells=cells, array=arr, objective=ObjectiveVector(0, 0)),
        )
        report = neighborhood_scan(front, 1, lambda i, block: None)
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
            tables = _PairTables(a, p)
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
        tables = _PairTables(Array(cells, s), p)
        mutated = cells.copy()
        for i, j, lv in batch:
            mutated[i, j] = lv + 1
        assert tables.change(batch) == full_objective(mutated, s, p)
        assert tables.change(()) == full_objective(cells, s, p)  # tables left as they were

    def test_every_scored_move_equals_a_full_recount(self, monkeypatch):
        objectives, scored = search._BlockScorer.objectives, []

        def checked_objectives(scorer, moves):
            unb, tol = objectives(scorer, moves)
            for move, u, t in zip(moves_of(moves), unb.tolist(), tol.tolist()):
                cells = scorer.levels + 1
                for i, j, level in driven(scorer.enc, move):
                    cells[i, j] = level + 1
                assert ObjectiveVector(u, t) == full_objective(cells, scorer.enc.s, scorer.p)
            scored.append(len(moves))
            return unb, tol

        monkeypatch.setattr(search._BlockScorer, "objectives", checked_objectives)
        shapes = {"plain": [(4, 4, 2)], "bicyclic": [(9, 4, 3)], "quasicyclic": [(9, 4, 3), (8, 3, 2)]}
        for encoding, radius, p in itertools.product(shapes, (1, 2), (1, 2)):
            for n, k, s in shapes[encoding]:
                scored.clear()
                cfg = SearchConfig(p=p, radius=radius, seed=3, encoding=encoding)
                assert local_pareto_search(n, k, s, cfg).complete
                assert scored  # the wrapper saw the search's blocks


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

    def test_time_budget_is_checked_within_a_pass(self, caplog):
        # Calibrated in the test from the per-pass log of an unbudgeted run: the
        # longest of these 35 passes is pass 35, which scans 55,073 moves (0.5 to
        # 1 s on a 2-vCPU VM, after about 0.1 s for the 34 before it).  A budget
        # that runs out in the middle of the longest pass must stop the search
        # well before that pass would have ended; a check only between passes
        # would stop at its end.  The fake-clock test below pins the check
        # before every block.
        cfg = SearchConfig(p=2, seed=1, encoding="bicyclic", max_passes=35)
        with caplog.at_level(logging.INFO, logger="aoakit.search"):
            start = time.time()
            local_pareto_search(49, 8, 7, cfg)
        ends = [start] + [r.created for r in caplog.records if r.getMessage().startswith("pass ")]
        longest = int(np.argmax(np.diff(ends)))
        began, ended = ends[longest] - start, ends[longest + 1] - start
        assert ended - began > 0.1, "no pass is long enough to tell the checks apart"
        budget = (began + ended) / 2
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="aoakit.search"):
            start = time.monotonic()
            front = local_pareto_search(49, 8, 7, dataclasses.replace(cfg, time_budget=budget))
            elapsed = time.monotonic() - start
        assert front.members
        stop = f"pass {longest + 1}: time budget ran out"
        assert any(r.getMessage().startswith(stop) for r in caplog.records)
        assert elapsed < (budget + ended) / 2

    def test_time_budget_stops_within_one_block_on_a_fake_clock(self, monkeypatch, caplog):
        # The clock advances one tick per read.  The deadline is read at tick
        # 0 and every block reads the clock once before it is scored, so a
        # per-block check scores exactly the blocks of ticks 1..60.  With 16
        # KiB blocks of 7 single or 5 pair moves, this search scores 1, 1, 2,
        # 3, 14 and 89 blocks in its six passes (examining 2, 3, 8, 15, 71 and
        # 450 moves), so the deadline falls 39 blocks into the sixth pass.
        ticks, reads, scored = itertools.count(), [], []

        def monotonic():
            reads.append(next(ticks))
            return float(reads[-1])

        objectives = search._BlockScorer.objectives

        def counted_objectives(scorer, moves):
            scored.append((reads[-1], len(moves)))
            return objectives(scorer, moves)

        clock = types.SimpleNamespace(monotonic=monotonic, perf_counter=time.perf_counter)
        monkeypatch.setattr(search, "time", clock)
        monkeypatch.setattr(search, "_CHUNK_BYTES", 1 << 14)
        monkeypatch.setattr(search._BlockScorer, "objectives", counted_objectives)
        cfg = SearchConfig(p=2, seed=1, encoding="bicyclic", time_budget=60.5)
        with caplog.at_level(logging.INFO, logger="aoakit.search"):
            front = local_pareto_search(9, 5, 3, cfg)
        assert front.complete is False
        # one block per read, none after the deadline
        assert [tick for tick, _ in scored] == list(range(1, 61))
        assert reads[-1] == 61  # the first read past the deadline stops the scan
        assert {size for _, size in scored} == {2, 5, 7}
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
        move = tuple((i, j, data.draw(st.integers(1, s))) for i, j in positions)
        cells_set = driven(enc, move)
        assert len(cells_set) == len(move) * len(enc.powers[0])
        assert len({(i, j) for i, j, _ in cells_set}) == len(cells_set)
        got = enc.to_array(cells).cells.copy()
        for i, j, lv in cells_set:
            got[i, j] = lv + 1
        moved = cells.copy()
        for i, j, lv in move:
            moved[i, j] = lv
        assert np.array_equal(got, enc.to_array(moved).cells)

    def test_bad_bicyclic_r_is_rejected_by_the_generator(self):
        for r in (0, 2, 4, -3):
            with pytest.raises(ValueError, match=r"r must divide s and satisfy 1 <= r <= k"):
                local_pareto_search(9, 3, 3, SearchConfig(encoding="bicyclic", bicyclic_r=r))


class TestBlockScorer:
    @staticmethod
    def _check_blocks(enc, cells, radius, p, max_moves=1500):
        """Every entry of every block of a member's scan equals the per-move oracle."""
        member = search._evaluate(enc, cells, p)
        front = ParetoFront()
        front_insert(front, member)
        scorer, oracle = search._BlockScorer(enc, member.array, p), _PairTables(member.array, p)
        sizes = []

        def visitor(idx, block):
            unb, tol = scorer.objectives(block)
            assert unb.dtype == tol.dtype == np.int64
            for move, u, t in zip(moves_of(block), unb.tolist(), tol.tolist()):
                assert ObjectiveVector(u, t) == oracle.change(driven(enc, move))
            sizes.append(len(block))
            return 0 if sum(sizes) >= max_moves else None

        report = neighborhood_scan(front, radius, visitor)
        # a capped scan ends as if the first move of its last block was inserted
        assert report.examined == (sum(sizes[:-1]) + 1 if report.changed else sum(sizes))

    def _draw_and_check(self, data, max_moves):
        kind = data.draw(st.sampled_from(["plain", "bicyclic", "quasicyclic"]))
        s = data.draw(st.integers(2, 4))
        k = data.draw(st.integers(2, 5))
        lam = data.draw(st.integers(1, 2))
        r = None
        if kind == "bicyclic":
            divisors = [d for d in range(1, s + 1) if s % d == 0 and d <= k]
            r = data.draw(st.sampled_from([None, *divisors]))
        radius, p = data.draw(st.sampled_from([1, 2])), data.draw(st.sampled_from([1, 2]))
        enc = search._Encoder(kind, lam * s * s, k, s, r)
        cells = enc.random_cells(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
        self._check_blocks(enc, cells, radius, p, max_moves)

    @pytest.mark.parametrize("n, k, s", [(8, 2, 2), (16, 4, 4), (16, 2, 4)])
    def test_short_orbit_bicyclic_blocks_equal_the_oracle(self, n, k, s):
        # r = k: a generator power can fix a core row, so expanded rows repeat
        enc = search._Encoder("bicyclic", n, k, s, k)
        for seed, radius, p in itertools.product(range(3), (1, 2), (1, 2)):
            cells = enc.random_cells(np.random.default_rng(seed))
            self._check_blocks(enc, cells, radius, p, max_moves=600)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_every_block_entry_equals_the_oracle(self, data):
        self._draw_and_check(data, max_moves=1500)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_every_small_block_entry_equals_the_oracle(self, data):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "_CHUNK_BYTES", data.draw(st.integers(1, 20_000)))
            self._draw_and_check(data, max_moves=400)

    def test_small_chunks_give_the_same_search(self, monkeypatch):
        scan, objectives, passes = search.neighborhood_scan, search._BlockScorer.objectives, []

        def counted_scan(*args):
            blocks = len(passes)
            report = scan(*args)
            passes[blocks:] = [(report.changed, report.examined, len(passes) - blocks)]
            return report

        def counted_objectives(scorer, moves):
            passes.append(None)
            return objectives(scorer, moves)

        monkeypatch.setattr(search, "neighborhood_scan", counted_scan)
        monkeypatch.setattr(search._BlockScorer, "objectives", counted_objectives)
        shapes = [(9, 5, 3, "bicyclic"), (8, 2, 2, "bicyclic"), (9, 4, 3, "quasicyclic"),
                  (8, 4, 2, "plain")]
        late = []
        for (n, k, s, encoding), radius in itertools.product(shapes, (1, 2)):
            cfg = SearchConfig(p=2, radius=radius, seed=4, encoding=encoding, restarts=2)
            runs = []
            for chunk_bytes in (search._CHUNK_BYTES, 3000):
                monkeypatch.setattr(search, "_CHUNK_BYTES", chunk_bytes)
                passes.clear()
                front = local_pareto_search(n, k, s, cfg)
                runs.append(([(m.cells.tolist(), m.objective) for m in front.members],
                             [(changed, examined) for changed, examined, _ in passes]))
            assert runs[0] == runs[1]
            late += [(n, k, s, encoding, radius) for changed, _, blocks in passes
                     if changed and blocks > 1]
        # with small blocks, moves were inserted after the first block of a pass
        assert {shape[3] for shape in late} == {"plain", "bicyclic", "quasicyclic"}
        assert {shape[4] for shape in late} == {1, 2}

    @pytest.mark.parametrize("n, k, s, encoding", [(49, 8, 7, "bicyclic"), (64, 10, 4, "plain")])
    def test_scoring_memory_stays_within_a_few_chunks(self, n, k, s, encoding):
        enc = search._Encoder(encoding, n, k, s, None)
        member = search._evaluate(enc, enc.random_cells(np.random.default_rng(0)), 2)
        front = ParetoFront()
        front_insert(front, member)
        pair_blocks = []

        def visitor(idx, block):
            if block.shape[1] == 2:
                pair_blocks.append(len(block))
            scorer.objectives(block)
            return 0 if len(pair_blocks) == 3 else None

        tracemalloc.start()
        try:
            scorer = search._BlockScorer(enc, member.array, 2)
            report = neighborhood_scan(front, 2, visitor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stage = member.cells.size * (s - 1)
        assert report.examined == stage + 2 * pair_blocks[0] + 1  # all singles, then 3 blocks
        assert pair_blocks[0] > 1
        assert peak <= 4 * search._CHUNK_BYTES


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

    def test_sorted_prefixes_come_in_combinations_order(self):
        for n, r in itertools.product(range(5), range(4)):
            want = itertools.combinations_with_replacement(range(n), r)
            assert list(search._sorted_tuples(n, r)) == list(want)

    def test_pool_of_column_vectors_is_never_copied(self):
        # 2^16 pool indices: copying them into a tuple peaked at 3.5 MiB
        tracemalloc.start()
        try:
            result = brute_force_optimum(16, 3, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.states == 2**16 and result.min_unbalance == 0
        assert peak <= 2 * search._CHUNK_BYTES

    def test_guards(self):
        with pytest.raises(ValueError):
            brute_force_optimum(10, 3, 3)
        with pytest.raises(ValueError):
            brute_force_optimum(25, 8, 5, max_states=1000)

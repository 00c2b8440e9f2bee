import contextlib
import hashlib
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aoakit.arrays as arrays_mod
import aoakit.ipmodel as ipmodel_mod
from aoakit.arrays import Array, cyclic_oa, is_oa, tolerance, unbalance
from aoakit.fileio import ParseError
from aoakit.symmetry import cycle_permutation
from aoakit.ipmodel import (
    Constraint,
    IpInstance,
    IpModel,
    Variable,
    add_symmetry,
    arrange_canonical,
    build_model,
    canonical_assignment,
    canonical_head,
    emit_lp,
    emit_mps,
    evaluate_model,
    exhaustive_optimum,
    parse_lp,
    parse_solution,
    solve_with_command,
    verify_solution,
)

from oracles import (
    IpModelLists,
    _wrap,
    add_symmetry_loop,
    arrange_canonical_loop,
    build_model_loop,
    canonical_assignment_loop,
    emit_lp_loop,
    emit_mps_loop,
    _balanced_columns,
    _prefix_row_map,
    canonical_head_list,
    evaluate_model_loop,
    exhaustive_optimum_loop,
    model_of,
    parse_lp_loop,
    parse_solution_loop,
    prefix_constraints_loop,
    verify_solution_loop,
)


def oa_8_4_2() -> Array:
    """Strength-2 OA with 8 runs: full 2^3 factorial plus the parity column."""
    rows = []
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                rows.append((a + 1, b + 1, c + 1, (a + b + c) % 2 + 1))
    return Array(np.array(rows), 2)


class TestInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            IpInstance(s=1, k=3)
        with pytest.raises(ValueError):
            IpInstance(s=2, k=2)
        with pytest.raises(ValueError):
            IpInstance(s=2, k=3, p=3)
        with pytest.raises(ValueError):
            IpInstance(s=2, k=3, epsilon=0)
        with pytest.raises(ValueError):
            IpInstance(s=2, k=3, symmetry="mirror")
        with pytest.raises(ValueError):
            IpInstance(s=3, k=4, symmetry="semicyclic")  # missing m_bar
        with pytest.raises(ValueError):
            IpInstance(s=3, k=4, symmetry="semicyclic", m_bar=4)
        with pytest.raises(ValueError):
            IpInstance(s=2, k=3, symmetry="klein")  # k >= 4 needed

    def test_shape_properties(self):
        inst = IpInstance(s=3, k=5, lam=2)
        assert inst.n_runs == 18
        assert list(inst.free_columns) == [3, 4, 5]
        assert list(inst.column_pairs) == [(3, 4), (3, 5), (4, 5)]
        assert inst.delta_lower == -1  # max(-lam, -eps) with eps = 1


class TestCanonicalHead:
    def test_lexicographic_factorial(self):
        head = canonical_head(2, 1)
        assert head.tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]

    def test_stacked_copies(self):
        head = canonical_head(2, 2)
        assert head.tolist() == [
            [1, 1], [1, 2], [2, 1], [2, 2],
            [1, 1], [1, 2], [2, 1], [2, 2],
        ]

    @pytest.mark.parametrize("s", range(2, 8))
    @pytest.mark.parametrize("lam", [1, 2, 3])
    def test_head_and_row_maps_equal_the_list_and_dict_forms(self, s, lam):
        head, want = canonical_head(s, lam), canonical_head_list(s, lam)
        assert head.dtype == want.dtype and np.array_equal(head, want)
        inst, (u, v) = IpInstance(s=s, k=3, lam=lam), head.T - 1
        swap = ipmodel_mod._head_rows(s, lam, v, u) + 1
        assert swap.tolist() == _prefix_row_map(inst, lambda u, v: (v, u))
        for m_bar in range(1, s + 1):
            g = cycle_permutation(s, tuple(range(m_bar, s + 1)))
            g0 = np.array(g) - 1
            sigma = ipmodel_mod._head_rows(s, lam, g0[u], g0[v]) + 1
            assert sigma.tolist() == _prefix_row_map(inst, lambda u, v: (g[u - 1], g[v - 1]))

    def test_arrange_canonical_reorders(self):
        a = cyclic_oa(2)
        shuffled = Array(a.cells[::-1].copy(), 2)
        arranged = arrange_canonical(shuffled)
        assert arranged.cells[:, :2].tolist() == canonical_head(2, 1).tolist()
        # Same rows, new order.
        assert sorted(map(tuple, arranged.cells)) == sorted(map(tuple, a.cells))

    def test_arrange_canonical_rejects_unbalanced_prefix(self):
        bad = Array(np.array([[1, 1, 1], [1, 1, 2], [2, 1, 1], [2, 2, 2]]), 2)
        with pytest.raises(ValueError):
            arrange_canonical(bad)

    # a shuffled lam-fold head beside random columns, then maybe a few head cells
    # changed and the rows cut short or repeated
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 3), st.integers(1, 5), st.data())
    def test_arrange_canonical_equals_the_bucket_loop(self, s, lam, k, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        free = rng.integers(1, s + 1, size=(lam * s * s, 3))
        cells = np.column_stack([canonical_head(s, lam), free])[rng.permutation(lam * s * s), :k]
        for _ in range(data.draw(st.integers(0, 2))):
            cells[rng.integers(len(cells)), rng.integers(min(k, 2))] = rng.integers(1, s + 1)
        rows = data.draw(st.just(len(cells)) | st.integers(1, 2 * len(cells)))
        a = Array(cells[np.arange(rows) % len(cells)], s)
        try:
            want = arrange_canonical_loop(a)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                arrange_canonical(a)
            assert str(got.value) == str(exc)
        else:
            assert arrange_canonical(a).cells.tolist() == want.cells.tolist()


class TestModelShape:
    def test_variable_counts_2_4_1(self):
        inst = IpInstance(s=2, k=4, p=1)
        model = build_model(inst)
        names = [v.name for v in model.variables]
        x = [n for n in names if n.startswith("x_")]
        z = [n for n in names if n.startswith("z_")]
        assert len(x) == 4 * 2 * 2  # runs * free columns * levels
        assert len(z) == 4 * 1 * 4  # runs * pairs * level combinations
        assert len([n for n in names if n.startswith("d1_")]) >= 2
        model.validate()

    def test_variable_counts_3_5_1(self):
        inst = IpInstance(s=3, k=5, p=2)
        model = build_model(inst)
        names = {v.name for v in model.variables}
        assert sum(n.startswith("x_") for n in names) == 9 * 3 * 3
        assert sum(n.startswith("z_") for n in names) == 9 * 3 * 9
        assert sum(n.startswith("d0_") for n in names) == 3 * 9
        assert sum(n.startswith("d1_") for n in names) == 3
        assert sum(n.startswith("d2_") for n in names) == 9 * 3
        assert sum(n.startswith("d3_") for n in names) == 9 * 3

    def test_p1_gets_split_variables_and_linear_objective(self):
        inst = IpInstance(s=2, k=4, p=1)
        model = build_model(inst)
        names = {v.name for v in model.variables}
        assert any(n.startswith("d0p_") for n in names)
        assert any(n.startswith("d0m_") for n in names)
        assert model.linear_objective and not model.quadratic_objective

    def test_p2_quadratic_objective(self):
        inst = IpInstance(s=2, k=4, p=2)
        model = build_model(inst)
        assert model.quadratic_objective and not model.linear_objective
        names = {v.name for v in model.variables}
        assert not any("p_" in n or "m_" in n for n in names if n[:2] == "d0")

    def test_delta_bounds(self):
        inst = IpInstance(s=2, k=4, lam=2, epsilon=3)
        model = build_model(inst)
        by_name = {v.name: v for v in model.variables}
        d0 = next(v for n, v in by_name.items() if n.startswith("d0_"))
        assert (d0.lower, d0.upper) == (-2, 3)  # max(-lam,-eps) .. eps
        d1 = next(v for n, v in by_name.items() if n.startswith("d1_"))
        assert (d1.lower, d1.upper) == (-4, 4)  # -lam*s .. lam*s^2 - lam*s

    @pytest.mark.parametrize("s, k, lam", [
        (2, 3, 1), (2, 5, 2), (3, 4, 1), (3, 4, 2), (4, 3, 2), (5, 4, 1),
    ])
    def test_prefix_rows_equal_per_column_formulas(self, s, k, lam):
        inst = IpInstance(s=s, k=k, lam=lam)
        rows = [c for c in build_model(inst).constraints if c.name.startswith("aoa3")]
        assert rows == prefix_constraints_loop(inst)

    @pytest.mark.parametrize("s, k, lam, p", [
        (2, 3, 1, 1), (2, 4, 2, 2), (3, 5, 1, 1), (4, 6, 2, 2), (7, 8, 1, 1),
    ])
    def test_size_guard_counts_the_table_it_lays_out(self, monkeypatch, s, k, lam, p):
        inst = IpInstance(s=s, k=k, lam=lam, p=p)
        size = len(build_model(inst).names)
        monkeypatch.setattr(ipmodel_mod, "_MAX_VARIABLES", size)
        build_model(inst)
        monkeypatch.setattr(ipmodel_mod, "_MAX_VARIABLES", size - 1)
        a = Array(np.column_stack([canonical_head(s, lam), np.ones((inst.n_runs, k - 2), int)]), s)
        message = re.escape(f"model has {size} variables (> {size - 1})")
        for refused in (build_model, lambda i: canonical_assignment(i, a),
                        lambda i: verify_solution(i, {})):
            with pytest.raises(ValueError, match=f"^{message}$"):
                refused(inst)


class TestCanonicalAssignment:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(3, 7), st.integers(1, 2), st.integers(1, 2),
           st.integers(1, 2), st.integers(0, 2**32 - 1))
    def test_equals_the_per_cell_loop(self, s, k, lam, p, epsilon, seed):
        inst = IpInstance(s=s, k=k, lam=lam, p=p, epsilon=epsilon)
        rng = np.random.default_rng(seed)
        free = rng.integers(1, s + 1, size=(inst.n_runs, k - 2))
        cells = np.column_stack([canonical_head(s, lam), free])[rng.permutation(inst.n_runs)]
        got = canonical_assignment(inst, Array(cells, s))
        assert got == canonical_assignment_loop(inst, Array(cells, s))
        assert all(type(v) is int for v in got.values())
        assert list(got) == build_model(inst).names  # keys in the model's variable order


class TestFeasibility:
    @pytest.mark.parametrize("builder,s,k,lam", [
        (lambda: cyclic_oa(2), 2, 3, 1),
        (lambda: cyclic_oa(3), 3, 3, 1),
        (lambda: cyclic_oa(2, 2), 2, 3, 2),
        (oa_8_4_2, 2, 4, 2),
    ])
    def test_orthogonal_array_is_feasible_with_zero_objective(
        self, builder, s, k, lam
    ):
        inst = IpInstance(s=s, k=k, lam=lam, p=2)
        model = build_model(inst)
        assignment = canonical_assignment(inst, builder())
        check = evaluate_model(model, assignment)
        assert not check.violations
        assert check.objective == 0

    def test_violations_reported(self):
        inst = IpInstance(s=2, k=3, p=2)
        model = build_model(inst)
        assignment = canonical_assignment(inst, cyclic_oa(2))
        assignment["x_1_3_1"], assignment["x_1_3_2"] = (
            assignment["x_1_3_2"],
            assignment["x_1_3_1"],
        )
        check = evaluate_model(model, assignment)
        assert check.violations

    def test_nan_value_is_outside_its_bounds(self):
        model = model_of(IpModelLists(
            variables=[Variable("a", "general", 0, 3), Variable("b", "binary")]))
        check = evaluate_model(model, {"a": float("nan"), "b": float("nan")})
        assert check.violations == [
            "bound a=nan outside [0,3]",
            "bound b=nan outside [0,1]",
            "binary b=nan not integral",
        ]


class TestExhaustive:
    def test_minimum_2_4_1(self):
        for p in (1, 2):
            inst = IpInstance(s=2, k=4, p=p, epsilon=1)
            result = exhaustive_optimum(inst)
            assert result.value == 4
            assert result.states > 0
            assert result.feasible_states > 0
            for w in result.witnesses:
                assert unbalance(w, 2, p) == 4

    def test_oa_reachable_means_zero(self):
        inst = IpInstance(s=2, k=3, p=2)
        result = exhaustive_optimum(inst)
        assert result.value == 0
        assert any(is_oa(w, 2) for w in result.witnesses)

    @staticmethod
    def _assert_same(inst):
        try:
            want = exhaustive_optimum_loop(inst)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                exhaustive_optimum(inst)
            return
        got = exhaustive_optimum(inst)
        assert type(got.value) is int
        assert (got.value, got.states, got.feasible_states) == (
            want.value,
            want.states,
            want.feasible_states,
        )
        assert got.witnesses == want.witnesses

    # (k, lam) with at most 3456 states: the per-state loop takes ~0.15 ms each
    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from([(3, 1), (4, 1), (5, 1), (6, 1), (3, 2)]),
        st.sampled_from([1, 2]),
        st.integers(1, 3),
    )
    def test_blocks_equal_per_state_loop(self, shape, p, epsilon):
        k, lam = shape
        self._assert_same(IpInstance(s=2, k=k, lam=lam, p=p, epsilon=epsilon))

    def test_blocks_equal_per_state_loop_on_17920_states(self):
        self._assert_same(IpInstance(s=2, k=4, lam=2, p=1, epsilon=1))

    def test_last_column_list_is_never_built(self):
        # 2^16 last columns: listing them, or all their counts, would take MBs
        inst = IpInstance(s=2, k=3, lam=4)
        tracemalloc.start()
        try:
            result = exhaustive_optimum(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.states == 2**16 and result.value == 0
        assert peak <= arrays_mod._CHUNK_BYTES + 64 * 1024

    def test_rejects_symmetry(self):
        inst = IpInstance(s=3, k=4, symmetry="semicyclic", m_bar=2)
        with pytest.raises(ValueError):
            exhaustive_optimum(inst)

    def test_state_guard(self):
        inst = IpInstance(s=3, k=6)
        with pytest.raises(ValueError):
            exhaustive_optimum(inst, max_states=10)

    @pytest.mark.parametrize("s, lam", [(2, 1), (2, 2), (2, 3), (3, 1)])
    def test_balanced_column_count_closed_form(self, s, lam):
        n = lam * s * s
        listed = len(list(_balanced_columns(n, s, lam)))
        assert ipmodel_mod._balanced_column_count(n, s, lam) == listed

    # every (s, lam) whose grid has at most 2^16 level vectors
    @pytest.mark.parametrize("s, lam", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1)])
    def test_balanced_pool_equals_the_recursive_generator(self, s, lam):
        n = lam * s * s
        pool = ipmodel_mod._balanced_pool(n, s, lam)
        assert pool.dtype == np.int64
        assert list(map(tuple, pool.tolist())) == list(_balanced_columns(n, s, lam))

    def test_state_guard_runs_before_enumeration(self):
        # s = 4, lam = 1 has 63 063 000 balanced columns; the guard must
        # reject the instance from the closed-form count alone
        with pytest.raises(ValueError, match="states"):
            exhaustive_optimum(IpInstance(s=4, k=4))


class TestVerifySolution:
    def _assignment(self, inst, a):
        return canonical_assignment(inst, a)

    def test_round_trip(self):
        inst = IpInstance(s=2, k=3, p=2)
        a = arrange_canonical(cyclic_oa(2))
        report = verify_solution(inst, self._assignment(inst, a))
        assert report.ok
        assert report.array == a
        assert report.unbalance == 0
        assert report.objective == 0
        assert report.identity_ok and report.z_ok and report.deltas_match

    def test_identity_objective_minus_lastcol_term(self):
        # The model objective counts last-column level deviations separately;
        # subtracting them recovers the pair unbalance exactly.
        inst = IpInstance(s=2, k=4, p=1, epsilon=2)
        rows = [
            [1, 1, 1, 1],
            [1, 2, 1, 1],
            [2, 1, 2, 2],
            [2, 2, 2, 1],
        ]
        a = Array(np.array(rows), 2)
        report = verify_solution(inst, self._assignment(inst, a))
        assert report.identity_ok
        assert report.objective - report.delta1_term == unbalance(a, 2, 1)

    def test_missing_cell_rejected(self):
        inst = IpInstance(s=2, k=3, p=2)
        assignment = self._assignment(inst, arrange_canonical(cyclic_oa(2)))
        del assignment["x_1_3_1"]
        del assignment["x_1_3_2"]
        with pytest.raises(ValueError):
            verify_solution(inst, assignment)

    def test_double_level_rejected(self):
        inst = IpInstance(s=2, k=3, p=2)
        assignment = self._assignment(inst, arrange_canonical(cyclic_oa(2)))
        assignment["x_1_3_1"] = 1.0
        assignment["x_1_3_2"] = 1.0
        with pytest.raises(ValueError):
            verify_solution(inst, assignment)

    def test_tampered_z_detected(self):
        inst = IpInstance(s=2, k=4, lam=2, p=2)
        assignment = self._assignment(inst, oa_8_4_2())
        flipped = [n for n, v in assignment.items() if n.startswith("z_1_") and v]
        assignment[flipped[0]] = 0.0
        report = verify_solution(inst, assignment)
        assert not report.z_ok
        assert not report.ok

    @staticmethod
    def _outcome(verify, inst, assignment):
        try:
            return verify(inst, assignment)
        except ValueError as exc:
            return f"ValueError: {exc}"

    # z values tampered to 0, 1 or 2, a deviation off by one, some z missing,
    # or x values only; then x values dropped, or cells given two levels or
    # none, in several columns (the first bad cell, column by column, is reported)
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(1, 2),
        st.integers(1, 2),
        st.integers(3, 5),
        st.integers(0, 2**32 - 1),
        st.sampled_from([None, 0.0, 1.0, 2.0]),
        st.sampled_from([0.0, 1.0, -1.0]),
        st.sampled_from(["none", "some z", "all but x"]),
        st.lists(st.sampled_from(["drop", "double", "none", "half"]), max_size=4),
    )
    def test_report_equals_per_row_loop(self, s, lam, p, k, seed, z_value, shift, drop, faults):
        inst = IpInstance(s=s, k=k, lam=lam, p=p)
        rng = np.random.default_rng(seed)
        free = rng.integers(1, s + 1, size=(inst.n_runs, k - 2))
        a = Array(np.column_stack([canonical_head(s, lam), free]), s)
        assignment = canonical_assignment(inst, a)
        zs = sorted(n for n in assignment if n.startswith("z_"))
        deltas = sorted(n for n in assignment if n[0] == "d" and n[2] == "_")
        if zs and z_value is not None:
            assignment[zs[rng.integers(len(zs))]] = z_value
        assignment[deltas[rng.integers(len(deltas))]] += shift
        if drop == "some z":
            for name in zs[:: 1 + int(rng.integers(3))]:
                del assignment[name]
        elif drop == "all but x":
            assignment = {n: v for n, v in assignment.items() if n.startswith("x_")}
        cells = rng.choice(free.size, size=len(faults), replace=False).tolist()
        for fault, (i, j) in zip(faults, map(divmod, cells, [k - 2] * len(cells))):
            cell, level = f"x_{i + 1}_{j + 3}_", int(free[i, j])
            if fault == "drop":
                del assignment[cell + str(int(rng.integers(1, s + 1)))]
            elif fault == "double":
                assignment[cell + str(level % s + 1)] = 1.0
            else:
                assignment[cell + str(level)] = 0.0 if fault == "none" else 0.5
        got = self._outcome(verify_solution, inst, assignment)
        assert got == self._outcome(verify_solution_loop, inst, assignment)
        assert isinstance(got, str) == bool(faults)

    @pytest.mark.parametrize("name, value", [
        ("x_3_4_2", float("inf")), ("z_2_1_3", float("nan")), ("d0_1_4", float("-inf")),
        ("d1_2", float("nan")), ("d2_1_2_3", float("-inf")), ("d3_2_1_4", float("inf")),
    ])
    def test_non_finite_value_is_refused(self, name, value):
        inst = IpInstance(s=2, k=4, lam=2, p=1)
        assignment = self._assignment(inst, oa_8_4_2())
        assignment[name] = value
        with pytest.raises(ValueError, match=f"^value of {name} is not finite$"):
            verify_solution(inst, assignment)

    def test_wrong_delta_claim_detected(self):
        inst = IpInstance(s=2, k=4, lam=2, p=2)
        assignment = self._assignment(inst, oa_8_4_2())
        name = next(n for n in assignment if n.startswith("d0_"))
        assignment[name] += 1.0
        report = verify_solution(inst, assignment)
        assert not report.deltas_match
        assert not report.ok


class TestSymmetryConstraints:
    def test_semicyclic_tie_count(self):
        inst = IpInstance(s=3, k=5, symmetry="semicyclic", m_bar=2)
        model = add_symmetry(build_model(inst), inst)
        sims = [c for c in model.constraints if c.name.startswith("sim")]
        assert len(sims) == 78

    # SHA-256 of the LP and MPS text, captured from the implementation that
    # wrote the level cycle (m_bar..s) out by hand in two places
    @pytest.mark.parametrize("kw, lp_sha, mps_sha", [
        (dict(s=3, k=4, p=1, symmetry="semicyclic", m_bar=2),
         "9244d2513ddeaffad980e21336aae459ecccdc41b97a28244b6ab1c5f0d604a2",
         "3ac50d17d9a7f8190bb1121ce499dd4680a9bbf56e6334e3202b0fa987279402"),
        (dict(s=4, k=4, p=2, symmetry="semicyclic", m_bar=2),
         "b3b99e923f1f7e8f5b82885caaf273e8ca04f0a9bfbff2cef0bcf9562becd2b8",
         "1762bf93d5293941999f8ded6163e32eb3d6620249cb15259b6f646fe2dd9925"),
        (dict(s=4, k=5, p=1, symmetry="both", m_bar=3),
         "d02bcec4386928081b328163987e17d06348b8eb8ec37933468a83a1901f37f5",
         "c00767779c9192ca4c23be282e003e30e3715cf4ac9d9ffa821be739f3e4149e"),
        (dict(s=5, k=3, p=1, symmetry="semicyclic", m_bar=1),
         "cf6026ce8c985e6c7b4204e7748dfc74421b6a635af58d12e18a7491ce05290b",
         "749b95bd179e3ed52ae9af8a9570de19cc96c4be6e2e53fc3b1e8d4645d9f8d0"),
    ], ids=["s3-m2", "s4-m2-p2", "s4-both-m3", "s5-m1"])
    def test_semicyclic_tie_text_is_pinned(self, kw, lp_sha, mps_sha):
        inst = IpInstance(**kw)
        model = add_symmetry(build_model(inst), inst)
        assert hashlib.sha256(emit_lp(model).encode("ascii")).hexdigest() == lp_sha
        assert hashlib.sha256(emit_mps(model).encode("ascii")).hexdigest() == mps_sha

    def test_m_bar_equal_s_means_no_ties(self):
        inst = IpInstance(s=3, k=4, symmetry="semicyclic", m_bar=3)
        model = add_symmetry(build_model(inst), inst)
        assert not [c for c in model.constraints if c.name.startswith("sim")]

    def test_klein_tie_count(self):
        inst = IpInstance(s=2, k=5, symmetry="klein")
        model = add_symmetry(build_model(inst), inst)
        sims = [c.name for c in model.constraints if c.name.startswith("sim")]
        assert sum(n.startswith("sim03_") for n in sims) == 4 * 2
        assert sum(n.startswith("sim04_") for n in sims) == 4 * 2
        assert sum(n.startswith("sim034_") for n in sims) == 2 * 1 * 2

    def test_klein_symmetric_array_satisfies_ties(self):
        # Column 3 reads the first prefix coordinate, column 4 the second:
        # swapping the first two columns and the last two maps rows to rows.
        inst = IpInstance(s=2, k=4, symmetry="klein", p=2, epsilon=2)
        rows = [[1, 1, 1, 1], [1, 2, 1, 2], [2, 1, 2, 1], [2, 2, 2, 2]]
        a = Array(np.array(rows), 2)
        model = add_symmetry(build_model(inst), inst)
        assignment = canonical_assignment(inst, a)
        check = evaluate_model(model, assignment)
        assert not [v for v in check.violations if "sim" in v]

    @pytest.mark.parametrize("kw, rows, ok", [
        (dict(symmetry="klein"), [[1, 1, 1, 1], [1, 2, 1, 2], [2, 1, 2, 1], [2, 2, 2, 2]], True),
        (dict(symmetry="klein"), [[1, 1, 1, 1], [1, 2, 1, 1], [2, 1, 2, 1], [2, 2, 2, 2]], False),
        # columns 3 and 4 repeat the pinned ones, so the level cycle (2 3) maps rows to rows
        (dict(s=3, symmetry="semicyclic", m_bar=2), [[u, v, u, v] for u in (1, 2, 3)
                                                     for v in (1, 2, 3)], True),
        (dict(s=3, symmetry="semicyclic", m_bar=2), [[u, v, u, 1 + (u * v) % 3] for u in (1, 2, 3)
                                                     for v in (1, 2, 3)], False),
    ], ids=["klein", "klein-asymmetric", "semicyclic", "semicyclic-asymmetric"])
    def test_verify_solution_checks_the_ties(self, kw, rows, ok):
        inst = IpInstance(**{"s": 2, "k": 4, "p": 2, "epsilon": 2, **kw})
        assignment = canonical_assignment(inst, Array(np.array(rows), inst.s))
        report = verify_solution(inst, assignment)
        check = evaluate_model(add_symmetry(build_model(inst), inst), assignment)
        assert report.symmetry_ok is ok
        assert ok == (not [v for v in check.violations if v.startswith("constraint sim")])
        assert report.ok is ok

    def test_asymmetric_array_violates_ties(self):
        inst = IpInstance(s=2, k=4, symmetry="klein", p=2, epsilon=2)
        rows = [[1, 1, 1, 1], [1, 2, 1, 1], [2, 1, 2, 1], [2, 2, 2, 2]]
        a = Array(np.array(rows), 2)
        model = add_symmetry(build_model(inst), inst)
        check = evaluate_model(model, canonical_assignment(inst, a))
        assert [v for v in check.violations if "sim" in v]

    def test_requires_declared_symmetry(self):
        inst = IpInstance(s=2, k=4)
        with pytest.raises(ValueError):
            add_symmetry(build_model(inst), inst)


class TestLpFormat:
    @pytest.mark.parametrize("kwargs", [
        dict(s=2, k=4, p=1),
        dict(s=2, k=4, p=2),
        dict(s=3, k=5, p=2, symmetry="semicyclic", m_bar=2),
        dict(s=2, k=5, p=1, symmetry="klein"),
        dict(s=3, k=5, p=1, lam=2, symmetry="both", m_bar=2),
    ])
    def test_roundtrip_byte_identical(self, kwargs):
        inst = IpInstance(**kwargs)
        model = build_model(inst)
        if inst.symmetry is not None:
            model = add_symmetry(model, inst)
        text = emit_lp(model)
        again = emit_lp(parse_lp(text))
        assert again == text

    @pytest.mark.parametrize("text", [
        emit_lp(IpModel()),
        "Minimize\n obj: x\nSubject To\nBounds\nBinaries\n x\nEnd\n",
    ], ids=["empty model", "no rows"])
    def test_model_without_rows_round_trips(self, text):
        model = parse_lp(text)
        assert parse_lp(emit_lp(model)) == model

    def test_line_length_and_charset(self):
        inst = IpInstance(s=4, k=6, p=2)
        text = emit_lp(build_model(inst))
        assert all(len(line) <= 255 for line in text.splitlines())
        text.encode("ascii")

    def test_sections_present(self):
        inst = IpInstance(s=2, k=4, p=2)
        text = emit_lp(build_model(inst))
        for keyword in ("Minimize", "Subject To", "Bounds", "Generals",
                        "Binaries", "End"):
            assert keyword in text
        assert "^2" in text and "] / 2" in text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_lp("Maximize\n obj: x\nEnd")

    @staticmethod
    def _lp(objective=" obj: x + y", rows=" c1: x + y = 1", generals="", bounds=""):
        return (f"Minimize\n{objective}\nSubject To\n{rows}\nBounds\n{bounds}\n"
                f"Generals\n{generals}\nBinaries\n x y\nEnd\n")

    def test_parse_accepts_the_hand_written_frame(self):
        model = parse_lp(self._lp(rows=" c1: x - 2 y >= -1\n c2: - x = 0"))
        assert list(model.constraints) == [
            Constraint("c1", ((1, "x"), (-2, "y")), ">=", -1),
            Constraint("c2", ((-1, "x"),), "=", 0),
        ]

    def test_parse_rejects_a_constraint_without_relation(self):
        with pytest.raises(ValueError, match="constraint 'c1'"):
            parse_lp(self._lp(rows=" c1: x + y"))

    def test_parse_rejects_a_relation_without_right_hand_side(self):
        with pytest.raises(ValueError, match="constraint 'c2'"):
            parse_lp(self._lp(rows=" c1: x = 1\n c2: x + y ="))

    def test_parse_rejects_a_general_variable_without_bounds(self):
        with pytest.raises(ValueError, match="general variable 'g' has no Bounds line"):
            parse_lp(self._lp(generals=" g"))

    def test_parse_rejects_an_unclosed_quadratic_block(self):
        with pytest.raises(ValueError, match="objective 'obj'"):
            parse_lp(self._lp(objective=" obj: x + [ 2 y ^2"))

    @pytest.mark.parametrize("rows, name", [
        (" c1: x = 1\n c2: x = y = 1", "constraint 'c2'"),
        (" c1: x = 1 + y", "constraint 'c1'"),
        (" c1: x = y", "constraint 'c1'"),
        (" x + y = 1", "before any constraint name"),
    ], ids=["two relations", "terms after the relation", "named right-hand side", "no name"])
    def test_parse_rejects_other_malformed_rows(self, rows, name):
        with pytest.raises(ValueError, match=name):
            parse_lp(self._lp(rows=rows))

    def test_parse_keeps_the_undeclared_name_message(self):
        with pytest.raises(ValueError, match=re.escape("undeclared variables referenced: ['w']")):
            parse_lp(self._lp(rows=" c1: x + w = 1"))

    @pytest.mark.parametrize("kw, message", [
        (dict(rows=" c1: x >= 99999999999999999999"),
         "constraint 'c1' right-hand side 99999999999999999999 does not fit int64"),
        (dict(rows=" c1: x = 1\n c2: x >= -9223372036854775809"),
         "constraint 'c2' right-hand side -9223372036854775809 does not fit int64"),
        (dict(rows=" c1: x = 1\n c2: x - 9223372036854775808 y >= 0"),
         "constraint 'c2' coefficient 9223372036854775808 does not fit int64"),
        (dict(objective=" obj: x + 99999999999999999999 y"),
         "objective 'obj' coefficient 99999999999999999999 does not fit int64"),
        (dict(objective=" obj: x + [ 99999999999999999998 y ^2 ] / 2"),
         "objective 'obj' coefficient 99999999999999999998 does not fit int64"),
        (dict(generals=" g", bounds=" 0 <= g <= 9223372036854775808"),
         "bounds of 'g' do not fit int64"),
    ], ids=["rhs", "negative rhs", "row coefficient", "objective", "quadratic", "bound"])
    def test_parse_refuses_numbers_beyond_int64(self, kw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_lp(self._lp(**kw))

    def test_parse_reads_the_int64_limits(self):
        model = parse_lp(self._lp(rows=" c1: 9223372036854775807 x >= -9223372036854775808",
                                  generals=" g", bounds=" -9223372036854775808 <= g <= 0"))
        assert model.rhs.tolist() == [-(1 << 63)] and model.coefs.tolist() == [(1 << 63) - 1]
        assert model.lower.tolist() == [0, 0, -(1 << 63)]

    def test_parse_refuses_a_repeated_constraint_name(self):
        with pytest.raises(ValueError, match=re.escape("constraint 'c1' is repeated")):
            parse_lp(self._lp(rows=" c1: x >= 1\n c2: y = 0\n c1: x <= 1"))

    # SHA-256 of the LP and MPS text, captured from the implementation that
    # wrote the rows of each pinned column and each deviation family's bounds
    # out separately
    @pytest.mark.parametrize("kw, lp_sha, mps_sha", [
        (dict(s=3, k=5, lam=2, p=1, epsilon=2),
         "8d0931ae7f41da7975b91d871677ede65b464692202f2687a998a35a074b5228",
         "d579a4be5ea78d91cf81e52976e51b0ffdf9ed3ba4231326692b2f14dff3423d"),
        (dict(s=3, k=5, p=2, symmetry="klein"),
         "5149730de1613e78ab1003bc830d2bed731f5aaff9df3ca6010b7772581ea353",
         "3fc576b385cd2436a8cd52d1e099a27357fc2f05491f1d0e689cc01419e6ee98"),
        (dict(s=2, k=5, lam=2, p=2, symmetry="both", m_bar=1),
         "b40a99b5dd9454e1cab29405c4f318529ab31c1d34f31bacb6a958939adc0c41",
         "04ec4d2c1bd6d3d0ceda9c6323fb988a844a01fae022f5896745d4a9be3c544b"),
    ], ids=["none-lam2-eps2", "klein-p2", "both-lam2-m1"])
    def test_model_text_is_pinned(self, kw, lp_sha, mps_sha):
        inst = IpInstance(**kw)
        model = build_model(inst)
        if inst.symmetry is not None:
            model = add_symmetry(model, inst)
        assert hashlib.sha256(emit_lp(model).encode("ascii")).hexdigest() == lp_sha
        assert hashlib.sha256(emit_mps(model).encode("ascii")).hexdigest() == mps_sha


class TestMpsFormat:
    def test_sections_and_markers(self):
        inst = IpInstance(s=2, k=4, p=2)
        text = emit_mps(build_model(inst))
        for section in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
            assert section in text
        assert "MARKER" in text and "INTORG" in text and "INTEND" in text
        assert "QMATRIX" in text  # quadratic objective diagonal

    def test_linear_case_has_no_qmatrix(self):
        inst = IpInstance(s=2, k=4, p=1)
        text = emit_mps(build_model(inst))
        assert "QMATRIX" not in text

    @staticmethod
    def _columns(text):
        body = text.split("'INTORG'\n")[1].split("    MARKER")[0]
        return body.splitlines()

    @pytest.mark.parametrize("terms", [1, 2, 3, 1 << 13])
    def test_one_entry_per_variable_and_row_at_any_piece_size(self, terms):
        # a variable named twice in a row, or in the objective, is one entry
        # holding the exact sum, also when its terms cross a piece
        model = parse_lp(TestLpFormat._lp(
            objective=" obj: 9223372036854775807 x + 1 y - 2 x + 3 y",
            rows=" c1: x + x + y >= 1\n c2: y - y + x = 0\n c3: 2 y + x + 3 y <= 9"))
        with TestPieces._piece_size(terms):
            columns = self._columns(emit_mps(model))
        assert columns == [
            "    x  obj  9223372036854775805",
            "    x  c1  2",
            "    x  c2  1",
            "    x  c3  1",
            "    y  obj  4",
            "    y  c1  1",
            "    y  c2  0",
            "    y  c3  5",
        ]

    @pytest.mark.parametrize("objective, rows, where", [
        (" obj: 9223372036854775807 x + 9223372036854775807 x", " c1: x + y = 1", "x in obj"),
        (" obj: x + y", " c1: x + y = 1\n c2: - 9223372036854775807 y - 2 y >= 0", "y in c2"),
    ], ids=["objective", "row"])
    def test_a_sum_beyond_int64_is_refused(self, objective, rows, where):
        model = parse_lp(TestLpFormat._lp(objective=objective, rows=rows))
        with pytest.raises(ValueError, match=f"coefficient of {where} is beyond int64"):
            emit_mps(model)


@st.composite
def solution_texts(draw):
    """Solution text with distinct names: lines of one to three fields in runs of spaces
    and tabs, ``#`` anywhere, blank lines, and every line break ``splitlines`` knows
    of that an ASCII file can hold."""
    gap = st.text(" \t", min_size=1, max_size=3)
    value = st.sampled_from(["1", "0.5", "-0", "nan", "inf", "1e5", "0x1", "x", "e", "_", "1_0"])
    lines = []
    for name in draw(st.lists(st.text("x1_e", min_size=1, max_size=4), unique=True, max_size=6)):
        fields = [name] + [draw(value) for _ in range(draw(st.sampled_from([1] * 8 + [0, 2])))]
        line = draw(st.text(" \t", max_size=2)) + "".join(f + draw(gap) for f in fields)
        if draw(st.integers(0, 3)) == 0:
            at = draw(st.integers(0, len(line)))
            line = line[:at] + "#" + line[at:]
        lines += [line] + draw(st.lists(st.text(" \t", max_size=2), max_size=1))
    end = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    return "".join(line + draw(end) for line in lines)


class TestSolutionIo:
    def test_parse_solution(self):
        text = "# objective 4\nx_1_3_1 1\nx_1_3_2 0.0\n\nd1_1 -1\n"
        values = parse_solution(text)
        assert values == {"x_1_3_1": 1.0, "x_1_3_2": 0.0, "d1_1": -1.0}

    def test_parse_solution_rejects_malformed(self):
        with pytest.raises(ParseError, match=re.escape("<text>:1:1: expected 'name value'")):
            parse_solution("x_1_3_1\n")
        with pytest.raises(ParseError, match=re.escape("sol:2:11: could not convert")):
            parse_solution("# x y\n x_1_3_1  one\n", "sol")
        with pytest.raises(ParseError, match=re.escape("sol:3:3: name 'x_1_3_1' is repeated")):
            parse_solution("x_1_3_1 1\nx_1_3_2 0\n  x_1_3_1 0\n", "sol")

    @settings(max_examples=300, deadline=None)
    @given(solution_texts())
    def test_parse_solution_equals_the_regex_reader(self, text):
        def read(reader):
            try:
                return reader(text, "sol")
            except ParseError as exc:
                return exc.message, exc.line, exc.column
        # repr tells NaN, -0.0 and the order of the names apart
        assert repr(read(parse_solution)) == repr(read(parse_solution_loop))

    def test_solve_with_command(self, tmp_path):
        # A stand-in solver: copies variable names out of the LP file and
        # declares everything zero.
        helper = tmp_path / "fake_solver.py"
        helper.write_text(
            "import re, sys\n"
            "lp, sol = sys.argv[1], sys.argv[2]\n"
            "text = open(lp).read()\n"
            "start = text.index('Binaries')\n"
            "names = text[start:].split()[1:-1]\n"
            "open(sol, 'w').write(''.join(f'{n} 0\\n' for n in names))\n"
        )
        inst = IpInstance(s=2, k=3, p=2)
        model = build_model(inst)
        values = solve_with_command(
            model, f"{sys.executable} {helper} {{lp}} {{sol}}"
        )
        assert values
        assert all(v == 0.0 for v in values.values())
        assert any(n.startswith("x_") for n in values)


@st.composite
def small_instances(draw):
    s, k = draw(st.integers(2, 5)), draw(st.integers(3, 7))
    symmetry = draw(st.sampled_from([None, "semicyclic"] + (["klein", "both"] if k >= 4 else [])))
    m_bar = draw(st.integers(1, s)) if symmetry in ("semicyclic", "both") else None
    return IpInstance(s=s, k=k, lam=draw(st.integers(1, 2)), p=draw(st.integers(1, 2)),
                      epsilon=draw(st.integers(1, 2)), symmetry=symmetry, m_bar=m_bar)


class TestArrayModel:
    """The array-backed model against the earlier one made of lists."""

    @staticmethod
    def _both(inst):
        new, old = build_model(inst), build_model_loop(inst)
        if inst.symmetry is not None:
            new, old = add_symmetry(new, inst), add_symmetry_loop(old, inst)
        return new, old

    @staticmethod
    def _fields(model):
        return [list(model.variables), list(model.constraints),
                list(model.linear_objective), list(model.quadratic_objective)]

    @settings(max_examples=60, deadline=None)
    @given(small_instances())
    def test_text_fields_and_parse_equal_the_list_model(self, inst):
        new, old = self._both(inst)
        assert self._fields(new) == self._fields(old)
        text = emit_lp(new)
        assert text == emit_lp_loop(old)
        assert emit_mps(new) == emit_mps_loop(old)
        assert self._fields(parse_lp(text)) == self._fields(parse_lp_loop(text))

    # canonical assignments, then some values moved off the grid or out of
    # bounds and some names dropped
    @settings(max_examples=60, deadline=None)
    @given(small_instances(), st.data())
    def test_evaluate_model_equals_the_object_walk(self, inst, data):
        model, _ = self._both(inst)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        free = rng.integers(1, inst.s + 1, size=(inst.n_runs, inst.k - 2))
        head = canonical_head(inst.s, inst.lam)
        assignment = canonical_assignment(inst, Array(np.column_stack([head, free]), inst.s))
        shift = st.sampled_from([0.5, -1.0, 1e-7, 3.0, 1 / 3, 2.5e-6, -100.0])
        for name in data.draw(st.lists(st.sampled_from(model.names), max_size=8)):
            assignment[name] = assignment.get(name, 0) + data.draw(shift)
        for name in data.draw(st.lists(st.sampled_from(model.names), max_size=8)):
            assignment.pop(name, None)
        got, want = evaluate_model(model, assignment), evaluate_model_loop(model, assignment)
        assert got == want
        assert repr(got.objective) == repr(want.objective)

    # random rows of every relation, some empty, over float values
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_evaluate_model_equals_the_object_walk_on_random_rows(self, data):
        names = [f"v{i}" for i in range(data.draw(st.integers(1, 6)))]
        kinds = data.draw(st.lists(st.sampled_from(["binary", "general"]),
                                   min_size=len(names), max_size=len(names)))
        variables = [Variable(name, kind, *((0, 1) if kind == "binary" else (-2, 3)))
                     for name, kind in zip(names, kinds)]
        term = st.tuples(st.integers(-5, 5), st.sampled_from(names))
        rows = data.draw(st.lists(st.tuples(st.lists(term, max_size=7),
                                            st.sampled_from(["=", "<=", ">="]),
                                            st.integers(-3, 3)), max_size=8))
        lists = IpModelLists(
            linear_objective=data.draw(st.lists(term, max_size=5)),
            quadratic_objective=data.draw(st.lists(term, max_size=5)),
            variables=variables,
            constraints=[Constraint(f"c{r}", tuple(terms), relation, rhs)
                         for r, (terms, relation, rhs) in enumerate(rows)],
        )
        value = st.floats(-4, 4) | st.integers(-3, 3) | st.sampled_from([0.1, 0.2, 1 / 3])
        assignment = {name: data.draw(value)
                      for name in data.draw(st.lists(st.sampled_from(names), unique=True))}
        got = evaluate_model(model_of(lists), assignment)
        want = evaluate_model_loop(lists, assignment)
        assert got == want
        assert repr(got.objective) == repr(want.objective)

    # rows of tokens up to 90 characters (longer than a line) after heads that may be empty,
    # each row given to _wrap in two parts that the open line carries across
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["", " c:", " " + "h" * 80]),
                              st.lists(st.integers(1, 90), max_size=12), st.integers(0, 12)),
                    min_size=1, max_size=6))
    def test_wrapped_rows_equal_the_per_token_wrap(self, rows):
        want, got = [], []
        for head, widths, cut in rows:
            tokens = ["t" * width for width in widths]
            _wrap(head, tokens, want)
            line = ipmodel_mod._wrap(head, tokens[:cut], got)
            got.append(ipmodel_mod._wrap(line, tokens[cut:], got))
        assert got == want

    # SHA-256 of the LP and MPS text of the model built from lists of objects
    @pytest.mark.parametrize("kw, lp_sha, mps_sha", [
        (dict(s=7, k=8, lam=1, p=1),
         "e2bd5be5ab1c2b904903d31c84d082eee846e024c5e58ee0aa86fe73cc93038d",
         "33e3e0aba9072090ea29c6f90cd09094be25bba0f26caa87da661d601ab79769"),
        (dict(s=6, k=7, lam=1, p=2, symmetry="both", m_bar=3),
         "050b72e1c57d0cef70731349a7a8abf1f72110ddacce4e3b5235814605ed706d",
         "ae2af62fc36e797640aa02597c10ef76e9e79f510d4ef20b630111cc51bde548"),
    ], ids=["7-8-1-p1", "6-7-1-p2-both3"])
    def test_benchmark_model_text_is_pinned(self, kw, lp_sha, mps_sha):
        inst = IpInstance(**kw)
        model = build_model(inst)
        if inst.symmetry is not None:
            model = add_symmetry(model, inst)
        text = emit_lp(model)
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == lp_sha
        assert hashlib.sha256(emit_mps(model).encode("ascii")).hexdigest() == mps_sha
        assert parse_lp(text).constraints == model.constraints

    def test_views_are_built_on_every_read(self):
        model = build_model(IpInstance(s=2, k=4, p=2))
        assert model.constraints is not model.constraints
        before = len(model.constraints)
        add_symmetry(model, IpInstance(s=2, k=4, p=2, symmetry="klein"))
        assert len(list(model.constraints)) > before

    def test_build_emit_and_ties_do_not_validate(self, monkeypatch):
        def refuse(model):
            raise AssertionError("validate called")

        monkeypatch.setattr(IpModel, "validate", refuse)
        inst = IpInstance(s=3, k=5, symmetry="both", m_bar=2)
        model = add_symmetry(build_model(inst), inst)
        emit_lp(model), emit_mps(model)

    def test_model_from_lists_equals_the_built_model(self):
        for p in (1, 2):
            built = build_model(IpInstance(s=3, k=4, p=p))
            again = model_of(IpModelLists(built.linear_objective, built.quadratic_objective,
                                          built.variables, built.constraints))
            assert again == built
            assert again != build_model(IpInstance(s=3, k=4, p=p, epsilon=2))

    def test_ties_need_the_model_of_their_instance(self):
        with pytest.raises(ValueError, match="not built for this instance"):
            add_symmetry(build_model(IpInstance(s=3, k=4)), IpInstance(s=3, k=5, symmetry="klein"))

    # model_of maps an undeclared name to index -1, which validate reports
    @pytest.mark.parametrize("variables, terms, message", [
        ([Variable("x", "binary"), Variable("x", "binary")], [], "duplicate variable names"),
        ([Variable("x y", "binary")], [], "variable names must be word-shaped"),
        ([Variable("x", "binary")], [(1, "w")], "undeclared variables referenced: [-1]"),
    ])
    def test_model_from_lists_validates(self, variables, terms, message):
        rows = [Constraint("c", tuple(terms), "=", 1)]
        with pytest.raises(ValueError, match=re.escape(message)):
            model_of(IpModelLists(variables=variables, constraints=rows))

    def test_validate_checks_index_ranges(self):
        model = build_model(IpInstance(s=2, k=3))
        model.validate()
        model.cols = model.cols.copy()
        model.cols[0] = len(model.names)
        with pytest.raises(ValueError, match=re.escape(f"undeclared variables referenced: [{len(model.names)}]")):
            model.validate()


class TestPieces:
    """LP and MPS text made in pieces, and LP rows read in blocks, at any piece size."""

    @staticmethod
    @contextlib.contextmanager
    def _piece_size(terms):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ipmodel_mod, "_CHUNK_BYTES", terms * ipmodel_mod._TERM_BYTES)
            yield

    @pytest.mark.parametrize("terms", [1, 2, 7])
    @settings(max_examples=25, deadline=None)
    @given(small_instances())
    def test_pieces_equal_the_list_model(self, terms, inst):
        new, old = TestArrayModel._both(inst)
        lp, mps = emit_lp_loop(old), emit_mps_loop(old)
        with self._piece_size(terms):
            assert "".join(ipmodel_mod._lp_pieces(new)) == lp
            assert "".join(ipmodel_mod._mps_pieces(new)) == mps
            parsed = parse_lp(lp)
            assert len(ipmodel_mod._split_sections(lp)[1]) > 1
        assert TestArrayModel._fields(parsed) == TestArrayModel._fields(parse_lp_loop(lp))
        assert parsed == new

    # each case after twelve good rows, so that small blocks put it in a later block
    @pytest.mark.parametrize("rows, message", [
        (" c1: x = 1\n c2: x = y = 1", "constraint 'c2' does not end with"),
        (" c1: x = 1 + y", "constraint 'c1' does not end with"),
        (" c1: x = y", "constraint 'c1' does not end with"),
        (" c1: x +\n y", "constraint 'c1' does not end with"),
        (" c1: x = 1\n c2: x + y =", "constraint 'c2' does not end with"),
        (" c1: x + w = 1", "undeclared variables referenced: ['w']"),
        (" c1: x >= 99999999999999999999",
         "constraint 'c1' right-hand side 99999999999999999999 does not fit int64"),
        (" c1: y + 99999999999999999999 x >= 0",
         "constraint 'c1' coefficient 99999999999999999999 does not fit int64"),
        (" c1: x >= 1\n r3: x <= 1", "constraint 'r3' is repeated"),
    ])
    def test_errors_in_a_later_block_keep_their_message(self, rows, message):
        good = "".join(f" r{i}: x - 2 y >= {-i}\n" for i in range(12))
        text = TestLpFormat._lp(rows=good + rows)
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_lp(text)
        for terms in (1, 2, 7):
            with self._piece_size(terms):
                assert len(ipmodel_mod._split_sections(text)[1]) > 2
                with pytest.raises(ValueError, match=re.escape(message)):
                    parse_lp(text)

    @pytest.fixture(scope="class")
    def model(self):
        inst = IpInstance(s=6, k=7, lam=1, p=2, symmetry="both", m_bar=3)
        return add_symmetry(build_model(inst), inst)

    @staticmethod
    def _traced(call):
        tracemalloc.start()
        try:
            result = call()
            return result, *tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    def test_parse_peak_is_a_small_multiple_of_the_model(self, model):
        text = emit_lp(model)
        parsed, size, peak = self._traced(lambda: parse_lp(text))
        assert parsed == model
        assert peak <= 3 * size

    @pytest.mark.parametrize("pieces", ["_lp_pieces", "_mps_pieces"])
    def test_pieces_stay_within_a_piece_and_the_model_arrays(self, model, pieces):
        arrays = sum(v.nbytes for v in vars(model).values() if isinstance(v, np.ndarray))
        _, _, peak = self._traced(lambda: all(map(str, getattr(ipmodel_mod, pieces)(model))))
        assert peak <= ipmodel_mod._CHUNK_BYTES + 2 * arrays

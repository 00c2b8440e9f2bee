import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aoakit.arrays import Array, tolerance, unbalance
from aoakit.symmetry import (
    GroupElement,
    SymmetricEncoding,
    act,
    bicyclic_generator,
    compress,
    cycle_permutation,
    equivalent,
    expand,
    format_generator,
    format_permutation,
    identity_element,
    is_automorphism,
    klein_generator,
    parse_generator,
    parse_permutation,
    semicyclic_generator,
)

from conftest import random_array
from oracles import _orbit, compress_loop, expand_loop, expanded_runs_loop, orbit_size_loop


# Worked 6-run bicyclic example: two orbits under (1,2,3)|(1,2,3).
BICYCLIC_FULL = [
    [1, 1, 2, 3, 2],
    [3, 2, 2, 1, 3],
    [3, 1, 3, 2, 1],
    [1, 3, 2, 1, 1],
    [3, 2, 1, 2, 2],
    [2, 1, 3, 3, 3],
]
BICYCLIC_CORE = [(1, 1, 2, 3, 2), (1, 3, 2, 1, 1)]

# Worked 5-run quasi-cyclic example: one fixed row plus two orbits of (2,3)|id.
QUASI_FULL = [
    [1, 1, 1, 1, 1],
    [1, 1, 2, 3, 2],
    [1, 1, 3, 2, 3],
    [1, 3, 2, 1, 1],
    [1, 2, 3, 1, 1],
]

# Worked 8-run array that is both Klein (id|(1,2)(3,4)) and quasi-cyclic.
KLEIN_FULL = [
    [1, 1, 2, 3, 2],
    [1, 1, 3, 2, 2],
    [1, 1, 3, 2, 3],
    [1, 1, 2, 3, 3],
    [1, 3, 2, 1, 1],
    [3, 1, 1, 2, 1],
    [1, 2, 3, 1, 1],
    [2, 1, 1, 3, 1],
]


def perms(n: int):
    return st.permutations(range(1, n + 1)).map(tuple)


@st.composite
def group_elements(draw, s, k):
    return GroupElement(draw(perms(s)), draw(perms(k)))


class TestGroupElement:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_group_laws(self, data):
        s, k = 4, 5
        g = data.draw(group_elements(s, k))
        h = data.draw(group_elements(s, k))
        e = identity_element(s, k)
        assert g.compose(g.inverse()) == e
        assert g.inverse().compose(g) == e
        assert g.compose(e) == g and e.compose(g) == g
        assert g.power(0) == e
        assert g.power(3) == g.compose(g).compose(g)
        assert g.power(-1) == g.inverse()

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_action_is_functorial(self, data):
        s, k = 3, 4
        g = data.draw(group_elements(s, k))
        h = data.draw(group_elements(s, k))
        cells = data.draw(
            st.lists(
                st.lists(st.integers(1, s), min_size=k, max_size=k),
                min_size=6,
                max_size=6,
            )
        )
        a = Array(np.array(cells), s)
        assert act(g.compose(h), a) == act(g, act(h, a))
        assert act(identity_element(s, k), a) == a

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            GroupElement((1, 2, 2), (1, 2))
        with pytest.raises(ValueError):
            GroupElement((1, 3), (1, 2))


class TestMetricInvariance:
    def test_unbalance_and_tolerance_preserved(self, rng):
        for _ in range(60):
            a = random_array(rng, n_factors=int(rng.integers(2, 6)))
            s, k = a.n_levels, a.n_factors
            g = GroupElement(
                tuple(rng.permutation(np.arange(1, s + 1)).tolist()),
                tuple(rng.permutation(np.arange(1, k + 1)).tolist()),
            )
            b = act(g, a)
            for t in (1, 2):
                assert unbalance(b, t, 1) == unbalance(a, t, 1)
                assert unbalance(b, t, 2) == unbalance(a, t, 2)
                assert tolerance(b, t) == tolerance(a, t)


class TestPermutationText:
    def test_cycle_permutation(self):
        assert cycle_permutation(4, (1, 2, 3)) == (2, 3, 1, 4)
        assert cycle_permutation(4, (1, 2), (3, 4)) == (2, 1, 4, 3)
        with pytest.raises(ValueError):
            cycle_permutation(4, (1, 2), (2, 3))
        with pytest.raises(ValueError):
            cycle_permutation(3, (1, 4))

    def test_parse_and_format(self):
        assert parse_permutation("(1,2,3)", 4) == (2, 3, 1, 4)
        assert parse_permutation("id", 3) == (1, 2, 3)
        assert parse_permutation("()", 3) == (1, 2, 3)
        assert format_permutation((2, 3, 1, 4)) == "(1,2,3)"
        assert format_permutation((1, 2, 3)) == "id"
        with pytest.raises(ValueError):
            parse_permutation("(1;2)", 3)

    @settings(max_examples=50, deadline=None)
    @given(perms(6))
    def test_roundtrip(self, perm):
        assert parse_permutation(format_permutation(perm), 6) == perm

    def test_generator_text(self):
        g = parse_generator("(1,2,3)|(1,2,3)", 3, 5)
        assert g == bicyclic_generator(3, 5, 3)
        assert format_generator(g) == "(1,2,3)|(1,2,3)"
        assert parse_generator("(2,3)|id", 3, 5) == semicyclic_generator(3, 5, 2)
        with pytest.raises(ValueError):
            parse_generator("(1,2,3)", 3, 5)


class TestGenerators:
    def test_bicyclic_default_r(self):
        # Largest divisor of s not exceeding k.
        assert bicyclic_generator(9, 5).col_perm == cycle_permutation(5, (1, 2, 3))
        assert bicyclic_generator(4, 5).col_perm == cycle_permutation(
            5, (1, 2, 3, 4)
        )
        assert bicyclic_generator(6, 4).col_perm == cycle_permutation(4, (1, 2, 3))
        with pytest.raises(ValueError):
            bicyclic_generator(4, 5, r=3)

    def test_semicyclic_bounds(self):
        g = semicyclic_generator(5, 4, a=3)
        assert g.level_perm == (1, 2, 4, 5, 3)
        assert g.col_perm == (1, 2, 3, 4)
        with pytest.raises(ValueError):
            semicyclic_generator(3, 4, a=1)
        with pytest.raises(ValueError):
            semicyclic_generator(3, 4, a=3)

    def test_klein_needs_four_columns(self):
        g = klein_generator(3, 5)
        assert g.level_perm == (1, 2, 3)
        assert g.col_perm == (2, 1, 4, 3, 5)
        with pytest.raises(ValueError):
            klein_generator(3, 3)


class TestWorkedExamples:
    def test_bicyclic_expansion_matches_published_layout(self):
        enc = SymmetricEncoding(
            kind="bicyclic",
            n_levels=3,
            n_factors=5,
            generator=bicyclic_generator(3, 5, 3),
            core=tuple(BICYCLIC_CORE),
            param=3,
        )
        assert enc.orbit_size == 3
        assert enc.expanded_runs == 6
        a = expand(enc)
        assert np.array_equal(a.cells, np.array(BICYCLIC_FULL))
        assert is_automorphism(enc.generator, a)

    def test_bicyclic_roundtrip(self):
        a = Array(np.array(BICYCLIC_FULL), 3)
        enc = compress(a, "bicyclic", 3)
        assert enc.core == tuple(sorted(BICYCLIC_CORE))
        assert not enc.fixed_rows
        back = expand(enc)
        assert equivalent(back, a)
        assert np.array_equal(back.cells, a.cells)

    def test_quasicyclic_roundtrip(self):
        a = Array(np.array(QUASI_FULL), 3)
        enc = compress(a, "semicyclic", 2)
        assert enc.fixed_rows == ((1, 1, 1, 1, 1),)
        assert len(enc.core) == 2
        assert enc.orbit_size == 2
        back = expand(enc)
        assert equivalent(back, a)

    def test_klein_roundtrip(self):
        a = Array(np.array(KLEIN_FULL), 3)
        g = klein_generator(3, 5)
        assert is_automorphism(g, a)
        # The same array is also quasi-cyclic.
        assert is_automorphism(semicyclic_generator(3, 5, 2), a)
        enc = compress(a, "klein")
        assert len(enc.core) == 4
        assert equivalent(expand(enc), a)


class TestEncodingValidation:
    def test_core_row_shape(self):
        with pytest.raises(ValueError):
            SymmetricEncoding(
                kind="bicyclic",
                n_levels=3,
                n_factors=5,
                generator=bicyclic_generator(3, 5, 3),
                core=((1, 2, 3),),
                param=3,
            )

    def test_bicyclic_rejects_fixed_rows(self):
        with pytest.raises(ValueError):
            SymmetricEncoding(
                kind="bicyclic",
                n_levels=3,
                n_factors=5,
                generator=bicyclic_generator(3, 5, 3),
                core=((1, 1, 2, 3, 2),),
                fixed_rows=((1, 1, 1, 1, 1),),
                param=3,
            )

    @pytest.mark.parametrize("s, k, r, row", [(2, 2, 2, (1, 2)), (4, 4, 4, (1, 1, 3, 3))])
    def test_bicyclic_rejects_core_rows_with_a_short_orbit(self, s, k, r, row):
        # g^t fixes the row for some 0 < t < s, so its expansion repeats rows
        # that compress cannot take back
        good = (1,) * k
        with pytest.raises(ValueError, match=re.escape(f"orbit of core row {row} has fewer than {s}")):
            SymmetricEncoding(
                kind="bicyclic",
                n_levels=s,
                n_factors=k,
                generator=bicyclic_generator(s, k, r),
                core=(good, row),
                param=r,
            )

    def test_semicyclic_row_partition_rules(self):
        g = semicyclic_generator(3, 5, 2)
        # A fixed row may not touch the cycled levels.
        with pytest.raises(ValueError):
            SymmetricEncoding(
                kind="semicyclic",
                n_levels=3,
                n_factors=5,
                generator=g,
                core=((1, 1, 2, 3, 2),),
                fixed_rows=((1, 2, 1, 1, 1),),
                param=2,
            )
        # A core row entirely below the cycled range belongs in fixed_rows.
        with pytest.raises(ValueError):
            SymmetricEncoding(
                kind="semicyclic",
                n_levels=3,
                n_factors=5,
                generator=g,
                core=((1, 1, 1, 1, 1),),
                param=2,
            )

    def test_generator_must_match_kind(self):
        with pytest.raises(ValueError):
            SymmetricEncoding(
                kind="bicyclic",
                n_levels=3,
                n_factors=5,
                generator=semicyclic_generator(3, 5, 2),
                core=((1, 1, 2, 3, 2),),
                param=3,
            )

    def test_at_least_one_row(self):
        with pytest.raises(ValueError):
            SymmetricEncoding(
                kind="klein",
                n_levels=3,
                n_factors=4,
                generator=klein_generator(3, 4),
                core=(),
            )


class TestCompressErrors:
    def test_not_an_automorphism(self, rng):
        a = random_array(rng, n_runs=6, n_factors=5, n_levels=3)
        while is_automorphism(bicyclic_generator(3, 5, 3), a):
            a = random_array(rng, n_runs=6, n_factors=5, n_levels=3)
        with pytest.raises(ValueError, match="not an automorphism"):
            compress(a, "bicyclic", 3)

    def test_unknown_kind(self, t0):
        with pytest.raises(ValueError, match="unknown encoding kind"):
            compress(t0, "mirror")


class TestRandomRoundtrips:
    @pytest.mark.parametrize("kind,s,k,param", [
        ("bicyclic", 3, 5, 3),
        ("bicyclic", 4, 6, 4),
        ("semicyclic", 3, 4, 2),
        ("semicyclic", 5, 4, 3),
        ("klein", 2, 4, None),
        ("klein", 3, 6, None),
    ])
    def test_expand_then_compress_recovers_encoding(self, kind, s, k, param, rng):
        for _ in range(10):
            if kind == "bicyclic":
                gen = bicyclic_generator(s, k, param)
            elif kind == "semicyclic":
                gen = semicyclic_generator(s, k, param)
            else:
                gen = klein_generator(s, k)
            n_core = int(rng.integers(1, 4))
            core = tuple(
                tuple(int(v) for v in rng.integers(1, s + 1, size=k))
                for _ in range(n_core)
            )
            if kind == "semicyclic":
                core = tuple(
                    r if max(r) >= param else (r[:-1] + (s,)) for r in core
                )
            try:
                enc = SymmetricEncoding(
                    kind=kind,
                    n_levels=s,
                    n_factors=k,
                    generator=gen,
                    core=core,
                    param=param,
                )
            except ValueError:
                continue
            full = expand(enc)
            assert full.n_runs == enc.expanded_runs
            assert is_automorphism(gen, full)
            back = compress(full, kind, param)
            assert equivalent(expand(back), full)


class TestDefaultBicyclicR:
    @pytest.mark.parametrize("s, k, r", [(3, 5, 3), (4, 3, 2), (6, 4, 3), (9, 5, 3), (5, 2, 1)])
    def test_every_site_uses_the_largest_divisor(self, s, k, r):
        from aoakit.search import _Encoder
        from aoakit.symmetry import _default_bicyclic_r, _powers

        assert _default_bicyclic_r(s, k) == r
        assert bicyclic_generator(s, k) == bicyclic_generator(s, k, r)
        enc = _Encoder("bicyclic", s * s, k, s, None)
        for got, want in zip(enc.powers, _powers(bicyclic_generator(s, k, r))):
            assert np.array_equal(got, want)
        a = enc.to_array(enc.random_cells(np.random.default_rng(s * k)))
        assert compress(a, "bicyclic").param == r


@st.composite
def encodings(draw):
    """Random bicyclic (every valid r), semicyclic and Klein encodings.

    Klein cores include rows that the swap (1,2)(3,4) fixes; semicyclic
    encodings may have fixed rows and an empty core.  Bicyclic core rows that
    a power of the generator fixes are dropped, because the encoding rejects
    them.
    """
    kind = draw(st.sampled_from(["bicyclic", "semicyclic", "klein"]))
    if kind == "bicyclic":
        s, k = draw(st.integers(2, 6)), draw(st.integers(1, 6))
        param = draw(st.sampled_from([r for r in range(1, s + 1) if s % r == 0 and r <= k]))
        gen = bicyclic_generator(s, k, param)
    elif kind == "semicyclic":
        s, k = draw(st.integers(3, 6)), draw(st.integers(1, 5))
        param = draw(st.integers(2, s - 1))
        gen = semicyclic_generator(s, k, param)
    else:
        s, k, param = draw(st.integers(2, 4)), draw(st.integers(4, 6)), None
        gen = klein_generator(s, k)
    row = st.lists(st.integers(1, s), min_size=k, max_size=k).map(tuple)
    core = draw(st.lists(row, max_size=4))
    fixed = []
    if kind == "klein":
        swap_fixed = draw(st.lists(st.booleans(), min_size=len(core), max_size=len(core)))
        core = [(r[0], r[0], r[2], r[2]) + r[4:] if f else r for r, f in zip(core, swap_fixed)]
    if kind == "bicyclic":
        core = [r for r in core if len(set(_orbit(gen, r, s))) == s]
    if kind == "semicyclic":
        core = [r if max(r) >= param else r[:-1] + (s,) for r in core]
        low = st.lists(st.integers(1, param - 1), min_size=k, max_size=k).map(tuple)
        fixed = draw(st.lists(low, max_size=3))
    assume(core or fixed)
    return SymmetricEncoding(
        kind=kind,
        n_levels=s,
        n_factors=k,
        generator=gen,
        core=tuple(core),
        fixed_rows=tuple(fixed),
        param=param,
    )


class TestShortOrbits:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equal_to_the_count_of_distinct_orbit_rows(self, data):
        from aoakit.symmetry import _powers, _short_orbits

        kind = data.draw(st.sampled_from(["bicyclic", "semicyclic", "klein"]))
        s, k = data.draw(st.integers(2, 6)), data.draw(st.integers(1, 6))
        if kind == "bicyclic":
            r = data.draw(st.sampled_from([r for r in range(1, s + 1) if s % r == 0 and r <= k]))
            gen, size = bicyclic_generator(s, k, r), s
        elif kind == "semicyclic":
            s = max(s, 3)
            a = data.draw(st.integers(2, s - 1))
            gen, size = semicyclic_generator(s, k, a), s - a + 1
        else:
            k = max(k, 4)
            gen, size = klein_generator(s, k), 2
        row = st.lists(st.integers(1, s), min_size=k, max_size=k).map(tuple)
        rows = data.draw(st.lists(row, max_size=8))
        got = _short_orbits(_powers(gen), np.array(rows, dtype=np.int64).reshape(-1, k))
        assert got.dtype == bool
        assert got.tolist() == [len(set(_orbit(gen, r, size))) < size for r in rows]


class TestOrbitGather:
    """expand, compress and the orbit counts equal the per-row loops they replaced."""

    @staticmethod
    def _assert_same_compress(a, kind, param):
        try:
            want = compress_loop(a, kind, param)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                compress(a, kind, param)
            return
        got = compress(a, kind, param)
        assert got == want
        assert np.array_equal(expand(got).cells, expand_loop(want).cells)

    @settings(max_examples=300, deadline=None)
    @given(encodings(), st.randoms(use_true_random=False))
    def test_equal_to_per_row_loop(self, e, random):
        full = expand(e)
        assert np.array_equal(full.cells, expand_loop(e).cells)
        assert full.cells.dtype == np.int64
        assert e.orbit_size == orbit_size_loop(e)
        assert e.expanded_runs == expanded_runs_loop(e) == full.n_runs
        rows = full.cells.tolist()
        random.shuffle(rows)
        for cells in (full.cells, np.array(rows)):
            self._assert_same_compress(Array(cells, e.n_levels), e.kind, e.param)

    @settings(max_examples=100, deadline=None)
    @given(encodings(), st.integers(0, 2**32 - 1))
    def test_compress_rejects_like_per_row_loop(self, e, seed):
        # one changed cell: most such arrays are no longer automorphic or
        # no longer split into full orbits
        cells = expand(e).cells.copy()
        rng = np.random.default_rng(seed)
        i, j = rng.integers(cells.shape[0]), rng.integers(cells.shape[1])
        cells[i, j] = cells[i, j] % e.n_levels + 1
        self._assert_same_compress(Array(cells, e.n_levels), e.kind, e.param)

    def test_powers_of_the_generators(self):
        from aoakit.symmetry import _powers

        levels, sources = _powers(bicyclic_generator(3, 4, 3))
        assert levels.tolist() == [[0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
        assert sources.tolist() == [[0, 1, 2, 3], [2, 0, 1, 3], [1, 2, 0, 3]]
        levels, sources = _powers(klein_generator(2, 5))
        assert levels.tolist() == [[0, 1, 2], [0, 1, 2]]
        assert sources.tolist() == [[0, 1, 2, 3, 4], [1, 0, 3, 2, 4]]
        assert len(_powers(identity_element(4, 3))[0]) == 1

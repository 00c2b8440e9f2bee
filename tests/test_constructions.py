import numpy as np
import pytest

from aoakit import arrays as arrays_mod
from aoakit import constructions as constructions_mod
from aoakit.arrays import Array, _count_histogram, lower_bound_unb22, tolerance, unbalance
from aoakit.constructions import (
    ConstructionSpec,
    ak_ext_even,
    ak_ext_odd,
    ak_half,
    construct,
    gamma_set,
    verify_construction,
)
from aoakit.galois import make_field

from oracles import (
    ak_ext_even_loop,
    ak_ext_odd_loop,
    ak_half_loop,
    gamma_set_product,
    row_coordinates_product,
    tolerance_table,
    unbalance_table,
)


# (s, k, unb2, tol) for the one-quadratic-column family over s^2 runs.
HALF_GOLDENS = [
    (3, 5, 18, 1),
    (4, 6, 48, 1),
    (5, 7, 100, 1),
    (7, 9, 294, 1),
    (8, 10, 448, 1),
    (9, 11, 648, 1),
]

# (s, k, unb1, unb2, tol) for the doubled two-block family over 2*s^2 runs.
EXT_GOLDENS = [
    (3, 8, 12, 18, 2),
    (4, 10, 32, 64, 2),
    (5, 12, 60, 150, 3),
    (7, 16, 140, 490, 5),
    (8, 18, 192, 768, 6),
    (9, 20, 252, 1134, 7),
]


def ext_variant(s: int) -> str:
    return "odd_ext" if s % 2 else "even_ext"


class TestGammaSet:
    @pytest.mark.parametrize("s", [2, 3, 4, 5])
    @pytest.mark.parametrize("ell", [2, 3])
    def test_size_and_normalization(self, s, ell):
        g = gamma_set(make_field(s), ell)
        assert len(g) == (s ** (ell - 1) - 1) // (s - 1)
        seen = set()
        for vec in g.vectors:
            assert len(vec) == ell - 1
            first_nonzero = next(v for v in vec if v)
            assert first_nonzero == 1
            seen.add(vec)
        assert len(seen) == len(g)


    @pytest.mark.parametrize("s", [2, 3, 4, 5, 7, 8, 9])
    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_grids_equal_the_product_loops(self, s, ell):
        f = make_field(s)
        assert gamma_set(f, ell) == gamma_set_product(f, ell)
        got_want = zip(constructions_mod._row_coordinates(f, ell), row_coordinates_product(f, ell))
        for got, want in got_want:
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestSpecValidation:
    def test_variant_names(self):
        with pytest.raises(ValueError, match="unknown variant"):
            ConstructionSpec(s=3, ell=2, kappa=1, variant="quadratic")

    def test_prime_power_required(self):
        with pytest.raises(ValueError, match="6 is not a prime power"):
            ConstructionSpec(s=6, ell=2, kappa=1, variant="half")

    def test_kappa_limits(self):
        ConstructionSpec(s=3, ell=2, kappa=3, variant="half")
        with pytest.raises(ValueError):
            ConstructionSpec(s=3, ell=2, kappa=4, variant="half")
        ConstructionSpec(s=5, ell=2, kappa=4, variant="odd_ext")
        with pytest.raises(ValueError):
            ConstructionSpec(s=5, ell=2, kappa=5, variant="odd_ext")

    def test_parity_must_match_variant(self):
        with pytest.raises(ValueError):
            ConstructionSpec(s=4, ell=2, kappa=1, variant="odd_ext")
        with pytest.raises(ValueError):
            ConstructionSpec(s=5, ell=2, kappa=1, variant="even_ext")
        with pytest.raises(ValueError):
            ConstructionSpec(s=2, ell=2, kappa=1, variant="even_ext")

    def test_ell_lower_limit(self):
        with pytest.raises(ValueError):
            ConstructionSpec(s=3, ell=1, kappa=1, variant="half")

    def test_shape_properties(self):
        spec = ConstructionSpec(s=3, ell=3, kappa=2, variant="odd_ext")
        assert spec.n_runs == 2 * 27
        assert spec.n_factors == 2 * 13 - 1 + 2

    def test_oversized_array_is_refused_before_the_field_is_built(self, monkeypatch):
        def refuse(s):
            raise AssertionError("field built")

        monkeypatch.setattr(constructions_mod, "make_field", refuse)
        with pytest.raises(ValueError, match="N\\*k = 1091043328 cells"):
            ConstructionSpec(s=64, ell=3, kappa=1, variant="half")  # 262144 x 4162

    @pytest.mark.parametrize(
        "s, ell, message",
        [
            (10**18 + 3, 2, "array too large: N\\*k"),  # a prime; trial division takes minutes
            (6**12, 2, "array too large: N\\*k"),
            (3, 10**7, "array too large: ell = 10000000"),
            (3, 27, "array too large: ell = 27"),
        ],
    )
    def test_sizes_are_refused_before_the_prime_power_check(self, monkeypatch, s, ell, message):
        def refuse(s):
            raise AssertionError("trial division")

        monkeypatch.setattr(constructions_mod, "is_prime_power", refuse)
        with pytest.raises(ValueError, match=message):
            ConstructionSpec(s=s, ell=ell, kappa=1, variant="half")

    def test_dispatch_guards(self):
        half = ConstructionSpec(s=3, ell=2, kappa=1, variant="half")
        with pytest.raises(ValueError):
            ak_ext_odd(half)
        with pytest.raises(ValueError):
            ak_ext_even(half)
        odd = ConstructionSpec(s=3, ell=2, kappa=1, variant="odd_ext")
        with pytest.raises(ValueError):
            ak_half(odd)


class TestHalfGoldens:
    @pytest.mark.parametrize("s,k,unb2,tol", HALF_GOLDENS)
    def test_values_exact(self, s, k, unb2, tol):
        spec = ConstructionSpec(s=s, ell=2, kappa=1, variant="half")
        a = construct(spec)
        assert (a.n_runs, a.n_factors) == (s * s, k)
        assert unbalance(a, 2, 2) == unb2
        assert unbalance(a, 2, 1) == unb2  # ell = 2 makes all powers agree
        assert tolerance(a, 2) == tol

    @pytest.mark.parametrize("s,k,unb2,tol", HALF_GOLDENS)
    def test_full_verification(self, s, k, unb2, tol):
        spec = ConstructionSpec(s=s, ell=2, kappa=1, variant="half")
        report = verify_construction(construct(spec), spec)
        assert report.ok
        assert set(report.items) == {"0", "1a", "1b", "2", "3"}


class TestExtGoldens:
    @pytest.mark.parametrize("s,k,unb1,unb2,tol", EXT_GOLDENS)
    def test_values_exact(self, s, k, unb1, unb2, tol):
        spec = ConstructionSpec(s=s, ell=2, kappa=1, variant=ext_variant(s))
        a = construct(spec)
        assert (a.n_runs, a.n_factors) == (2 * s * s, k)
        assert unbalance(a, 2, 1) == unb1
        assert unbalance(a, 2, 2) == unb2
        assert tolerance(a, 2) == tol

    @pytest.mark.parametrize("s,k,unb1,unb2,tol", EXT_GOLDENS[:4])
    def test_full_verification(self, s, k, unb1, unb2, tol):
        spec = ConstructionSpec(s=s, ell=2, kappa=1, variant=ext_variant(s))
        report = verify_construction(construct(spec), spec)
        assert report.ok


class TestLargerParameters:
    def test_half_depth_three(self):
        spec = ConstructionSpec(s=2, ell=3, kappa=1, variant="half")
        a = construct(spec)
        assert (a.n_runs, a.n_factors) == (8, 8)
        report = verify_construction(a, spec)
        assert report.ok
        assert tolerance(a, 2) == 2
        assert unbalance(a, 2, 2) == 16

    def test_half_many_quadratics(self):
        spec = ConstructionSpec(s=3, ell=2, kappa=3, variant="half")
        report = verify_construction(construct(spec), spec)
        assert report.ok

    def test_ext_depth_three(self):
        spec = ConstructionSpec(s=3, ell=3, kappa=1, variant="odd_ext")
        a = construct(spec)
        assert (a.n_runs, a.n_factors) == (54, 26)
        report = verify_construction(a, spec)
        assert report.ok

    def test_ext_kappa_two_reports_every_choice(self):
        spec = ConstructionSpec(s=5, ell=2, kappa=2, variant="odd_ext")
        report = verify_construction(construct(spec), spec)
        assert report.ok
        # Removing each of the kappa trailing columns is covered separately.
        assert len(report.trailing_block) == 2
        assert all(ok for _, ok in report.trailing_block)

    def test_even_ext_kappa_two(self):
        spec = ConstructionSpec(s=4, ell=2, kappa=2, variant="even_ext")
        report = verify_construction(construct(spec), spec)
        assert report.ok


class TestLowerBoundAttainment:
    @pytest.mark.parametrize("s", [2, 3, 4, 5, 7, 8, 9])
    def test_half_attains_single_block_bound(self, s):
        for kappa in range(1, s + 1):
            spec = ConstructionSpec(s=s, ell=2, kappa=kappa, variant="half")
            a = construct(spec)
            bound = lower_bound_unb22(a.n_runs, a.n_factors, s)
            assert unbalance(a, 2, 2) == bound

    @pytest.mark.parametrize("s", [3, 4, 5, 7, 8, 9])
    def test_ext_attains_double_block_bound(self, s):
        spec = ConstructionSpec(s=s, ell=2, kappa=1, variant=ext_variant(s))
        a = construct(spec)
        assert a.n_factors == 2 * s + 2
        bound = lower_bound_unb22(a.n_runs, a.n_factors, s)
        assert bound == 2 * s * s * (s - 2)
        assert unbalance(a, 2, 2) == bound


class TestDeterminism:
    def test_construct_is_reproducible(self):
        spec = ConstructionSpec(s=4, ell=2, kappa=2, variant="even_ext")
        assert construct(spec) == construct(spec)

    def test_verify_rejects_wrong_shape(self):
        spec = ConstructionSpec(s=3, ell=2, kappa=1, variant="half")
        other = construct(ConstructionSpec(s=3, ell=2, kappa=2, variant="half"))
        with pytest.raises(ValueError):
            verify_construction(other, spec)

    def test_verify_counts_each_strength_once(self, monkeypatch):
        # the strength-2 histogram comes from the table _balanced_pairs builds
        spec = ConstructionSpec(s=5, ell=3, kappa=2, variant="odd_ext")
        a = construct(spec)
        calls = []
        count_chunks = arrays_mod._count_chunks

        def counted(b, t):
            calls.append(t)
            return count_chunks(b, t)

        monkeypatch.setattr(arrays_mod, "_count_chunks", counted)
        report = verify_construction(a, spec)
        assert sorted(calls) == [1, 2]
        monkeypatch.undo()
        b = Array(a.cells, a.n_levels)
        _count_histogram(b, 2)  # the histogram counted on its own first
        assert verify_construction(b, spec) == report
        assert report.tol_measured == tolerance_table(a, 2)
        assert report.unb_measured == {p: unbalance_table(a, 2, p) for p in (1, 2, 3)}


class TestMatchesTheColumnLoops:
    # every valid spec with s <= 9 and ell <= 3: 384 arrays
    @pytest.mark.parametrize("s", [2, 3, 4, 5, 7, 8, 9])
    @pytest.mark.parametrize("ell", [2, 3])
    def test_arrays_equal_the_references(self, s, ell):
        variants = [("half", ak_half_loop, s * (s ** (ell - 1) - 1) // (s - 1))]
        if s > 2:
            variants.append((ext_variant(s), ak_ext_odd_loop if s % 2 else ak_ext_even_loop, s - 1))
        for variant, reference, kappa_max in variants:
            for kappa in range(1, kappa_max + 1):
                spec = ConstructionSpec(s=s, ell=ell, kappa=kappa, variant=variant)
                got, want = construct(spec), reference(spec)
                assert got.cells.dtype == want.cells.dtype, spec
                assert np.array_equal(got.cells, want.cells), spec

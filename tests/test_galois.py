import itertools
import tracemalloc

import numpy as np
import pytest

from aoakit import galois as galois_mod
from aoakit.galois import Field, is_prime_power, make_field

from oracles import field_tables_poly


ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27]


def _triples(field, limit=200):
    elems = list(field.elements)
    all_triples = list(itertools.product(elems, repeat=3))
    if len(all_triples) <= limit:
        return all_triples
    rng = np.random.default_rng(field.order)
    idx = rng.choice(len(all_triples), size=limit, replace=False)
    return [all_triples[i] for i in idx]


class TestIsPrimePower:
    def test_table(self):
        assert is_prime_power(2) == (2, 1)
        assert is_prime_power(9) == (3, 2)
        assert is_prime_power(32) == (2, 5)
        assert is_prime_power(27) == (3, 3)
        for bad in (0, 1, 6, 10, 12, 15, 100):
            assert is_prime_power(bad) is None


class TestFieldAxioms:
    @pytest.mark.parametrize("order", ORDERS)
    def test_ring_axioms(self, order):
        f = make_field(order)
        for a, b, c in _triples(f):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    @pytest.mark.parametrize("order", ORDERS)
    def test_identities_and_inverses(self, order):
        f = make_field(order)
        for a in f.elements:
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.mul(a, 0) == 0
            assert f.add(a, f.neg(a)) == 0
            assert f.sub(a, a) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1

    @pytest.mark.parametrize("order", [3, 4, 8, 9])
    def test_no_zero_divisors(self, order):
        f = make_field(order)
        for a in range(1, order):
            for b in range(1, order):
                assert f.mul(a, b) != 0

    @pytest.mark.parametrize("order", ORDERS)
    def test_pow(self, order):
        f = make_field(order)
        for a in f.elements:
            acc = 1
            for n in range(5):
                assert f.pow(a, n) == acc
                acc = f.mul(acc, a)
        # Little Fermat for the multiplicative group.
        for a in range(1, order):
            assert f.pow(a, order - 1) == 1

    def test_inv_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            make_field(5).inv(0)


class TestStructure:
    def test_prime_power_decomposition(self):
        f = make_field(8)
        assert (f.char, f.degree) == (2, 3)
        f = make_field(9)
        assert (f.char, f.degree) == (3, 2)

    def test_smallest_moduli(self):
        # Constant term first.
        assert make_field(4).modulus == (1, 1, 1)  # x^2 + x + 1
        assert make_field(8).modulus == (1, 1, 0, 1)  # x^3 + x + 1
        assert make_field(9).modulus == (1, 0, 1)  # x^2 + 1

    def test_from_int_matches_repeated_addition(self):
        for order in (4, 8, 9, 25):
            f = make_field(order)
            acc = 0
            for n in range(12):
                assert f.from_int(n) == acc
                acc = f.add(acc, 1)

    def test_prime_field_is_modular_arithmetic(self):
        f = make_field(7)
        for a in range(7):
            for b in range(7):
                assert f.add(a, b) == (a + b) % 7
                assert f.mul(a, b) == (a * b) % 7


class TestMapsAndSpecialElements:
    @pytest.mark.parametrize("order", [2, 3, 4, 5, 8, 9, 16, 27])
    def test_trace_additive_and_into_prime_field(self, order):
        f = make_field(order)
        for a in f.elements:
            assert 0 <= f.trace(a) < f.char
            for b in f.elements:
                assert f.trace(f.add(a, b)) == (f.trace(a) + f.trace(b)) % f.char

    @pytest.mark.parametrize("order", [4, 8, 9, 16, 27])
    def test_trace_surjective(self, order):
        f = make_field(order)
        assert {f.trace(a) for a in f.elements} == set(range(f.char))

    @pytest.mark.parametrize("order", [2, 4, 8, 16])
    def test_cotrace_image(self, order):
        assert make_field(order).cotrace_image_check()

    def test_cotrace_odd_char_raises(self):
        with pytest.raises(ValueError):
            make_field(3).cotrace_image_check()

    def test_find_nonsquare(self):
        assert make_field(3).find_nonsquare() == 2
        assert make_field(5).find_nonsquare() == 2
        for order in (3, 5, 7, 9, 25, 27):
            f = make_field(order)
            ns = f.find_nonsquare()
            squares = {f.mul(x, x) for x in f.elements}
            assert ns not in squares
            assert all(e in squares for e in range(ns))
        with pytest.raises(ValueError):
            make_field(4).find_nonsquare()

    def test_find_zeta(self):
        assert make_field(4).find_zeta() == 2
        assert make_field(8).find_zeta() == 3
        for order in (4, 8, 16, 32):
            f = make_field(order)
            z = f.find_zeta()
            assert f.pow(z, order // 2) != z
            assert f.trace(z) == 1
            # z^2 + z + zeta must be rootless: that is what the even-order
            # construction counts rely on.
            assert all(f.add(f.add(f.mul(x, x), x), z) != 0 for x in f.elements)
            # Minimality among elements with both properties.
            for e in range(z):
                assert f.pow(e, order // 2) == e or f.trace(e) != 1
        with pytest.raises(ValueError):
            make_field(2).find_zeta()
        with pytest.raises(ValueError):
            make_field(9).find_zeta()

    def test_level_bijection_roundtrip(self):
        f = make_field(9)
        to_level, from_level = f.level_bijection()
        for e in f.elements:
            assert from_level(to_level(e)) == e
        assert to_level(0) == 1
        with pytest.raises(ValueError):
            from_level(0)
        with pytest.raises(ValueError):
            from_level(10)


class TestVectorized:
    @pytest.mark.parametrize("order", [4, 5, 9])
    def test_vadd_vmul_match_scalar(self, order):
        f = make_field(order)
        rng = np.random.default_rng(1)
        a = rng.integers(0, order, size=(6, 7))
        b = rng.integers(0, order, size=(6, 7))
        va, vm = f.vadd(a, b), f.vmul(a, b)
        for i in range(6):
            for j in range(7):
                assert va[i, j] == f.add(int(a[i, j]), int(b[i, j]))
                assert vm[i, j] == f.mul(int(a[i, j]), int(b[i, j]))

    def test_dot(self):
        f = make_field(4)
        assert f.dot((1, 2), (3, 1)) == f.add(f.mul(1, 3), f.mul(2, 1))
        assert f.dot((), ()) == 0


class TestMakeField:
    def test_cached(self):
        assert make_field(9) is make_field(9)

    def test_error_message(self):
        with pytest.raises(ValueError, match="6 is not a prime power"):
            make_field(6)
        with pytest.raises(ValueError):
            Field(1)
        with pytest.raises(ValueError):
            Field(2**17)

    def test_order_limit_is_checked_before_the_trial_division(self, monkeypatch):
        def refuse(s):
            raise AssertionError("trial division")

        monkeypatch.setattr(galois_mod, "is_prime_power", refuse)
        with pytest.raises(ValueError, match="order 1000000000000000003 too large"):
            make_field(10**18 + 3)  # a prime; trial division takes minutes


class TestTablesMatchThePolynomialBuild:
    @pytest.mark.parametrize(
        "order", [q for q in range(2, 65) if is_prime_power(q)] + [81, 125, 128, 243, 256]
    )
    def test_tables_and_modulus(self, order):
        f = Field(order)
        add, mul, neg, inv, modulus = field_tables_poly(order)
        for got, want in ((f._add, add), (f._mul, mul), (f._neg, neg), (f._inv, inv)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert f.modulus == modulus

    def test_order_above_the_limit_is_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="order 8192 too large"):
                Field(2**13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

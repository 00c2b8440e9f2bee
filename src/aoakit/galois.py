"""Finite-field arithmetic for small prime-power orders.

Fields GF(p^m) with order up to 2^12 are represented by precomputed addition
and multiplication tables. Elements are integers in ``0..s-1``: the integer
``e`` encodes the residue polynomial whose coefficient of ``x^i`` is the
``i``-th base-``p`` digit of ``e`` (constant term least significant).

The reducing modulus is the lexicographically smallest irreducible monic
polynomial of degree ``m`` over GF(p), where polynomials are ordered by their
coefficient tuples read from the leading power downwards. This makes every
field deterministic; arrays built on top of it are reproducible bit for bit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "Field",
    "make_field",
    "is_prime_power",
]


def is_prime_power(s: int) -> tuple[int, int] | None:
    """Return ``(p, m)`` with ``s == p**m`` and ``p`` prime, or None.

    Parameters
    ----------
    s : int
        Candidate order, ``s >= 2``.
    """
    if s < 2:
        return None
    for p in range(2, s + 1):
        if p * p > s and p != s:
            break
        if s % p:
            continue
        m = 0
        q = s
        while q % p == 0:
            q //= p
            m += 1
        return (p, m) if q == 1 else None
    return (s, 1)


_MAX_ORDER = 2**12
"""Largest field order. Each int64 table then takes 128 MiB, and the build
holds four such tables at its peak (513 MiB under ``tracemalloc`` at 4096)."""


def _tables(p: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """Addition, multiplication and negation tables of GF(p^m), and the modulus.

    The modulus is the first monic ``x^m + low(x)``, in the order of ``low``,
    whose multiplication table has no zero divisor: the quotient ring is a
    field exactly when the polynomial is irreducible.
    """
    s = p**m
    weights = p ** np.arange(m, dtype=np.int64)
    digits = np.arange(s, dtype=np.int64)[:, None] // weights % p  # constant term first
    add = np.zeros((s, s), dtype=np.int64)
    for i in range(m):  # digit by digit, so that every temporary stays s x s
        add += (digits[:, None, i] + digits[None, :, i]) % p * weights[i]
    neg = (add == 0).argmax(axis=1)
    scale = np.arange(p)[:, None, None] * digits % p @ weights  # scale[c, e] = c*e
    shifted = np.arange(s, dtype=np.int64) % (s // p) * p  # x*e before reducing x^m
    for low in range(s):
        times_x = add[shifted, scale[digits[:, m - 1], neg[low]]]
        mul = scale[digits[:, m - 1]]
        for i in range(m - 2, -1, -1):  # Horner over the digits of the first operand
            mul = times_x[mul]  # a step of its own frees the old table before the next gather
            mul = add[mul, scale[digits[:, i]]]
        if not (mul[1:, 1:] == 0).any():
            return add, mul, neg, tuple(int(c) for c in digits[low]) + (1,)
    raise RuntimeError(f"no irreducible polynomial of degree {m} over GF({p})")


class Field:
    """Finite field GF(p^m) with table-based arithmetic on integer elements.

    Attributes
    ----------
    order : int
        Number of elements ``s = p**m``.
    char : int
        Characteristic ``p``.
    degree : int
        Extension degree ``m``.
    modulus : tuple[int, ...]
        Coefficients of the reducing polynomial, constant term first.
    """

    def __init__(self, order: int):
        if order > _MAX_ORDER:  # before the trial division, which is slow at large orders
            raise ValueError(f"order {order} too large (limit 2^12)")
        pm = is_prime_power(order)
        if pm is None:
            raise ValueError(f"{order} is not a prime power")
        p, m = pm
        self.order = order
        self.char = p
        self.degree = m
        self._add, self._mul, self._neg, self.modulus = _tables(p, m)
        self._inv = (self._mul == 1).argmax(axis=1)
        self._inv[0] = -1

    # -- element arithmetic -------------------------------------------------

    @property
    def elements(self) -> range:
        return range(self.order)

    def add(self, e1: int, e2: int) -> int:
        return int(self._add[e1, e2])

    def sub(self, e1: int, e2: int) -> int:
        return int(self._add[e1, self._neg[e2]])

    def mul(self, e1: int, e2: int) -> int:
        return int(self._mul[e1, e2])

    def neg(self, e: int) -> int:
        return int(self._neg[e])

    def inv(self, e: int) -> int:
        if e == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self._inv[e])

    def pow(self, e: int, n: int) -> int:
        if n < 0:
            e, n = self.inv(e), -n
        result, base = 1, e
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def vadd(self, a, b):
        """Elementwise addition of integer-encoded element arrays."""
        return self._add[a, b]

    def vmul(self, a, b):
        """Elementwise multiplication of integer-encoded element arrays."""
        return self._mul[a, b]

    def dot(self, u: tuple[int, ...], v: tuple[int, ...]) -> int:
        """Inner product of two coefficient vectors."""
        if len(u) != len(v):
            raise ValueError("length mismatch")
        acc = 0
        for a, b in zip(u, v):
            acc = self.add(acc, self.mul(a, b))
        return acc

    def from_int(self, n: int) -> int:
        """Image of the integer n under repeated addition of 1 (prime map)."""
        return n % self.char

    # -- maps and special elements -------------------------------------------

    def trace(self, e: int) -> int:
        """Trace onto the prime subfield: sum of e^(p^i) for i in 0..m-1."""
        acc = 0
        power = e
        for _ in range(self.degree):
            acc = self.add(acc, power)
            power = self.pow(power, self.char)
        if acc >= self.char:
            raise AssertionError("trace left the prime subfield")
        return acc

    def cotrace_image_check(self) -> bool:
        """Whether the image of x -> x + x^2 equals the kernel of the trace.

        Only meaningful in characteristic 2, where both sets are GF(2)-linear
        subspaces of the same size.
        """
        if self.char != 2:
            raise ValueError("cotrace is defined in characteristic 2 only")
        image = {self.add(x, self.mul(x, x)) for x in self.elements}
        kernel = {x for x in self.elements if self.trace(x) == 0}
        return image == kernel

    def find_nonsquare(self) -> int:
        """First element (in integer order) that is not a square; odd order only."""
        if self.order % 2 == 0:
            raise ValueError("every element of an even-order field is a square")
        squares = {self.mul(x, x) for x in self.elements}
        for e in self.elements:
            if e not in squares:
                return e
        raise AssertionError("odd-order field with no non-square")

    def find_zeta(self) -> int:
        """First element with zeta^(s/2) != zeta and trace 1; even order only.

        The first property keeps zeta outside the two-element subfield; the
        second makes ``z^2 + z + zeta`` rootless, which is what lets paired
        quadratic equations split two-against-zero in the even-order
        construction counts.  For order 4 the two properties coincide; from
        order 8 on they do not, so both are checked.
        """
        if self.order % 2 or self.order == 2:
            raise ValueError("requires even order greater than 2")
        half = self.order // 2
        for e in self.elements:
            if self.pow(e, half) != e and self.trace(e) == 1:
                return e
        raise AssertionError("even-order field with no valid zeta")

    def level_bijection(self):
        """Pair of maps between elements 0..s-1 and array levels 1..s."""

        def to_level(e: int) -> int:
            return e + 1

        def from_level(v: int) -> int:
            if not 1 <= v <= self.order:
                raise ValueError(f"level {v} out of range 1..{self.order}")
            return v - 1

        return to_level, from_level

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Field(order={self.order}, modulus={self.modulus})"


@lru_cache(maxsize=None)
def make_field(s: int) -> Field:
    """Build (and cache) the deterministic field of order ``s``.

    Parameters
    ----------
    s : int
        A prime power at most 2^12.

    Returns
    -------
    Field

    Raises
    ------
    ValueError
        If ``s`` is not a prime power, or is above 2^12.
    """
    return Field(s)

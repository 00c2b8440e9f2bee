"""Group actions on arrays and orbit-compressed encodings.

The acting group is (level permutations) x (column permutations): an element
``(g, sigma)`` sends cell ``a[i, j]`` to ``g(a[i, sigma^-1(j)])``.  Arrays are
*equivalent* when their row multisets agree, and ``(g, sigma)`` is an
*automorphism* of ``a`` when acting with it lands in the same equivalence
class.

Three run-compressed encodings are provided for arrays that admit specific
automorphisms:

- bicyclic:   generator ((1..s) | (1..r)) with r dividing s, r <= k; every
  run orbit has size s, so only N/s core rows are stored.
- semicyclic: generator ((a..s) | id); rows with all entries below ``a`` are
  stored once as fixed rows, every other orbit has size s-a+1.  The a=2 case
  (quasi-cyclic) stores all-ones fixed rows.
- klein:      generator (id | (1,2)(3,4)); orbits have size 1 or 2 and
  expansion deduplicates fixed rows.

Orbits are expanded by one gather over a generator's tabulated powers
(``_orbit_gather``): ``expand`` reads it orbit-major, ``compress`` and the
local search block-major, and ``_short_orbits`` compares its images to tell
which rows have an orbit of fewer than size distinct rows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .arrays import Array

__all__ = [
    "GroupElement",
    "SymmetricEncoding",
    "identity_element",
    "cycle_permutation",
    "parse_permutation",
    "format_permutation",
    "parse_generator",
    "format_generator",
    "bicyclic_generator",
    "semicyclic_generator",
    "klein_generator",
    "act",
    "equivalent",
    "is_automorphism",
    "expand",
    "compress",
]


@dataclass(frozen=True)
class GroupElement:
    """A pair (level permutation of 1..s, column permutation of 1..k).

    Both components are stored as 1-based image tuples: ``level_perm[v-1]``
    is the image of level ``v`` and ``col_perm[j-1]`` the image of column
    ``j``.
    """

    level_perm: tuple[int, ...]
    col_perm: tuple[int, ...]

    def __post_init__(self):
        for name, perm in (("level_perm", self.level_perm), ("col_perm", self.col_perm)):
            if sorted(perm) != list(range(1, len(perm) + 1)):
                raise ValueError(f"{name} is not a permutation of 1..{len(perm)}")

    @property
    def n_levels(self) -> int:
        return len(self.level_perm)

    @property
    def n_factors(self) -> int:
        return len(self.col_perm)

    def compose(self, other: "GroupElement") -> "GroupElement":
        """Composition acting as self after other: act(g*h, a) = act(g, act(h, a))."""
        if (self.n_levels, self.n_factors) != (other.n_levels, other.n_factors):
            raise ValueError("group elements act on different dimensions")
        lp = tuple(self.level_perm[v - 1] for v in other.level_perm)
        cp = tuple(self.col_perm[c - 1] for c in other.col_perm)
        return GroupElement(lp, cp)

    def inverse(self) -> "GroupElement":
        lp = [0] * self.n_levels
        cp = [0] * self.n_factors
        for v, image in enumerate(self.level_perm, start=1):
            lp[image - 1] = v
        for c, image in enumerate(self.col_perm, start=1):
            cp[image - 1] = c
        return GroupElement(tuple(lp), tuple(cp))

    def power(self, t: int) -> "GroupElement":
        result = identity_element(self.n_levels, self.n_factors)
        base = self if t >= 0 else self.inverse()
        for _ in range(abs(t)):
            result = base.compose(result)
        return result


def identity_element(s: int, k: int) -> GroupElement:
    return GroupElement(tuple(range(1, s + 1)), tuple(range(1, k + 1)))


def cycle_permutation(n: int, *cycles: tuple[int, ...]) -> tuple[int, ...]:
    """Image tuple of the permutation of 1..n given by disjoint cycles."""
    images = list(range(1, n + 1))
    seen: set[int] = set()
    for cycle in cycles:
        if len(set(cycle)) != len(cycle) or seen & set(cycle):
            raise ValueError("cycles must be disjoint and repetition-free")
        if any(not 1 <= v <= n for v in cycle):
            raise ValueError(f"cycle entries must lie in 1..{n}")
        seen |= set(cycle)
        for i, v in enumerate(cycle):
            images[v - 1] = cycle[(i + 1) % len(cycle)]
    return tuple(images)


def parse_permutation(text: str, n: int) -> tuple[int, ...]:
    """Parse cycle notation like ``(1,2,3)(4,5)``; ``id`` or ``()`` is identity."""
    text = text.strip()
    if text in ("id", "()", ""):
        return tuple(range(1, n + 1))
    if not re.fullmatch(r"(\(\d+(,\d+)*\))+", text):
        raise ValueError(f"bad cycle notation: {text!r}")
    cycles = [
        tuple(int(v) for v in body.split(","))
        for body in re.findall(r"\(([^()]*)\)", text)
    ]
    return cycle_permutation(n, *cycles)


def format_permutation(perm: tuple[int, ...]) -> str:
    """Cycle notation with fixed points omitted; identity prints as ``id``."""
    remaining = set(range(1, len(perm) + 1))
    parts = []
    while remaining:
        start = min(remaining)
        cycle = [start]
        v = perm[start - 1]
        while v != start:
            cycle.append(v)
            v = perm[v - 1]
        remaining -= set(cycle)
        if len(cycle) > 1:
            parts.append("(" + ",".join(str(v) for v in cycle) + ")")
    return "".join(parts) if parts else "id"


def parse_generator(text: str, s: int, k: int) -> GroupElement:
    """Parse ``levels|columns`` cycle notation, e.g. ``(1,2,3)|(1,2,3)``."""
    if text.count("|") != 1:
        raise ValueError("generator must be written as <levels>|<columns>")
    level_text, col_text = text.split("|")
    return GroupElement(parse_permutation(level_text, s), parse_permutation(col_text, k))


def format_generator(g: GroupElement) -> str:
    return f"{format_permutation(g.level_perm)}|{format_permutation(g.col_perm)}"


def _default_bicyclic_r(s: int, k: int) -> int:
    """Largest divisor r of s with r <= k: the default bicyclic column cycle."""
    return max(d for d in range(1, s + 1) if s % d == 0 and d <= k)


def bicyclic_generator(s: int, k: int, r: int | None = None) -> GroupElement:
    """((1..s) | (1..r)) with r | s and r <= k; r defaults to the largest such divisor."""
    if r is None:
        r = _default_bicyclic_r(s, k)
    if not 1 <= r <= k or s % r:
        raise ValueError("r must divide s and satisfy 1 <= r <= k")
    lp = tuple(range(2, s + 1)) + (1,)
    cp = tuple(range(2, r + 1)) + (1,) + tuple(range(r + 1, k + 1))
    return GroupElement(lp, cp)


def semicyclic_generator(s: int, k: int, a: int = 2) -> GroupElement:
    """((a..s) | id); fixed rows of the encoding take entries in 1..a-1."""
    if not 2 <= a <= s - 1:
        raise ValueError("a must satisfy 2 <= a <= s - 1")
    lp = cycle_permutation(s, tuple(range(a, s + 1)))
    return GroupElement(lp, tuple(range(1, k + 1)))


def klein_generator(s: int, k: int) -> GroupElement:
    """(id | (1,2)(3,4)); requires k >= 4."""
    if k < 4:
        raise ValueError("klein encoding requires k >= 4")
    return GroupElement(tuple(range(1, s + 1)), cycle_permutation(k, (1, 2), (3, 4)))


def act(g: GroupElement, a: Array) -> Array:
    """Array with cells ``g(a[i, sigma^-1(j)])``."""
    if g.n_levels != a.n_levels or g.n_factors != a.n_factors:
        raise ValueError("group element dimensions do not match the array")
    lp = np.asarray(g.level_perm, dtype=np.int64)
    inv_cols = np.asarray(g.inverse().col_perm, dtype=np.int64)
    return Array(lp[a.cells[:, inv_cols - 1] - 1], a.n_levels)


def equivalent(a: Array, b: Array) -> bool:
    """Whether the row multisets of a and b agree."""
    if (a.n_runs, a.n_factors, a.n_levels) != (b.n_runs, b.n_factors, b.n_levels):
        raise ValueError("arrays have different dimensions")
    return bool(
        np.array_equal(
            np.array(sorted(map(tuple, a.cells))), np.array(sorted(map(tuple, b.cells)))
        )
    )


def is_automorphism(g: GroupElement, a: Array) -> bool:
    return equivalent(act(g, a), a)


def _kind_generator(kind: str, s: int, k: int, param: int | None) -> GroupElement:
    """The generator of an encoding kind (param is r or a; None for klein)."""
    if kind == "bicyclic":
        return bicyclic_generator(s, k, param)
    if kind == "semicyclic":
        return semicyclic_generator(s, k, param)
    if kind == "klein":
        return klein_generator(s, k)
    raise ValueError(f"unknown encoding kind {kind!r}")


def _powers(g: GroupElement) -> tuple[np.ndarray, np.ndarray]:
    """Level maps (size x (s+1)) and column sources (size x k) of g^0..g^(size-1).

    size is the order of g; g^t sends cells ``c`` to ``levels[t][c[:, sources[t]]]``.
    """
    step, back = np.array((0,) + g.level_perm), np.argsort(g.col_perm)
    levels, sources = [np.arange(g.n_levels + 1)], [np.arange(g.n_factors)]
    while True:
        lv, src = step[levels[-1]], sources[-1][back]
        if np.array_equal(lv, levels[0]) and np.array_equal(src, sources[0]):
            return np.array(levels), np.array(sources)
        levels.append(lv)
        sources.append(src)


def _orbit_gather(powers: tuple[np.ndarray, np.ndarray], core: np.ndarray) -> np.ndarray:
    """size x n x k tensor whose slice t is g^t applied to every row of the n x k core."""
    levels, sources = powers
    return levels[np.arange(len(levels))[:, None, None], core[:, sources].swapaxes(0, 1)]


def _short_orbits(powers: tuple[np.ndarray, np.ndarray], rows: np.ndarray) -> np.ndarray:
    """Whether each row's orbit has fewer than size rows: one of g^1..g^(size-1) fixes it."""
    images = _orbit_gather(powers, rows)
    return (images[1:] == images[0]).all(axis=2).any(axis=0)


@dataclass(frozen=True)
class SymmetricEncoding:
    """Orbit-compressed array: representative core rows plus a generator.

    kind is one of 'bicyclic', 'semicyclic', 'klein'; ``param`` is r for
    bicyclic and a for semicyclic (None for klein).  Rows are stored as
    1-based level tuples so that the core may be empty (a pure fixed-row
    encoding is legal for semicyclic arrays).
    """

    kind: str
    n_levels: int
    n_factors: int
    generator: GroupElement
    core: tuple[tuple[int, ...], ...]
    fixed_rows: tuple[tuple[int, ...], ...] = ()
    param: int | None = None

    def __post_init__(self):
        s, k = self.n_levels, self.n_factors
        rows = self.core + self.fixed_rows
        if any(len(r) != k for r in rows):
            raise ValueError("all rows must have n_factors entries")
        if any(not 1 <= v <= s for r in rows for v in r):
            raise ValueError(f"row entries must lie in 1..{s}")
        if self.kind in ("bicyclic", "semicyclic") and not isinstance(self.param, int):
            raise ValueError(f"{self.kind} encodings need an integer param")
        expected = _kind_generator(self.kind, s, k, self.param)
        if self.kind == "semicyclic":
            a = self.param
            if any(max(r) >= a for r in self.fixed_rows):
                raise ValueError(f"fixed rows must take entries in 1..{a - 1}")
            if any(max(r) < a for r in self.core):
                raise ValueError(
                    f"core rows entirely within 1..{a - 1} belong in fixed_rows"
                )
        elif self.fixed_rows:
            raise ValueError(f"{self.kind} encodings have no fixed rows")
        if self.generator != expected:
            raise ValueError(f"generator does not match the {self.kind} convention")
        if not rows:
            raise ValueError("encoding must contain at least one row")
        if self.kind != "klein" and self.core:  # Klein keeps a swap-fixed row once
            short = _short_orbits(_powers(self.generator), np.array(self.core, dtype=np.int64))
            if short.any():
                raise ValueError(f"orbit of core row {self.core[short.argmax()]} has fewer than "
                                 f"{self.orbit_size} distinct rows")

    @property
    def orbit_size(self) -> int:
        return len(_powers(self.generator)[0])

    @property
    def expanded_runs(self) -> int:
        return expand(self).n_runs


def expand(e: SymmetricEncoding) -> Array:
    """Rebuild the full array: fixed rows once, then each core row's orbit.

    Rows come orbit-major (a core row r, then g(r), g^2(r), ..., then the
    next core row).  Klein core rows that the generator fixes are emitted
    once (deduplicated); everything else contributes its full orbit.  The
    stated generator is an automorphism of the result.
    """
    core = np.array(e.core, dtype=np.int64).reshape(-1, e.n_factors)
    orbits = _orbit_gather(_powers(e.generator), core).swapaxes(0, 1)
    keep = np.ones(orbits.shape[:2], dtype=bool)
    if e.kind == "klein":
        keep[:, 1] = (orbits[:, 1] != orbits[:, 0]).any(axis=1)
    fixed = np.array(e.fixed_rows, dtype=np.int64).reshape(-1, e.n_factors)
    return Array(np.concatenate([fixed, orbits[keep]]), e.n_levels)


def compress(a: Array, kind: str, param: int | None = None) -> SymmetricEncoding:
    """Inverse of expand: partition the rows of ``a`` into generator orbits.

    Raises if the generator is not an automorphism of ``a`` or if an orbit
    other than a Klein swap-fixed row has fewer than size distinct rows.  Once
    g permutes the rows, counts are constant on every orbit (named by its
    least image), so a multiplicity is its row count over its distinct rows.
    """
    s, k = a.n_levels, a.n_factors
    if param is None and kind == "bicyclic":
        param = _default_bicyclic_r(s, k)
    elif param is None and kind == "semicyclic":
        param = 2
    g = _kind_generator(kind, s, k, param)
    powers = _powers(g)
    size = len(powers[0])
    is_fixed = a.cells.max(axis=1) < param if kind == "semicyclic" else np.zeros(a.n_runs, bool)
    fixed = a.cells[is_fixed]  # g fixes these rows, so it permutes the others among themselves
    images = _orbit_gather(powers, a.cells[~is_fixed])
    distinct, codes = np.unique(images.reshape(-1, k), axis=0, return_inverse=True)
    codes = codes.reshape(size, -1)
    if not np.array_equal(np.sort(codes[1 % size]), np.sort(codes[0])):
        raise ValueError(f"the {kind} generator is not an automorphism of the array")
    names, counts = np.unique(codes.min(axis=0), return_counts=True)
    reps = distinct[names]
    short = _short_orbits(powers, reps)
    if kind != "klein" and short.any():
        rep = tuple(reps[short.argmax()].tolist())
        raise ValueError(f"orbit of {rep} has fewer than {size} distinct rows")
    core = np.repeat(reps, counts // np.where(short, 1, size), axis=0)  # short Klein orbit: 1 row
    return SymmetricEncoding(
        kind=kind,
        n_levels=s,
        n_factors=k,
        generator=g,
        core=tuple(map(tuple, core.tolist())),
        fixed_rows=tuple(map(tuple, fixed[np.lexsort(fixed.T[::-1])].tolist())),
        param=None if kind == "klein" else param,
    )

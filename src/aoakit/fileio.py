"""Plain-text array and encoding files, plus the JSON-sidecar catalog.

Array file (bit-exact): line 1 is ``N k s``; lines 2..N+1 hold k integers in
1..s separated by single spaces; optional ``# key: value`` metadata lines
with distinct, non-empty keys follow the body; LF line endings.  Encoding
file: line 1 is ``kind s k [param]``, line 2 the generator in
``levels|columns`` cycle notation, then core rows, then rows prefixed
``fixed:``.  Readers take rows and the numbers of both headers as ASCII digit
runs between spaces or tabs; CRLF is read.  An array body is read in
whole-buffer passes; text those refuse is read again one row at a time, which
locates the error.

A catalog is a directory of array files with one JSON sidecar each carrying
the parameters, provenance, a recomputable metrics snapshot (exact values
stored as strings), and the seed/config needed to reproduce the array.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from ._version import __version__
from .arrays import Array, is_oa, tolerance, unbalance
from .discrepancy import CENTERED, MIXTURE, WRAPAROUND, discrepancy, points_of
from .metrics import d1, d2, d_value, default_contrast
from .symmetry import SymmetricEncoding, format_generator, parse_generator

__all__ = [
    "ParseError",
    "parse_array",
    "serialize_array",
    "read_array",
    "write_array",
    "parse_encoding",
    "serialize_encoding",
    "read_encoding",
    "write_encoding",
    "format_exact",
    "metrics_snapshot",
    "CatalogEntry",
    "CatalogReport",
    "catalog_add",
    "catalog_list",
    "catalog_recheck",
]


class ParseError(Exception):
    """Malformed file content, located by 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1, path: str | None = None):
        self.message = message
        self.line = line
        self.column = column
        self.path = path
        where = f"{path or '<text>'}:{line}:{column}"
        super().__init__(f"{where}: {message}")


_FIELD = re.compile(r"[^ \t]+")  # the fields of a line: spaces and tabs separate them


def _int_fields(line: str, lineno: int, path: str | None, col: int = 0) -> list[int]:
    """The integers of one line, after column ``col``: runs of ASCII digits; one CR may end it."""
    line = line.removesuffix("\r")
    parts = line.replace("\t", " ").split(" ")
    digits = "".join(parts)
    if not digits or digits.isascii() and digits.isdigit():
        return list(map(int, filter(None, parts)))
    bad = next(m for m in _FIELD.finditer(line) if not (m[0].isascii() and m[0].isdigit()))
    raise ParseError(f"expected an integer, got {bad[0]!r}", lineno, col + bad.start() + 1, path)


def _level_row(line: str, k: int, s: int, lineno: int, path, col: int = 0) -> list[int]:
    """The k levels in 1..s of one row, located like ``_int_fields``."""
    values = _int_fields(line, lineno, path, col)
    if len(values) != k:
        raise ParseError(f"expected {k} values, found {len(values)}", lineno, 1, path)
    if values and not 1 <= min(values) <= max(values) <= s:
        i = next(i for i, value in enumerate(values) if not 1 <= value <= s)
        at = col + [m.start() for m in _FIELD.finditer(line)][i] + 1
        raise ParseError(f"value {values[i]} outside 1..{s}", lineno, at, path)
    return values


# byte kinds in an array body: 2 an ASCII digit, 1 a separator (space, tab, LF), 0 any other
_BYTE_KIND = np.zeros(256, np.uint8)
_BYTE_KIND[[9, 10, 32]] = 1
_BYTE_KIND[48:58] = 2


def _body_cells(rows: list[str], k: int, s: int) -> np.ndarray | None:
    """The levels of the body ``rows`` read in whole-buffer passes, by ``_level_row``'s rules.

    Returns None for any text ``_level_row`` refuses, and for the valid forms
    declined here (a field of more than 18 digits), so the caller reads those
    rows one at a time.  Every temporary is sized by the text, not the header.
    """
    n = len(rows)
    try:
        # an LF before each row and after the last
        body = "\n".join(["", *rows, ""]).encode("ascii")
    except UnicodeEncodeError:
        return None
    if b"\r" in body:
        body = body.replace(b"\r\n", b"\n")  # one CR may end a row; any other is refused below
    buf = np.frombuffer(body, np.uint8)
    kind = _BYTE_KIND[buf]
    if kind.min() == 0:
        return None
    digit = np.equal(kind, 2, out=kind.view(np.bool_))  # in place: the kinds are not read again
    starts = np.flatnonzero(digit[1:] > digit[:-1])
    starts += 1
    if len(starts) != n * k:
        return None
    fields_before_lf = np.searchsorted(starts, np.flatnonzero(buf == 10))
    if not np.array_equal(fields_before_lf, np.arange(0, n * k + 1, k)):  # k fields a row
        return None
    if np.count_nonzero(digit) == len(starts):  # every field is one digit
        values = buf[starts] - 48
    else:
        ends = np.flatnonzero(digit[:-1] > digit[1:])  # the last digit of each field
        width = ends - starts + 1
        widest = int(width.max())
        if widest > 18:  # 19 digits can pass int64
            return None
        values = np.zeros(len(starts), np.int64)
        for place in range(widest):
            digits = np.where(width > place, buf[ends - place] - 48, 0)
            values += digits * np.int64(10**place)
    if int(values.min()) < 1 or int(values.max()) > s:
        return None
    return values.reshape(n, k)


def parse_array(text: str, path: str | None = None) -> tuple[Array, dict[str, str]]:
    """Parse an array file; returns the array and its metadata mapping."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty file", 1, 1, path)
    header = _int_fields(lines[0], 1, path)
    if len(header) != 3:
        raise ParseError("header must be 'N k s'", 1, 1, path)
    n, k, s = header
    if n < 1 or k < 1 or s < 1:
        raise ParseError("N, k, s must be positive", 1, 1, path)
    if len(lines) < 1 + n:
        raise ParseError(f"expected {n} rows, found {len(lines) - 1}", len(lines), 1, path)
    cells = _body_cells(lines[1 : 1 + n], k, s)
    if cells is None:  # locate the error, or read the rows the whole-buffer pass declines
        rows = [_level_row(lines[lineno - 1], k, s, lineno, path) for lineno in range(2, 2 + n)]
        cells = np.array(rows, dtype=np.int64)
    metadata: dict[str, str] = {}
    for offset, line in enumerate(lines[1 + n :], start=2 + n):
        if not line.strip():
            continue
        if not line.startswith("#"):
            raise ParseError("trailing lines must be '# key: value' metadata", offset, 1, path)
        body = line[1:].strip()
        if ":" not in body:
            raise ParseError("metadata line lacks 'key: value'", offset, 1, path)
        key, value = body.split(":", 1)
        key = key.strip()
        if not key:
            raise ParseError("metadata key is empty", offset, 1, path)
        if key in metadata:
            raise ParseError(f"metadata key {key!r} is repeated", offset, 1, path)
        metadata[key] = value.strip()
    return Array(cells, s), metadata


def _check_metadata(metadata: dict[str, str]) -> None:
    """Refuse metadata that ``parse_array`` would not read back unchanged."""
    for key, value in metadata.items():
        key, value = str(key), str(value)
        if not key:
            raise ValueError("metadata key must not be empty")
        for what, text in (("key", key), ("value", value)):
            if "\n" in text or "\r" in text:
                raise ValueError(f"metadata {what} of {key!r} holds a line break")
            if text != text.strip():
                raise ValueError(f"metadata {what} of {key!r} has leading or trailing whitespace")
        if ":" in key:
            raise ValueError(f"metadata key {key!r} holds ':'")


def serialize_array(a: Array, metadata: dict[str, str] | None = None) -> str:
    metadata = metadata or {}
    _check_metadata(metadata)
    # the text of each level present, ending a cell inside a row or at its end, gathered
    # per cell; the levels come from a sort, which costs less than np.unique's hash table
    flat = np.sort(a.cells, axis=None)
    levels = flat[np.append(flat[1:] != flat[:-1], True)]
    del flat  # N*k int64, freed before the index of the same size is made
    names = [str(v) for v in levels.tolist()]
    table = np.array([name + " " for name in names] + [name + "\n" for name in names], dtype="S")
    index = np.searchsorted(levels, a.cells)
    index[:, -1] += len(levels)
    body = table[index].tobytes().replace(b"\0", b"").decode("ascii")
    meta = "".join(f"# {key}: {value}\n" for key, value in metadata.items())
    return f"{a.n_runs} {a.n_factors} {a.n_levels}\n{body}{meta}"


def _read_ascii(path) -> str:
    """File text; a non-ASCII byte is a ParseError at its line and column."""
    data = Path(path).read_bytes()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        message = f"non-ASCII byte 0x{data[exc.start]:02x}"
        raise ParseError(message, line, column, str(path)) from None


def read_array(path) -> tuple[Array, dict[str, str]]:
    return parse_array(_read_ascii(path), path=str(path))


def write_array(path, a: Array, metadata: dict[str, str] | None = None) -> None:
    # encoded before the file is opened, so a refused array leaves no file
    Path(path).write_bytes(serialize_array(a, metadata).encode("ascii"))


def parse_encoding(text: str, path: str | None = None) -> SymmetricEncoding:
    """Parse an encoding file into a validated SymmetricEncoding."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 3:
        raise ParseError("encoding needs a header, a generator, and rows", 1, 1, path)
    kind = _FIELD.search(lines[0])  # the first field; s, k and param follow it
    numbers = _int_fields(lines[0][kind.end() :], 1, path, kind.end()) if kind else []
    if len(numbers) not in (2, 3):
        raise ParseError("header must be 'kind s k [param]'", 1, 1, path)
    s, k, *rest = numbers
    param = rest[0] if rest else None
    try:
        generator = parse_generator(lines[1], s, k)
    except ValueError as exc:
        raise ParseError(str(exc), 2, 1, path)
    core: list[tuple[int, ...]] = []
    fixed: list[tuple[int, ...]] = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        target, body = (fixed, line[len("fixed:") :]) if line.startswith("fixed:") else (core, line)
        target.append(tuple(_level_row(body, k, s, lineno, path, len(line) - len(body))))
    try:
        return SymmetricEncoding(
            kind=kind[0],
            n_levels=s,
            n_factors=k,
            generator=generator,
            core=tuple(core),
            fixed_rows=tuple(fixed),
            param=param,
        )
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1, path)


def serialize_encoding(e: SymmetricEncoding) -> str:
    head = f"{e.kind} {e.n_levels} {e.n_factors}"
    if e.param is not None:
        head += f" {e.param}"
    lines = [head, format_generator(e.generator)]
    lines.extend(" ".join(str(v) for v in row) for row in e.core)
    lines.extend("fixed: " + " ".join(str(v) for v in row) for row in e.fixed_rows)
    return "\n".join(lines) + "\n"


def read_encoding(path) -> SymmetricEncoding:
    return parse_encoding(_read_ascii(path), path=str(path))


def write_encoding(path, e: SymmetricEncoding) -> None:
    Path(path).write_text(serialize_encoding(e), encoding="ascii", newline="")


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

_FORMAT_VERSION = 1


def format_exact(value) -> str:
    """Deterministic string form: ints and Fractions verbatim, floats via repr."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return repr(float(value))


def metrics_snapshot(a: Array) -> dict[str, str]:
    """The recomputable snapshot stored with every catalog entry."""
    f = default_contrast(a.n_levels)
    ps = points_of(a)  # one column setup for all three kernels
    return {
        "is_oa2": format_exact(int(a.n_factors >= 2 and is_oa(a, 2))),
        "tol2": format_exact(tolerance(a, 2)),
        "unb1": format_exact(unbalance(a, 2, 1)),
        "unb2": format_exact(unbalance(a, 2, 2)),
        "d1": format_exact(d1(a)),
        "d2": format_exact(d2(a)),
        "d_f": format_exact(d_value(a, f)),
        "cd": format_exact(discrepancy(ps, CENTERED)),
        "wd": format_exact(discrepancy(ps, WRAPAROUND)),
        "md": format_exact(discrepancy(ps, MIXTURE)),
    }


@dataclass
class CatalogEntry:
    """One catalogued array: parameters, provenance, snapshot, and config."""

    name: str
    n_runs: int
    n_factors: int
    n_levels: int
    provenance: str
    metrics: dict[str, str]
    config: dict = field(default_factory=dict)

    @property
    def lam(self) -> int | None:
        s2 = self.n_levels**2
        return self.n_runs // s2 if self.n_runs % s2 == 0 else None

    def to_json(self) -> str:
        """The sidecar text; ``aoakit_version`` records the writer and is not read back."""
        doc = {
            "aoakit_version": __version__,
            "format_version": _FORMAT_VERSION,
            "name": self.name,
            "parameters": {
                "N": self.n_runs,
                "k": self.n_factors,
                "s": self.n_levels,
                "lam": self.lam,
            },
            "provenance": self.provenance,
            "metrics": self.metrics,
            "config": self.config,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CatalogEntry":
        """Read a sidecar; a field of the wrong JSON type raises ``ValueError`` naming it."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("sidecar is not a JSON object")
        if doc.get("format_version") != _FORMAT_VERSION:
            raise ValueError(f"unsupported catalog format {doc.get('format_version')!r}")
        params = doc.get("parameters")
        for key in ("N", "k", "s"):
            if not isinstance(params, dict) or type(params.get(key)) is not int:
                raise ValueError(f"parameters.{key} is not an integer")
        metrics = doc.get("metrics")
        if not isinstance(metrics, dict) or not all(isinstance(v, str) for v in metrics.values()):
            raise ValueError("metrics is not an object of strings")
        config = doc.get("config", {})
        if not isinstance(config, dict):
            raise ValueError("config is not an object")
        for key in ("name", "provenance"):
            if not isinstance(doc.get(key), str):
                raise ValueError(f"{key} is not a string")
        return cls(
            name=doc["name"],
            n_runs=params["N"],
            n_factors=params["k"],
            n_levels=params["s"],
            provenance=doc["provenance"],
            metrics=metrics,
            config=config,
        )


_PROVENANCES = ("construction", "search", "ip", "imported")


def catalog_add(
    directory,
    a: Array,
    name: str,
    provenance: str = "imported",
    config: dict | None = None,
) -> CatalogEntry:
    """Store the array file plus a sidecar with its metrics snapshot."""
    if provenance not in _PROVENANCES:
        raise ValueError(f"provenance must be one of {_PROVENANCES}")
    if not name or "/" in name or name.startswith("."):
        raise ValueError(f"bad entry name {name!r}")
    directory = Path(directory)
    if not directory.is_dir():
        raise ValueError(f"catalog directory {directory} does not exist")
    entry = CatalogEntry(
        name=name,
        n_runs=a.n_runs,
        n_factors=a.n_factors,
        n_levels=a.n_levels,
        provenance=provenance,
        metrics=metrics_snapshot(a),
        config=config or {},
    )
    write_array(directory / f"{name}.txt", a)
    (directory / f"{name}.json").write_text(entry.to_json(), encoding="ascii", newline="")
    return entry


def catalog_list(
    directory, s: int | None = None, k: int | None = None, n: int | None = None
) -> list[CatalogEntry]:
    """All entries sorted by name, optionally filtered by parameters.

    Corrupt sidecars raise rather than being skipped.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ValueError(f"catalog directory {directory} does not exist")
    entries = []
    for sidecar in sorted(directory.glob("*.json")):
        try:
            entry = CatalogEntry.from_json(sidecar.read_text(encoding="ascii"))
        except ValueError as exc:
            raise ValueError(f"corrupt catalog entry {sidecar.name}: {exc}") from exc
        if s is not None and entry.n_levels != s:
            continue
        if k is not None and entry.n_factors != k:
            continue
        if n is not None and entry.n_runs != n:
            continue
        entries.append(entry)
    return entries


@dataclass
class CatalogReport:
    """Outcome of a recheck: snapshot mismatches and unreadable entries."""

    checked: int
    mismatches: list[tuple[str, str, str, str]]  # (name, key, stored, recomputed)
    corrupt: list[tuple[str, str]]  # (name, error)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.corrupt


def catalog_recheck(directory) -> CatalogReport:
    """Recompute every snapshot from its array file and compare field by field."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ValueError(f"catalog directory {directory} does not exist")
    checked = 0
    mismatches: list[tuple[str, str, str, str]] = []
    corrupt: list[tuple[str, str]] = []
    for sidecar in sorted(directory.glob("*.json")):
        name = sidecar.stem
        try:
            entry = CatalogEntry.from_json(sidecar.read_text(encoding="ascii"))
            a, _ = read_array(directory / f"{name}.txt")
        except (ValueError, OSError, ParseError) as exc:
            corrupt.append((name, str(exc)))
            continue
        checked += 1
        if (a.n_runs, a.n_factors, a.n_levels) != (entry.n_runs, entry.n_factors, entry.n_levels):
            mismatches.append(
                (name, "parameters", f"{entry.n_runs} {entry.n_factors} {entry.n_levels}",
                 f"{a.n_runs} {a.n_factors} {a.n_levels}")
            )
            continue
        fresh = metrics_snapshot(a)
        for key, value in fresh.items():
            stored = entry.metrics.get(key)
            if stored != value:
                mismatches.append((name, key, str(stored), value))
    return CatalogReport(checked=checked, mismatches=mismatches, corrupt=corrupt)

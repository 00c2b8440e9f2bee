"""Tests for the plain-text formats and the JSON-sidecar catalog."""

import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aoakit
import aoakit.fileio as fileio_mod
from aoakit import (
    ParseError,
    catalog_add,
    catalog_list,
    catalog_recheck,
    parse_array,
    parse_encoding,
    read_array,
    read_encoding,
    serialize_array,
    serialize_encoding,
    write_array,
    write_encoding,
)
from aoakit.arrays import Array
from aoakit.constructions import ConstructionSpec, construct
from aoakit.fileio import CatalogEntry, _body_cells, format_exact, metrics_snapshot
from aoakit.symmetry import SymmetricEncoding, compress, semicyclic_generator

from conftest import random_array
from oracles import parse_array_loop, serialize_array_loop
from test_symmetry import BICYCLIC_FULL, KLEIN_FULL, QUASI_FULL


@st.composite
def array_texts(draw):
    s = draw(st.integers(2, 5))
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 6))
    cells = draw(
        st.lists(
            st.lists(st.integers(1, s), min_size=k, max_size=k),
            min_size=n,
            max_size=n,
        )
    )
    return Array(np.array(cells), n_levels=s)


# printable ASCII with no surrounding whitespace, and no ':' in keys
_META_VALUES = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12).filter(
    lambda v: v == v.strip()
)
_META_KEYS = _META_VALUES.filter(lambda v: v and ":" not in v)


@st.composite
def wide_level_arrays(draw):
    """Arrays with one- and two-digit levels, plus metadata that reads back unchanged."""
    s = draw(st.integers(1, 40))
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    cells = np.random.default_rng(seed).integers(1, s + 1, size=(n, k))
    metadata = draw(st.dictionaries(_META_KEYS, _META_VALUES, max_size=3))
    return Array(cells, n_levels=s), metadata


# fields the reader refuses: a letter, a sign, an underscore, a CR inside a line
# and a non-ASCII character
_BAD_FIELDS = ("x", "+1", "-1", "1_0", "1\r2", "1\r", "\u00e9")
_FAULTS = _BAD_FIELDS + ("zero", "above-s", "short-row", "long-row", "moved-field",
                         "missing-row", "huge-n", "huge-k")


@st.composite
def array_file_texts(draw):
    """Array file texts in the layouts the reader accepts, with at most one fault.

    Returns the text and whether the whole-buffer pass must read its body:
    true without a fault and without fields of more than 18 digits.
    """
    s = draw(st.one_of(st.integers(1, 40), st.integers(41, 10**12)))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 5))
    loose = draw(st.booleans())  # runs of spaces and tabs around fields, and CRLF
    zeros = draw(st.sampled_from([0, 1, 5, 20]))  # leading zeros on some fields
    fault = draw(st.one_of(st.just("none"), st.sampled_from(_FAULTS)))  # half the texts are valid
    n_meta = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    rows = [["0" * zeros * (rng.random() < 0.3) + str(v) for v in rng.integers(1, s + 1, k)]
            for _ in range(n)]
    header = [n, k, s]
    r, j = int(rng.integers(n)), int(rng.integers(k))
    if fault in _BAD_FIELDS:
        rows[r][j] = fault
    elif fault in ("zero", "above-s"):
        rows[r][j] = "0" if fault == "zero" else str(s + 1)
    elif fault == "short-row":
        del rows[r][j]
    elif fault == "long-row":
        rows[r].insert(j, "1")
    elif fault == "moved-field":  # one row short and another long
        rows[(r + 1) % n].append(rows[r].pop(j))
    elif fault == "missing-row":
        del rows[r]
    elif fault in ("huge-n", "huge-k"):
        header[fault == "huge-k"] = 10**13

    def gap(least: int) -> str:
        if not loose:
            return " " * least
        return "".join(rng.choice([" ", "\t"], int(rng.integers(least, 4))))

    lines = [" ".join(map(str, header))]
    lines += [gap(0) + "".join(f + gap(1) for f in row[:-1]) + "".join(row[-1:]) + gap(0)
              for row in rows]
    lines += [f"# key{i}: value {i}" for i in range(n_meta)]
    newline = "\r\n" if loose else "\n"
    return newline.join(lines) + newline, fault == "none" and zeros < 18


def _outcome(parse, text):
    """What a reader makes of the text: the array and metadata, or the error and its place."""
    try:
        a, metadata = parse(text)
    except ParseError as exc:
        return exc.message, exc.line, exc.column
    return a.n_levels, a.cells.tolist(), metadata


class TestArrayFormat:
    def test_canonical_layout(self, t0):
        text = serialize_array(t0)
        lines = text.split("\n")
        assert lines[0] == "4 4 2"
        assert len(lines) == 1 + 4 + 1 and lines[-1] == ""
        assert all(len(line.split(" ")) == 4 for line in lines[1:5])

    def test_round_trip_with_metadata(self, t0):
        meta = {"seed": "7", "note": "trivial construction"}
        text = serialize_array(t0, meta)
        back, back_meta = parse_array(text)
        assert back == t0
        assert back_meta == meta
        # Canonical text survives a second pass byte for byte.
        assert serialize_array(back, back_meta) == text

    @settings(max_examples=60, deadline=None)
    @given(array_texts())
    def test_round_trip_any_array(self, a):
        back, meta = parse_array(serialize_array(a))
        assert back == a and meta == {}

    @settings(max_examples=60, deadline=None)
    @given(wide_level_arrays())
    def test_serialize_equals_the_per_cell_writer(self, case):
        a, metadata = case
        text = serialize_array(a, metadata)
        assert text == serialize_array_loop(a, metadata)
        assert parse_array(text) == (a, metadata)

    @settings(max_examples=1000, deadline=None)
    @given(array_file_texts())
    def test_parse_equals_the_per_line_reader(self, case):
        text, whole_buffer = case
        assert _outcome(parse_array, text) == _outcome(parse_array_loop, text)
        if whole_buffer:
            lines = text.split("\n")
            n, k, s = map(int, lines[0].split())
            assert _body_cells(lines[1 : 1 + n], k, s) is not None

    def test_writer_cost_follows_the_cells_not_s(self):
        # the memory bound comes first, so a writer that is O(s) fails it before s = 2**70
        a = Array(np.ones((1, 1)), 10**6)
        tracemalloc.start()
        try:
            text = serialize_array(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == "1 1 1000000\n1\n" and peak < 2**20
        text = f"1 1 {2**70}\n1\n"
        back, _ = parse_array(text)
        assert back.n_levels == 2**70 and serialize_array(back) == text

    @pytest.mark.parametrize(
        "metadata, fragment",
        [
            ({"note": "a\nb"}, "value of 'note' holds a line break"),
            ({"note": "a\rb"}, "value of 'note' holds a line break"),
            ({"a\nb": "c"}, "key of 'a\\nb' holds a line break"),
            ({"a:b": "c"}, "key 'a:b' holds ':'"),
            ({"": "v"}, "key must not be empty"),
            ({" k ": "v"}, "key of ' k ' has leading or trailing whitespace"),
            ({"k": "v "}, "value of 'k' has leading or trailing whitespace"),
            ({"k": "\tv"}, "value of 'k' has leading or trailing whitespace"),
        ],
        ids=["newline-value", "cr-value", "newline-key", "colon-key", "empty-key",
             "padded-key", "padded-value", "tab-value"],
    )
    def test_unreadable_metadata_is_refused_before_writing(self, tmp_path, t0, metadata, fragment):
        with pytest.raises(ValueError) as exc:
            serialize_array(t0, metadata)
        assert fragment in str(exc.value)
        path = tmp_path / "a.txt"
        with pytest.raises(ValueError):
            write_array(path, t0, metadata)
        assert not path.exists()

    def test_non_ascii_metadata_leaves_no_file(self, tmp_path, t0):
        path = tmp_path / "a.txt"
        with pytest.raises(UnicodeEncodeError):
            write_array(path, t0, {"note": "caf\u00e9"})
        assert not path.exists()

    def test_blank_lines_after_body_are_ignored(self):
        text = "1 2 3\n1 3\n\n# tag: x\n\n"
        a, meta = parse_array(text)
        assert a.cells.tolist() == [[1, 3]] and meta == {"tag": "x"}

    def test_metadata_trims_whitespace_and_keeps_colons(self):
        text = "1 1 2\n2\n#  when :  2026-08-14T10:00 \n"
        _, meta = parse_array(text)
        assert meta == {"when": "2026-08-14T10:00"}

    @pytest.mark.parametrize(
        "text, line, column, fragment",
        [
            ("", 1, 1, "empty"),
            ("4 4\n", 1, 1, "header"),
            ("2 2 2 2\n", 1, 1, "header"),
            ("x 4 2\n", 1, 1, "integer"),
            ("0 1 2\n", 1, 1, "positive"),
            ("2 2 2\n1 1\n", 2, 1, "expected 2 rows, found 1"),
            ("1 3 2\n1 2\n", 2, 1, "expected 3 values, found 2"),
            ("1 2 2\n1 2 2\n", 2, 1, "expected 2 values, found 3"),
            ("1 2 2\n1 a\n", 2, 3, "got 'a'"),
            ("1 2 2\n1 3\n", 2, 3, "outside 1..2"),
            ("1 2 2\n0 2\n", 2, 1, "outside 1..2"),
            ("1 2 2\n1 2\njunk\n", 3, 1, "metadata"),
            ("1 2 2\n1 2\n# justaword\n", 3, 1, "key: value"),
            ("1 2 2\n1 2\n# a: 1\n# a: 2\n", 4, 1, "metadata key 'a' is repeated"),
            ("1 2 2\n1 2\n#: v\n", 3, 1, "metadata key is empty"),
        ],
    )
    def test_parse_errors_carry_position(self, text, line, column, fragment):
        with pytest.raises(ParseError) as exc:
            parse_array(text)
        assert exc.value.line == line
        assert exc.value.column == column
        assert fragment in exc.value.message

    def test_error_string_includes_path_and_position(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2 2\n1 9\n")
        with pytest.raises(ParseError) as exc:
            read_array(p)
        assert str(exc.value) == f"{p}:2:3: value 9 outside 1..2"
        assert exc.value.path == str(p)

    def test_non_ascii_byte_is_located(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes("2 2 2\n1 2\n2 \u00e9\n".encode("utf-8"))
        with pytest.raises(ParseError) as exc:
            read_array(p)
        assert (exc.value.line, exc.value.column) == (3, 3)
        assert "non-ASCII" in exc.value.message

    def test_oversized_header_fails_before_allocation(self):
        with pytest.raises(ParseError) as exc:
            parse_array("1 10000000000000 2\n1\n")
        assert (exc.value.line, exc.value.column) == (2, 1)

    def test_error_string_defaults_to_text_marker(self):
        with pytest.raises(ParseError, match=r"<text>:1:1"):
            parse_array("")

    def test_file_round_trip_uses_lf_endings(self, tmp_path, rng):
        a = random_array(rng)
        p = tmp_path / "a.txt"
        write_array(p, a, {"k": "v"})
        raw = p.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")
        back, meta = read_array(p)
        assert back == a and meta == {"k": "v"}


class TestEncodingFormat:
    def encodings(self):
        bi = compress(Array(np.array(BICYCLIC_FULL), 3), "bicyclic", 3)
        qc = compress(Array(np.array(QUASI_FULL), 3), "semicyclic", 2)
        kl = compress(Array(np.array(KLEIN_FULL), 3), "klein")
        return [bi, qc, kl]

    def test_round_trip_each_kind(self):
        for enc in self.encodings():
            text = serialize_encoding(enc)
            back = parse_encoding(text)
            assert back == enc
            assert serialize_encoding(back) == text

    def test_layout(self):
        enc = compress(Array(np.array(BICYCLIC_FULL), 3), "bicyclic", 3)
        lines = serialize_encoding(enc).split("\n")
        assert lines[0] == "bicyclic 3 5 3"
        assert lines[1].count("|") == 1
        assert not any(line.startswith("fixed:") for line in lines[2:])

    def test_fixed_rows_serialize_with_prefix(self):
        enc = SymmetricEncoding(
            kind="semicyclic",
            n_levels=3,
            n_factors=5,
            generator=semicyclic_generator(3, 5, 2),
            core=((1, 1, 2, 3, 2),),
            fixed_rows=((1, 1, 1, 1, 1),),
            param=2,
        )
        text = serialize_encoding(enc)
        assert "fixed: 1 1 1 1 1" in text.split("\n")
        assert parse_encoding(text).fixed_rows == ((1, 1, 1, 1, 1),)

    def test_file_round_trip(self, tmp_path):
        enc = compress(Array(np.array(BICYCLIC_FULL), 3), "bicyclic", 3)
        p = tmp_path / "e.enc"
        write_encoding(p, enc)
        assert read_encoding(p) == enc
        assert b"\r" not in p.read_bytes()

    @pytest.mark.parametrize(
        "text, line, fragment",
        [
            ("bicyclic 3 4\n(1,2,3)|(1,2,3)\n", 1, "header, a generator, and rows"),
            ("bicyclic 3\ngen\nrow\n", 1, "kind s k"),
            ("bicyclic a 4 3\n(1)|(1)\n1 1 1 1\n", 1, "integer, got 'a'"),
            ("bicyclic 3 4 3\nnot-a-generator\n1 1 1 1\n", 2, ""),
            ("bicyclic 3 4 3\n(1,2,3)|(1,2,3)\n1 1 1\n", 3, "expected 4 values"),
            ("bicyclic 2 2 2\n(1,2)|(1,2)\n1 1\n1 2\n", 1, "orbit of core row (1, 2) has fewer"),
        ],
    )
    def test_parse_errors(self, text, line, fragment):
        with pytest.raises(ParseError) as exc:
            parse_encoding(text)
        assert exc.value.line == line
        assert fragment in exc.value.message

    @pytest.mark.parametrize("field", ["+3", "1_0", "-1"])
    @pytest.mark.parametrize("at", ["s", "k", "param"])
    def test_header_numbers_are_runs_of_ascii_digits(self, field, at):
        numbers = {"s": "3", "k": "3", "param": "3"} | {at: field}
        text = f"bicyclic {' '.join(numbers.values())}\n(1,2,3)|(1,2,3)\n1 2 3\n"
        with pytest.raises(ParseError) as exc:
            parse_encoding(text)
        assert (exc.value.line, exc.value.column) == (1, text.index(field) + 1)
        assert exc.value.message == f"expected an integer, got {field!r}"

    @pytest.mark.parametrize(
        "text, line, column, fragment",
        [
            ("bicyclic 3 3 3\n(1,2,3)|(1,2,3)\n1 2 9\n", 3, 5, "value 9 outside 1..3"),
            ("semicyclic 3 3 2\n(2,3)|()\n1 2 3\nfixed: 1 1 x\n", 4, 12, "got 'x'"),
            ("bicyclic 3 3 3\n(1,2,3)|(1,2,3)\n   1 2 x\n", 3, 8, "got 'x'"),
            ("semicyclic 3 3 2\n(2,3)|()\n1 2 3\nfixed:  1 1 1 1\n", 4, 1, "expected 3 values"),
        ],
    )
    def test_row_errors_are_located_in_their_line(self, text, line, column, fragment):
        with pytest.raises(ParseError) as exc:
            parse_encoding(text)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert fragment in exc.value.message

    def test_non_ascii_encoding_is_located(self, tmp_path):
        text = serialize_encoding(compress(Array(np.array(BICYCLIC_FULL), 3), "bicyclic", 3))
        p = tmp_path / "e.enc"
        p.write_bytes(text.encode("ascii").replace(b"(1,2,3)|", "(1,2,3)\u00a7|".encode("utf-8"), 1))
        with pytest.raises(ParseError) as exc:
            read_encoding(p)
        assert (exc.value.line, exc.value.column) == (2, 8)

    def test_invalid_encoding_surfaces_as_parse_error(self):
        # Structural rules (here: a bicyclic encoding admits no fixed rows)
        # are enforced during parsing, not deferred to first use.
        good = serialize_encoding(compress(Array(np.array(BICYCLIC_FULL), 3), "bicyclic", 3))
        with pytest.raises(ParseError):
            parse_encoding(good + "fixed: 1 1 1 1 1\n")


class TestFieldSeparators:
    """Array and encoding rows follow one rule: runs of ASCII digits separated
    by spaces and tabs, with one CR allowed before the LF."""

    @staticmethod
    def _parse_last_row(fmt, row, newline="\n"):
        if fmt == "array":
            text = f"2 2 10\n2 1\n{row}\n"
            return parse_array(text.replace("\n", newline))[0].cells[-1].tolist()
        text = f"bicyclic 10 2 1\n(1,2,3,4,5,6,7,8,9,10)|id\n{row}\n"
        return list(parse_encoding(text.replace("\n", newline)).core[-1])

    @pytest.mark.parametrize("fmt", ["array", "encoding"])
    @pytest.mark.parametrize("row", ["1 2\t", "1\t 2", "1 2 \t", "1\t2"])
    def test_spaces_and_tabs_separate_fields(self, fmt, row):
        assert self._parse_last_row(fmt, row) == [1, 2]

    @pytest.mark.parametrize("fmt", ["array", "encoding"])
    def test_crlf_files_load(self, fmt):
        assert self._parse_last_row(fmt, "1 2", newline="\r\n") == [1, 2]

    @pytest.mark.parametrize("fmt", ["array", "encoding"])
    @pytest.mark.parametrize("field", ["+1", "1_0", "-1", "1\r"])
    def test_a_field_is_a_run_of_ascii_digits(self, fmt, field):
        # 1_0 would read as 10, inside 1..s here
        with pytest.raises(ParseError) as exc:
            self._parse_last_row(fmt, f"1 {field} 2")
        assert (exc.value.line, exc.value.column) == (3, 3)
        assert exc.value.message == f"expected an integer, got {field!r}"


class TestFormatExact:
    def test_scalar_forms(self):
        assert format_exact(4) == "4"
        assert format_exact(np.int64(4)) == "4"
        assert format_exact(Fraction(9, 5)) == "9/5"
        assert format_exact(Fraction(4, 1)) == "4/1"
        assert format_exact(0.25) == "0.25"
        assert format_exact(np.float64(0.25)) == "0.25"

    def test_float_repr_is_reproducible(self):
        x = 0.1 + 0.2
        assert format_exact(x) == repr(x)


class TestSnapshot:
    def test_keys_and_recomputability(self, t0):
        snap = metrics_snapshot(t0)
        assert set(snap) == {
            "is_oa2", "tol2", "unb1", "unb2", "d1", "d2", "d_f", "cd", "wd", "md",
        }
        assert snap == metrics_snapshot(t0)

    def test_known_values_for_trivial_array(self, t0):
        snap = metrics_snapshot(t0)
        assert snap["is_oa2"] == "0"
        assert snap["tol2"] == "1"
        assert snap["unb1"] == "4"
        assert snap["unb2"] == "4"

    def test_oa_flags(self, oa_4_3_2):
        assert metrics_snapshot(oa_4_3_2)["is_oa2"] == "1"

    @pytest.mark.parametrize(
        "variant, pinned",
        [
            ("half", ("0.7447644996480836", "3.7786470722888597", "10.717674941179608")),
            ("odd_ext", ("2.0108645267589753", "33.55815002142938", "275.1298913094646")),
        ],
    )
    def test_discrepancy_strings_are_pinned(self, variant, pinned):
        # Catalogs store these repr strings and recheck compares them exactly,
        # so any change to the order of the float arithmetic must fail here.
        a = construct(ConstructionSpec(s=3, ell=3, kappa=1, variant=variant))
        snap = metrics_snapshot(a)
        assert (snap["cd"], snap["wd"], snap["md"]) == pinned

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 9), st.integers(2, 40), st.data())
    def test_column_levels_come_from_the_cells_without_unique(self, s, n, data):
        # cd, wd and md share one point set, whose column levels points_of
        # takes from the integer cells: no np.unique anywhere in the snapshot,
        # and the memo is np.unique's, bit for bit, also where columns miss
        # levels (each column holds at least two, as the D-value needs)
        k = data.draw(st.integers(2, 6))
        held = data.draw(st.lists(st.sets(st.integers(1, s), min_size=2), min_size=k, max_size=k))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        columns = [np.append(sorted(v)[:2], rng.choice(sorted(v), size=n - 2)) for v in held]
        a = Array(np.column_stack(columns), s)
        point_sets, points_of, unique = [], fileio_mod.points_of, np.unique

        def kept(b):
            point_sets.append(points_of(b))
            return point_sets[-1]

        def refused(*args, **kwargs):
            raise AssertionError("np.unique in metrics_snapshot")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fileio_mod, "points_of", kept)
            mp.setattr(np, "unique", refused)
            metrics_snapshot(a)
        (ps,) = point_sets
        assert len(ps._columns) == k
        for x, (vals, inv) in zip(ps.points.T, ps._columns):
            want_vals, want_inv = unique(x, return_inverse=True)
            want_inv = want_inv.astype(np.min_scalar_type(len(want_vals) - 1))
            assert vals.dtype == want_vals.dtype and vals.tobytes() == want_vals.tobytes()
            assert inv.dtype == want_inv.dtype and np.array_equal(inv, want_inv)
            assert not vals.flags.writeable and not inv.flags.writeable

    def test_needs_two_factors(self):
        one_col = Array(np.array([[1], [2]]), n_levels=2)
        with pytest.raises(ValueError):
            metrics_snapshot(one_col)


class TestCatalogEntry:
    def entry(self):
        return CatalogEntry(
            name="t0",
            n_runs=4,
            n_factors=4,
            n_levels=2,
            provenance="construction",
            metrics={"unb1": "4"},
            config={"seed": 7},
        )

    def test_lam(self):
        assert self.entry().lam == 1
        e = CatalogEntry("x", 18, 5, 3, "search", {})
        assert e.lam == 2
        assert CatalogEntry("x", 10, 5, 3, "imported", {}).lam is None

    def test_json_round_trip(self):
        e = self.entry()
        back = CatalogEntry.from_json(e.to_json())
        assert back == e

    def test_json_shape(self):
        doc = json.loads(self.entry().to_json())
        assert doc["format_version"] == 1
        assert doc["parameters"] == {"N": 4, "k": 4, "s": 2, "lam": 1}
        assert doc["provenance"] == "construction"
        assert doc["config"] == {"seed": 7}

    def test_records_the_aoakit_version_apart_from_the_format(self):
        doc = json.loads(self.entry().to_json())
        assert doc["aoakit_version"] == aoakit.__version__
        assert doc["format_version"] == 1
        doc["aoakit_version"] = "0.0.0-other"
        assert CatalogEntry.from_json(json.dumps(doc)) == self.entry()

    def test_rejects_unknown_format_version(self):
        doc = json.loads(self.entry().to_json())
        doc["format_version"] = 99
        with pytest.raises(ValueError, match="unsupported catalog format"):
            CatalogEntry.from_json(json.dumps(doc))


    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda doc: [], "not a JSON object"),
            (lambda doc: {**doc, "parameters": [4, 4, 2]}, "parameters.N"),
            (lambda doc: {**doc, "parameters": {"N": 4, "k": "4", "s": 2}}, "parameters.k"),
            (lambda doc: {**doc, "parameters": {"N": 4, "k": 4}}, "parameters.s"),
            (lambda doc: {**doc, "metrics": "x"}, "metrics"),
            (lambda doc: {**doc, "metrics": {"unb1": 4}}, "metrics"),
            (lambda doc: {**doc, "config": 7}, "config"),
            (lambda doc: {**doc, "name": None}, "name"),
            (lambda doc: {k: v for k, v in doc.items() if k != "provenance"}, "provenance"),
        ],
        ids=["list", "params-list", "k-string", "s-missing", "metrics-string",
             "metric-int", "config-int", "name-null", "provenance-missing"],
    )
    def test_rejects_a_field_of_the_wrong_shape(self, edit, field):
        doc = edit(json.loads(self.entry().to_json()))
        with pytest.raises(ValueError, match=field):
            CatalogEntry.from_json(json.dumps(doc))


class TestCatalog:
    def test_add_writes_both_files(self, tmp_path, t0):
        entry = catalog_add(tmp_path, t0, "t0", provenance="construction")
        assert (tmp_path / "t0.txt").exists()
        assert (tmp_path / "t0.json").exists()
        stored, _ = read_array(tmp_path / "t0.txt")
        assert stored == t0
        assert entry.metrics == metrics_snapshot(t0)

    def test_add_validation(self, tmp_path, t0):
        with pytest.raises(ValueError, match="provenance"):
            catalog_add(tmp_path, t0, "x", provenance="dream")
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(ValueError, match="bad entry name"):
                catalog_add(tmp_path, t0, bad)
        with pytest.raises(ValueError, match="does not exist"):
            catalog_add(tmp_path / "missing", t0, "x")

    def test_list_sorted_and_filtered(self, tmp_path, t0, oa_4_3_2):
        catalog_add(tmp_path, t0, "b-entry", provenance="construction")
        catalog_add(tmp_path, oa_4_3_2, "a-entry", provenance="imported")
        names = [e.name for e in catalog_list(tmp_path)]
        assert names == ["a-entry", "b-entry"]
        assert [e.name for e in catalog_list(tmp_path, k=4)] == ["b-entry"]
        assert [e.name for e in catalog_list(tmp_path, k=3)] == ["a-entry"]
        assert [e.name for e in catalog_list(tmp_path, s=2)] == ["a-entry", "b-entry"]
        assert catalog_list(tmp_path, n=100) == []

    def test_list_raises_on_corrupt_sidecar(self, tmp_path, t0):
        catalog_add(tmp_path, t0, "good")
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.raises(ValueError, match="corrupt catalog entry bad.json"):
            catalog_list(tmp_path)

    def test_recheck_passes_on_fresh_catalog(self, tmp_path, t0, oa_4_3_2, rng):
        catalog_add(tmp_path, t0, "t0")
        catalog_add(tmp_path, oa_4_3_2, "oa")
        catalog_add(tmp_path, random_array(rng), "rand", provenance="search")
        report = catalog_recheck(tmp_path)
        assert report.ok
        assert report.checked == 3
        assert report.mismatches == [] and report.corrupt == []

    def test_sidecar_without_version_loads_and_rechecks(self, tmp_path, t0):
        catalog_add(tmp_path, t0, "t0")
        sidecar = tmp_path / "t0.json"
        doc = json.loads(sidecar.read_text())
        del doc["aoakit_version"]
        sidecar.write_text(json.dumps(doc))
        assert [e.name for e in catalog_list(tmp_path)] == ["t0"]
        report = catalog_recheck(tmp_path)
        assert report.ok and report.checked == 1

    def test_recheck_flags_edited_array(self, tmp_path, t0):
        catalog_add(tmp_path, t0, "t0")
        cells = t0.cells.copy()
        cells[0, 0] = 3 - cells[0, 0]
        write_array(tmp_path / "t0.txt", Array(cells, n_levels=2))
        report = catalog_recheck(tmp_path)
        assert not report.ok
        assert report.checked == 1
        keys = {key for _, key, _, _ in report.mismatches}
        assert "unb1" in keys or "unb2" in keys
        for name, _, stored, fresh in report.mismatches:
            assert name == "t0" and stored != fresh

    def test_recheck_flags_parameter_change(self, tmp_path, t0, oa_4_3_2):
        catalog_add(tmp_path, t0, "t0")
        write_array(tmp_path / "t0.txt", oa_4_3_2)
        report = catalog_recheck(tmp_path)
        assert report.mismatches == [("t0", "parameters", "4 4 2", "4 3 2")]

    def test_recheck_reports_corrupt_entries(self, tmp_path, t0):
        catalog_add(tmp_path, t0, "ok")
        (tmp_path / "broken.json").write_text('{"format_version": 1}')
        catalog_add(tmp_path, t0, "orphan")
        (tmp_path / "orphan.txt").unlink()
        report = catalog_recheck(tmp_path)
        assert not report.ok
        assert report.checked == 1
        assert sorted(name for name, _ in report.corrupt) == ["broken", "orphan"]

    def test_recheck_passes_on_a_catalog_from_an_earlier_version(self):
        # written by `aoakit catalog add` before the triangle discrepancy fold;
        # the 400-run array folds in three row blocks
        report = catalog_recheck(Path(__file__).parent / "data" / "catalog_v1")
        assert report.ok and report.checked == 3

    def test_recheck_requires_directory(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            catalog_recheck(tmp_path / "nope")

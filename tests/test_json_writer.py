"""The report writer `qec.cli._dump_json` against the json module.

The writer must give exactly the bytes of
`json.dumps(payload, sort_keys=True, separators=(", ", ": "), indent=1)`,
and raise TypeError wherever that call does.
"""

import contextlib
import csv
import io
import json
import math
from enum import Enum, IntEnum

import numpy as np
from hypothesis import given, strategies as st

import qec.cli
from qec.classify import classify_all, enumerate_connected
from qec.cli import _dump_json, main
from qec.graph6 import to_graph6


def dumps(payload):
    return json.dumps(payload, sort_keys=True, separators=(", ", ": "), indent=1)


class Tag(str, Enum):
    PLAIN = "QE"
    ESCAPED = 'é "\\\n\x00 '


class Level(IntEnum):
    LOW = -3
    HIGH = 1 << 70


class Name(str):
    pass


class Salted(str):
    """Equal to its plain str but hashed apart: a dict may hold both, which
    json orders by their values."""

    def __hash__(self):
        return hash(("salted", str(self)))


class Count(int):
    pass


class Ratio(float):
    pass


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(1 << 200), 1 << 200), st.floats(),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]), st.text(),
    st.characters(max_codepoint=0x1F), st.sampled_from(list(Tag)), st.sampled_from(list(Level)),
    st.builds(Name, st.text()), st.builds(Count, st.integers()), st.builds(Ratio, st.floats()),
)
# keys json writes, each dict's keys of one comparable kind; % in keys, as
# the writer formats a dict of str keys into a text made once per key shape
PERCENT_KEYS = st.one_of(st.sampled_from(["%", "%s", "%%", "%(a)s", "%d"]), st.text("%sa(", max_size=4))
STR_KEYS = st.one_of(st.text(), st.sampled_from(list(Tag)), st.builds(Name, st.text()), PERCENT_KEYS)
# one key set in every insertion order, each key plain or an equal str subclass
SHAPE = ("%", "%s", "%%", "id", "qec")
SHAPE_KEYS = st.permutations(SHAPE).flatmap(
    lambda keys: st.tuples(*(st.sampled_from([key, Name(key)]) for key in keys)))
NUMBER_KEYS = st.one_of(st.integers(-(1 << 70), 1 << 70), st.floats(), st.booleans(),
                        st.sampled_from(list(Level)))
# values json cannot write, and keys it rejects or cannot sort
UNWRITABLE = st.one_of(st.builds(object), st.frozensets(st.integers(), max_size=2),
                       st.binary(max_size=2), st.complex_numbers(max_magnitude=4))
TUPLE_KEYS = st.tuples(st.integers(0, 2))
# keys json sorts with their values where a plain str and an equal Salted meet
SALTED_KEYS = st.one_of(st.text(max_size=1), st.builds(Salted, st.text(max_size=1)))
ANY_KEYS = st.one_of(STR_KEYS, NUMBER_KEYS, st.none(), TUPLE_KEYS)


def shaped(values):
    """Dicts of the key set SHAPE."""
    return st.builds(lambda keys, items: dict(zip(keys, items)), SHAPE_KEYS,
                     st.tuples(*[values] * len(SHAPE)))


def payloads(leaves, key_kinds):
    """Nested payloads; a SHAPE dict may hold another at its first key, one
    shape at two depths."""
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.tuples(inner, inner), shaped(inner),
        st.builds(lambda outer, nested: {**outer, next(iter(outer)): nested}, shaped(inner), shaped(inner)),
        *(st.dictionaries(keys, inner, max_size=4) for keys in key_kinds)), max_leaves=24)


# lists of two or more dicts on one key set, which the writer writes by column
ROW_KEYS = st.one_of(st.sampled_from(SHAPE), PERCENT_KEYS, SALTED_KEYS, st.builds(Name, st.text(max_size=2)))
ONE_TYPE = (st.booleans(), st.integers(-(1 << 70), 1 << 70), st.floats(), st.none(), st.text(max_size=3))
COLUMNS = (*ONE_TYPE, st.one_of(*ONE_TYPE))  # cells of one scalar type, or of all together


@st.composite
def same_shape_lists(draw, cells, distinct):
    """Lists of 2-5 dicts on one key set (Name and Salted keys, % in keys),
    `distinct` as str or not: each column all of one scalar type, or of
    bool/int/float/None/str together, or of `cells`; each row in the first
    row's key order or in another."""
    keys = draw(st.lists(ROW_KEYS, min_size=1, max_size=5, unique_by=str if distinct else None))
    count = draw(st.integers(2, 5))
    columns = [draw(st.lists(draw(st.sampled_from(COLUMNS + (cells,))), min_size=count, max_size=count))
               for _ in keys]
    first = list(range(len(keys)))
    orders = [draw(st.one_of(st.just(first), st.just(first), st.permutations(first))) for _ in range(count)]
    return [{keys[i]: columns[i][row] for i in order} for row, order in enumerate(orders)]


def same_shape_payloads(leaves, distinct):
    """Same-shape lists at any depth, nested lists and dicts in their columns;
    keys that are equal as str (a plain one and a Salted one, which json
    sorts by their values) only where `distinct` is false."""
    return st.recursive(leaves, lambda inner: st.one_of(
        same_shape_lists(inner, distinct), st.lists(inner, max_size=3),
        st.dictionaries(STR_KEYS, inner, max_size=3)), max_leaves=30)


# report rows by column: plain str keys (% and escapes in them), 0-5 rows,
# each column of one scalar type, of bool/int/float/None/str together, or of
# ROW_CELLS: lists of bools and int subclasses, nested payloads, str
# subclasses, NaN, +-inf and -0.0
RECORD_KEYS = st.one_of(st.sampled_from([*SHAPE, Tag.ESCAPED.value]), PERCENT_KEYS, st.text(max_size=3))
ROW_CELLS = st.one_of(
    st.lists(st.one_of(st.booleans(), st.integers(), st.builds(Count, st.integers()), st.sampled_from(list(Level))),
             max_size=3),
    payloads(SCALARS, (STR_KEYS, NUMBER_KEYS)), st.builds(Name, st.text(max_size=3)), st.sampled_from(list(Tag)),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]))
# floats where repr and `.12g` write apart: small exponents, 1e11 to 1e17
# (`.12g` writes an exponent from 1e12 on, repr from 1e16), -0.0, integers
# and subnormals (fewer than 12 digits round-trip)
EXPONENT_FLOATS = st.one_of(
    st.sampled_from([1e-5, 1e-4, 9.99999999999e-5, -0.0, 0.0, 1.0, -1.0, 999999999999.0, 1e12, 1.5e15, 1e16, 1e17,
                     1e-100, 2.2250738585072014e-308, 1e-310, -5e-324]),
    st.floats(1e11, 1e17), st.floats(-1e17, -1e11), st.floats(1e-7, 1e-3), st.integers(-(1 << 60), 1 << 60).map(float))
# tuples of cells equal to each other but written apart: (1,), (True,), (1.0,); (0.0,), (-0.0,)
TUPLE_CELLS = st.lists(st.sampled_from([0, 1, True, False, 0.0, -0.0, 1.0, 1e16, None, "1"]), max_size=3).map(tuple)
MIXED_CELLS = st.one_of(TUPLE_CELLS, EXPONENT_FLOATS, st.none(), st.booleans(), st.integers(), st.lists(TUPLE_CELLS,
                                                                                                      max_size=2))


@st.composite
def rows_reports(draw, cells):
    """The columns of a `_Rows` and its digits: 1-5 keys, 0-5 rows, each
    column drawn as COLUMNS, `cells` or mixed cells, or as a few cell objects
    repeated (tuples, lists, floats: one object at several rows), or as
    floats across exponents given by their `.12g` digits."""
    keys = draw(st.lists(RECORD_KEYS, min_size=1, max_size=5, unique=True))
    count = draw(st.integers(0, 5))
    columns, digits = {}, {}
    for key in keys:
        kind = draw(st.sampled_from(["cells", "pooled", "digits"]))
        if kind == "cells":
            cell = draw(st.sampled_from(COLUMNS + (cells, MIXED_CELLS, EXPONENT_FLOATS)))
            columns[key] = draw(st.lists(cell, min_size=count, max_size=count))
        elif kind == "pooled":
            pool = draw(st.lists(st.one_of(TUPLE_CELLS, MIXED_CELLS, cells), min_size=1, max_size=3))
            columns[key] = draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count))
        else:
            digits[key] = [f"{v:.12g}" for v in draw(st.lists(EXPONENT_FLOATS | st.floats(), min_size=count,
                                                              max_size=count))]
            columns[key] = list(map(float, digits[key]))
    return columns, digits


def outcome(write, payload):
    try:
        return write(payload)
    except TypeError:
        return TypeError


def test_writer_special_values():
    payload = {"a": [-0.0, math.nan, math.inf, -math.inf, 1e300, 2 ** 80, True, False, None],
               "b": {}, "c": [], "d": [[], {}, [{}]], "é": Tag.ESCAPED, "n": Level.HIGH}
    assert _dump_json(payload) == dumps(payload)
    assert '"a": [\n  -0.0, \n  NaN, \n  Infinity, \n  -Infinity' in _dump_json(payload)
    for bad in ({(0,): 1}, {"a": 1, 2: 3}, [{"a": {1j}}]):
        assert outcome(_dump_json, bad) is outcome(dumps, bad) is TypeError


@given(payloads(SCALARS, (STR_KEYS, NUMBER_KEYS, st.none())))
def test_writer_equals_json_dumps(payload):
    assert _dump_json(payload) == dumps(payload)


@given(payloads(SCALARS | UNWRITABLE, (STR_KEYS, ANY_KEYS, TUPLE_KEYS, SALTED_KEYS)))
def test_writer_raises_type_error_where_json_does(payload):
    assert outcome(_dump_json, payload) == outcome(dumps, payload)


@given(rows_reports(ROW_CELLS))
def test_writer_same_shape_lists_by_column(report):
    """Report rows held by column (`qec.cli._Rows`) are written as json writes
    the list of their dicts, at the top and inside a report: repeated cell
    objects written once, and a column of floats from its `.12g` digits as
    `float.__repr__` of float of those digits."""
    columns, digits = report
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    assert _dump_json(qec.cli._Rows(columns, digits)) == dumps(rows)
    assert _dump_json({"records": qec.cli._Rows(columns, digits), "%s": 1}) == dumps({"records": rows, "%s": 1})


@given(rows_reports(ROW_CELLS | UNWRITABLE))
def test_writer_rows_raise_type_error_where_json_does(report):
    columns, digits = report
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    assert outcome(_dump_json, {"records": qec.cli._Rows(columns, digits)}) == outcome(dumps, {"records": rows})


def _assert_values_written_from_12_digits(values):
    """In the report rows of 2-vertex graphs with QEC `values`, the JSON text
    of each value is `float.__repr__(float(f"{v:.12g}"))`, as json.dumps
    writes that float, and its CSV text is `f"{v:.12g}"`."""
    count, ones = len(values), np.ones(len(values), dtype=np.int64)
    rows = qec.cli._record_rows(2, ones, ones, values, [0] * count, [None] * count, ["step1"] * count)
    want = [dict(zip(rows.columns, row), qec=float(f"{v:.12g}")) for row, v in zip(zip(*rows.columns.values()), values)]
    assert _dump_json(rows) == dumps(want)
    assert [row["qec"] for row in csv.DictReader(io.StringIO(qec.cli._records_csv(rows)))] == [
        f"{v:.12g}" for v in values]


@given(st.lists(EXPONENT_FLOATS | st.floats(), max_size=6))
def test_report_values_are_formatted_once(values):
    _assert_values_written_from_12_digits(values)


def test_every_qec_value_is_written_from_its_12_digits():
    """The QEC value of every class on 2..7 vertices, through the rows of one
    report: JSON as repr of the 12-digit float, CSV as the 12 digits."""
    _assert_values_written_from_12_digits([r.qec_value for n in range(2, 8) for r in classify_all(n)[0]])


def test_writer_list_cells_of_plain_ints():
    """A column of lists (the report's witness and closed-form columns) is
    written cell by cell: an empty list, or one of plain ints, is joined in
    place; one that holds True, an int subclass or a float beside 1 takes
    json's general path."""
    rows = [{"w": [1, 2, 3], "c": []}, {"w": [True, 1], "c": [1]}, {"w": None, "c": [Count(1), 1]},
            {"w": [1.0, 1], "c": [[1], 1]}, {"w": [], "c": [-(1 << 80), Level.LOW, 0]}]
    for payload in (rows, {"records": rows}, [rows, rows]):
        assert _dump_json(payload) == dumps(payload)
    assert '"w": [\n   true, \n   1\n  ]' in _dump_json(rows)


@given(same_shape_payloads(SCALARS, distinct=True))
def test_writer_same_shape_lists_equal_json_dumps(payload):
    assert _dump_json(payload) == dumps(payload)


@given(same_shape_payloads(SCALARS | UNWRITABLE, distinct=False))
def test_writer_same_shape_lists_raise_type_error_where_json_does(payload):
    assert outcome(_dump_json, payload) == outcome(dumps, payload)


def test_cli_json_reports_equal_json_dumps(monkeypatch):
    """`compute --json --exact` and `classify --json` of every class on 2..6
    vertices print exactly json.dumps of the payload the writer was given,
    and both payloads carry the same QEC."""
    payloads_seen = []

    def recorded(payload):
        payloads_seen.append(payload)
        return _dump_json(payload)

    monkeypatch.setattr(qec.cli, "_dump_json", recorded)
    for n in range(2, 7):
        for g in enumerate_connected(n):
            for argv in (["compute", to_graph6(g), "--json", "--exact"],
                         ["classify", to_graph6(g), "--json"]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(argv) == 0
                assert out.getvalue() == dumps(payloads_seen[-1]) + "\n", argv
            computed, classified = (p["records"][0] for p in payloads_seen[-2:])
            assert computed["qec"] == classified["qec"], to_graph6(g)
    assert len(payloads_seen) == 2 * (1 + 2 + 6 + 21 + 112)

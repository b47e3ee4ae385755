import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from spdcpol.output import (Table, format_cell, from_csv, parse_cell, to_csv,
                            to_json, write_table)


def test_float_serialization_round_trips_exactly():
    rng = np.random.default_rng(7)
    values = list(rng.uniform(-1e6, 1e6, 50)) + [1.0 / 3.0, math.pi,
                                                 1e-300, 2.5e17, 0.1]
    for value in values:
        assert float(format_cell(float(value))) == float(value)


def test_csv_round_trip_exact():
    table = Table(name="t", columns=("a", "b", "n"),
                  rows=[(1.0 / 3.0, -2.718281828459045e-5, 3),
                        (math.pi, 0.0, -7)])
    back = from_csv(to_csv(table), name="t")
    assert back.columns == table.columns
    assert back.rows == table.rows
    assert isinstance(back.rows[0][2], int)


# Every line break str.splitlines knows but "\n" and "\r", which CSV cannot
# hold; "" makes an empty line of a one-column table.
BREAKS = ["", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
          "\u2029"]
ROUND_TRIP_CELLS = st.one_of(
    st.floats(), st.integers(min_value=-2**70, max_value=2**70),
    st.text(st.characters(exclude_characters=",\n\r"), max_size=4),
    st.sampled_from(BREAKS), st.sampled_from(BREAKS).map("x{}y".format))


def _same(a, b):
    # by value and type, nan matching nan
    return type(a) is type(b) and (a == b or (a != a and b != b))


@st.composite
def round_trip_tables(draw):
    width = draw(st.integers(min_value=1, max_value=3))
    rows = draw(st.lists(st.tuples(*[ROUND_TRIP_CELLS] * width), max_size=5))
    return Table(name="t", columns=tuple(f"c{i}" for i in range(width)),
                 rows=rows)


@given(round_trip_tables())
@example(Table(name="t", columns=("c0",), rows=[("",)]))
@example(Table(name="t", columns=("c0",),
               rows=[("x\u2028y",), ("x\x0cy",)]))
@example(Table(name="t", columns=("c0", "c1"),
               rows=[("x\x85y", 1.0), (math.nan, "")]))
def test_from_csv_reads_every_line_to_csv_writes(table):
    assert table == table
    back = from_csv(to_csv(table), name="t")
    assert back.columns == table.columns
    assert len(back.rows) == len(table.rows)
    for got, row in zip(back.rows, table.rows):
        assert len(got) == len(row)
        assert all(_same(cell, parse_cell(format_cell(given)))
                   for cell, given in zip(got, row))


def _format_cell_per_cell(table):
    return ",".join(table.columns) + "\n" + "".join(
        ",".join(map(format_cell, row)) + "\n" for row in table.rows)


# One strategy per cell kind to_csv must write as format_cell does: floats
# with nan and infinities (so -0.0 and subnormals come up), ints beyond
# 64 bits, bools, text and numpy scalars.
CELLS = (st.floats(),
         st.integers(min_value=-2**70, max_value=2**70),
         st.booleans(),
         st.text(st.characters(exclude_characters=",\n\r"), max_size=4),
         st.floats().map(np.float64),
         st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64))


@st.composite
def tables(draw):
    width = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        cells = [draw(st.sampled_from(CELLS)) for _ in range(width)]
    else:
        cells = [st.one_of(CELLS)] * width
    rows = draw(st.lists(st.tuples(*cells), max_size=6))
    return Table(name="t", columns=tuple(f"c{i}" for i in range(width)),
                 rows=rows)


@given(tables())
@example(Table(name="t", columns=("phase_rad",),
               rows=[(0.0,), (-0.0,), (0.0,)]))
@example(Table(name="t", columns=("a", "n"), rows=[(0.5, 2), [0.25, 3]]))
def test_csv_text_is_format_cell_per_cell(table):
    assert to_csv(table) == _format_cell_per_cell(table)


def _nan(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Columns as run_scenario hands them over: float64 for exact floats, int64
# for ints within int64, a tuple of cells for any other column. An "other"
# column may hold cells of every kind, so it may be all floats or all ints
# and still be a tuple.
FLOATS = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, 5e-324, -2.2250738585072e-308,
     _nan(0x7FF8000000000000), _nan(0x7FF8000000000001),
     _nan(0xFFF8000000000000)]))
INT64S = st.one_of(st.integers(min_value=-2**63, max_value=2**63 - 1),
                   st.sampled_from([2**63 - 1, -(2**63 - 1)]))
OTHERS = st.one_of(FLOATS, INT64S, st.booleans(),
                   st.text(st.characters(exclude_characters=",\n\r"),
                           max_size=4),
                   FLOATS.map(np.float64),
                   st.sampled_from([10**20, -10**20, 2**63]))
KINDS = {"float": (FLOATS, lambda cells: np.array(cells, dtype=np.float64)),
         "int": (INT64S, lambda cells: np.array(cells, dtype=np.int64)),
         "other": (OTHERS, tuple)}


@st.composite
def column_data(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1,
                          max_size=4))
    height = draw(st.integers(min_value=0, max_value=6))
    return kinds, [draw(st.lists(KINDS[kind][0], min_size=height,
                                 max_size=height)) for kind in kinds]


def _from_columns(kinds, cells, memo=None):
    return Table("t", tuple(f"c{i}" for i in range(len(kinds))),
                 _float_text=memo, _columns=tuple(
                     KINDS[kind][1](column)
                     for kind, column in zip(kinds, cells)))


def _sharing(*datasets):
    """Column-built tables all holding one text memo, as a run's do."""
    memo = {}
    return [_from_columns(kinds, cells, memo) for kinds, cells in datasets]


@given(st.lists(column_data(), min_size=2, max_size=3).map(
    lambda datasets: _sharing(*datasets)), st.booleans())
@example(_sharing((["float"], [[0.0, 0.0]]), (["float"], [[-0.0, -0.0]])),
         True)
@example(_sharing((["float", "other"], [[1e20], [10**20]]),
                  (["other", "float"], [[10**20], [1e20]])), True)
@example(_sharing((["float", "int", "other"],
                   [[1.0, 1.0], [1, 1], [True, True]]),
                  (["other"], [[True, True]]),
                  (["int"], [[1, 1]])), True)
@example(_sharing((["float"], [[_nan(0x7FF8000000000000)]]),
                  (["float"], [[_nan(0x7FF8000000000001)]]),
                  (["float"], [[_nan(0xFFF8000000000000)]])), True)
@example(_sharing((["float"], [[0.1, 0.1]]), (["float"], [[0.1, 0.1]])),
         True)
@example(_sharing((["float"], [[0.1, math.nan]]), (["float"], [[0.1, 2.5]]),
                  (["float"], [[0.1, math.nan]])), False)
def test_tables_sharing_a_memo_are_format_cell_per_cell(shared, csv_first):
    # the memo holds each column's CSV and JSON texts; neither reads the
    # other's, whichever is written first
    writers = (to_csv, to_json) if csv_first else (to_json, to_csv)
    texts = [{write: write(table) for write in writers} for table in shared]
    for table, text in zip(shared, texts):
        assert text[to_csv] == _format_cell_per_cell(table)
        assert text[to_json] == _json_dumps(table)


@pytest.mark.parametrize("shared", [
    _sharing((["float", "float"], [[0.0] * 3, [-0.0] * 3]),
             (["float", "float"], [[-0.0] * 3, [0.0] * 3])),
    _sharing((["float"], [[_nan(0x7FF8000000000000)] * 4]),
             (["float"], [[_nan(0xFFF8000000000000)] * 4])),
    _sharing((["float", "int"], [[2.5], [7]])),
    _sharing((["float"], [[0.0, 0.0, 0.0, -0.0]]),
             (["float"], [[0.0] * 4]),
             (["float"], [[1.5, 1.5, -1.5]])),
    _sharing((["other", "float"], [[10**20] * 3, [1e20] * 3]),
             (["float", "other"], [[1e20] * 3, [10**20] * 3])),
], ids=["signed_zeros", "nan", "one_row", "sign_bit_of_last_cell",
        "int_next_to_float"])
def test_constant_float_columns_are_format_cell_per_cell(shared):
    # a constant column is formatted once; its bits, not its value, decide
    for table in shared:
        assert to_csv(table) == _format_cell_per_cell(table)


def test_json_mirror():
    table = Table(name="t", columns=("x",), rows=[(0.1,)], note="hello")
    payload = json.loads(to_json(table))
    assert payload["columns"] == ["x"]
    assert payload["rows"] == [[0.1]]
    assert payload["note"] == "hello"


def _json_dumps(table):
    # the reference: the payload through json's own indent=2 encoder
    payload = {"name": table.name, "columns": list(table.columns),
               "rows": table.rows}
    if table.note:
        payload["note"] = table.note
    return json.dumps(payload, indent=2) + "\n"


# Text json must escape: quotes, backslashes, control characters, line
# breaks and non-ASCII (outside the BMP too); nested cells of every kind.
JSON_TEXT = st.text(st.sampled_from('ab"\\/\n\r\t\x00\x7fé€\u2028\U0001f600'),
                    max_size=5)
NESTED = st.recursive(
    st.one_of(st.none(), st.booleans(), FLOATS, st.integers(), JSON_TEXT),
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(JSON_TEXT, inner, max_size=2), max_leaves=6)
JSON_KINDS = {**KINDS, "other": (st.one_of(OTHERS, JSON_TEXT, NESTED), tuple)}


@st.composite
def json_tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(JSON_KINDS)), min_size=1,
                          max_size=4))
    height = draw(st.integers(min_value=0, max_value=6))
    columns = tuple(JSON_KINDS[kind][1](draw(st.lists(
        JSON_KINDS[kind][0], min_size=height, max_size=height)))
        for kind in kinds)
    names = draw(st.lists(JSON_TEXT, min_size=len(kinds),
                          max_size=len(kinds)))
    return Table(draw(JSON_TEXT), tuple(names), note=draw(JSON_TEXT),
                 _columns=columns)


@given(json_tables())
@example(Table(name="t", columns=("a", "b")))
@example(Table(name="t", columns=("a",), rows=[(math.nan,), (math.inf,),
                                                (-math.inf,), (-0.0,)],
               note="n\u00e9\n\"q\""))
@example(Table(name="t", columns=("x", "n"), _columns=(
    np.array([0.1, math.nan, -math.inf, -0.0]),
    np.array([2**63 - 1, -2**63, 0, 7], dtype=np.int64))))
@example(Table(name="t", columns=("a", "b", "c"),
               rows=[(np.float64(0.1), True, 2**70),
                     ([1, [2.5, {"k": [None, "\\"]}], []], False, -2**70)]))
def test_json_text_is_json_dumps_byte_for_byte(table):
    assert to_json(table) == _json_dumps(table)


_LOOP: list = []
_LOOP.append(_LOOP)


@pytest.mark.parametrize("cell", [np.int64(1), object(), [np.float32(1.0)],
                                  _LOOP],
                         ids=["int64", "object", "nested_float32", "loop"])
def test_json_refuses_every_cell_json_dumps_refuses(cell):
    # with json's own exception: TypeError, or ValueError for a loop
    table = Table(name="t", columns=("a", "b"), rows=[(0.5, 1), (cell, 2)])
    with pytest.raises(Exception) as refused:
        _json_dumps(table)
    with pytest.raises(refused.type):
        to_json(table)


def test_row_width_validation():
    with pytest.raises(ValueError):
        Table(name="t", columns=("a", "b"), rows=[(1.0,)])
    with pytest.raises(ValueError):
        Table(name="t", columns=())


@pytest.mark.parametrize("write", [to_csv, to_json])
def test_rows_is_a_copy_and_ragged_tables_are_refused(write):
    # the shape is fixed at construction: rows hands out a new list
    table = Table(name="t", columns=("a", "n"), rows=[(0.5, 2)])
    text = write(table)
    table.rows.append((0.25,))
    assert write(table) == text
    assert table.rows == [(0.5, 2)]
    with pytest.raises(AttributeError):
        table.columns = ("a",)
    with pytest.raises(ValueError, match="'t'"):
        Table(name="t", columns=("a", "n"), rows=[(0.5, 2), (0.25,)])
    with pytest.raises(ValueError, match="'t'"):
        Table(name="t", columns=("a", "n"),
              _columns=(np.array([0.5, 0.25]), np.array([2])))


@pytest.mark.parametrize("table, column", [
    (Table(name="t", columns=("a", "b"), rows=[("x,y", 1.0)]), "a"),
    (Table(name="t", columns=("a", "b"), rows=[(1.0, "x\ny")]), "b"),
    (Table(name="t", columns=("a", "b"), rows=[(1.0, 2), (1.5, "x\ry")]),
     "b"),
    (Table(name="t", columns=("a,b",), rows=[(1.0,)]), "a,b"),
    (Table(name="t", columns=("a\n",)), "a\n"),
], ids=["comma_cell", "newline_cell", "return_cell", "comma_name",
        "newline_name"])
def test_csv_refuses_text_it_cannot_hold(table, column):
    # "x,y" would widen its line past the header and not read back
    with pytest.raises(ValueError,
                       match=re.escape(f"table 't' column {column!r}")):
        to_csv(table)
    assert json.loads(to_json(table))["columns"] == list(table.columns)


def _exact(rows):
    # cell types and float bits: nan != nan, and 0.0 == -0.0
    return [tuple((type(cell), struct.pack("<d", cell)
                   if isinstance(cell, float) else cell) for cell in row)
            for row in rows]


@given(st.lists(column_data(), min_size=1, max_size=3), st.booleans())
@example([(["float", "int", "other"], [[0.0, -0.0], [2**63 - 1, -2**63 + 1],
                                        [10**20, True]]),
          (["float"], [[-0.0, 0.0]]),
          (["other"], [[0.0, 0.0]])], True)
@example([(["float"], [[_nan(0x7FF8000000000000)] * 2]),
          (["float"], [[_nan(0xFFF8000000000000)] * 2])], True)
@example([(["float", "int", "other"], [[], [], []])], False)
def test_tables_built_from_columns_write_as_from_rows(datasets, shared):
    # shared: every table, built either way, holds one CSV text memo
    memo = {} if shared else None
    for kinds, cells in datasets:
        rows = list(zip(*cells))
        from_columns = _from_columns(kinds, cells, memo)
        from_rows = Table("t", from_columns.columns, rows, _float_text=memo)
        csv_text = to_csv(from_columns)
        assert csv_text == to_csv(from_rows)
        assert csv_text == _format_cell_per_cell(from_rows)
        assert to_json(from_columns) == to_json(from_rows)
        assert _exact(from_columns.rows) == _exact(from_rows.rows) \
            == _exact(rows)


def test_write_table(tmp_path):
    table = Table(name="demo", columns=("x",), rows=[(1.5,)])
    csv_path = write_table(table, tmp_path, fmt="csv")
    json_path = write_table(table, tmp_path, fmt="json")
    assert csv_path.read_text() == "x\n1.5\n"
    assert json.loads(json_path.read_text())["rows"] == [[1.5]]
    with pytest.raises(ValueError):
        write_table(table, tmp_path, fmt="xml")

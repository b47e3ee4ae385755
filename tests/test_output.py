import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from spdcpol.output import Table, format_cell, from_csv, to_csv, to_json, write_table


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
    expected = ",".join(table.columns) + "\n" + "".join(
        ",".join(map(format_cell, row)) + "\n" for row in table.rows)
    assert to_csv(table) == expected


def _sharing(*tables):
    """The tables again, all holding one CSV text memo, as a run's do."""
    memo = {}
    return [Table(table.name, table.columns, table.rows, _float_text=memo)
            for table in tables]


def _nan(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@given(st.lists(tables(), min_size=2, max_size=3).map(lambda ts: _sharing(*ts)))
@example(_sharing(Table(name="a", columns=("x",), rows=[(0.0,), (0.0,)]),
                  Table(name="b", columns=("x",), rows=[(-0.0,), (-0.0,)])))
@example(_sharing(Table(name="a", columns=("x", "n"), rows=[(1e20, 10**20)]),
                  Table(name="b", columns=("n", "x"), rows=[(10**20, 1e20)])))
@example(_sharing(Table(name="a", columns=("x", "n", "b"),
                        rows=[(1.0, 1, True), (1.0, 1, True)]),
                  Table(name="b", columns=("b",), rows=[(True,), (True,)]),
                  Table(name="c", columns=("n",), rows=[(1,), (1,)])))
@example(_sharing(Table(name="a", columns=("x",),
                        rows=[(_nan(0x7FF8000000000000),)]),
                  Table(name="b", columns=("x",),
                        rows=[(_nan(0x7FF8000000000001),)]),
                  Table(name="c", columns=("x",),
                        rows=[(_nan(0xFFF8000000000000),)])))
def test_tables_sharing_a_memo_are_format_cell_per_cell(shared):
    texts = [to_csv(table) for table in shared]
    for table, text in zip(shared, texts):
        assert text == ",".join(table.columns) + "\n" + "".join(
            ",".join(map(format_cell, row)) + "\n" for row in table.rows)


@pytest.mark.parametrize("shared", [
    _sharing(Table(name="a", columns=("x", "y"),
                   rows=[(0.0, -0.0)] * 3),
             Table(name="b", columns=("y", "x"),
                   rows=[(-0.0, 0.0)] * 3)),
    _sharing(Table(name="a", columns=("x",),
                   rows=[(_nan(0x7FF8000000000000),)] * 4),
             Table(name="b", columns=("x",),
                   rows=[(_nan(0xFFF8000000000000),)] * 4)),
    _sharing(Table(name="a", columns=("x", "n"), rows=[(2.5, 7)])),
    _sharing(Table(name="a", columns=("x",),
                   rows=[(0.0,), (0.0,), (0.0,), (-0.0,)]),
             Table(name="b", columns=("x",), rows=[(0.0,)] * 4),
             Table(name="c", columns=("x",),
                   rows=[(1.5,), (1.5,), (-1.5,)])),
    _sharing(Table(name="a", columns=("n", "x"),
                   rows=[(10**20, 1e20)] * 3),
             Table(name="b", columns=("x", "n"),
                   rows=[(1e20, 10**20)] * 3)),
], ids=["signed_zeros", "nan", "one_row", "sign_bit_of_last_cell",
        "int_next_to_float"])
def test_constant_float_columns_are_format_cell_per_cell(shared):
    # a constant column is formatted once; its bits, not its value, decide
    for table in shared:
        assert to_csv(table) == ",".join(table.columns) + "\n" + "".join(
            ",".join(map(format_cell, row)) + "\n" for row in table.rows)


def test_json_mirror():
    table = Table(name="t", columns=("x",), rows=[(0.1,)], note="hello")
    payload = json.loads(to_json(table))
    assert payload["columns"] == ["x"]
    assert payload["rows"] == [[0.1]]
    assert payload["note"] == "hello"


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


# Columns built two ways: from rows, and as the arrays run_scenario hands
# over (float64 for exact floats, int64 for ints within int64, a tuple of
# cells for any other column). An "other" column may hold cells of every
# kind, so it may be all floats or all ints and still be a tuple.
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
        names = tuple(f"c{i}" for i in range(len(kinds)))
        rows = list(zip(*cells))
        from_rows = Table("t", names, rows, _float_text=memo)
        from_columns = Table("t", names, _float_text=memo, _columns=tuple(
            KINDS[kind][1](column) for kind, column in zip(kinds, cells)))
        csv_text = to_csv(from_columns)
        assert csv_text == to_csv(from_rows)
        assert csv_text == ",".join(names) + "\n" + "".join(
            ",".join(map(format_cell, row)) + "\n" for row in rows)
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

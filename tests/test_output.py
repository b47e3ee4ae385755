import json
import math
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


def _with_row(table, row):
    table.rows.append(row)
    return table


@given(tables())
@example(Table(name="t", columns=("phase_rad",),
               rows=[(0.0,), (-0.0,), (0.0,)]))
@example(_with_row(Table(name="t", columns=("a", "n"), rows=[(0.5, 2)]),
                   [0.25, 3]))
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
def test_rows_appended_ragged_are_refused_by_the_writers(write):
    # a CSV line narrower than its header would not read back through from_csv
    table = _with_row(Table(name="t", columns=("a", "n"), rows=[(0.5, 2)]),
                      (0.25,))
    with pytest.raises(ValueError, match="'t'"):
        write(table)


def test_write_table(tmp_path):
    table = Table(name="demo", columns=("x",), rows=[(1.5,)])
    csv_path = write_table(table, tmp_path, fmt="csv")
    json_path = write_table(table, tmp_path, fmt="json")
    assert csv_path.read_text() == "x\n1.5\n"
    assert json.loads(json_path.read_text())["rows"] == [[1.5]]
    with pytest.raises(ValueError):
        write_table(table, tmp_path, fmt="xml")

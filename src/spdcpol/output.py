"""Result tables with exact decimal round-trip serialization.

Floats are written with 17 significant digits so ``float(text)`` reproduces
the in-memory value bit for bit; integers stay integers. ``format_cell`` is
that rule for one cell, and ``to_csv`` reproduces it byte for byte one column
at a time.

A `Table` holds one sequence per column, and its shape is checked once, when
it is built: at least one column, every row as wide as the header, every
column as long as the others. Rows cannot be added nor column names
replaced afterwards: ``Table.columns`` is read-only, and ``Table.rows``
builds a new list of row tuples from the columns on every read. A table
built from rows decides each column's kind once: a column of exact floats
is stored as float64, one of exact ints within int64 as int64, and any other
column (bools, text, numpy scalars, wider ints, mixed kinds) as the tuple of
its cells. `spdcpol.scenario.run_scenario` hands its float64 and int64
arrays over as they are.

``to_csv`` writes a float64 column through one ``"%.17g"`` template,
memoized by the column's bytes across the tables of one ``run_scenario``
call (and formatted once if those bytes are one float64 repeated), an int64
column through ``"%d"``, and any other column through ``format_cell`` per
cell. CSV cannot hold a ``,``, ``\\n`` or ``\\r`` in a cell or a column name,
so ``to_csv`` refuses such text; the JSON mirror holds it, and the same
columns/rows. CSV files carry one header line naming columns and units.
Files are written as UTF-8 whatever the locale.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

_INT64 = np.iinfo(np.int64)


class Table:
    """A named result table: column names, one sequence per column, a note.

    ``Table(name, columns, rows, note)`` builds the columns from the rows and
    checks the shape, once. ``rows`` is a new list of row tuples on every
    read; equality compares name, columns, rows and note.
    """

    def __init__(self, name: str, columns: tuple[str, ...],
                 rows=(), note: str = "", *,
                 _float_text: dict[bytes, list[str]] | None = None,
                 _columns: tuple | None = None):
        self.name = name
        self._names = columns
        self.note = note
        if _columns is None:
            rows = list(rows)
            ragged = bool(set(map(len, rows)) - {len(columns)})
            _columns = (tuple(map(_stored, zip(*rows))) if rows
                        else ((),) * len(columns))
        else:
            ragged = (len(_columns) != len(columns)
                      or len(set(map(len, _columns))) > 1)
        if not columns or ragged:
            raise ValueError(f"table '{name}' needs at least one column "
                             f"and every row {len(columns)} cells wide")
        self._columns = _columns
        # CSV text of float64 columns keyed by their bytes, not by value:
        # 0.0 == -0.0 and 1 == 1.0 but their texts differ. run_scenario hands
        # all its tables one dict; any other table starts with its own.
        self._float_text = {} if _float_text is None else _float_text

    @property
    def columns(self) -> tuple[str, ...]:
        """The column names, fixed with the shape at construction."""
        return self._names

    @property
    def rows(self) -> list[tuple]:
        """The rows as a new list of tuples of Python values."""
        return list(zip(*map(_cells, self._columns)))

    def __eq__(self, other):
        if not isinstance(other, Table):
            return NotImplemented
        return ((self.name, self.columns, self.rows, self.note)
                == (other.name, other.columns, other.rows, other.note))

    def __repr__(self):
        return (f"Table(name={self.name!r}, columns={self.columns!r}, "
                f"rows={self.rows!r}, note={self.note!r})")


def _stored(cells: tuple):
    # The one kind decision of a column built from rows.
    kinds = set(map(type, cells))
    if kinds == {float}:
        return np.array(cells, dtype=np.float64)
    if kinds == {int} and _INT64.min <= min(cells) \
            and max(cells) <= _INT64.max:
        return np.array(cells, dtype=np.int64)
    return cells


def _cells(column) -> list | tuple:
    return column.tolist() if isinstance(column, np.ndarray) else column


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def parse_cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _printf(cells: list, conversion: str) -> list[str]:
    # One template over the whole column; no number's text holds a comma.
    return (",".join([conversion] * len(cells)) % tuple(cells)).split(",")


def _float_column_text(column: np.ndarray, memo: dict) -> list[str]:
    key = column.tobytes()
    text = memo.get(key)
    if text is None:
        # A column of one repeated float64 (bits, not value) is one text.
        if key == key[:8] * len(column):
            text = ["%.17g" % column.item(0)] * len(column)
        else:
            text = _printf(column.tolist(), "%.17g")
        memo[key] = text
    return text


def _refuse_csv_breaks(table: Table, column: str, text: str) -> None:
    if "," in text or "\n" in text or "\r" in text:
        raise ValueError(f"table '{table.name}' column {column!r}: CSV cannot "
                         f"hold ',', '\\n' or '\\r' in a cell or column name")


def _column_text(table: Table, name: str, column) -> list[str]:
    # format_cell's text for each cell: "%.17g" % x == format(x, ".17g") for
    # every float64 (nan, +-inf, -0.0 and subnormals included) and
    # "%d" % n == str(n) for every int.
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            return _float_column_text(column, table._float_text)
        return _printf(column.tolist(), "%d")
    text = list(map(format_cell, column))
    _refuse_csv_breaks(table, name, "".join(text))
    return text


def to_csv(table: Table) -> str:
    """CSV text of ``table``: a header line, then one line per row.

    Each cell reads as ``format_cell`` writes it, one column at a time (see
    the module docstring). A cell or column name holding ``,``, ``\\n`` or
    ``\\r`` is a ValueError naming the table and the column.
    """
    for name in table.columns:
        _refuse_csv_breaks(table, name, name)
    # A table without rows is its header alone.
    texts = ([_column_text(table, name, column)
              for name, column in zip(table.columns, table._columns)]
             if len(table._columns[0]) else [])
    return "\n".join([",".join(table.columns),
                      *map(",".join, zip(*texts))]) + "\n"


def from_csv(text: str, name: str = "") -> Table:
    lines = [line for line in text.splitlines() if line]
    if not lines:
        raise ValueError("empty CSV text")
    columns = tuple(lines[0].split(","))
    rows = [tuple(parse_cell(cell) for cell in line.split(","))
            for line in lines[1:]]
    return Table(name=name, columns=columns, rows=rows)


def to_json(table: Table) -> str:
    payload = {
        "name": table.name,
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
    }
    if table.note:
        payload["note"] = table.note
    return json.dumps(payload, indent=2) + "\n"


def _serialize(table: Table, fmt: str) -> str:
    if fmt == "csv":
        return to_csv(table)
    if fmt == "json":
        return to_json(table)
    raise ValueError(f"unknown format '{fmt}' (use csv or json)")


def write_table(table: Table, directory: str | Path, fmt: str = "csv") -> Path:
    text = _serialize(table, fmt)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{table.name}.{fmt}"
    path.write_text(text, encoding="utf-8")
    return path

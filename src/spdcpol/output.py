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
built from rows keeps the cells it was given, each column as the tuple of
its cells; `spdcpol.scenario.run_scenario` hands its float64 and int64
arrays over as they are.

``to_csv`` writes a float64 column through one ``"%.17g"`` template,
memoized by the column's bytes across the tables of one ``run_scenario``
call (and formatted once if those bytes are one float64 repeated), an int64
column through ``"%d"``, and a column of cells through ``format_cell`` per
cell. CSV cannot hold a ``,``, ``\\n`` or ``\\r`` in a cell or a column name,
so ``to_csv`` refuses such text; the JSON mirror holds it, and the same
columns/rows. CSV files carry one header line naming columns and units.
``from_csv`` reads back exactly the lines ``to_csv`` writes: it splits on
``\\n`` alone and keeps every line but the empty one after the final newline,
so a blank line is a row (an empty cell), not skipped. Files are written as
UTF-8 whatever the locale.

``to_json`` writes exactly the bytes of ``json.dumps(payload, indent=2)``
plus a newline, also one column at a time: a finite float64 column through
``float.__repr__`` (the shortest text that reads back to the same float),
memoized by its bytes in the per-run memo that holds the CSV texts, and any
other cell as json writes it (``NaN``, ``Infinity`` and ``-Infinity`` for
the non-finite floats, ``int.__repr__`` for ints, and ``json.dumps`` of the
cell alone, re-indented to its depth, for the rest), joined into the
``indent=2`` layout. A cell json refuses raises json's own exception.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np


class Table:
    """A named result table: column names, one sequence per column, a note.

    ``Table(name, columns, rows, note)`` keeps each column as the tuple of
    the cells the rows give it, and checks the shape once. ``rows`` is a new
    list of row tuples on every read; equality compares name, columns, rows
    and note.
    """

    def __init__(self, name: str, columns: tuple[str, ...],
                 rows=(), note: str = "", *,
                 _float_text: dict | None = None,
                 _columns: tuple | None = None):
        self.name = name
        self._names = columns
        self.note = note
        if _columns is None:
            rows = list(rows)
            ragged = bool(set(map(len, rows)) - {len(columns)})
            _columns = tuple(zip(*rows)) if rows else ((),) * len(columns)
        else:
            ragged = (len(_columns) != len(columns)
                      or len(set(map(len, _columns))) > 1)
        if not columns or ragged:
            raise ValueError(f"table '{name}' needs at least one column "
                             f"and every row {len(columns)} cells wide")
        self._columns = _columns
        # Texts of float64 columns keyed by their bytes, not by value:
        # 0.0 == -0.0 and 1 == 1.0 but their texts differ. CSV text sits
        # under the bytes, JSON text under ("json", bytes). run_scenario
        # hands all its tables one dict; any other table starts with its own.
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
    """The table ``to_csv`` wrote as ``text``; a blank line is a row."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("empty CSV text")
    columns = tuple(lines[0].split(","))
    rows = [tuple(parse_cell(cell) for cell in line.split(","))
            for line in lines[1:]]
    return Table(name=name, columns=columns, rows=rows)


def _json_value(value, depth: int) -> str:
    # json.dumps(indent=2)'s text for ``value`` nested ``depth`` levels deep:
    # strings and numbers as json writes them (JavaScript's names for the
    # non-finite floats), anything else dumped alone and indented to its
    # depth (a JSON text holds no raw newline but its layout's).
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        if value != value:
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _json_column(column, memo: dict) -> list[str]:
    # Every cell sits three levels deep: payload, rows, row.
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        key = ("json", column.tobytes())
        text = memo.get(key)
        if text is None and np.isfinite(column).all():
            text = memo[key] = list(map(float.__repr__, column.tolist()))
        if text is not None:
            return text
    return [_json_value(cell, 3) for cell in _cells(column)]


def to_json(table: Table) -> str:
    """JSON text of ``table``: ``json.dumps(payload, indent=2) + "\\n"``.

    The payload is ``{"name", "columns", "rows"}``, plus ``"note"`` when the
    table has one. The text is those bytes, written one column at a time
    rather than through ``table.rows`` (see the module docstring). A cell
    json refuses raises what ``json.dumps`` raises for it: a TypeError, or a
    ValueError for a list that holds itself.
    """
    name = _json_value(table.name, 1)
    columns = ",\n    ".join([_json_value(column, 2)
                               for column in table.columns])
    if len(table._columns[0]):
        texts = [_json_column(column, table._float_text)
                 for column in table._columns]
        rows = "\n    ],\n    [\n      ".join(
            map(",\n      ".join, zip(*texts)))
        rows = f"[\n    [\n      {rows}\n    ]\n  ]"
    else:
        rows = "[]"
    note = f',\n  "note": {_json_value(table.note, 1)}' if table.note else ""
    return (f'{{\n  "name": {name},\n  "columns": [\n    {columns}\n  ],'
            f'\n  "rows": {rows}{note}\n}}\n')


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

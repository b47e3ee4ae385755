"""Result tables with exact decimal round-trip serialization.

Floats are written with 17 significant digits so ``float(text)`` reproduces
the in-memory value bit for bit; integers stay integers. ``format_cell`` is
that rule for one cell, and ``to_csv`` reproduces it byte for byte one column
at a time: exact floats through one ``"%.17g"`` template, memoized by the
column's float64 bytes across the tables of one
`spdcpol.scenario.run_scenario` call (and formatted once if those bytes are
one float64 repeated), exact ints through ``"%d"``, any other column through
``format_cell`` per cell. A table has at least one column and every row as
wide as the header; construction, ``to_csv`` and ``to_json`` all refuse any
other shape. CSV files carry one header line naming columns and units; the
JSON mirror holds the same columns/rows. Files are written as UTF-8 whatever
the locale.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Table:
    name: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    note: str = ""
    # CSV text of float columns keyed by their float64 bytes, not by value:
    # 0.0 == -0.0 and 1 == 1.0 but their texts differ. run_scenario hands
    # all its tables one dict; any other table starts with its own.
    _float_text: dict[bytes, list[str]] = field(
        default_factory=dict, repr=False, compare=False, kw_only=True)

    def __post_init__(self):
        _check_shape(self)


def _check_shape(table: Table) -> None:
    # Rows may be appended after construction, so the writers check again.
    if not table.columns or set(map(len, table.rows)) - {len(table.columns)}:
        raise ValueError(f"table '{table.name}' needs at least one column "
                         f"and every row {len(table.columns)} cells wide")


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


def _printf(column: tuple, conversion: str) -> list[str]:
    # One template over the whole column; no cell text holds a comma.
    return (",".join([conversion] * len(column)) % column).split(",")


def _float_column_text(column: tuple, memo: dict) -> list[str]:
    key = array("d", column).tobytes()
    text = memo.get(key)
    if text is None:
        # A column of one repeated float64 (bits, not value) is one text.
        if key == key[:8] * len(column):
            text = ["%.17g" % column[0]] * len(column)
        else:
            text = _printf(column, "%.17g")
        memo[key] = text
    return text


def _column_text(column: tuple, memo: dict) -> list[str]:
    # format_cell's text for each cell: "%.17g" % x == format(x, ".17g") for
    # every float (nan, +-inf, -0.0 and subnormals included) and
    # "%d" % n == str(n) for every int; bool, str, numpy scalars, other
    # subclasses and mixed columns go cell by cell.
    kinds = set(map(type, column))
    if kinds == {float}:
        return _float_column_text(column, memo)
    if kinds == {int}:
        return _printf(column, "%d")
    return list(map(format_cell, column))


def to_csv(table: Table) -> str:
    """CSV text of ``table``: a header line, then one line per row.

    Each cell reads as ``format_cell`` writes it, one column at a time (see
    the module docstring). A table without columns or with a row of another
    width than the header is a ValueError.
    """
    _check_shape(table)
    texts = [_column_text(column, table._float_text)
             for column in zip(*table.rows)]
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
    _check_shape(table)
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

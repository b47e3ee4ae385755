"""Result tables with exact decimal round-trip serialization.

Floats are written with 17 significant digits so ``float(text)`` reproduces
the in-memory value bit for bit; integers stay integers. ``format_cell`` is
that rule for one cell, and ``to_csv`` reproduces it byte for byte column by
column: each float column is formatted with one printf template and kept in
a memo keyed by the column's float64 bytes, which the tables of one
`spdcpol.scenario.run_scenario` call share, so a column those tables repeat
(the scan grid, a constant rate) is formatted once per run. A column whose
bytes are one float64 repeated (a constant rate or duration) is formatted
once and its text repeated. CSV files carry
a single header line naming columns and units; the JSON mirror holds the
same columns/rows for machine consumption. Files are written as UTF-8
whatever the locale.
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
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row width {len(row)} != {len(self.columns)} columns "
                    f"in table '{self.name}'")


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


# printf conversions that give format_cell's text for a column whose cells
# all have exactly this type: "%.17g" % x == format(x, ".17g") for every
# float (nan, ±inf, -0.0 and subnormals included) and "%d" % n == str(n)
# for every int.
_CONVERSIONS = {frozenset({float}): "%.17g", frozenset({int}): "%d"}


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


def _column_texts(table: Table) -> list[list[str]] | None:
    """Each column's cell texts, or None unless every column is exactly
    ``float`` or exactly ``int`` throughout and every row has one width."""
    rows = table.rows
    if not rows or not rows[0] or set(map(len, rows)) != {len(rows[0])}:
        return None
    columns = list(zip(*rows))
    conversions = [_CONVERSIONS.get(frozenset(map(type, column)))
                   for column in columns]
    if None in conversions:
        return None
    return [_printf(column, conversion) if conversion == "%d"
            else _float_column_text(column, table._float_text)
            for column, conversion in zip(columns, conversions)]


def to_csv(table: Table) -> str:
    """CSV text of ``table``: a header line, then one line per row.

    Each cell reads as ``format_cell`` writes it. A table whose columns are
    each exactly ``float`` or exactly ``int`` is written column by column
    (see the module docstring): a float column found in the table's memo is
    not formatted again, and a constant one (the same float64 bits in every
    cell) is formatted once. Any other table (``bool``, ``str``, numpy
    scalars, other subclasses, mixed or ragged rows) takes ``format_cell``
    per cell.
    """
    texts = _column_texts(table)
    lines = (zip(*texts) if texts is not None
             else (map(format_cell, row) for row in table.rows))
    return "\n".join([",".join(table.columns), *map(",".join, lines)]) + "\n"


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

"""Result tables with exact decimal round-trip serialization.

Floats are written with 17 significant digits so ``float(text)`` reproduces
the in-memory value bit for bit; integers stay integers. ``format_cell`` is
that rule for one cell, and ``to_csv`` reproduces it byte for byte through
one printf template per table. CSV files carry a single header line naming
columns and units; the JSON mirror holds the same columns/rows for machine
consumption. Files are written as UTF-8 whatever the locale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Table:
    name: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    note: str = ""

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


# printf conversions that give the same text as format_cell for a cell of
# exactly this type: "%.17g" % x == format(x, ".17g") for every float (nan,
# ±inf, -0.0 and subnormals included) and "%d" % n == str(n) for every int.
_CELL_CONVERSIONS = {float: "%.17g", int: "%d"}


def to_csv(table: Table) -> str:
    """CSV text of ``table``: a header line, then one line per row.

    Each cell reads as ``format_cell`` writes it. The first row's cell types
    pick one printf template for the table, used on every row whose cells
    have exactly those types; ``bool``, ``str``, numpy scalars, other
    subclasses and rows of another width or type mix take ``format_cell``.
    """
    rows = table.rows
    types = tuple(map(type, rows[0])) if rows else ()
    if types and all(t in _CELL_CONVERSIONS for t in types):
        template = ",".join(_CELL_CONVERSIONS[t] for t in types)
    else:
        types, template = None, ""   # no row takes the template
    lines = [",".join(table.columns)]
    lines.extend([template % tuple(row) if tuple(map(type, row)) == types
                  else ",".join(map(format_cell, row)) for row in rows])
    return "\n".join(lines) + "\n"


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

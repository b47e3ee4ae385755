"""Result tables with exact decimal round-trip serialization.

Floats are written with 17 significant digits so ``float(text)`` reproduces
the in-memory value bit for bit; integers stay integers. CSV files carry a
single header line naming columns and units; the JSON mirror holds the same
columns/rows for machine consumption.
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


def to_csv(table: Table) -> str:
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(format_cell(v) for v in row))
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
    path.write_text(text)
    return path

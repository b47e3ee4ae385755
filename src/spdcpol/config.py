"""Line-oriented ``[section]`` / ``key = value`` file parser.

The format used by material catalogues and scenario files:

* blank lines and lines starting with ``#`` are ignored,
* ``[name]`` opens a section (sections may repeat; order is kept),
* ``key = value`` adds an entry to the current section.

Every section and entry remembers its 1-based source line so loaders can
raise ConfigError pointing at the exact line when a value fails to resolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError

_BOOLS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


@dataclass
class Entry:
    value: str
    line: int


@dataclass
class Section:
    name: str
    line: int | None  # None for a section the file does not hold
    path: str
    entries: dict[str, Entry] = field(default_factory=dict)

    def error(self, message: str, key: str | None = None) -> ConfigError:
        line = self.entries[key].line if key in self.entries else self.line
        return ConfigError(message, path=self.path, line=line)

    def has(self, key: str) -> bool:
        return key in self.entries

    def _get(self, key: str, default, convert, expected: str):
        # A missing key takes the default or is an error at the section
        # line; text that does not convert is an error at its key's line.
        if key not in self.entries:
            if default is None:
                raise self.error(
                    f"missing required key '{key}' in [{self.name}]")
            return default
        raw = self.entries[key].value
        try:
            return convert(raw)
        except (KeyError, ValueError):
            raise self.error(f"expected {expected} for '{key}', got '{raw}'",
                             key)

    def get_str(self, key: str, default: str | None = None) -> str:
        return self._get(key, default, str, "text")

    def get_float(self, key: str, default: float | None = None) -> float:
        return self._get(key, default, _finite_float, "a finite number")

    def get_int(self, key: str, default: int | None = None) -> int:
        return self._get(key, default, int, "an integer")

    def get_bool(self, key: str, default: bool | None = None) -> bool:
        return self._get(key, default, lambda raw: _BOOLS[raw.lower()],
                         "true/false")

    def reject_unknown(self, allowed: set[str]) -> None:
        for key in self.entries:
            if key not in allowed:
                raise self.error(f"unknown key '{key}' in [{self.name}]", key)


def parse_config(text: str, path: str = "<config>") -> list[Section]:
    """Parse ``text`` into an ordered list of sections."""
    sections: list[Section] = []
    current: Section | None = None
    # only \n, \r\n and \r end a line (str.splitlines: also \f, \x85, ...)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if line[0] == "[" and line[-1] == "]":
            name = line[1:-1].strip()
            if not name:
                raise ConfigError("empty section name", path=path, line=lineno)
            current = Section(name, lineno, path)
            sections.append(current)
            continue
        # the line is stripped, so the key can only end in blanks and the
        # value only start with them
        key, equals, value = line.partition("=")
        if not equals:
            raise ConfigError(
                f"expected 'key = value' or '[section]', got '{line}'",
                path=path, line=lineno)
        key = key.rstrip()
        if not key:
            raise ConfigError("empty key", path=path, line=lineno)
        if current is None:
            raise ConfigError(
                f"entry '{key}' appears before any [section]",
                path=path, line=lineno)
        if key in current.entries:
            raise ConfigError(
                f"duplicate key '{key}' in [{current.name}]",
                path=path, line=lineno)
        current.entries[key] = Entry(value.lstrip(), lineno)
    return sections

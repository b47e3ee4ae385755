"""Material catalogue: Sellmeier data loaded from a line-oriented text file.

Each record is a ``[name]`` section carrying the eight Sellmeier numbers (two
coefficient sets in the form n^2 = a + b/(L^2 - c) - d L^2, L in um) plus the
supported band:

    [bbo]
    ordinary_a = 2.7405
    ordinary_b = 0.0184
    ordinary_c = 0.0179
    ordinary_d = 0.0155
    extraordinary_a = 2.3730
    extraordinary_b = 0.0128
    extraordinary_c = 0.0156
    extraordinary_d = 0.0044
    band_min_um = 0.3
    band_max_um = 1.1

A ``bbo`` record (Eimerl beta-BBO data) ships with the package; alternative
coefficient sets can be swapped in by pointing at another catalogue file.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .config import parse_config
from .crystal import SellmeierCoefficients, UniaxialCrystal
from .errors import ConfigError

_KINDS = ("ordinary", "extraordinary")
_COEFFICIENTS = ("a", "b", "c", "d")
_RECORD_KEYS = ({f"{kind}_{c}" for kind in _KINDS for c in _COEFFICIENTS}
                | {"band_min_um", "band_max_um"})


@dataclass(frozen=True)
class MaterialRecord:
    name: str
    ordinary: SellmeierCoefficients
    extraordinary: SellmeierCoefficients
    band: tuple[float, float]  # m

    def crystal(self, cut_angle: float, length: float) -> UniaxialCrystal:
        """Build a crystal slab of this material."""
        return UniaxialCrystal(ordinary=self.ordinary,
                               extraordinary=self.extraordinary,
                               cut_angle=cut_angle, length=length,
                               band=self.band, material=self.name)


def parse_materials(text: str, path: str = "<materials>") -> dict[str, MaterialRecord]:
    records: dict[str, MaterialRecord] = {}
    for section in parse_config(text, path):
        name = section.name.lower()
        if name in records:
            raise section.error(f"duplicate material '{name}'")
        section.reject_unknown(_RECORD_KEYS)
        ordinary, extraordinary = (
            SellmeierCoefficients(*(section.get_float(f"{kind}_{c}")
                                    for c in _COEFFICIENTS))
            for kind in _KINDS)
        band = (section.get_float("band_min_um") * 1e-6,
                section.get_float("band_max_um") * 1e-6)
        if not 0.0 < band[0] < band[1]:
            raise section.error(f"invalid band {band} for '{name}'")
        records[name] = MaterialRecord(name=name, ordinary=ordinary,
                                       extraordinary=extraordinary, band=band)
    if not records:
        raise ConfigError("no material records found", path=path)
    return records


def load_materials(path: str | Path) -> dict[str, MaterialRecord]:
    path = Path(path)
    return parse_materials(path.read_text(encoding="utf-8"), str(path))


@lru_cache(maxsize=1)
def builtin_materials() -> dict[str, MaterialRecord]:
    text = resources.files("spdcpol.data").joinpath("materials.txt").read_text(
        encoding="utf-8")
    return parse_materials(text, "spdcpol/data/materials.txt")


def get_material(name: str,
                 catalogue: dict[str, MaterialRecord] | None = None) -> MaterialRecord:
    catalogue = builtin_materials() if catalogue is None else catalogue
    key = name.lower()
    if key not in catalogue:
        known = ", ".join(sorted(catalogue))
        raise KeyError(f"unknown material '{name}' (known: {known})")
    return catalogue[key]

"""Scenario files: map a tabletop layout onto emitted result tables.

A scenario is a line-oriented ``key = value`` file (see `spdcpol.config`)
with the sections below; each but ``[compensator]`` appears at most once.
`load_scenario` only turns text into values (an unknown section or key, or
text that does not convert, is an error at its line); `ScenarioSpec` judges
every value, and the loader reports a refusal at its key's line. The name
prefixes every table file name, so it must be a plain file name. Lab-facing
quantities use nm/mm/um/mrad and external (lab) angles, converted to SI and
internal angles at this boundary through `spdcpol.geometry` and the
scenario's source. Emitted scan tables carry both angle columns.

    [scenario]   name, seed, bell_max_order (optional)
    [source]     material, pump_wavelength_nm, length_mm
    [compensator] (zero or more, in beam order)
                 material, length_mm, orientation = compensating |
                 anticompensating, cut_angle_deg (optional, defaults to the
                 production cut)
    [geometry]   lens_focal_length_mm, pinhole_diameter_um (optional),
                 ambient_index (optional)
    [scan]       theta_ext_min_mrad, theta_ext_max_mrad, points,
                 settings_deg = 45 45; 45 -45
    [visibility] points, max_halfwidth = first_singlet |
                 max_halfwidth_mrad = <external mrad>,
                 center_mrad (optional), compare_uncompensated (optional)
    [counts]     duration_s, peak_rate_hz, accidental_rate_hz (optional);
                 needs [scan], whose rates it draws counts from

Presets ``fig2a`` (bare 1 mm BBO source, 351 nm pump), ``fig2b`` (0.5 mm
compensator), ``fig2c`` (0.5 mm anti-compensator) and ``fig3`` (visibility
vs pinhole halfwidth, compensated with uncompensated baseline) ship with the
package and can be passed to the CLI by name.

Scan rates average the pinhole as a slit in the scan-plane angle, like
sweep windows: two Gauss nodes theta +- h / sqrt(3), h the internal
half-width the pinhole diameter subtends, or the one node theta for a zero
diameter (whether to average a disk instead is open). A scan evaluates the
two reference rates R(45, 45) and R(45, -45) once per Gauss node and point,
and each settings pair's rate column is the linear mix
sin^2(T1 + T2) R(45, 45) + sin^2(T1 - T2) R(45, -45), so the number of
pairs adds no rate evaluations. Distinct pairs must have distinct table
labels; an exact repeat of a pair is kept once, so every scan and counts
table name appears once. The ``envelope`` and ``phase_rad`` columns are
`spdcpol.biphoton.angular_envelope` and ``relative_phase`` called on the
whole grid; tables hold the run's arrays as their columns.
The visibility sweep reads every column from the two window moments M0 and
M1 (concurrence is |M1| / M0). Its windows are nested about one center, and
one kernel call integrates each slice of the angle axis between their edges
once and sums the slices outward from the center. The uncompensated
baseline shares that call and its slices: it is the same production crystal
with the bare phase slope |B| L, so it needs no second cut solve.
The ``first_singlet`` halfwidth keyword resolves to the first Psi- angle of
the bare production crystal, pi / (|B| L) internal. On a flat phase law the
Psi- Bell table is empty, with a note.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .biphoton import (BellState, CompensatorPlacement, Orientation,
                       SourceConfig, angular_envelope, bell_angles,
                       relative_phase)
from .config import Section, parse_config
from .crystal import phase_matching_cut_angle
from .errors import (ConfigError, OutOfBandError, PhaseMatchingError,
                     QuadratureError)
from .geometry import (GeometryConfig, external_to_internal_angle,
                       internal_to_external_angle)
from .materials import MaterialRecord, get_material
from .measurement import (MAX_SUPPORTED_ANGLE, PolarizerSettings,
                          _analyzer_mix, _panel_count, _panel_step,
                          _sweep_columns, coincidence_rate, simulate_counts)
from .output import Table

PRESETS = ("fig2a", "fig2b", "fig2c", "fig3")

SCAN_COLUMNS = ("theta_ext_rad", "theta_int_rad", "envelope", "phase_rad",
                "rate_arb")
VISIBILITY_COLUMNS = ("halfwidth_ext_rad", "C_pp_arb", "C_pm_arb", "V",
                      "concurrence")
BELL_COLUMNS = ("theta_int_rad", "theta_ext_rad", "envelope")
COUNTS_COLUMNS = ("theta_ext_rad", "theta_int_rad", "true_rate_hz",
                  "accidental_rate_hz", "duration_s", "counts")

FIRST_SINGLET = "first_singlet"

# The analyzer settings (45, 45) and (45, -45) whose rates every scan mixes.
_REFERENCES = (PolarizerSettings(math.radians(45.0), math.radians(45.0)),
               PolarizerSettings(math.radians(45.0), math.radians(-45.0)))

# Bound on scan and sweep points and on bell_max_order: every size read from
# a scenario allocates in proportion to it.
MAX_POINTS = 100_000
# Bound on the cells of all tables a scenario asks for: a scan and its
# counts hold a row per settings pair and point, so points alone do not
# bound them. A MAX_POINTS scan of three pairs with counts, a MAX_POINTS
# sweep with its baseline and MAX_POINTS Bell angles hold 4.6e6.
MAX_CELLS = 10_000_000

# The sections a scenario may hold and the keys each may carry. Every
# section but [compensator] appears at most once.
_SECTION_KEYS = {
    "scenario": {"name", "seed", "bell_max_order"},
    "source": {"material", "pump_wavelength_nm", "length_mm"},
    "compensator": {"material", "length_mm", "orientation", "cut_angle_deg"},
    "geometry": {"lens_focal_length_mm", "pinhole_diameter_um",
                 "ambient_index"},
    "scan": {"theta_ext_min_mrad", "theta_ext_max_mrad", "points",
             "settings_deg"},
    "visibility": {"points", "max_halfwidth", "max_halfwidth_mrad",
                   "center_mrad", "compare_uncompensated"},
    "counts": {"duration_s", "peak_rate_hz", "accidental_rate_hz"},
}


class _SpecError(ValueError):
    """A spec's refusal with its [section] and key (None: the section)."""

    def __init__(self, section: str, key: str | None, message: str):
        super().__init__(message)
        self.section, self.key = section, key


@dataclass(frozen=True)
class ScanSpec:
    theta_ext_min: float  # rad
    theta_ext_max: float  # rad
    points: int
    settings_deg: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.settings_deg:
            raise _SpecError("scan", "settings_deg",
                             "settings_deg needs at least one pair")
        for pair in self.settings_deg:
            if not all(map(math.isfinite, pair)):
                raise _SpecError("scan", "settings_deg", (
                    f"settings_deg values must be finite numbers, got "
                    f"'{pair[0]!r} {pair[1]!r}'"))
        # Table label -> the pair first given for it, in order: an exact
        # repeat is kept once, a different pair would overwrite its tables.
        labelled: dict[str, tuple[float, float]] = {}
        for pair in self.settings_deg:
            first = labelled.setdefault(_settings_label(pair), pair)
            if first != pair:
                raise _SpecError("scan", "settings_deg", (
                    f"settings_deg pairs '{first[0]!r} {first[1]!r}' and "
                    f"'{pair[0]!r} {pair[1]!r}' differ but share the table "
                    f"label '{_settings_label(pair)}'"))
        object.__setattr__(self, "settings_deg", tuple(labelled.values()))


@dataclass(frozen=True)
class VisibilitySpec:
    points: int
    max_halfwidth_ext: float | None  # rad; None = first singlet of bare crystal
    center_ext: float = 0.0
    compare_uncompensated: bool = False


@dataclass(frozen=True)
class CountsSpec:
    duration: float         # s
    peak_rate: float        # 1/s at the uncompensated (45,45) peak
    accidental_rate: float  # 1/s


@dataclass(frozen=True)
class ScenarioSpec:
    """A resolved scenario, valid by construction: building one (or a
    ScanSpec, for its settings) raises ValueError on any value the run
    cannot use. The rules are those of the scenario file, in `_fence`."""

    name: str
    seed: int
    source: SourceConfig
    geometry: GeometryConfig
    scan: ScanSpec | None = None
    visibility: VisibilitySpec | None = None
    counts: CountsSpec | None = None
    bell_max_order: int = 8

    def __post_init__(self):
        _fence(self)


def preset_text(name: str) -> str:
    return resources.files("spdcpol.data.presets").joinpath(f"{name}.cfg").read_text(
        encoding="utf-8")


def _resolve_source_text(source: str | Path) -> tuple[str, str, str]:
    # The text, the path that error messages name and the default name: a
    # file if one opens at ``source``, else a preset of that name. The file
    # is read as bytes in one unbuffered call and decoded once; its line
    # endings are left for ``parse_config`` to fold.
    path = Path(source)
    try:
        with open(path, "rb", buffering=0) as handle:
            return handle.read().decode("utf-8"), str(path), path.stem
    except UnicodeDecodeError as exc:
        raise ConfigError(f"scenario is not UTF-8 text ({exc.reason} at "
                          f"byte {exc.start})", path=str(path))
    except (FileNotFoundError, NotADirectoryError, ValueError):
        pass  # no file there, nor can there be (a NUL): a preset name?
    except OSError as exc:
        raise ConfigError(f"cannot read scenario: {exc.strerror}",
                          path=str(path))
    if str(source) in PRESETS:
        return preset_text(str(source)), f"<preset {source}>", str(source)
    raise ConfigError(
        f"scenario '{source}' is neither an existing file nor a preset "
        f"(presets: {', '.join(PRESETS)})")


def _pick_material(section: Section,
                   catalogue: dict[str, MaterialRecord] | None) -> MaterialRecord:
    try:
        return get_material(section.get_str("material"), catalogue)
    except KeyError as exc:
        raise section.error(exc.args[0], key="material")


def _parse_settings(section: Section) -> tuple[tuple[float, float], ...]:
    raw = section.get_str("settings_deg")
    pairs = []
    for chunk in raw.split(";"):
        parts = chunk.split()
        if len(parts) != 2:
            raise section.error(
                f"settings_deg expects 'T1 T2; T1 T2; ...' in degrees, "
                f"got '{raw}'", key="settings_deg")
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise section.error(
                f"settings_deg values must be finite numbers, got "
                f"'{chunk.strip()}'", key="settings_deg")
    return tuple(pairs)


def load_scenario(source: str | Path, seed: int | None = None,
                  catalogue: dict[str, MaterialRecord] | None = None) -> ScenarioSpec:
    """Load a scenario file or preset name into a resolved ScenarioSpec."""
    text, path, default_name = _resolve_source_text(source)

    by_name: dict[str, Section] = {}
    compensator_sections: list[Section] = []
    for section in parse_config(text, path):
        if section.name not in _SECTION_KEYS:
            raise section.error(f"unknown section [{section.name}]")
        if section.name == "compensator":
            compensator_sections.append(section)
        elif by_name.setdefault(section.name, section) is not section:
            raise section.error(f"duplicate section [{section.name}]")
        section.reject_unknown(_SECTION_KEYS[section.name])

    for required in ("source", "geometry"):
        if required not in by_name:
            raise ConfigError(f"missing required section [{required}]",
                              path=path)

    sec = by_name.setdefault(
        "scenario", Section(name="scenario", line=None, path=path))
    name = sec.get_str("name", default_name)
    seed_value = sec.get_int("seed", 0)
    bell_max_order = sec.get_int("bell_max_order", 8)

    src = by_name["source"]
    material = _pick_material(src, catalogue)
    pump = src.get_float("pump_wavelength_nm") * 1e-9
    length = src.get_float("length_mm") * 1e-3
    try:
        cut = phase_matching_cut_angle(material, pump)
    except PhaseMatchingError as exc:
        raise src.error(f"cannot phase-match '{material.name}' at "
                        f"{pump * 1e9:.6g} nm pump: {exc}", key="material")
    except ValueError as exc:
        raise src.error(f"invalid pump {pump * 1e9:.6g} nm for "
                        f"'{material.name}': {exc}", key="pump_wavelength_nm")
    try:
        production = material.crystal(cut, length)
    except ValueError as exc:
        raise src.error(f"invalid source crystal: {exc}", key="length_mm")

    compensators = []
    for sec in compensator_sections:
        comp_material = _pick_material(sec, catalogue)
        comp_length = sec.get_float("length_mm") * 1e-3
        orientation_raw = sec.get_str("orientation")
        try:
            orientation = Orientation[orientation_raw.upper()]
        except KeyError:
            raise sec.error(
                f"orientation must be compensating or anticompensating, "
                f"got '{orientation_raw.lower()}'", key="orientation")
        # Default to the production cut angle verbatim: a degrees round-trip
        # would break the exact phase cancellation of the compensated case.
        if sec.has("cut_angle_deg"):
            comp_cut = math.radians(sec.get_float("cut_angle_deg"))
        else:
            comp_cut = cut
        try:
            comp_crystal = comp_material.crystal(comp_cut, comp_length)
        except ValueError as exc:  # the crystal checks its length first
            key = "cut_angle_deg" if comp_length > 0.0 else "length_mm"
            raise sec.error(f"invalid compensator crystal: {exc}", key=key)
        compensators.append(CompensatorPlacement(comp_crystal, orientation))

    try:
        source_config = SourceConfig(production, pump, tuple(compensators))
    except ValueError:
        # Blame the first crystal in beam order whose prefix SourceConfig
        # refuses, with that prefix's own refusal (its band or its length).
        for count, sec in enumerate([src, *compensator_sections]):
            try:
                SourceConfig(production, pump, tuple(compensators[:count]))
            except OutOfBandError as exc:
                raise sec.error(f"invalid compensator crystal: {exc}")
            except ValueError as exc:
                raise sec.error(str(exc), key="length_mm")

    geo = by_name["geometry"]
    try:
        geometry = GeometryConfig(
            lens_focal_length=geo.get_float("lens_focal_length_mm") * 1e-3,
            pinhole_diameter=geo.get_float("pinhole_diameter_um", 0.0) * 1e-6,
            ambient_index=geo.get_float("ambient_index", 1.0))
    except ValueError as exc:
        raise geo.error(f"invalid geometry: {exc}")

    try:
        scan_spec = None
        if "scan" in by_name:
            sec = by_name["scan"]
            scan_spec = ScanSpec(
                theta_ext_min=sec.get_float("theta_ext_min_mrad") * 1e-3,
                theta_ext_max=sec.get_float("theta_ext_max_mrad") * 1e-3,
                points=sec.get_int("points"),
                settings_deg=_parse_settings(sec))
        visibility_spec = None
        if "visibility" in by_name:
            sec = by_name["visibility"]
            if sec.has("max_halfwidth") and sec.has("max_halfwidth_mrad"):
                raise sec.error("give either max_halfwidth or "
                                "max_halfwidth_mrad, not both")
            max_hw: float | None = None
            if sec.has("max_halfwidth_mrad"):
                max_hw = sec.get_float("max_halfwidth_mrad") * 1e-3
            elif sec.get_str("max_halfwidth", FIRST_SINGLET) != FIRST_SINGLET:
                raise sec.error(
                    f"max_halfwidth only understands '{FIRST_SINGLET}' "
                    f"(or use max_halfwidth_mrad)", key="max_halfwidth")
            visibility_spec = VisibilitySpec(
                points=sec.get_int("points"), max_halfwidth_ext=max_hw,
                center_ext=sec.get_float("center_mrad", 0.0) * 1e-3,
                compare_uncompensated=sec.get_bool("compare_uncompensated",
                                                   False))
        counts_spec = None
        if "counts" in by_name:
            sec = by_name["counts"]
            counts_spec = CountsSpec(
                duration=sec.get_float("duration_s"),
                peak_rate=sec.get_float("peak_rate_hz"),
                accidental_rate=sec.get_float("accidental_rate_hz", 0.0))
        return ScenarioSpec(
            name=name, seed=seed_value if seed is None else seed,
            source=source_config, geometry=geometry, scan=scan_spec,
            visibility=visibility_spec, counts=counts_spec,
            bell_max_order=bell_max_order)
    except _SpecError as exc:
        if seed is not None and exc.key == "seed":
            # the seed override is no line of the file
            raise ConfigError(str(exc)) from None
        raise by_name[exc.section].error(str(exc), key=exc.key) from None


def _reach(reach: float, section: str, key: str, what: str) -> None:
    if not reach <= MAX_SUPPORTED_ANGLE:
        raise _SpecError(section, key, f"{what} reaches {reach:.4g} rad "
                         f"internal, beyond the supported range |theta| <= "
                         f"{MAX_SUPPORTED_ANGLE} rad")


def _integer(value, section: str, key: str, what: str) -> None:
    # A float or bool would reach np.linspace, the sweep's arange, the Bell
    # angle orders or numpy's SeedSequence.
    if isinstance(value, bool) or not isinstance(value, int):
        raise _SpecError(section, key,
                         f"{what} must be an integer, got {value!r}")


def _points(points, section: str, what: str, least: int) -> None:
    _integer(points, section, "points", f"{what} points")
    if not least <= points <= MAX_POINTS:
        raise _SpecError(section, "points",
                         f"{what} needs {least} to {MAX_POINTS} points")


def _fence(spec: ScenarioSpec) -> None:
    # The name prefixes every table file name inside --out.
    if (spec.name in ("", ".", "..")
            or set(spec.name) & {"/", os.sep, os.altsep, "\0"}):
        raise _SpecError("scenario", "name", (
            f"name {spec.name!r} must be a plain file name: not empty, '.' "
            f"or '..', and without a path separator or NUL"))
    _integer(spec.seed, "scenario", "seed", "seed")
    if not spec.seed >= 0:
        raise _SpecError("scenario", "seed",
                         f"seed must be >= 0, got {spec.seed}")
    _integer(spec.bell_max_order, "scenario", "bell_max_order",
             "bell_max_order")
    if not 1 <= spec.bell_max_order <= MAX_POINTS:
        raise _SpecError("scenario", "bell_max_order",
                         f"bell_max_order must lie in [1, {MAX_POINTS}]")
    geometry, source = spec.geometry, spec.source
    if spec.scan is not None:
        lo, hi = spec.scan.theta_ext_min, spec.scan.theta_ext_max
        _points(spec.scan.points, "scan", "scan", 2)
        if not lo < hi:
            raise _SpecError("scan", None, "theta_ext_min_mrad must be below "
                             "theta_ext_max_mrad")
        edge = external_to_internal_angle(max(abs(lo), abs(hi)), geometry,
                                          source)
        _reach(edge, "scan", ("theta_ext_min_mrad" if abs(lo) > abs(hi)
                              else "theta_ext_max_mrad"), "scan")
        _reach(edge + _pinhole_halfwidth(geometry, source), "geometry",
               "pinhole_diameter_um", "the pinhole at the scan edge")
    if spec.visibility is not None:
        vspec = spec.visibility
        _points(vspec.points, "visibility", "visibility sweep", 1)
        key = "max_halfwidth_mrad"
        if vspec.max_halfwidth_ext is None:
            key = "max_halfwidth"
        elif not vspec.max_halfwidth_ext > 0.0:
            raise _SpecError("visibility", key, f"{key} must be > 0")
        center, widest, slopes = _sweep(spec)
        # The run's first and last halfwidths, widest * i / n at i = 1 and
        # n: the last may differ from the widest itself in its last bit.
        n = vspec.points
        off_axis, narrowest, widest = abs(center), widest / n, widest * n / n
        if not off_axis - narrowest < off_axis + narrowest:
            raise _SpecError("visibility", key, (
                f"the narrowest window, {off_axis:.4g} +- {narrowest:.4g} "
                f"rad internal, has no width in floating point, outside the "
                f"supported range"))
        # Blame the halfwidth when it alone leaves the domain, else the
        # center that moved the window out.
        _reach(off_axis + widest, "visibility",
               key if widest > MAX_SUPPORTED_ANGLE else "center_mrad",
               "window")
        try:
            _panel_count(center, widest,
                         _panel_step(source.envelope_slope, slopes))
        except QuadratureError as exc:
            raise _SpecError("visibility", key, f"the widest window lies "
                             f"outside the supported range: {exc}") from None
    if spec.counts is not None:
        cspec = spec.counts
        if spec.scan is None:
            raise _SpecError("counts", None, "[counts] draws counts from the "
                             "scan rates and needs a [scan] section")
        for key, value in (("duration_s", cspec.duration),
                           ("peak_rate_hz", cspec.peak_rate),
                           ("accidental_rate_hz", cspec.accidental_rate)):
            if not value >= 0.0:
                raise _SpecError("counts", key, f"{key} must be >= 0")
        # rate_arb <= 1 bounds each mean; counts <= 2**53 are exact as floats.
        mean = (cspec.peak_rate + cspec.accidental_rate) * cspec.duration
        if not mean <= 2.0 ** 53:
            raise _SpecError("counts", "duration_s", (
                f"(peak_rate_hz + accidental_rate_hz) * duration_s = "
                f"{mean:.4g} exceeds 2**53, the largest exact count"))
    _cells(spec)


def _cells(spec: ScenarioSpec) -> None:
    # Every count is at most MAX_POINTS, so only a scan's number of
    # settings pairs can take the tables past MAX_CELLS: the refusal
    # names them.
    cells = 3 * spec.bell_max_order
    if spec.visibility is not None:
        cells += (len(VISIBILITY_COLUMNS) * spec.visibility.points
                  * (1 + spec.visibility.compare_uncompensated))
    if spec.scan is not None:
        width = len(SCAN_COLUMNS)
        if spec.counts is not None:
            width += len(COUNTS_COLUMNS)
        pairs, points = len(spec.scan.settings_deg), spec.scan.points
        cells += pairs * points * width
        if not cells <= MAX_CELLS:
            raise _SpecError("scan", "settings_deg", (
                f"{pairs} settings pairs of {points} points give tables of "
                f"{cells} cells in all, more than the limit of {MAX_CELLS}"))


def _settings_label(pair: tuple[float, float]) -> str:
    return f"{pair[0]:g}_{pair[1]:g}"


def _reference_rates(theta_int: np.ndarray, spec: ScenarioSpec) -> np.ndarray:
    # The pinhole-averaged rates R(45, 45) and R(45, -45) at every scan
    # point: one coincidence_rate call per reference, Gauss node and point.
    source = spec.source
    node = _pinhole_halfwidth(spec.geometry, source) / math.sqrt(3.0)
    offsets = (-node, node) if node else (0.0,)
    nodes = np.concatenate([theta_int + offset
                            for offset in offsets]).tolist()
    rates = np.array([coincidence_rate(t, settings, source)
                      for settings in _REFERENCES for t in nodes])
    return rates.reshape(2, len(offsets), -1).mean(axis=1)


def _pinhole_halfwidth(geometry: GeometryConfig,
                       source: SourceConfig) -> float:
    # The internal half-width h of the angle the pinhole diameter subtends.
    return external_to_internal_angle(
        geometry.pinhole_diameter / (2.0 * geometry.lens_focal_length),
        geometry, source)


def _sweep(spec: ScenarioSpec) -> tuple[float, float, tuple]:
    # The internal center and widest halfwidth of a sweep's windows and the
    # phase slopes it runs: the source's, and the uncompensated baseline's
    # 2 a. Window i of n has halfwidth widest * i / n.
    vspec, geometry, source = spec.visibility, spec.geometry, spec.source
    center = external_to_internal_angle(vspec.center_ext, geometry, source)
    if vspec.max_halfwidth_ext is None:
        widest = math.pi / (2.0 * source.envelope_slope)
    else:
        widest = external_to_internal_angle(vspec.max_halfwidth_ext,
                                            geometry, source)
    slopes = (source.phase_slope, 2.0 * source.envelope_slope)
    return center, widest, slopes[:1 + vspec.compare_uncompensated]


def run_scenario(spec: ScenarioSpec) -> list[Table]:
    """Produce all tables the scenario asks for; deterministic per seed."""
    if spec.scan is None and spec.visibility is None:
        raise ConfigError(
            f"scenario '{spec.name}' defines neither [scan] nor [visibility]")
    tables: list[Table] = []
    # One CSV text memo for all tables: they repeat the grid columns.
    float_text: dict = {}

    if spec.scan is not None:
        grid = np.linspace(spec.scan.theta_ext_min, spec.scan.theta_ext_max,
                           spec.scan.points)
        theta_int = external_to_internal_angle(grid, spec.geometry,
                                               spec.source)
        envelopes = angular_envelope(theta_int, spec.source)
        phases = relative_phase(theta_int, spec.source)
        even, odd = _reference_rates(theta_int, spec)
        for table_index, pair in enumerate(spec.scan.settings_deg):
            rates = _analyzer_mix(
                PolarizerSettings(*map(math.radians, pair)), even, odd)
            tables.append(Table(
                name=f"{spec.name}_scan_{_settings_label(pair)}",
                columns=SCAN_COLUMNS,
                _columns=(grid, theta_int, envelopes, phases, rates),
                _float_text=float_text))
            if spec.counts is not None:
                cspec = spec.counts
                true_rates = cspec.peak_rate * rates
                counts = simulate_counts(
                    true_rates, cspec.accidental_rate, cspec.duration,
                    np.random.SeedSequence((spec.seed, table_index)))
                tables.append(Table(
                    name=f"{spec.name}_counts_{_settings_label(pair)}",
                    columns=COUNTS_COLUMNS,
                    _columns=(grid, theta_int, true_rates,
                              np.full(grid.size, cspec.accidental_rate),
                              np.full(grid.size, cspec.duration), counts),
                    _float_text=float_text))

    if spec.visibility is not None:
        center, widest, slopes = _sweep(spec)
        points = spec.visibility.points
        halfwidths = widest * np.arange(1, points + 1) / points
        halfwidths_ext = internal_to_external_angle(
            halfwidths, spec.geometry, spec.source)
        columns = _sweep_columns(center, halfwidths,
                                 spec.source.envelope_slope, slopes)
        for suffix, *law_columns in zip(("", "_uncompensated"), *columns):
            tables.append(Table(
                name=f"{spec.name}_visibility{suffix}",
                columns=VISIBILITY_COLUMNS,
                _columns=(halfwidths_ext, *law_columns),
                _float_text=float_text))

    return tables


def list_bell_angles(spec: ScenarioSpec, which: BellState) -> Table:
    """Bell-state angles of the scenario source in internal and lab coordinates."""
    result = bell_angles(spec.source, which, spec.bell_max_order)
    rows = [(entry.theta,
             internal_to_external_angle(entry.theta, spec.geometry,
                                        spec.source),
             entry.envelope)
            for entry in result.angles]
    # bell_angles keeps theta_int finite; the lab angle can still overflow
    rows = [row for row in rows if math.isfinite(row[1])]
    note = ""
    if result.uniform and which is BellState.PSI_PLUS:
        note = "state is uniform across the line-shape: Psi+ everywhere"
    elif result.uniform:
        note = ("state is uniform, no such angle: the compensated phase law "
                "is identically zero, Psi- never appears")
    elif len(rows) < spec.bell_max_order:
        note = (f"{spec.bell_max_order - len(rows)} of the first "
                f"{spec.bell_max_order} angles lie beyond float range")
    return Table(name=f"{spec.name}_bell_{which.name.lower()}",
                 columns=BELL_COLUMNS, rows=rows, note=note)

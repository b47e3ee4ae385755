"""Seeded scenario generators for the three benchmark workloads.

Each generator turns a seed into a fixed-size pool of scenarios. A scenario
carries its parameters (what the oracle reads) and the scenario-file text
rendered from them (what the program reads); every number in the text is
written as the decimal string the parameters hold, so both sides start from
the same inputs.

Every scenario stays inside the model domain: the BBO pump phase-matches
with pump and degenerate wavelength inside the catalogue band, and every
scan edge and every |center| + halfwidth stays far below 0.1 rad internal
(at most about 25 mrad).

Pools are stratified: every pool holds each combination of the discrete
choices equally often and draws only the continuous parameters at random,
so the op-cost mix, and with it the medians, is alike from seed to seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# Pump range (nm) in which collinear degenerate type-II BBO phase-matches
# with both 2*pump and pump inside the 300-1100 nm catalogue band.
PUMP_NM = (330.0, 540.0)
SOURCES = ("bare", "compensating", "anticompensating")
WORKLOADS = ("window_sweep", "scan_counts", "cli_batch")

# Pools hold at least 100 scenarios: latency percentiles are taken over a
# pool's scenarios, and p90 needs 10 of them beyond it.
WINDOW_SWEEP_COPIES = 15  # 24 strata x 15 = 360 scenarios
WINDOW_POINTS = 4         # windows per visibility table
SCAN_COUNTS_COPIES = 34   # 3 sources x 34 = 102 scenarios
CLI_BATCH_COPIES = 20     # 3 sources x 2 Bell states x 20 = 120 files

# max_rel_err is measured on a fixed panel, not on the run's own pool: the
# worst error over a random pool swings 50-fold from seed to seed, so only a
# fixed panel compares code rather than draws.
PANEL_SEED = 0
PANEL_SIZE = 32


@dataclass(frozen=True)
class Scenario:
    name: str
    params: dict
    text: str


def _num(value: float, digits: int) -> str:
    return f"{value:.{digits}f}"


class _Latin:
    """Latin-hypercube draws: copy j of a stratum takes quantile bin j.

    Each continuous parameter gets its own random permutation of the bins,
    so every pool covers every range evenly whatever the seed.
    """

    def __init__(self, rng: random.Random, copies: int):
        self.rng = rng
        self.copies = copies
        self.perms: dict[str, list[int]] = {}

    def uniform(self, key: str, copy: int, lo: float, hi: float) -> float:
        if key not in self.perms:
            self.perms[key] = self.rng.sample(range(self.copies), self.copies)
        u = (self.perms[key][copy] + self.rng.random()) / self.copies
        return lo + (hi - lo) * u


def _source(draw: _Latin, copy: int, kind: str) -> dict:
    length = _num(draw.uniform("length", copy, 0.5, 3.0), 2)
    return {
        "pump_nm": _num(draw.uniform("pump", copy, *PUMP_NM), 2),
        "length_mm": length,
        "compensator": None if kind == "bare" else kind,
        # Half-length compensator: the layout of the paper's figures.
        "compensator_length_mm": repr(float(length) / 2.0),
        "focal_mm": _num(draw.uniform("focal", copy, 200.0, 1000.0), 1),
        "pinhole_um": _num(draw.uniform("pinhole", copy, 0.0, 300.0), 1),
    }


def _stratified(rng: random.Random, strata: list, copies: int):
    """(stratum, copy, drawer) triples in a seeded random order."""
    draws = {stratum: _Latin(rng, copies) for stratum in strata}
    cells = [(stratum, copy) for stratum in strata for copy in range(copies)]
    rng.shuffle(cells)
    return [(stratum, copy, draws[stratum]) for stratum, copy in cells]


def render(name: str, seed: int, p: dict) -> str:
    """Scenario-file text for the parameter dict ``p``."""
    lines = ["[scenario]", f"name = {name}", f"seed = {seed}", "",
             "[source]", "material = bbo",
             f"pump_wavelength_nm = {p['pump_nm']}",
             f"length_mm = {p['length_mm']}", ""]
    if p["compensator"] is not None:
        lines += ["[compensator]", "material = bbo",
                  f"length_mm = {p['compensator_length_mm']}",
                  f"orientation = {p['compensator']}", ""]
    lines += ["[geometry]", f"lens_focal_length_mm = {p['focal_mm']}",
              f"pinhole_diameter_um = {p['pinhole_um']}", ""]
    if "scan" in p:
        s = p["scan"]
        pairs = "; ".join(f"{a} {b}" for a, b in s["settings_deg"])
        lines += ["[scan]", f"theta_ext_min_mrad = {s['min_mrad']}",
                  f"theta_ext_max_mrad = {s['max_mrad']}",
                  f"points = {s['points']}", f"settings_deg = {pairs}", ""]
    if "visibility" in p:
        v = p["visibility"]
        lines += ["[visibility]", f"points = {v['points']}"]
        if v["max_halfwidth_mrad"] is None:
            lines.append("max_halfwidth = first_singlet")
        else:
            lines.append(f"max_halfwidth_mrad = {v['max_halfwidth_mrad']}")
        lines += [f"center_mrad = {v['center_mrad']}",
                  f"compare_uncompensated = {str(v['compare']).lower()}", ""]
    if "counts" in p:
        c = p["counts"]
        lines += ["[counts]", f"duration_s = {c['duration_s']}",
                  f"peak_rate_hz = {c['peak_rate_hz']}",
                  f"accidental_rate_hz = {c['accidental_rate_hz']}", ""]
    return "\n".join(lines)


def _scenario(prefix: str, index: int, seed: int, params: dict) -> Scenario:
    name = f"{prefix}{index:03d}"
    params["name"] = name
    return Scenario(name=name, params=params, text=render(name, seed, params))


def window_sweep(seed: int, first_singlet_mrad) -> list[Scenario]:
    """Visibility-only scenarios: window integrals through adaptive Simpson.

    Strata: source (bare / compensating / anticompensating) x window
    (first_singlet / mrad) x centring (on axis / off axis 2-12 mrad
    external) x compare_uncompensated. Halfwidths given in mrad are drawn
    as a share of the source's first-singlet angle (external, from
    ``first_singlet_mrad(params)``), so an op's cost depends on its stratum
    rather than on where the draw put the sinc structure: 0.4-1.6 of it on
    axis, and narrow 0.05-0.3 of it off axis. Windows such as the fig2c
    source's 6.75 +- 0.57 mrad internal (11.2 +- 0.95 mrad external, 0.18
    of its first singlet) are part of every pool.
    """
    rng = random.Random(f"window_sweep:{seed}")
    strata = list(itertools.product(SOURCES, ("first_singlet", "mrad"),
                                    (False, True), (False, True)))
    pool = []
    cells = _stratified(rng, strata, WINDOW_SWEEP_COPIES)
    for index, (stratum, copy, draw) in enumerate(cells):
        kind, mode, off_axis, compare = stratum
        params = _source(draw, copy, kind)
        center = 0.0
        if off_axis:
            center = (draw.uniform("center", copy, 2.0, 12.0)
                      * rng.choice((-1.0, 1.0)))
        halfwidth = None
        if mode == "mrad":
            share = draw.uniform("halfwidth", copy,
                                 *((0.05, 0.3) if off_axis else (0.4, 1.6)))
            halfwidth = _num(share * first_singlet_mrad(params), 4)
        params["visibility"] = {"points": WINDOW_POINTS,
                                "max_halfwidth_mrad": halfwidth,
                                "center_mrad": _num(center, 3),
                                "compare": compare}
        pool.append(_scenario("ws", index, seed, params))
    return pool


def _settings(rng: random.Random) -> list[tuple[str, str]]:
    third = (_num(rng.choice(range(0, 180, 15)), 1),
             _num(rng.choice(range(-90, 91, 15)), 1))
    return [("45", "45"), ("45", "-45"), third]


def scan_counts(seed: int) -> list[Scenario]:
    """Wide, dense scans with counts: the per-point path, no quadrature."""
    rng = random.Random(f"scan_counts:{seed}")
    pool = []
    cells = _stratified(rng, list(SOURCES), SCAN_COUNTS_COPIES)
    for index, (kind, copy, draw) in enumerate(cells):
        params = _source(draw, copy, kind)
        edge = draw.uniform("edge", copy, 10.0, 40.0)
        params["scan"] = {"min_mrad": _num(-edge, 3), "max_mrad": _num(edge, 3),
                          "points": round(draw.uniform("points", copy,
                                                       950, 1050)),
                          "settings_deg": _settings(rng)}
        params["counts"] = {
            "duration_s": _num(draw.uniform("duration", copy, 0.5, 10.0), 2),
            "peak_rate_hz": _num(draw.uniform("peak", copy, 1e3, 1e5), 1),
            "accidental_rate_hz": _num(draw.uniform("accidental", copy,
                                                    0.0, 50.0), 2)}
        pool.append(_scenario("sc", index, seed, params))
    return pool


def cli_batch(seed: int) -> list[Scenario]:
    """Many tiny 25-point scans, each a file run through the CLI."""
    rng = random.Random(f"cli_batch:{seed}")
    pool = []
    cells = _stratified(rng, list(itertools.product(SOURCES, ("psi+", "psi-"))),
                        CLI_BATCH_COPIES)
    for index, ((kind, state), copy, draw) in enumerate(cells):
        params = _source(draw, copy, kind)
        edge = draw.uniform("edge", copy, 2.0, 20.0)
        params["scan"] = {"min_mrad": _num(-edge, 3), "max_mrad": _num(edge, 3),
                          "points": 25,
                          "settings_deg": [("45", "45"), ("45", "-45")]}
        params["bell_state"] = state
        pool.append(_scenario("cb", index, seed, params))
    return pool


def accuracy_panel(workload: str, oracle) -> list[Scenario]:
    """Fixed scenarios for max_rel_err, the same in every run.

    Taken from the PANEL_SEED pool: for window_sweep every off-axis
    scenario, where the absolute quadrature tolerance costs relative
    accuracy (on-axis errors stay near 1e-9), plus the fig2c source's window
    at 6.75 +- 0.57 mrad internal; for the other workloads the first
    PANEL_SIZE scenarios.
    """
    pool = generate(workload, PANEL_SEED, oracle)
    if workload != "window_sweep":
        return pool[:PANEL_SIZE]
    panel = [sc for sc in pool
             if float(sc.params["visibility"]["center_mrad"]) != 0.0]
    params = {"pump_nm": "351", "length_mm": "1.0",
              "compensator": "anticompensating",
              "compensator_length_mm": "0.5", "focal_mm": "500",
              "pinhole_um": "200"}
    n_o = float(oracle.physics(params)["n_o"])
    params["visibility"] = {"points": 3,
                            "max_halfwidth_mrad": _num(0.57 * n_o, 4),
                            "center_mrad": _num(6.75 * n_o, 4),
                            "compare": False}
    panel.append(_scenario("fig2c_off_axis_", 0, PANEL_SEED, params))
    return panel


def generate(workload: str, seed: int, oracle) -> list[Scenario]:
    """The seeded pool of ``workload``; ``oracle`` scales window widths."""
    if workload == "window_sweep":
        return window_sweep(seed, oracle.first_singlet_ext_mrad)
    if workload == "scan_counts":
        return scan_counts(seed)
    if workload == "cli_batch":
        return cli_batch(seed)
    raise ValueError(f"unknown workload '{workload}'")

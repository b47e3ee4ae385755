"""Independent reference values for every table the benchmark checks.

The oracle shares no code with ``spdcpol``: it reads the bundled Sellmeier
catalogue as data and recomputes the whole chain in mpmath -- indices, the
collinear type-II cut angle, the walk-off B, the envelope slope
a = |B| L / 2 and the phase slope k.

* Windows: with w = sinc^2(a theta), every window observable follows from
  M0 = int w and M1 = int w e^{i k theta}, integrated by fixed-node
  Gauss-Legendre on panels cut at the sinc zeros n pi / a:
  C_pp = (M0 + Re M1) / 2, C_pm = (M0 - Re M1) / 2, V = |Re M1| / M0,
  concurrence = |M1| / M0.
* Scans and Bell angles: closed forms (scan points in numpy long double).

Error measure: |got - ref| / max(|ref|, FLOOR * scale), where ``scale`` is
the column's natural size (1 for normalized rates, envelopes, V and
concurrence; M0 for window counts; the peak rate for Hz columns; the largest
|theta| of the table for angles; 1 rad for phases). Values below
FLOOR * scale are judged on absolute error against that floor.
"""

from __future__ import annotations

import re
from pathlib import Path

import mpmath
import numpy as np
from mpmath.calculus.quadrature import GaussLegendre

FLOOR = 1e-6
# max_rel_err reports max(worst error, RESOLUTION). Closed-form outputs sit
# at rounding level (1e-11 to 1e-10 next to sinc zeros, where FLOOR
# amplifies it), and any change of evaluation order moves that by factors;
# below RESOLUTION a difference says nothing about accuracy.
RESOLUTION = 1e-9
DPS = 20
GL_DEGREE = 4     # 3 * 2**(degree - 1) = 24 nodes per panel
POINT_TOL = 1e-10   # scans, counts, Bell angles: closed forms
WINDOW_TOL = 1e-4   # window integrals: absolute quadrature tolerance 1e-10


def read_catalogue(path: Path) -> dict[str, dict[str, str]]:
    """``[name]`` sections of ``key = value`` lines, values kept as text."""
    records: dict[str, dict[str, str]] = {}
    current = None
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        header = re.fullmatch(r"\[(\w+)\]", line)
        if header:
            current = records.setdefault(header.group(1).lower(), {})
        else:
            key, value = (part.strip() for part in line.split("=", 1))
            current[key] = value
    return records


class Oracle:
    """Reference tables for BBO sources, at ``dps`` decimal digits."""

    def __init__(self, catalogue_path: Path, dps: int = DPS,
                 gl_degree: int = GL_DEGREE):
        self.mp = mpmath.mp.clone()
        self.mp.dps = dps
        record = read_catalogue(catalogue_path)["bbo"]
        mp = self.mp
        self.ordinary = [mp.mpf(record[f"ordinary_{c}"]) for c in "abcd"]
        self.extraordinary = [mp.mpf(record[f"extraordinary_{c}"])
                              for c in "abcd"]
        self.nodes = GaussLegendre(mp).calc_nodes(gl_degree, mp.prec)
        self._physics: dict[tuple, dict] = {}

    # -- dispersion and phase matching ---------------------------------
    def _index(self, coeffs, wavelength):
        a, b, c, d = coeffs
        lam2 = (wavelength * 10 ** 6) ** 2
        return self.mp.sqrt(a + b / (lam2 - c) - d * lam2)

    def _n_e(self, angle, wavelength):
        mp = self.mp
        n_o = self._index(self.ordinary, wavelength)
        n_eb = self._index(self.extraordinary, wavelength)
        return 1 / mp.sqrt((mp.cos(angle) / n_o) ** 2
                           + (mp.sin(angle) / n_eb) ** 2)

    def physics(self, p: dict) -> dict:
        """n_o(lambda_d), envelope slope a and phase slope k for a source.

        A compensator shares the production crystal's material and cut
        angle, as in every generated scenario (none sets cut_angle_deg).
        """
        key = (p["pump_nm"], p["length_mm"], p["compensator"],
               p["compensator_length_mm"])
        if key in self._physics:
            return self._physics[key]
        mp = self.mp
        pump = mp.mpf(p["pump_nm"]) * mp.mpf("1e-9")
        degenerate = 2 * pump
        n_o_d = self._index(self.ordinary, degenerate)

        def mismatch(angle):
            return (2 * self._n_e(angle, pump) - n_o_d
                    - self._n_e(angle, degenerate))

        cut = mp.findroot(mismatch, (mp.mpf("0.01"), mp.pi / 2),
                          solver="anderson")
        n_eb = self._index(self.extraordinary, degenerate)
        dne = (-(self._n_e(cut, degenerate) ** 3 / 2) * mp.sin(2 * cut)
               * (1 / n_eb ** 2 - 1 / n_o_d ** 2))
        b_abs = abs(2 * mp.pi / degenerate * dne)
        length = mp.mpf(p["length_mm"]) * mp.mpf("1e-3")
        slope = b_abs * length
        if p["compensator"] is not None:
            sign = -1 if p["compensator"] == "compensating" else 1
            slope += sign * 2 * b_abs * (mp.mpf(p["compensator_length_mm"])
                                         * mp.mpf("1e-3"))
        result = {"n_o": n_o_d, "a": b_abs * length / 2, "k": slope}
        self._physics[key] = result
        return result

    def first_singlet_ext_mrad(self, p: dict) -> float:
        """First Psi- angle of the bare production crystal, external mrad."""
        phys = self.physics(p)
        return float(self.mp.pi / (2 * phys["a"]) * phys["n_o"] * 1000)

    # -- point values ----------------------------------------------------
    def _sinc(self, x):
        return self.mp.mpf(1) if x == 0 else self.mp.sin(x) / x

    def _long(self, value) -> np.longdouble:
        return np.longdouble(self.mp.nstr(value, 25))

    def scan_tables(self, p: dict) -> dict[str, tuple]:
        """Expected scan (and counts) columns and column scales, per table.

        Closed forms on the mpmath physics, evaluated in numpy long double
        (64-bit mantissa on x86-64) for speed. The external grid is the
        scenario's input, built as the file format defines it
        (``numpy.linspace`` of the parsed mrad edges).
        """
        mp = self.mp
        phys = self.physics(p)
        a, k = self._long(phys["a"]), self._long(phys["k"])
        s = p["scan"]
        grid = np.linspace(float(s["min_mrad"]) * 1e-3,
                           float(s["max_mrad"]) * 1e-3, s["points"])
        theta = grid.astype(np.longdouble) / self._long(phys["n_o"])
        width_ext = (mp.mpf(p["pinhole_um"]) * mp.mpf("1e-6")
                     / (mp.mpf(p["focal_mm"]) * mp.mpf("1e-3")))
        delta = self._long(width_ext / phys["n_o"] / (2 * mp.sqrt(3)))

        def sinc(x):
            safe = np.where(x == 0, 1, x)
            return np.where(x == 0, 1, np.sin(safe) / safe)

        # sinc^2 and cos^2(phi / 2) at the two Gauss nodes of the pinhole.
        nodes = [(sinc(a * t) ** 2, np.cos(k * t / 2) ** 2)
                 for t in (theta - delta, theta + delta)]
        columns = [grid, theta, sinc(a * theta), k * theta]
        theta_scales = [float(np.max(np.abs(c))) for c in columns[:2]]
        tables = {}
        for first, second in s["settings_deg"]:
            t1, t2 = mp.radians(mp.mpf(first)), mp.radians(mp.mpf(second))
            s_sum = self._long(mp.sin(t1 + t2) ** 2)
            s_diff = self._long(mp.sin(t1 - t2) ** 2)
            rate = sum(w * (s_sum * c2 + s_diff * (1 - c2))
                       for w, c2 in nodes) / 2
            label = f"{float(first):g}_{float(second):g}"
            tables[f"{p['name']}_scan_{label}"] = (
                np.column_stack(columns + [rate]).astype(float),
                np.array(theta_scales + [1.0, 1.0, 1.0]))
            if "counts" in p:
                c = p["counts"]
                peak = np.longdouble(c["peak_rate_hz"])
                n = len(grid)
                ref = np.column_stack(
                    columns[:2] + [peak * rate,
                                   np.full(n, float(c["accidental_rate_hz"])),
                                   np.full(n, float(c["duration_s"]))])
                tables[f"{p['name']}_counts_{label}"] = (
                    ref.astype(float),
                    np.array(theta_scales + [float(peak), 1.0, 1.0]))
        return tables

    def bell_table(self, p: dict) -> dict[str, tuple]:
        """Expected (theta_int, theta_ext, envelope) rows, max order 8."""
        mp = self.mp
        phys = self.physics(p)
        k = abs(phys["k"])
        which = p["bell_state"]
        if k == 0:
            ref = np.array([[0.0, 0.0, 1.0]]) if which == "psi+" \
                else np.zeros((0, 3))
        else:
            offset = 0 if which == "psi+" else 1
            ref = np.array([
                [float(theta), float(theta * phys["n_o"]),
                 float(self._sinc(phys["a"] * theta))]
                for theta in (mp.pi * (2 * j + offset) / k for j in range(8))])
        theta_max = float(np.max(ref[:, 0], initial=0.0)) or 1.0
        scale = np.array([theta_max, theta_max * float(phys["n_o"]), 1.0])
        suffix = "psi_plus" if which == "psi+" else "psi_minus"
        return {f"{p['name']}_bell_{suffix}": (ref, scale)}

    def expected(self, p: dict) -> dict[str, tuple]:
        """Every table the scenario emits: name -> (rows, scales)."""
        if "visibility" in p:
            return self.visibility_tables(p)
        tables = self.scan_tables(p)
        if "bell_state" in p:
            tables.update(self.bell_table(p))
        return tables

    # -- window integrals ------------------------------------------------
    def moments(self, a, k, lo, hi):
        """M0 = int w, M1 = int w e^{i k theta} over [lo, hi]."""
        mp = self.mp
        cuts = [lo]
        first = int(mp.floor(lo * a / mp.pi)) + 1
        n = first
        while n * mp.pi / a < hi:
            if n != 0:
                cuts.append(n * mp.pi / a)
            n += 1
        cuts.append(hi)
        m0 = mp.mpf(0)
        m1 = mp.mpc(0)
        for left, right in zip(cuts, cuts[1:]):
            mid = (left + right) / 2
            half = (right - left) / 2
            for x, w in self.nodes:
                theta = mid + half * x
                env = self._sinc(a * theta)
                weight = w * half * env * env
                m0 += weight
                m1 += weight * mp.expj(k * theta)
        return m0, m1

    def visibility_tables(self, p: dict) -> dict[str, tuple]:
        """Expected visibility rows and their scales, per table."""
        mp = self.mp
        phys = self.physics(p)
        a, n_o = phys["a"], phys["n_o"]
        v = p["visibility"]
        center = mp.mpf(v["center_mrad"]) * mp.mpf("1e-3") / n_o
        if v["max_halfwidth_mrad"] is None:
            hmax = mp.pi / (2 * a)   # first singlet of the bare crystal
        else:
            hmax = mp.mpf(v["max_halfwidth_mrad"]) * mp.mpf("1e-3") / n_o
        variants = [("", phys["k"])]
        if v["compare"]:
            variants.append(("_uncompensated", 2 * a))
        tables = {}
        for suffix, k in variants:
            rows, scales = [], []
            for j in range(1, v["points"] + 1):
                h = hmax * j / v["points"]
                m0, m1 = self.moments(a, k, center - h, center + h)
                rows.append([float(h * n_o), float((m0 + m1.real) / 2),
                             float((m0 - m1.real) / 2),
                             float(abs(m1.real) / m0), float(abs(m1) / m0)])
                scales.append([rows[-1][0], float(m0), float(m0), 1.0, 1.0])
            tables[f"{p['name']}_visibility{suffix}"] = (np.array(rows),
                                                          np.array(scales))
        return tables



def rel_err(got, ref: np.ndarray, scale, floor: float = FLOOR) -> np.ndarray:
    """|got - ref| / max(|ref|, floor * scale), 0 where they agree exactly."""
    denom = np.maximum(np.abs(ref), floor * np.asarray(scale, dtype=float))
    diff = np.abs(np.asarray(got, dtype=float) - ref)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(diff == 0.0, 0.0, diff / denom)


def compare(name: str, got: np.ndarray, expected: tuple) -> tuple[float, bool]:
    """(worst relative error, passed) for one emitted table.

    The pass test judges each value against max(|ref|, scale): window
    integrals carry the program's absolute quadrature tolerance, so a value
    far below its column's scale is held to that scale, not to itself.
    """
    ref, scale = expected
    if got.shape != ref.shape:
        return float("inf"), False
    if ref.size == 0:
        return 0.0, True
    worst = float(np.max(rel_err(got, ref, scale)))
    tol = WINDOW_TOL if "_visibility" in name else POINT_TOL
    return worst, bool(np.max(rel_err(got, ref, scale, floor=1.0)) <= tol)

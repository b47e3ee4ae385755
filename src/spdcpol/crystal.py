"""Dispersion and phase matching for negative uniaxial crystals.

All quantities are SI (wavelengths and lengths in meters, angles in radians)
except inside the Sellmeier formula itself, which uses the catalogue
convention

    n^2(lambda) = a + b / (lambda^2 - c) - d * lambda^2,   lambda in um.

The extraordinary index at propagation angle ``theta`` from the optic axis
follows the index ellipse

    1 / n_e(theta)^2 = cos(theta)^2 / n_o^2 + sin(theta)^2 / n_eb^2

where ``n_eb`` is the principal extraordinary index. For a negative uniaxial
crystal (n_o > n_eb) the angular derivative dn_e/dtheta is negative on
(0, pi/2); downstream phase laws use its magnitude. The principal indices
are read once per wavelength per call: a cut-angle solve reads four. The
dispersion functions read only a ``MaterialRecord``; a ``UniaxialCrystal``
adds the cut and length read by ``SourceConfig`` and the walk-off check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OutOfBandError, PhaseMatchingError

C_LIGHT = 299792458.0  # m/s


@dataclass(frozen=True)
class SellmeierCoefficients:
    """Coefficients of n^2 = a + b/(L^2 - c) - d L^2 with L in micrometers."""

    a: float
    b: float  # um^2
    c: float  # um^2
    d: float  # um^-2

    def index(self, wavelength_um: float) -> float:
        n2 = (self.a + self.b / (wavelength_um ** 2 - self.c)
              - self.d * wavelength_um ** 2)
        if n2 <= 1.0:
            raise ValueError(
                f"Sellmeier form gives n^2 = {n2:.6g} <= 1 at "
                f"{wavelength_um:.6g} um; coefficients invalid there")
        return math.sqrt(n2)


@dataclass(frozen=True)
class MaterialRecord:
    """One material's Sellmeier sets and supported band (m), checked once:
    0 < lo < hi, no pole in the band, and n^2 > 1, n_o >= n_eb across it."""

    name: str
    ordinary: SellmeierCoefficients
    extraordinary: SellmeierCoefficients  # principal value n_eb
    band: tuple[float, float]  # m

    def __post_init__(self):
        lo, hi = self.band
        if not 0.0 < lo < hi:
            raise ValueError(f"invalid band {self.band}")
        # Pole lambda^2 = c must lie outside the band for both data sets.
        lo_um2, hi_um2 = (lo * 1e6) ** 2, (hi * 1e6) ** 2
        for label, coeffs in (("ordinary", self.ordinary),
                              ("extraordinary", self.extraordinary)):
            if lo_um2 <= coeffs.c <= hi_um2:
                raise ValueError(
                    f"{label} Sellmeier pole at {math.sqrt(coeffs.c):.4g} um "
                    f"lies inside the band")
        # Sample the band: n^2 > 1 everywhere and n_o >= n_eb (negative
        # uniaxial; equality allowed so isotropic test data stays usable).
        for k in range(33):
            wl_um = (lo + (hi - lo) * k / 32.0) * 1e6
            n_o = self.ordinary.index(wl_um)
            n_eb = self.extraordinary.index(wl_um)
            if n_o < n_eb:
                raise ValueError(
                    f"not negative uniaxial: n_o = {n_o:.6f} < "
                    f"n_eb = {n_eb:.6f} at {wl_um:.4g} um")

    def crystal(self, cut_angle: float, length: float) -> UniaxialCrystal:
        """Build a crystal slab of this material."""
        return UniaxialCrystal(self, cut_angle, length)


@dataclass(frozen=True)
class UniaxialCrystal:
    """A slab of one material, cut at ``cut_angle`` from the optic axis."""

    material: MaterialRecord
    cut_angle: float  # rad
    length: float     # m

    def __post_init__(self):
        if not self.length > 0.0:
            raise ValueError(f"crystal length must be > 0, got {self.length}")
        if not 0.0 <= self.cut_angle <= math.pi / 2.0:
            raise ValueError(
                f"cut angle must lie in [0, pi/2], got {self.cut_angle}")


def _check_band(material: MaterialRecord, wavelength: float,
                strict: bool = False) -> None:
    lo, hi = material.band
    inside = lo < wavelength < hi if strict else lo <= wavelength <= hi
    if not inside:
        raise OutOfBandError(
            f"wavelength {wavelength * 1e9:.6g} nm outside the supported band "
            f"[{lo * 1e9:.6g}, {hi * 1e9:.6g}] nm")


def index_ordinary(material: MaterialRecord, wavelength: float) -> float:
    """Ordinary refractive index n_o of ``material`` at ``wavelength`` (m)."""
    _check_band(material, wavelength)
    return material.ordinary.index(wavelength * 1e6)


def _principal_indices(material: MaterialRecord,
                       wavelength: float) -> tuple[float, float]:
    """(n_o, n_eb) at ``wavelength`` (meters), each evaluated once."""
    _check_band(material, wavelength)
    wl_um = wavelength * 1e6
    return material.ordinary.index(wl_um), material.extraordinary.index(wl_um)


def _ellipse(n_o: float, n_eb: float, angle_from_axis: float) -> float:
    """n_e(theta) on the index ellipse of the principal indices."""
    if not 0.0 <= angle_from_axis <= math.pi:
        raise ValueError(
            f"angle from axis must lie in [0, pi], got {angle_from_axis}")
    cos_t = math.cos(angle_from_axis)
    sin_t = math.sin(angle_from_axis)
    return 1.0 / math.sqrt((cos_t / n_o) ** 2 + (sin_t / n_eb) ** 2)


def index_extraordinary(material: MaterialRecord, wavelength: float,
                        angle_from_axis: float) -> float:
    """n_e of ``material`` at ``angle_from_axis`` from the optic axis."""
    return _ellipse(*_principal_indices(material, wavelength), angle_from_axis)


def dne_dtheta(material: MaterialRecord, wavelength: float,
               angle_from_axis: float) -> float:
    """Analytic dn_e/dtheta of ``material`` at ``angle_from_axis``.

    dn_e/dtheta = -(n_e(theta)^3 / 2) sin(2 theta) (1/n_eb^2 - 1/n_o^2)
    """
    n_o, n_eb = _principal_indices(material, wavelength)
    n_e = _ellipse(n_o, n_eb, angle_from_axis)
    return (-(n_e ** 3 / 2.0) * math.sin(2.0 * angle_from_axis)
            * (1.0 / n_eb ** 2 - 1.0 / n_o ** 2))


def _bracketed_root(func, lo: float, hi: float, f_lo: float, f_hi: float,
                    xtol: float = 1e-15) -> float:
    """Root of ``func`` on a bracket [lo, hi] whose endpoint values
    ``f_lo`` and ``f_hi`` are nonzero and of opposite sign.

    Alternates false-position (secant through the bracket endpoints) with
    plain bisection, so convergence is guaranteed and fully deterministic.
    """
    use_secant = True
    while hi - lo > xtol:
        x = None
        if use_secant and f_hi != f_lo:
            x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            if not lo < x < hi:
                x = None
        if x is None:
            x = 0.5 * (lo + hi)
        f_x = func(x)
        if f_x == 0.0:
            return x
        if (f_x > 0.0) == (f_lo > 0.0):
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
        use_secant = not use_secant
    return 0.5 * (lo + hi)


def _mismatch(material: MaterialRecord, pump_wavelength: float):
    # phase_matching_mismatch as a function of theta, indices read once.
    pump_o, pump_eb = _principal_indices(material, pump_wavelength)
    degenerate_o, degenerate_eb = _principal_indices(material,
                                                     2.0 * pump_wavelength)

    def mismatch(theta: float) -> float:
        return (2.0 * _ellipse(pump_o, pump_eb, theta) - degenerate_o
                - _ellipse(degenerate_o, degenerate_eb, theta))

    return mismatch


def phase_matching_mismatch(material: MaterialRecord, pump_wavelength: float,
                            cut_angle: float) -> float:
    """Collinear degenerate type-II mismatch of ``material`` in index units.

    2 n_e(theta, lambda_p) - n_o(lambda_d) - n_e(theta, lambda_d), with
    lambda_d = 2 lambda_p; the phase-matched cut angle is its root.
    """
    return _mismatch(material, pump_wavelength)(cut_angle)


def phase_matching_cut_angle(material: MaterialRecord,
                             pump_wavelength: float) -> float:
    """Cut angle of ``material`` for collinear degenerate type-II operation.

    Solves 2 n_e(theta, lambda_p) = n_o(2 lambda_p) + n_e(theta, 2 lambda_p)
    by bracketed bisection/secant; the residual mismatch at the returned
    angle is below 1e-12 (index units).
    """
    mismatch = _mismatch(material, pump_wavelength)
    f_lo = mismatch(0.0)
    f_hi = mismatch(math.pi / 2.0)
    if f_lo == 0.0:
        return 0.0
    if f_hi == 0.0:
        return math.pi / 2.0
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise PhaseMatchingError(
            f"no phase matching: mismatch does not change sign on [0, pi/2] "
            f"for pump {pump_wavelength * 1e9:.6g} nm "
            f"(endpoints {f_lo:.3e}, {f_hi:.3e})")
    root = _bracketed_root(mismatch, 0.0, math.pi / 2.0, f_lo, f_hi)
    residual = abs(mismatch(root))
    if residual >= 1e-12:
        raise PhaseMatchingError(
            f"phase-matching residual {residual:.3e} not below 1e-12")
    return root


def transverse_walkoff_B(material: MaterialRecord, wavelength: float,
                         cut_angle: float) -> float:
    """Transverse walk-off B = dk_e/dtheta (1/(m rad)) at ``cut_angle``.

    Evaluated from the analytic index derivative; negative on (0, pi/2) for a
    negative uniaxial material.
    """
    return (2.0 * math.pi / wavelength) * dne_dtheta(material, wavelength,
                                                     cut_angle)


def group_mismatch_D(material: MaterialRecord, wavelength: float,
                     cut_angle: float, rel_step: float = 1e-5) -> float:
    """Group mismatch D = dk_e/domega - dk_o/domega (s/m) at ``cut_angle``.

    Central finite differences in angular frequency with a step of
    ``rel_step`` times the carrier; the shifted wavelengths must stay
    strictly inside the band.
    """
    _check_band(material, wavelength, strict=True)
    omega = 2.0 * math.pi * C_LIGHT / wavelength
    h = rel_step * omega
    wl_plus = 2.0 * math.pi * C_LIGHT / (omega + h)
    wl_minus = 2.0 * math.pi * C_LIGHT / (omega - h)
    _check_band(material, wl_plus, strict=True)
    _check_band(material, wl_minus, strict=True)

    def k_e(wl: float, w: float) -> float:
        return w * index_extraordinary(material, wl, cut_angle) / C_LIGHT

    def k_o(wl: float, w: float) -> float:
        return w * index_ordinary(material, wl) / C_LIGHT

    dke = (k_e(wl_plus, omega + h) - k_e(wl_minus, omega - h)) / (2.0 * h)
    dko = (k_o(wl_plus, omega + h) - k_o(wl_minus, omega - h)) / (2.0 * h)
    return dke - dko


@dataclass(frozen=True)
class WalkoffReport:
    walkoff_time: float    # s, |D| * length
    coherence_time: float  # s, lambda^2 / (c * filter FWHM)
    compensated: bool      # walk-off shorter than the filter coherence time


def longitudinal_walkoff_check(crystal: UniaxialCrystal, D: float,
                               wavelength: float,
                               filter_fwhm: float) -> WalkoffReport:
    """Does a spectral filter of FWHM ``filter_fwhm`` erase longitudinal walk-off?

    Compares the o/e group delay accumulated over the crystal length with the
    coherence time the filter enforces.
    """
    if not filter_fwhm > 0.0:
        raise ValueError("filter FWHM must be > 0")
    walkoff_time = abs(D) * crystal.length
    coherence_time = wavelength ** 2 / (C_LIGHT * filter_fwhm)
    return WalkoffReport(walkoff_time=walkoff_time,
                         coherence_time=coherence_time,
                         compensated=walkoff_time < coherence_time)

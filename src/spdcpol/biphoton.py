"""Angle-dependent two-photon polarization state of collinear type-II SPDC.

The degenerate pair emitted into the conjugate mode pair (-theta, +theta) is

    |psi(theta)> = (|HV> + e^{i phi(theta)} |VH>) / sqrt(2)

with a sinc(|B| L theta / 2) emission envelope, where B = dk_e/dtheta is the
transverse walk-off parameter of the production crystal at the degenerate
wavelength and L its length. The phase law is linear in theta:

    phi(theta) = |B| L theta  +  sum_i s_i * 2 |B_i| L_i theta

The production term carries the single birth-position-averaged factor
|B| L theta; each fully traversed downstream crystal contributes twice its
B*length product, signed s = -1 when its optic axis is rotated 180 degrees
(compensating) and s = +1 when aligned (anti-compensating). A half-length
identical compensator therefore cancels the phase exactly (uniform Psi+ over
the whole line-shape), while the aligned orientation doubles it.

Sign convention: phi(theta) >= 0 for theta >= 0 in the uncompensated case.
Only relative signs between production crystal and compensators affect any
observable in scope.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .crystal import (UniaxialCrystal, index_ordinary,
                      phase_matching_cut_angle, transverse_walkoff_B)
from .errors import PhaseMatchingError, StateInvariantError, UniformStateError

BASIS = ("HH", "HV", "VH", "VV")

_SQRT_HALF = 1.0 / math.sqrt(2.0)

CUT_ANGLE_TOLERANCE = 1e-6  # rad, production cut vs phase-matched angle


def sinc(x: float | np.ndarray) -> float | np.ndarray:
    """sin(x)/x with sinc(0) = 1 (unnormalized convention), elementwise."""
    # a float, the scan rates' hot path, settles the test with one check
    if isinstance(x, float) or not isinstance(x, np.ndarray):
        return math.sin(x) / x if x else 1.0
    return np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)


class Orientation(enum.Enum):
    """Optic-axis orientation of a downstream crystal relative to the production one."""

    COMPENSATING = -1      # axis rotated 180 degrees: phase contribution subtracts
    ANTICOMPENSATING = +1  # axis aligned: phase contribution adds

    @property
    def sign(self) -> int:
        return self.value


class BellState(enum.Enum):
    PSI_PLUS = "psi+"   # (|HV> + |VH>)/sqrt(2)
    PSI_MINUS = "psi-"  # (|HV> - |VH>)/sqrt(2)


@dataclass(frozen=True)
class TwoPhotonState:
    """Normalized two-qubit pure state over the ordered basis (HH, HV, VH, VV)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (4,):
            raise StateInvariantError(
                f"expected 4 amplitudes over {BASIS}, got shape {amps.shape}")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > 1e-12:
            raise StateInvariantError(
                f"state not normalized: |psi|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", amps)

    def overlap(self, other: "TwoPhotonState") -> complex:
        """<self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def projector(self) -> np.ndarray:
        """|psi><psi| as a 4x4 complex matrix."""
        return np.outer(self.amplitudes, self.amplitudes.conj())


def bell_state(which: BellState) -> TwoPhotonState:
    sign = 1.0 if which is BellState.PSI_PLUS else -1.0
    return TwoPhotonState(np.array([0.0, _SQRT_HALF, sign * _SQRT_HALF, 0.0],
                                   dtype=complex))


@dataclass(frozen=True)
class CompensatorPlacement:
    crystal: UniaxialCrystal
    orientation: Orientation


@dataclass(frozen=True)
class SourceConfig:
    """Production crystal plus ordered downstream compensators.

    Construction verifies that the production cut angle phase-matches the
    pump (within 1e-6 rad) and caches the three numbers the physics reads.
    Instances are immutable, so all operations over them are thread-safe.

    Derived fields, all at the degenerate wavelength 2 lambda_p:
    ``ordinary_index`` (n_o of the production crystal, the lab <-> internal
    angle scale), ``envelope_slope`` (|B| L / 2 of the production crystal,
    the sinc argument per radian; an infinite first zero pi / slope is a
    ValueError) and ``phase_slope`` (d phi / d theta, including
    compensators; an overflow is a ValueError).
    """

    production: UniaxialCrystal
    pump_wavelength: float
    compensators: tuple[CompensatorPlacement, ...] = ()
    ordinary_index: float = field(init=False)
    envelope_slope: float = field(init=False)
    phase_slope: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "compensators", tuple(self.compensators))
        production, pump = self.production, self.pump_wavelength
        matched = phase_matching_cut_angle(production.material, pump)
        if abs(production.cut_angle - matched) > CUT_ANGLE_TOLERANCE:
            raise PhaseMatchingError(
                f"production cut angle {production.cut_angle:.8f} rad does "
                f"not phase-match the pump (expected {matched:.8f} rad within "
                f"{CUT_ANGLE_TOLERANCE} rad)")
        degenerate = 2.0 * pump
        b_prod = transverse_walkoff_B(production.material, degenerate,
                                      production.cut_angle)
        slope = abs(b_prod) * production.length
        for placement in self.compensators:
            comp = placement.crystal
            b = transverse_walkoff_B(comp.material, degenerate, comp.cut_angle)
            slope += placement.orientation.sign * 2.0 * abs(b) * comp.length
        if not math.isfinite(slope):  # also catches an overflowed |B| L / 2
            raise ValueError(f"crystal too long: the phase slope is {slope:g}")
        envelope_slope = abs(b_prod) * production.length / 2.0
        if envelope_slope > 0.0 and math.pi / envelope_slope == math.inf:
            raise ValueError(f"crystal too short: the first sinc zero is "
                             f"pi / {envelope_slope:g} = inf")
        object.__setattr__(self, "ordinary_index",
                           index_ordinary(production.material, degenerate))
        object.__setattr__(self, "envelope_slope", envelope_slope)
        object.__setattr__(self, "phase_slope", slope)


def relative_phase(theta: float | np.ndarray,
                   config: SourceConfig) -> float | np.ndarray:
    """Total relative phase phi(theta) between the HV and VH amplitudes."""
    return config.phase_slope * theta


def angular_envelope(theta: float | np.ndarray,
                     config: SourceConfig) -> float | np.ndarray:
    """Emission amplitude envelope sinc(|B| L theta / 2).

    Compensators act after pair generation and never change the envelope.
    """
    return sinc(config.envelope_slope * theta)


def state_at_angle(theta: float, config: SourceConfig) -> TwoPhotonState:
    """Normalized polarization state of the mode pair (-theta, +theta).

    The overall phase is fixed so the HV amplitude is real positive; the
    angular phase attaches to the VH component.
    """
    phase = cmath.exp(1j * relative_phase(theta, config))
    return TwoPhotonState(np.array([0.0, _SQRT_HALF, phase * _SQRT_HALF, 0.0],
                                   dtype=complex))


@dataclass(frozen=True)
class BellAngle:
    theta: float     # rad, internal; the mirror angle -theta is implied
    envelope: float


@dataclass(frozen=True)
class BellAngleSet:
    uniform: bool  # flat phase law: Psi+ everywhere, no discrete angles
    angles: tuple[BellAngle, ...]


def bell_angles(config: SourceConfig, which: BellState,
                max_order: int = 5) -> BellAngleSet:
    """Scattering angles where the state is exactly the requested Bell state.

    Solves phi(theta) = pi (2 n + delta), delta = 0 for Psi+ and 1 for
    Psi-, for n = 0, 1, ..., up to ``max_order`` solutions theta >= 0, with
    the envelope at each; the list stops before the first angle whose sinc
    argument, or the angle itself, overflows.
    On a fully compensated (flat-phase) configuration Psi+ returns theta = 0
    flagged uniform and Psi- raises UniformStateError.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    slope = abs(config.phase_slope)
    if slope == 0.0:
        if which is BellState.PSI_MINUS:
            raise UniformStateError(
                "state is uniform, no such angle: the compensated phase law "
                "is identically zero, Psi- never appears")
        return BellAngleSet(uniform=True,
                            angles=(BellAngle(theta=0.0, envelope=1.0),))
    delta = 0 if which is BellState.PSI_PLUS else 1
    angles = []
    for n in range(max_order):
        theta = math.pi * (2 * n + delta) / slope
        if not math.isfinite(config.envelope_slope * theta):
            break  # beyond float range, as is every later angle
        angles.append(BellAngle(theta=theta,
                                envelope=angular_envelope(theta, config)))
    return BellAngleSet(uniform=False, angles=tuple(angles))

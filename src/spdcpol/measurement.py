"""Predicted observables behind Glan-prism analyzers.

Coincidence rate at polarizer settings (Theta1, Theta2) for the mode pair at
internal angle theta:

    R(theta) = sinc^2(|B| L theta / 2) * [ sin^2(Theta1 + Theta2) cos^2(phi/2)
                                         + sin^2(Theta1 - Theta2) sin^2(phi/2) ]

in arbitrary units normalized so the uncompensated (45, 45) curve peaks at 1.
Aperture (pinhole) integration happens over a hard-edged internal-angle
window with the sinc^2 envelope w as weight. Every window observable is a
closed function of two moments, M0 = int w and M1 = int w e^{i phi}: the
integrated rate, the visibility V = |(C++ - C+-)/(C++ + C+-)| = |Re M1| / M0
and the aperture-averaged density matrix, the {HV, VH} block with 1/2 on its
diagonal and coherence M1 / (2 M0). Its Wootters concurrence, 2 |rho_HV,VH| =
|M1| / M0, quantifies how the coherent phase spread degrades polarization
entanglement, and its Bell fidelities are F(Psi+-) = C++ / M0 and C+- / M0.
One vectorized composite Gauss-Legendre pass per window gives both moments,
with an error estimate held to ``QUAD_TOL`` relative to M0; a window of
halfwidth 0 is a point. ``concurrence`` evaluates Wootters' formula for any
two-qubit density matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .biphoton import SourceConfig, angular_envelope, relative_phase
from .errors import (QuadratureError, StateInvariantError,
                     UndefinedVisibilityError)

# Window quadrature: bound on the error estimate relative to M0.
QUAD_TOL = 1e-10
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

# Window edges must stay in the small-angle regime the model is built on.
MAX_SUPPORTED_ANGLE = 0.1  # rad, internal


@dataclass(frozen=True)
class PolarizerSettings:
    """Glan-prism analysis angles in radians, interpreted mod pi."""

    theta1: float
    theta2: float


@dataclass(frozen=True)
class AngularWindow:
    """Hard-edged internal-angle acceptance window; halfwidth 0 is a point."""

    center: float
    halfwidth: float

    def __post_init__(self):
        if self.halfwidth < 0.0:
            raise ValueError(f"halfwidth must be >= 0, got {self.halfwidth}")
        if abs(self.center) + self.halfwidth > MAX_SUPPORTED_ANGLE:
            raise ValueError(
                f"window [{self.center - self.halfwidth}, "
                f"{self.center + self.halfwidth}] rad exceeds the supported "
                f"range |theta| <= {MAX_SUPPORTED_ANGLE} rad")


def coincidence_rate(theta: float, settings: PolarizerSettings,
                     config: SourceConfig) -> float:
    """Coincidence rate (arbitrary units) at internal angle ``theta``."""
    envelope = angular_envelope(theta, config)
    phi = relative_phase(theta, config)
    s_sum = math.sin(settings.theta1 + settings.theta2)
    s_diff = math.sin(settings.theta1 - settings.theta2)
    return (envelope * envelope
            * (s_sum * s_sum * math.cos(phi / 2.0) ** 2
               + s_diff * s_diff * math.sin(phi / 2.0) ** 2))


@dataclass(frozen=True)
class DensityMatrix4:
    """4x4 Hermitian unit-trace positive matrix over (HH, HV, VH, VV)."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (4, 4):
            raise StateInvariantError(f"expected a 4x4 matrix, got {mat.shape}")
        object.__setattr__(self, "matrix", mat)

    def validate(self) -> "DensityMatrix4":
        mat = self.matrix
        if float(np.max(np.abs(mat - mat.conj().T))) > HERMITICITY_TOL:
            raise StateInvariantError("density matrix not Hermitian")
        if abs(float(mat.trace().real) - 1.0) > TRACE_TOL or \
                abs(float(mat.trace().imag)) > TRACE_TOL:
            raise StateInvariantError(
                f"density matrix trace {mat.trace()} != 1")
        eigenvalues = np.linalg.eigvalsh(mat)
        if float(eigenvalues.min()) < -PSD_TOL:
            raise StateInvariantError(
                f"density matrix not positive: min eigenvalue "
                f"{eigenvalues.min():.3e}")
        return self


# Gauss-Legendre orders of the window kernel: the integral and the
# half-order rule whose difference from it is the error estimate.
_GL_ORDER = 32
_GL_CHECK_ORDER = 16
# Panels per window: 2**13 panels of 48 nodes keep the kernel's arrays
# near 20 MB and cover a 12 cm BBO crystal over the whole model domain.
_MAX_PANELS = 1 << 13


def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n from the asymptotic guesses
    cos(pi (i + 3/4) / (n + 1/2)) reaches the nodes to rounding in four
    steps; the weights 2 / ((1 - x^2) P_n'(x)^2) follow from the same
    three-term recurrence and are good to a few ulp. No LAPACK routine is
    touched, which would map its code into memory for one 32 x 32 problem.
    """
    def legendre(x):
        p_prev, p = np.ones_like(x), x
        for n in range(2, order + 1):
            p_prev, p = p, ((2 * n - 1) * x * p - (n - 1) * p_prev) / n
        return p, order * (x * p - p_prev) / (x * x - 1.0)

    nodes = np.cos(math.pi * (np.arange(order) + 0.75) / (order + 0.5))
    for _ in range(6):
        value, slope = legendre(nodes)
        nodes = nodes - value / slope
    _, slope = legendre(nodes)
    return nodes, 2.0 / ((1.0 - nodes * nodes) * slope * slope)


@functools.cache
def _kernel_rule() -> tuple[np.ndarray, np.ndarray]:
    """Both kernel rules as one node set on [-1, 1] and a (nodes, 2) weight
    matrix whose columns apply the 32-point and the 16-point rule.

    Built on first use, so imports and scan-only runs never pay for it.
    """
    fine_nodes, fine_weights = _gauss_legendre(_GL_ORDER)
    check_nodes, check_weights = _gauss_legendre(_GL_CHECK_ORDER)
    nodes = np.concatenate((fine_nodes, check_nodes))
    weights = np.zeros((nodes.size, 2))
    weights[:_GL_ORDER, 0] = fine_weights
    weights[_GL_ORDER:, 1] = check_weights
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


class _Moments(NamedTuple):
    """M0 = int w and M1 = int w e^{i phi} over a window, w = sinc^2(a theta).

    M0 and Re M1 are carried as their halves ``even`` = (M0 + Re M1) / 2 =
    int w cos^2(phi/2) and ``odd`` = (M0 - Re M1) / 2 = int w sin^2(phi/2):
    both integrands are nonnegative, so each half keeps its relative accuracy
    where the difference M0 - Re M1 would cancel (narrow windows on a small
    phase, or windows around a Psi- angle).
    """

    even: float
    odd: float
    imag: float  # Im M1 = int w sin(phi)

    @property
    def m0(self) -> float:
        return self.even + self.odd

    @property
    def m1(self) -> complex:
        return complex(self.even - self.odd, self.imag)


def _window_moments(window: AngularWindow, config: SourceConfig) -> _Moments:
    """Both window moments from one composite Gauss-Legendre pass.

    Panels are cut at the sinc zeros n pi / a (n != 0) inside the window and
    split so that none spans more than one period 2 pi / |k| of e^{i k
    theta}; on such a panel the integrands are entire functions of small
    bandwidth. The 16-point rule on the same panels estimates the error of
    the 32-point one; QuadratureError is raised when that estimate exceeds
    ``QUAD_TOL`` * M0, or when M0 is not positive (a window narrower than
    float resolution). At halfwidth 0 the moments are the integrands at the
    center, the h -> 0 limit of each moment over the width 2 h.
    """
    if window.halfwidth == 0.0:
        envelope = angular_envelope(window.center, config)
        weight = envelope * envelope
        half_phase = 0.5 * relative_phase(window.center, config)
        cos_half = math.cos(half_phase)
        weighted_sin = weight * math.sin(half_phase)
        return _Moments(weight * cos_half * cos_half,
                        weighted_sin * math.sin(half_phase),
                        2.0 * weighted_sin * cos_half)
    lo = window.center - window.halfwidth
    hi = window.center + window.halfwidth
    a = config.envelope_slope
    # A long crystal or a steep phase law would ask for unbounded memory.
    panels = (hi - lo) * (a / math.pi + abs(config.phase_slope)
                          / (2.0 * math.pi)) + 2.0
    if not panels <= _MAX_PANELS:
        raise QuadratureError(
            f"window quadrature on [{lo}, {hi}] rad needs about {panels:.3g} "
            f"panels, more than the limit of {_MAX_PANELS}")
    edges = np.array([lo, hi])
    if a > 0.0:
        n = np.arange(math.floor(lo * a / math.pi) + 1,
                      math.ceil(hi * a / math.pi))
        zeros = n[n != 0] * (math.pi / a)
        edges = np.concatenate(([lo], zeros[(zeros > lo) & (zeros < hi)],
                                [hi]))
    widths = np.diff(edges)
    pieces = np.maximum(
        np.ceil(widths * abs(config.phase_slope) / (2.0 * math.pi)),
        1.0).astype(int)
    # sub-panel j of panel p starts at edges[p] + j * widths[p] / pieces[p]
    steps = np.repeat(widths / pieces, pieces)
    index = np.arange(steps.size) - np.repeat(np.cumsum(pieces) - pieces,
                                              pieces)
    halves = 0.5 * steps
    mids = np.repeat(edges[:-1], pieces) + index * steps + halves

    nodes, weights = _kernel_rule()
    theta = mids[:, None] + halves[:, None] * nodes
    arg = a * theta
    envelope = np.divide(np.sin(arg), arg, out=np.ones_like(arg),
                         where=arg != 0.0)
    weight = envelope * envelope
    half_phase = 0.5 * config.phase_slope * theta
    cos_half = np.cos(half_phase)
    weighted_sin = weight * np.sin(half_phase)
    integrands = np.array((weight * cos_half * cos_half,
                           weighted_sin * np.sin(half_phase),
                           2.0 * weighted_sin * cos_half))
    panels = (integrands @ weights) * halves[:, None]  # (3, panels, 2)
    fine, coarse = panels[..., 0], panels[..., 1]
    even, odd, imag = (float(v) for v in fine.sum(axis=1))
    moments = _Moments(even, odd, imag)
    estimate = float(np.abs(fine - coarse).sum(axis=1).max())
    # A window narrower than float resolution leaves M0 = 0: no tolerance
    # relative to it can be met.
    if not (moments.m0 > 0.0 and estimate <= QUAD_TOL * moments.m0):
        achieved = estimate / moments.m0 if moments.m0 > 0.0 else math.inf
        raise QuadratureError(
            f"window quadrature on [{lo}, {hi}] rad failed: M0 = "
            f"{moments.m0:.3e}, error estimate {achieved:.3e} of M0 against "
            f"the requested relative tolerance {QUAD_TOL:.3e}",
            achieved=achieved, requested=QUAD_TOL)
    return moments


def aperture_density_matrix(window: AngularWindow,
                            config: SourceConfig) -> DensityMatrix4:
    """Polarization state collected through a hard-edged angular window.

    rho = int_window w(theta) |psi(theta)><psi(theta)| dtheta / normalization
    with weight w = sinc^2(|B| L theta / 2). Every |psi><psi| lives on the
    {HV, VH} block with 1/2 on its diagonal, so rho is that block with the
    coherence M1 / (2 M0) from the two window moments, computed to
    ``QUAD_TOL`` relative to M0. Halfwidth 0 gives the pure state at the
    window center.
    """
    moments = _window_moments(window, config)
    coherence = 0.5 * moments.m1 / moments.m0
    mat = np.zeros((4, 4), dtype=complex)
    mat[1, 1] = mat[2, 2] = 0.5
    mat[1, 2] = coherence.conjugate()
    mat[2, 1] = coherence
    return DensityMatrix4(mat).validate()


def window_coincidences(settings: PolarizerSettings, window: AngularWindow,
                        config: SourceConfig) -> float:
    """Coincidence rate integrated over the window (point rate at halfwidth 0).

    Equals 1/2 (s+^2 + s-^2) M0 + 1/2 (s+^2 - s-^2) Re M1 with
    s+- = sin(Theta1 +- Theta2); ``QUAD_TOL`` bounds the quadrature error
    estimate relative to M0.
    """
    moments = _window_moments(window, config)
    s_sum = math.sin(settings.theta1 + settings.theta2)
    s_diff = math.sin(settings.theta1 - settings.theta2)
    return s_sum * s_sum * moments.even + s_diff * s_diff * moments.odd


def visibility_from_counts(c_pp: float, c_pm: float) -> float:
    """|(C++ - C+-)/(C++ + C+-)|, guarding the all-zero case."""
    denominator = c_pp + c_pm
    if denominator == 0.0:
        raise UndefinedVisibilityError(
            "both coincidence counts vanish on this window")
    return abs((c_pp - c_pm) / denominator)


def visibility(window: AngularWindow, config: SourceConfig) -> float:
    """Polarization-interference visibility over the window.

    V = |(C(45,45) - C(45,-45)) / (C(45,45) + C(45,-45))|; both counts come
    from one pair of window moments, C(45,45) = (M0 + Re M1) / 2 and
    C(45,-45) = (M0 - Re M1) / 2.
    """
    moments = _window_moments(window, config)
    return visibility_from_counts(moments.even, moments.odd)


def _window_observables(window: AngularWindow,
                        config: SourceConfig) -> tuple[float, ...]:
    """(C_pp, C_pm, V, concurrence) of one window: a visibility sweep row."""
    moments = _window_moments(window, config)
    # The averaged state is the {HV, VH} block with 1/2 on its diagonal and
    # coherence M1 / (2 M0): its eigenvalues are (1 +- |M1| / M0) / 2, and
    # Wootters reduces to 2 |rho_HV,VH|.
    abs_m1 = abs(moments.m1)
    if abs_m1 > (1.0 + 2.0 * PSD_TOL) * moments.m0:
        raise StateInvariantError(
            f"aperture-averaged state not positive: |M1| / M0 = "
            f"{abs_m1 / moments.m0!r} exceeds 1")
    return (moments.even, moments.odd,
            visibility_from_counts(moments.even, moments.odd),
            abs_m1 / moments.m0)


_SIGMA_Y_PAIR = np.kron(np.array([[0.0, -1.0j], [1.0j, 0.0]]),
                        np.array([[0.0, -1.0j], [1.0j, 0.0]]))


def concurrence(rho: DensityMatrix4) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    C = max(0, l1 - l2 - l3 - l4) with l_i the descending square roots of the
    eigenvalues of rho (sy x sy) rho* (sy x sy). The l_i are computed as the
    singular values of sqrt(rho) (sy x sy) sqrt(rho)* (same spectrum), which
    keeps the near-zero values at machine accuracy instead of the sqrt(eps)
    noise a direct eigenvalue square root would give.
    """
    rho.validate()
    eigenvalues, vectors = np.linalg.eigh(rho.matrix)
    # clip rounding-level negatives only after validate() accepted them
    sqrt_rho = (vectors * np.sqrt(np.clip(eigenvalues, 0.0, None))) \
        @ vectors.conj().T
    lambdas = np.linalg.svd(sqrt_rho @ _SIGMA_Y_PAIR @ sqrt_rho.conj(),
                            compute_uv=False)
    return float(max(0.0, lambdas[0] - lambdas[1] - lambdas[2] - lambdas[3]))


def simulate_counts(true_rate: float | np.ndarray, accidental_rate: float,
                    duration: float,
                    seed: int | np.random.SeedSequence) -> int | np.ndarray:
    """Poisson coincidence counts with mean (true + accidental) * duration.

    ``true_rate`` is one rate (the count is an ``int``) or an array of rates
    (the counts are an integer array, drawn in order from one generator).
    Deterministic per seed; every call owns its generator, so concurrent
    simulations never share state.
    """
    if np.any(np.asarray(true_rate) < 0.0) or accidental_rate < 0.0:
        raise ValueError("rates must be >= 0")
    if duration < 0.0:
        raise ValueError("duration must be >= 0")
    rng = np.random.default_rng(seed)
    counts = rng.poisson((true_rate + accidental_rate) * duration)
    return counts if np.ndim(counts) else int(counts)

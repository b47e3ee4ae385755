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
One batched composite Gauss-Legendre pass per sweep gives both moments of
every window, each with an error estimate held to ``QUAD_TOL`` relative to
its M0; a window of halfwidth 0 is a point. ``concurrence`` evaluates
Wootters' formula for any two-qubit density matrix.
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
        _check_domain(self.center, self.halfwidth)


def _check_domain(center: float, halfwidth: float) -> None:
    """ValueError unless [center - halfwidth, center + halfwidth] is a window
    inside the model domain (a NaN edge is not)."""
    if not halfwidth >= 0.0:
        raise ValueError(f"halfwidth must be >= 0, got {halfwidth}")
    if not abs(center) + halfwidth <= MAX_SUPPORTED_ANGLE:
        raise ValueError(
            f"window [{center - halfwidth}, {center + halfwidth}] rad "
            f"exceeds the supported range |theta| <= {MAX_SUPPORTED_ANGLE} "
            f"rad")


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
# Panels per pass: 2**13 panels of 48 nodes keep the kernel's arrays near
# 20 MB, and one window of a 12 cm BBO crystal over the whole model domain
# fits in a pass.
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
    """Both kernel rules as one node set 1 + x on [0, 2] (x the nodes on
    [-1, 1]) and a (nodes, 2) weight matrix whose columns apply the
    32-point and the 16-point rule.

    Built on first use, so imports and scan-only runs never pay for it.
    """
    fine_nodes, fine_weights = _gauss_legendre(_GL_ORDER)
    check_nodes, check_weights = _gauss_legendre(_GL_CHECK_ORDER)
    nodes = 1.0 + np.concatenate((fine_nodes, check_nodes))
    weights = np.zeros((nodes.size, 2))
    weights[:_GL_ORDER, 0] = fine_weights
    weights[_GL_ORDER:, 1] = check_weights
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


class _Moments(NamedTuple):
    """M0 = int w and M1 = int w e^{i phi} over windows, w = sinc^2(a theta).

    M0 and Re M1 are carried as their halves ``even`` = (M0 + Re M1) / 2 =
    int w cos^2(phi/2) and ``odd`` = (M0 - Re M1) / 2 = int w sin^2(phi/2):
    both integrands are nonnegative, so each half keeps its relative accuracy
    where the difference M0 - Re M1 would cancel (narrow windows on a small
    phase, or windows around a Psi- angle). The kernel returns one array
    entry per window; the one-window functions hold floats.
    """

    even: np.ndarray
    odd: np.ndarray
    imag: np.ndarray  # Im M1 = int w sin(phi)

    @property
    def m0(self) -> np.ndarray:
        return self.even + self.odd

    @property
    def m1(self) -> np.ndarray:
        return (self.even - self.odd) + 1j * self.imag


def _integrands(theta: np.ndarray, envelope_slope: float,
                phase_slope: float) -> np.ndarray:
    """w cos^2(phi/2), w sin^2(phi/2) and w sin(phi) at every ``theta``,
    stacked along a new first axis."""
    arg = envelope_slope * theta
    envelope = np.divide(np.sin(arg), arg, out=np.ones_like(arg),
                         where=arg != 0.0)
    weight = envelope * envelope
    half_phase = 0.5 * phase_slope * theta
    cos_half = np.cos(half_phase)
    sin_half = np.sin(half_phase)
    weighted_sin = weight * sin_half
    return np.array((weight * cos_half * cos_half, weighted_sin * sin_half,
                     2.0 * weighted_sin * cos_half))


def _panel_pass(lo: np.ndarray, hi: np.ndarray, envelope_slope: float,
                phase_slope: float) -> tuple[np.ndarray, np.ndarray]:
    """32-point sums (even, odd, imag) of the windows [lo_i, hi_i], shape
    (3, windows), and each window's error estimate: the largest over the
    three integrands of its summed |32-point - 16-point| panel values."""
    a, k = envelope_slope, abs(phase_slope)
    # The grid of ``_window_moments``; with no envelope its step is one
    # phase period, and with neither it is as wide as the model domain.
    if a > 0.0:
        step = math.pi / (a * max(1.0, math.ceil(k / (2.0 * a))))
    else:
        step = 2.0 * math.pi / k if k > 0.0 else 2.0 * MAX_SUPPORTED_ANGLE
    # A window's edges are lo, the grid points strictly inside it and hi,
    # stored window after window, so neighbouring panels share one float.
    first = np.floor(lo / step)
    counts = np.maximum(np.ceil(hi / step) - first, 1.0).astype(int)
    starts = np.cumsum(counts + 1) - (counts + 1)
    ends = starts + counts
    owner = np.repeat(np.arange(lo.size), counts + 1)
    edges = np.clip((first[owner] + (np.arange(owner.size) - starts[owner]))
                    * step, lo[owner], hi[owner])
    edges[starts] = lo
    edges[ends] = hi
    lefts = np.delete(edges, ends)
    halves = 0.5 * (np.delete(edges, starts) - lefts)
    # each window before window i has one edge more than it has panels
    window_starts = starts - np.arange(lo.size)

    nodes, weights = _kernel_rule()
    # Node left + half (1 + x): a rounded midpoint would shift all of a
    # panel's nodes alike by up to half an ulp of theta, and far off axis
    # k times that moves the phase more than the tolerance allows.
    theta = lefts[:, None] + halves[:, None] * nodes
    panels = (_integrands(theta, a, phase_slope) @ weights) \
        * halves[:, None]  # (3, panels, 2)
    fine, coarse = panels[..., 0], panels[..., 1]
    sums = np.add.reduceat(fine, window_starts, axis=1)
    errors = np.add.reduceat(np.abs(fine - coarse), window_starts, axis=1)
    return sums, errors.max(axis=0)


def _window_moments(centers: np.ndarray, halfwidths: np.ndarray,
                    envelope_slope: float, phase_slope: float) -> _Moments:
    """Both moments of every window [c_i - h_i, c_i + h_i], in one batch.

    The weight is w = sinc^2(a theta) with a = ``envelope_slope`` and the
    phase phi = k theta with k = ``phase_slope``. One grid of step
    pi / (a m), m = max(1, ceil(|k| / 2a)), cuts every window into panels:
    it holds every sinc zero n pi / a, and no panel spans more than one
    period 2 pi / |k| of e^{i k theta}, so on each panel the integrands are
    entire functions of small bandwidth. A window's panels run from its
    lower edge through the grid points inside it to its upper edge, and
    neighbouring panels share their edge. The panels of all windows go
    through one 32-point Gauss-Legendre pass, cut into passes of at most
    ``_MAX_PANELS`` panels, and per-window sums; the 16-point rule on the
    same panels estimates the error of the 32-point one.

    Every check applies per window, and an error names the first window
    that fails it: ValueError when a window leaves the model domain;
    QuadratureError when one would need more than ``_MAX_PANELS`` panels,
    when its error estimate exceeds ``QUAD_TOL`` * M0, or when its M0 is not
    positive (a window narrower than float resolution). At halfwidth 0 the
    moments are the integrands at the center, the h -> 0 limit of each
    moment over the width 2 h.
    """
    centers = np.asarray(centers, dtype=float)
    halfwidths = np.asarray(halfwidths, dtype=float)
    inside = (halfwidths >= 0.0) \
        & (np.abs(centers) + halfwidths <= MAX_SUPPORTED_ANGLE)
    if not inside.all():
        outside = int(np.argmin(inside))
        _check_domain(float(centers[outside]), float(halfwidths[outside]))
    lo = centers - halfwidths
    hi = centers + halfwidths
    # An upper bound on each window's panels: a long crystal or a steep
    # phase law would ask for unbounded memory.
    panels = (hi - lo) * (envelope_slope / math.pi
                          + abs(phase_slope) / (2.0 * math.pi)) + 2.0
    fits = panels <= _MAX_PANELS
    if not fits.all():
        big = int(np.argmin(fits))
        raise QuadratureError(
            f"window quadrature on [{lo[big]}, {hi[big]}] rad needs about "
            f"{panels[big]:.3g} panels, more than the limit of {_MAX_PANELS}")
    moments = np.empty((3, centers.size))
    errors = np.zeros(centers.size)
    points = halfwidths == 0.0
    if points.any():
        moments[:, points] = _integrands(centers[points], envelope_slope,
                                         phase_slope)
    spans = np.flatnonzero(~points)
    reach = np.cumsum(panels[spans])
    start = 0
    while start < spans.size:
        # Each window fits alone, so every pass takes at least one.
        stop = int(np.searchsorted(
            reach, (reach[start - 1] if start else 0.0) + _MAX_PANELS,
            side="right"))
        batch = spans[start:stop]
        moments[:, batch], errors[batch] = _panel_pass(
            lo[batch], hi[batch], envelope_slope, phase_slope)
        start = stop
    m0 = moments[0] + moments[1]
    # A window narrower than float resolution leaves M0 = 0: no tolerance
    # relative to it can be met.
    failed = ~points & ~((m0 > 0.0) & (errors <= QUAD_TOL * m0))
    if failed.any():
        bad = int(np.argmax(failed))
        achieved = errors[bad] / m0[bad] if m0[bad] > 0.0 else math.inf
        raise QuadratureError(
            f"window quadrature on [{lo[bad]}, {hi[bad]}] rad failed: M0 = "
            f"{m0[bad]:.3e}, error estimate {achieved:.3e} of M0 against "
            f"the requested relative tolerance {QUAD_TOL:.3e}",
            achieved=float(achieved), requested=QUAD_TOL)
    return _Moments(*moments)


def _one_window(window: AngularWindow, config: SourceConfig) -> _Moments:
    """The kernel's moments of one window, as floats."""
    moments = _window_moments(np.array([window.center]),
                              np.array([window.halfwidth]),
                              config.envelope_slope, config.phase_slope)
    return _Moments(*(float(column[0]) for column in moments))


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
    moments = _one_window(window, config)
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
    moments = _one_window(window, config)
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
    moments = _one_window(window, config)
    return visibility_from_counts(moments.even, moments.odd)


def _sweep_columns(centers: np.ndarray, halfwidths: np.ndarray,
                   envelope_slope: float,
                   phase_slope: float) -> tuple[np.ndarray, ...]:
    """(C_pp, C_pm, V, concurrence) of every window: the visibility sweep
    columns, from one kernel call."""
    moments = _window_moments(centers, halfwidths, envelope_slope,
                              phase_slope)
    m0 = moments.m0
    re_m1 = moments.even - moments.odd
    # The averaged state is the {HV, VH} block with 1/2 on its diagonal and
    # coherence M1 / (2 M0): its eigenvalues are (1 +- |M1| / M0) / 2, and
    # Wootters reduces to 2 |rho_HV,VH|.
    abs_m1 = np.hypot(re_m1, moments.imag)
    excess = abs_m1 > (1.0 + 2.0 * PSD_TOL) * m0
    if excess.any():
        bad = int(np.argmax(excess))
        raise StateInvariantError(
            f"aperture-averaged state not positive: |M1| / M0 = "
            f"{float(abs_m1[bad] / m0[bad])!r} exceeds 1")
    # The kernel holds M0 > 0 on every window of nonzero width.
    return moments.even, moments.odd, np.abs(re_m1 / m0), abs_m1 / m0


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

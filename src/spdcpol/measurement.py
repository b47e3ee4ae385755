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
A sweep's windows are nested about one center. One kernel call cuts the
angle axis there, at every window edge and on one grid of sinc zeros and
phase periods, integrates each slice once by composite Gauss-Legendre under
every phase law the sweep compares, and sums the slices outward from the
center: both moments of every window, each with an error estimate held to
``QUAD_TOL`` relative to its M0. Every sweep window needs a width in
floating point. The one-window functions also take halfwidth 0,
a point: the integrands at its center. ``concurrence`` evaluates
Wootters' formula for any two-qubit density matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .biphoton import SourceConfig
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
    """Glan-prism analysis angles in radians, interpreted mod pi.

    Derived fields, computed once when built: ``sum_weight`` =
    sin^2(Theta1 + Theta2) and ``diff_weight`` = sin^2(Theta1 - Theta2),
    the weights of the cos^2(phi/2) and sin^2(phi/2) parts of every rate at
    these settings. They take no part in ``==``, ``hash`` or ``repr``.
    """

    theta1: float
    theta2: float
    sum_weight: float = field(init=False, repr=False, compare=False)
    diff_weight: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s_sum = math.sin(self.theta1 + self.theta2)
        s_diff = math.sin(self.theta1 - self.theta2)
        object.__setattr__(self, "sum_weight", s_sum * s_sum)
        object.__setattr__(self, "diff_weight", s_diff * s_diff)


@dataclass(frozen=True)
class AngularWindow:
    """Hard-edged internal-angle acceptance window; halfwidth 0 is a point.
    Both edges must lie inside the model domain (a NaN edge does not)."""

    center: float
    halfwidth: float

    def __post_init__(self):
        if not self.halfwidth >= 0.0:
            raise ValueError(f"halfwidth must be >= 0, got {self.halfwidth}")
        lo, hi = self.center - self.halfwidth, self.center + self.halfwidth
        if not abs(self.center) + self.halfwidth <= MAX_SUPPORTED_ANGLE:
            raise ValueError(f"window [{lo}, {hi}] rad exceeds the supported "
                             f"range |theta| <= {MAX_SUPPORTED_ANGLE} rad")


def coincidence_rate(theta: float, settings: PolarizerSettings,
                     config: SourceConfig) -> float:
    """Coincidence rate (arbitrary units) at internal angle ``theta``.

    The law runs in this one frame, on the settings' derived weights: the
    envelope sinc(a theta), a = ``config.envelope_slope``, and the half
    phase phi / 2 = k theta / 2 are the same float operations as
    ``angular_envelope`` and ``relative_phase``, and a test holds the rate
    bit-equal to the law composed from those two.
    """
    x = config.envelope_slope * theta
    envelope = math.sin(x) / x if x else 1.0
    half = config.phase_slope * theta / 2.0
    return (envelope * envelope
            * (settings.sum_weight * math.cos(half) ** 2
               + settings.diff_weight * math.sin(half) ** 2))


@dataclass(frozen=True)
class DensityMatrix4:
    """4x4 Hermitian unit-trace positive matrix over (HH, HV, VH, VV),
    checked when built and kept as a read-only copy, so it stays valid."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (4, 4):
            raise StateInvariantError(f"expected a 4x4 matrix, got {mat.shape}")
        if not float(np.max(np.abs(mat - mat.conj().T))) <= HERMITICITY_TOL:
            raise StateInvariantError("density matrix not Hermitian")
        trace = mat.trace()
        if not abs(trace - 1.0) <= TRACE_TOL:
            raise StateInvariantError(f"density matrix trace {trace} != 1")
        eigenvalues = np.linalg.eigvalsh(mat)
        if float(eigenvalues.min()) < -PSD_TOL:
            raise StateInvariantError(
                f"density matrix not positive: min eigenvalue "
                f"{eigenvalues.min():.3e}")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


# Gauss-Legendre orders of the window kernel: the integral and the
# half-order rule whose difference from it is the error estimate.
_GL_ORDER = 32
_GL_CHECK_ORDER = 16
# Bound on the panels of a sweep's widest window and on the slices of one
# pass: a pass of 2**13 slices of 48 nodes peaks near 26 MB for one phase
# law and 13 MB more for each further law. The bound holds a whole-domain
# window of a bare or compensated BBO source up to about 25 cm long, and of
# one anticompensated by half its length up to about 12.7 cm. A sweep's
# slices and outward sums add about 0.1 kB per slice and law.
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
    [-1, 1]) and a (nodes, 2) weight matrix whose columns apply the 32-point
    rule and its difference from the 16-point rule, the error estimate.
    Built on first use, so imports and scan-only runs never pay for it.
    """
    fine_nodes, fine_weights = _gauss_legendre(_GL_ORDER)
    check_nodes, check_weights = _gauss_legendre(_GL_CHECK_ORDER)
    nodes = 1.0 + np.concatenate((fine_nodes, check_nodes))
    weights = np.zeros((nodes.size, 2))
    weights[:_GL_ORDER] = fine_weights[:, None]
    weights[_GL_ORDER:, 1] = -check_weights
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


class _Moments(NamedTuple):
    """M0 = int w and M1 = int w e^{i phi} over windows, w = sinc^2(a theta),
    and the kernel's error estimate.

    M0 and Re M1 are carried as their halves ``even`` = (M0 + Re M1) / 2 =
    int w cos^2(phi/2) and ``odd`` = (M0 - Re M1) / 2 = int w sin^2(phi/2):
    both integrands are nonnegative, so each half keeps its relative accuracy
    where the difference M0 - Re M1 would cancel (narrow windows on a small
    phase, or windows around a Psi- angle). Each field has the shape of the
    kernel's phase slopes plus a window axis; the one-window functions hold
    floats.
    """

    even: np.ndarray
    odd: np.ndarray
    imag: np.ndarray  # Im M1 = int w sin(phi)
    error: np.ndarray  # error estimate over M0; 0 at a point

    @property
    def m0(self) -> np.ndarray:
        return self.even + self.odd

    @property
    def m1(self) -> np.ndarray:
        return (self.even - self.odd) + 1j * self.imag


# pi = _PI_HEAD + _PI_TAIL to about 1e-26: the head keeps 33 bits, so
# n * _PI_HEAD is exact for |n| < 2**20, and pi - math.pi = 1.2246...e-16.
_PI_HEAD = math.ldexp(round(math.ldexp(math.pi, 31)), -31)
_PI_TAIL = (math.pi - _PI_HEAD) + 1.2246467991473532e-16


def _split(x):
    """x as head + tail, the head keeping the top 26 bits (Veltkamp)."""
    scaled = 134217729.0 * x  # 2**27 + 1
    head = scaled - (scaled - x)
    return head, x - head


def _integrands(lefts: np.ndarray, offsets: np.ndarray,
                rates: np.ndarray) -> np.ndarray:
    """w cos^2(phi/2), w sin^2(phi/2) and w sin(phi) of every phase law at
    every node theta = ``lefts[i]`` + ``offsets[i, j]``, shape (3, laws,
    slices, nodes); ``rates`` is the column (a, k_1 / 2, k_2 / 2, ...) of
    the angles a theta and phi / 2 per unit theta, and the weight w is
    evaluated once for every law.

    Far off axis the angles a theta and phi / 2 reach about 90 rad, where
    rounding the node theta and then the product would cost about 1e-14
    rad; near a zero of a sine or cosine that is more than the kernel's
    1e-12 relative accuracy allows. So each angle is rate * left +
    rate * offset, and rate * left is the exact product of the two 26-bit
    heads plus a rest below 1e-7 of it (after Dekker, "A floating-point
    technique for extending the available precision", Numer. Math. 18,
    1971, without a fused multiply-add). Whole turns of pi come off the
    exact part exactly, which leaves an angle ``rest`` of a few rad at most,
    rounded to below 1e-15 rad. A turn flips the sign of a sine and a
    cosine alike and every integrand is even in that sign, so the sines and
    cosines are those of the rests. The sinc divides by turns pi + rest,
    which next to theta = 0 cancels exactly to the small angle whose sine
    is its numerator.
    """
    heads, tails = _split(rates)
    left_heads, left_tails = _split(lefts)
    exact = heads * left_heads
    turns = np.rint(exact / math.pi)
    whole, part = turns * _PI_HEAD, turns * _PI_TAIL
    base = ((exact - whole) - part) + (heads * left_tails + tails * lefts)
    rest = base[..., None] + rates[..., None] * offsets
    arg = (whole[0, :, None] + rest[0]) + part[0, :, None]
    integrands = np.empty((3, *rest[1:].shape))
    even, odd, imag = integrands
    cos_half = np.cos(rest[1:], out=even)
    sines = np.sin(rest, out=rest)
    envelope = np.divide(sines[0], arg, out=np.ones_like(arg),
                         where=arg != 0.0)
    weight = np.multiply(envelope, envelope, out=envelope)
    sin_half = sines[1:]
    # The products (w c) c, (w s) s and (2 (w s)) c of c = cos(phi/2) and
    # s = sin(phi/2), each in that order of operations, written into the
    # output: imag first holds w s, the sines' buffer then w c, and even,
    # which holds c until then, is written last.
    np.multiply(weight, sin_half, out=imag)
    np.multiply(imag, sin_half, out=odd)
    imag *= 2.0
    imag *= cos_half
    weighted_cos = np.multiply(weight, cos_half, out=sin_half)
    np.multiply(weighted_cos, cos_half, out=even)
    return integrands


def _slice_values(cuts: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """The 32-point values (column 0) and |32-point - 16-point| error
    estimates (column 1) of w cos^2(phi/2), w sin^2(phi/2) and w sin(phi) on
    each slice between neighbouring ``cuts`` under every law of ``rates``,
    shape (3, laws, slices, 2)."""
    lefts = cuts[:-1]
    scale = 0.5 * (cuts[1:] - lefts)[:, None]
    nodes, weights = _kernel_rule()
    # Nodes left + half (1 + x), never rounded to one float (see
    # _integrands).
    values = (_integrands(lefts, scale * nodes, rates) @ weights) * scale
    np.abs(values[..., 1], out=values[..., 1])
    return values


def _panel_step(envelope_slope: float, laws) -> float:
    """The kernel's grid step under the phase slopes ``laws``, such that no
    panel spans more than one period of any law: pi / (a m),
    m = max(1, ceil(K / 2a)) for the largest |k| = K, which holds every
    sinc zero, when the first zero pi / a lies in the model domain, and
    otherwise 2 pi / K (the domain width for K = 0)."""
    a, k = envelope_slope, max(map(abs, laws))
    if a * MAX_SUPPORTED_ANGLE >= math.pi:  # a sinc zero in the domain
        return math.pi / (a * max(1.0, math.ceil(k / (2.0 * a))))
    # one phase period, or with no phase the model domain
    return 2.0 * math.pi / k if k > 0.0 else 2.0 * MAX_SUPPORTED_ANGLE


def _panel_count(center: float, halfwidth: float, step: float) -> int:
    """The panels the grid points n ``step`` cut the window [c - h, c + h]
    into, at least 1; or, beyond ``_MAX_PANELS``, a QuadratureError. Scalar
    float arithmetic: the ceiling and floor of a finite float are exact,
    and a grid index that overflows counts as infinitely many panels."""
    lo, hi = center - halfwidth, center + halfwidth
    first, last = lo / step, hi / step
    count = math.inf
    if math.isfinite(first) and math.isfinite(last):
        count = max(float(math.ceil(last) - math.floor(first)), 1.0)
    if not count <= _MAX_PANELS:
        raise QuadratureError(
            f"window quadrature on [{lo}, {hi}] rad needs {count:.6g} "
            f"panels, more than the limit of {_MAX_PANELS}")
    return int(count)


def _window_moments(center: float, halfwidths: np.ndarray,
                    envelope_slope: float, phase_slopes) -> _Moments:
    """Both moments of the nested windows [c - h_i, c + h_i] about one
    center c under every phase law, with each window's error.

    The weight is w = sinc^2(a theta), a = ``envelope_slope``; a law's
    phase is k theta, and ``phase_slopes`` is one k or a sequence, whose
    shape every moment and error takes before its window axis. The
    halfwidths ascend, the last the widest. The axis is cut at the center,
    at every window edge and at the `_panel_step` grid points inside the
    widest window, and each slice between two cuts is integrated once, for
    every law, by the 32-point Gauss-Legendre rule with w evaluated once per
    node; the 16-point rule gives the error estimate. Slices that one pass
    of ``_MAX_PANELS`` does not hold fill one array in passes of that many.
    Sums run outward from the center on either side, and window i is its
    left sum plus its right sum: ``even`` and ``odd`` have nonnegative
    integrands, so no window is a difference of sums.
    The kernel integrates windows only (a point is ``_one_window``'s) and
    does numerics only: ``AngularWindow`` holds each window in the model
    domain, ``ScenarioSpec`` also within the panel limit. A QuadratureError
    refuses a widest window of more than ``_MAX_PANELS`` panels
    (`_panel_count`, the fence's count) before any memory is asked for, or
    names the first window with an error estimate above ``QUAD_TOL`` * M0
    or an M0 that is not positive (a window of halfwidth 0, or narrower
    than float resolution) under some law.
    """
    halfwidths = np.asarray(halfwidths, dtype=float)
    slopes = np.asarray(phase_slopes, dtype=float)
    a, laws = envelope_slope, slopes.ravel().tolist()
    # the sinc argument a theta and each half phase k theta / 2, per theta
    rates = np.array([[a], *([0.5 * law] for law in laws)])
    step = _panel_step(a, laws)
    count = _panel_count(center, float(halfwidths[-1]), step)
    lo, hi = center - halfwidths, center + halfwidths
    first = math.floor(lo[-1] / step)
    # the center, every edge, and the grid points inside the widest window;
    # a center on the grid is cut once
    marks = np.concatenate(([center], lo, hi,
                            np.arange(first + 1.0, first + count) * step))
    cuts = np.sort(marks[1:] if math.fmod(center, step) == 0.0 else marks)
    windows = halfwidths.size
    where = np.searchsorted(cuts, marks[:2 * windows + 1])
    slices = cuts.size - 1
    if slices <= _MAX_PANELS:
        values = _slice_values(cuts, rates)
    else:
        values = np.empty((3, len(laws), slices, 2))
        for start in range(0, slices, _MAX_PANELS):
            values[:, :, start:start + _MAX_PANELS] = _slice_values(
                cuts[start:start + _MAX_PANELS + 1], rates)
    # Outward sums from the center, cut p: right[r] sums the r slices right
    # of it, left[l] the l slices left of it.
    p = where[0]
    right = np.zeros((3, len(laws), slices - p + 1, 2))
    left = np.zeros((3, len(laws), p + 1, 2))
    np.cumsum(values[:, :, p:], axis=2, out=right[:, :, 1:])
    np.cumsum(values[:, :, :p][:, :, ::-1], axis=2, out=left[:, :, 1:])
    sums = (right[:, :, where[windows + 1:] - p]
            + left[:, :, p - where[1:windows + 1]])
    m0 = sums[0, ..., 0] + sums[1, ..., 0]
    error = np.divide(sums[..., 1].max(axis=0), m0,
                      out=np.full_like(m0, math.inf), where=m0 > 0.0)
    if not error.max() <= QUAD_TOL:
        worst = error.max(axis=0)
        bad = int(np.argmax(~(worst <= QUAD_TOL)))
        raise QuadratureError(
            f"window quadrature on [{lo[bad]}, {hi[bad]}] rad failed: M0 = "
            f"{m0[0, bad]:.3e}, error estimate {worst[bad]:.3e} of M0 "
            f"against the requested relative tolerance {QUAD_TOL:.3e}",
            achieved=float(worst[bad]), requested=QUAD_TOL)
    shape = (*slopes.shape, windows)
    return _Moments(*sums[..., 0].reshape(3, *shape), error.reshape(shape))


def _one_window(window: AngularWindow, config: SourceConfig) -> _Moments:
    """The moments of one window, as floats: one kernel call, or at
    halfwidth 0 the integrands at the center, the h -> 0 limit of each
    moment over the width 2 h (error 0)."""
    if window.halfwidth == 0.0:
        rates = np.array([[config.envelope_slope], [0.5 * config.phase_slope]])
        point = _integrands(np.array([window.center]), np.zeros((1, 1)), rates)
        return _Moments(*(float(value) for value in point.ravel()), 0.0)
    moments = _window_moments(window.center, np.array([window.halfwidth]),
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
    return DensityMatrix4(mat)


def window_coincidences(settings: PolarizerSettings, window: AngularWindow,
                        config: SourceConfig) -> float:
    """Coincidence rate integrated over the window (point rate at halfwidth 0).

    Equals 1/2 (s+^2 + s-^2) M0 + 1/2 (s+^2 - s-^2) Re M1 with
    s+- = sin(Theta1 +- Theta2); ``QUAD_TOL`` bounds the quadrature error
    estimate relative to M0.
    """
    moments = _one_window(window, config)
    return _analyzer_mix(settings, moments.even, moments.odd)


def _analyzer_mix(settings: PolarizerSettings, even, odd):
    """sin^2(T1 + T2) even + sin^2(T1 - T2) odd, from the settings'
    derived weights: the rate at ``settings`` from the (45, 45) and
    (45, -45) rates, floats or arrays alike."""
    return settings.sum_weight * even + settings.diff_weight * odd


def visibility(window: AngularWindow, config: SourceConfig) -> float:
    """Polarization-interference visibility over the window.

    V = |(C(45,45) - C(45,-45)) / (C(45,45) + C(45,-45))|; both counts come
    from one pair of window moments, C(45,45) = (M0 + Re M1) / 2 and
    C(45,-45) = (M0 - Re M1) / 2.
    """
    moments = _one_window(window, config)
    if moments.m0 == 0.0:
        raise UndefinedVisibilityError(
            "both coincidence counts vanish on this window")
    return abs((moments.even - moments.odd) / moments.m0)


def _sweep_columns(center: float, halfwidths: np.ndarray,
                   envelope_slope: float,
                   phase_slopes) -> tuple[np.ndarray, ...]:
    """(C_pp, C_pm, V, concurrence) of every window under every phase law,
    shaped as in ``_window_moments``: the visibility sweep columns, from one
    kernel call."""
    moments = _window_moments(center, halfwidths, envelope_slope,
                              phase_slopes)
    m0 = moments.m0
    re_m1 = moments.even - moments.odd
    # The averaged state is the {HV, VH} block with 1/2 on its diagonal and
    # coherence M1 / (2 M0): its eigenvalues are (1 +- |M1| / M0) / 2, and
    # Wootters reduces to 2 |rho_HV,VH|.
    abs_m1 = np.hypot(re_m1, moments.imag)
    excess = abs_m1 > (1.0 + 2.0 * PSD_TOL) * m0
    if excess.any():
        bad = np.argmax(excess)
        raise StateInvariantError(
            f"aperture-averaged state not positive: |M1| / M0 = "
            f"{float(abs_m1.flat[bad] / m0.flat[bad])!r} exceeds 1")
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
    eigenvalues, vectors = np.linalg.eigh(rho.matrix)
    # clip the rounding-level negatives that construction accepted
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
    if not (np.all(np.asarray(true_rate) >= 0.0) and accidental_rate >= 0.0):
        raise ValueError("rates must be >= 0")
    if not duration >= 0.0:
        raise ValueError("duration must be >= 0")
    rng = np.random.default_rng(seed)
    counts = rng.poisson((true_rate + accidental_rate) * duration)
    return counts if np.ndim(counts) else int(counts)

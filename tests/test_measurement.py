import dataclasses
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spdcpol as sp
from spdcpol import measurement, scenario

# float references from float_oracles; mpmath ones from bench/oracle.py
from float_oracles import projection_rate

P45 = math.pi / 4.0


# ------------------------------------------------------- coincidence rate

def test_rate_on_axis(bare_config):
    assert sp.coincidence_rate(0.0, sp.PolarizerSettings(P45, P45),
                               bare_config) == 1.0
    assert sp.coincidence_rate(0.0, sp.PolarizerSettings(P45, -P45),
                               bare_config) == 0.0


def test_rate_equals_projection_oracle(bare_config, anticompensated_config):
    rng = np.random.default_rng(4242)
    for config in (bare_config, anticompensated_config):
        for _ in range(300):
            theta = rng.uniform(-9e-3, 9e-3)
            settings = sp.PolarizerSettings(rng.uniform(-math.pi, math.pi),
                                            rng.uniform(-math.pi, math.pi))
            got = sp.coincidence_rate(theta, settings, config)
            want = projection_rate(theta, settings, config)
            assert abs(got - want) <= 1e-12


@given(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi),
       st.floats(-6e-3, 6e-3))
def test_rate_polarizers_mod_pi(theta1, theta2, theta):
    config = _config()
    base = sp.coincidence_rate(theta, sp.PolarizerSettings(theta1, theta2),
                               config)
    shifted = sp.coincidence_rate(
        theta, sp.PolarizerSettings(theta1 + math.pi, theta2), config)
    assert shifted == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("source", ["bare", "compensated",
                                    "anticompensated"])
def test_rate_is_the_law_composed_from_its_owners(source, request):
    # The rate evaluates the law in its own frame; it must stay bit-equal
    # to envelope^2 (sin^2(T1 + T2) cos^2(phi/2) + sin^2(T1 - T2)
    # sin^2(phi/2)) composed from angular_envelope and relative_phase.
    config = request.getfixturevalue(f"{source}_config")
    rng = np.random.default_rng(2626)
    pairs = [(P45, P45), (P45, -P45), (0.0, 0.0), (P45, 0.0)] + [
        tuple(rng.uniform(-math.pi, math.pi, 2).tolist()) for _ in range(4)]
    # theta = 0, +-0.1 rad, the first two sinc zeros on each side inside
    # the model domain, and seeded draws from it: enough draws that a
    # cos(half) * cos(half) in place of cos(half) ** 2 (about 1 in 1000
    # differ) shows
    zeros = [n * math.pi / config.envelope_slope for n in (-2, -1, 1, 2)]
    thetas = ([0.0, 0.1, -0.1] + [z for z in zeros if abs(z) <= 0.1]
              + rng.uniform(-0.1, 0.1, 5000).tolist())
    for theta in thetas:
        envelope = sp.angular_envelope(theta, config)
        phi = sp.relative_phase(theta, config)
        for theta1, theta2 in pairs:
            s_sum = math.sin(theta1 + theta2)
            s_diff = math.sin(theta1 - theta2)
            want = (envelope * envelope
                    * (s_sum * s_sum * math.cos(phi / 2.0) ** 2
                       + s_diff * s_diff * math.sin(phi / 2.0) ** 2))
            got = sp.coincidence_rate(
                theta, sp.PolarizerSettings(theta1, theta2), config)
            assert got == want, (theta, theta1, theta2)


def test_rate_runs_in_one_frame(anticompensated_config):
    # The scan's hot path: no Python call beyond coincidence_rate's own
    # frame (math.sin and math.cos are C functions).
    settings = sp.PolarizerSettings(P45, -P45)
    frames = []

    def profile(frame, event, arg):
        if event == "call":
            frames.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for theta in (0.0, 3e-3, -0.1):
            sp.coincidence_rate(theta, settings, anticompensated_config)
    finally:
        sys.setprofile(None)
    assert frames == ["coincidence_rate"] * 3


def test_settings_carry_their_two_weights():
    rng = np.random.default_rng(26)
    for theta1, theta2 in [(P45, P45), (P45, -P45), (0.0, 0.0)] + [
            tuple(rng.uniform(-math.pi, math.pi, 2).tolist())
            for _ in range(20)]:
        settings = sp.PolarizerSettings(theta1, theta2)
        s_sum = math.sin(theta1 + theta2)
        s_diff = math.sin(theta1 - theta2)
        assert settings.sum_weight == s_sum * s_sum
        assert settings.diff_weight == s_diff * s_diff
    # the weights are derived: not arguments, and no part of ==, hash, repr
    settings = sp.PolarizerSettings(1.0, 0.5)
    assert repr(settings) == "PolarizerSettings(theta1=1.0, theta2=0.5)"
    assert settings == sp.PolarizerSettings(1.0, 0.5)
    assert settings != sp.PolarizerSettings(1.0, -0.5)
    assert hash(settings) == hash((1.0, 0.5))
    flipped = dataclasses.replace(settings, theta2=-0.5)
    assert flipped.diff_weight == math.sin(1.5) * math.sin(1.5)
    with pytest.raises(TypeError):
        sp.PolarizerSettings(1.0, 0.5, 0.2)  # type: ignore[call-arg]


def test_analyzer_mix_on_arrays_is_the_weighted_sum():
    rng = np.random.default_rng(396)
    even, odd = rng.uniform(0.0, 1.0, (2, 3, 50))
    for theta1, theta2 in [(P45, P45), (P45, -P45)] + [
            tuple(rng.uniform(-math.pi, math.pi, 2).tolist())
            for _ in range(10)]:
        settings = sp.PolarizerSettings(theta1, theta2)
        s_sum = math.sin(theta1 + theta2)
        s_diff = math.sin(theta1 - theta2)
        got = measurement._analyzer_mix(settings, even, odd)
        assert np.array_equal(got,
                              s_sum * s_sum * even + s_diff * s_diff * odd)
        assert np.array_equal(
            got, settings.sum_weight * even + settings.diff_weight * odd)


_CACHE = {}


def _config():
    if "bare" not in _CACHE:
        material = sp.get_material("bbo")
        cut = sp.phase_matching_cut_angle(material, 351e-9)
        _CACHE["bare"] = sp.SourceConfig(
            production=material.crystal(cut_angle=cut, length=1e-3),
            pump_wavelength=351e-9)
    return _CACHE["bare"]


# ------------------------------------------------------------------- scan

def test_scan_anticompensated_first_zero_at_half_angle(
        bare_config, anticompensated_config):
    settings = sp.PolarizerSettings(P45, P45)
    zero_bare = _first_zero(lambda t: sp.coincidence_rate(t, settings,
                                                          bare_config))
    zero_anti = _first_zero(lambda t: sp.coincidence_rate(t, settings,
                                                          anticompensated_config))
    assert zero_bare / zero_anti == pytest.approx(2.0, abs=1e-6)


def _first_zero(rate, upper=5e-3):
    # Bracket the first small-valued local minimum of the (nonnegative)
    # curve on a dense grid, then refine by ternary search.
    grid = np.linspace(1e-7, upper, 20_001)
    values = np.array([rate(float(t)) for t in grid])
    candidates = np.nonzero((values[1:-1] <= values[:-2])
                            & (values[1:-1] <= values[2:])
                            & (values[1:-1] < 1e-6))[0]
    assert len(candidates) > 0, "no zero bracketed"
    idx = int(candidates[0]) + 1
    lo, hi = float(grid[idx - 1]), float(grid[idx + 1])
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if rate(m1) < rate(m2):
            hi = m2
        else:
            lo = m1
    best = 0.5 * (lo + hi)
    assert rate(best) < 1e-12
    return best


# -------------------------------------------------- aperture density matrix

PSI_PLUS = sp.bell_state(sp.BellState.PSI_PLUS).projector()


def test_point_window_is_pure_psi_plus(bare_config):
    rho = sp.aperture_density_matrix(sp.AngularWindow(0.0, 0.0), bare_config)
    assert np.max(np.abs(rho.matrix - PSI_PLUS)) <= 1e-12


def test_compensated_window_stays_psi_plus(compensated_config):
    lobe = math.pi / compensated_config.envelope_slope
    for halfwidth in (0.2 * lobe, 0.7 * lobe, lobe):
        rho = sp.aperture_density_matrix(
            sp.AngularWindow(0.0, halfwidth), compensated_config)
        assert np.max(np.abs(rho.matrix - PSI_PLUS)) <= 1e-9


def test_offdiagonal_against_dense_trapezoid(bare_config):
    halfwidth = math.pi / bare_config.phase_slope  # first singlet angle
    window = sp.AngularWindow(0.0, halfwidth)
    rho = sp.aperture_density_matrix(window, bare_config)
    thetas = np.linspace(-halfwidth, halfwidth, 1_000_001)
    slope = bare_config.phase_slope
    weights = np.sinc(bare_config.envelope_slope * thetas / math.pi) ** 2
    oracle = (np.trapezoid(weights * np.exp(-1j * slope * thetas), thetas)
              / (2.0 * np.trapezoid(weights, thetas)))
    assert abs(rho.matrix[1, 2] - oracle) < 1e-8


def test_density_matrix_invariants_random_windows(bare_config,
                                                  anticompensated_config):
    rng = np.random.default_rng(77)
    lobe = 2.0 * math.pi / bare_config.phase_slope
    for config in (bare_config, anticompensated_config):
        for _ in range(25):
            center = rng.uniform(-lobe, lobe)
            halfwidth = rng.uniform(0.0, lobe)
            rho = sp.aperture_density_matrix(
                sp.AngularWindow(center, halfwidth), config)
            mat = rho.matrix
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
            assert abs(mat.trace().real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(mat).min() > -1e-10
            # supported on the {HV, VH} block only
            support = np.zeros((4, 4), dtype=bool)
            support[1:3, 1:3] = True
            assert np.max(np.abs(mat[~support])) < 1e-12


def test_window_validation():
    with pytest.raises(ValueError):
        sp.AngularWindow(0.0, -1e-3)
    with pytest.raises(ValueError):
        sp.AngularWindow(0.2, 1e-3)  # outside the supported range


# --------------------------------------------------------------- visibility

def test_visibility_point_window_is_one(bare_config):
    assert sp.visibility(sp.AngularWindow(0.0, 0.0), bare_config) == 1.0
    assert sp.visibility(sp.AngularWindow(0.0, 1e-9), bare_config) == \
        pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("source", ["bare", "compensated",
                                    "anticompensated"])
def test_point_window_is_the_integrands_at_its_center(source, request):
    # Halfwidth 0 is the one-window functions' point: C++ = w cos^2(phi/2),
    # C+- = w sin^2(phi/2), and the coherence M1 / (2 M0) = e^{i phi} / 2,
    # all at the center, against 30-digit mpmath.
    config = request.getfixturevalue(f"{source}_config")
    for center in (0.0, 6.75e-3, 0.05, 0.1, -0.1):
        window = sp.AngularWindow(center, 0.0)
        with mpmath.workdps(30):
            x = mpmath.mpf(config.envelope_slope) * center
            weight = (mpmath.sin(x) / x) ** 2 if x else mpmath.mpf(1)
            phi = mpmath.mpf(config.phase_slope) * center
            c_pp = weight * mpmath.cos(phi / 2) ** 2
            c_pm = weight * mpmath.sin(phi / 2) ** 2
            want = [complex(value) for value in (
                c_pp, c_pm, abs(c_pp - c_pm) / (c_pp + c_pm),
                weight * mpmath.expj(phi) / (2 * weight))]
        got = (sp.window_coincidences(sp.PolarizerSettings(P45, P45),
                                      window, config),
               sp.window_coincidences(sp.PolarizerSettings(P45, -P45),
                                      window, config),
               sp.visibility(window, config),
               sp.aperture_density_matrix(window, config).matrix[2, 1])
        for index, (value, exact) in enumerate(zip(got, want)):
            assert abs(value - exact) <= 1e-12 * abs(exact) + 1e-15, \
                (center, index)


def test_visibility_compensated_window_independent(compensated_config):
    lobe = math.pi / compensated_config.envelope_slope
    for k in range(1, 11):
        vis = sp.visibility(sp.AngularWindow(0.0, lobe * k / 10.0),
                            compensated_config)
        assert abs(vis - 1.0) <= 1e-9


def test_visibility_decreases_and_matches_concurrence(bare_config):
    hmax = math.pi / bare_config.phase_slope
    values = []
    for k in range(1, 21):
        window = sp.AngularWindow(0.0, hmax * k / 20.0)
        vis = sp.visibility(window, bare_config)
        conc = sp.concurrence(sp.aperture_density_matrix(window, bare_config))
        assert abs(vis - conc) < 1e-8  # symmetric window: same weighted mean
        values.append(vis)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_visibility_against_dense_trapezoid(bare_config):
    halfwidth = 0.6 * math.pi / bare_config.phase_slope
    vis = sp.visibility(sp.AngularWindow(0.0, halfwidth), bare_config)
    thetas = np.linspace(-halfwidth, halfwidth, 1_000_001)
    weights = np.sinc(bare_config.envelope_slope * thetas / math.pi) ** 2
    phases = bare_config.phase_slope * thetas
    c_pp = np.trapezoid(weights * np.cos(phases / 2.0) ** 2, thetas)
    c_pm = np.trapezoid(weights * np.sin(phases / 2.0) ** 2, thetas)
    assert abs(vis - abs((c_pp - c_pm) / (c_pp + c_pm))) < 1e-6


def test_visibility_undefined_when_counts_vanish(bare_config, monkeypatch):
    # the integrands find no weight at the point
    monkeypatch.setattr(measurement, "_integrands",
                        lambda *args: np.zeros((3, 1, 1, 1)))
    with pytest.raises(sp.UndefinedVisibilityError):
        sp.visibility(sp.AngularWindow(0.0, 0.0), bare_config)


# ------------------------------------------- window accuracy: mpmath oracle

# V and concurrence are differences of the two counts over M0 near V = 0,
# so below this size they are judged on absolute error.
_UNIT_FLOOR = 1e-3


@settings(max_examples=60, deadline=None)
@given(source=st.sampled_from(["bare", "compensated", "anticompensated"]),
       kind=st.sampled_from(["narrow", "wide", "far"]),
       center_share=st.floats(-1.0, 1.0),
       width_exp=st.floats(-7.0, -1.0))
@example(source="anticompensated", kind="fig2c", center_share=0.0,
         width_exp=0.0)
# Windows that once missed the bound: near a sinc zero (bare) and where V
# is below the floor (anticompensated), before the kernel reduced its
# angles exactly or, at width_exp = -1, before its one panel grid.
@example(source="bare", kind="far", center_share=0.8176649501223339,
         width_exp=-6.0)
@example(source="anticompensated", kind="far", center_share=0.892578125,
         width_exp=-1.0)
@example(source="anticompensated", kind="far", center_share=0.828125,
         width_exp=-1.0)
@example(source="anticompensated", kind="far", center_share=-0.734375,
         width_exp=-2.5)
@example(source="anticompensated", kind="far", center_share=-0.8984375,
         width_exp=-2.5)
def test_window_observables_match_mpmath(source, kind, center_share,
                                         width_exp, bare_config,
                                         compensated_config,
                                         anticompensated_config, oracle):
    config = {"bare": bare_config, "compensated": compensated_config,
              "anticompensated": anticompensated_config}[source]
    if kind == "fig2c":  # the fig2c window, 6.75 +- 0.57 mrad internal
        center, halfwidth = 6.75e-3, 0.57e-3
    elif kind == "narrow":  # pinholes down to 1e-9 rad near the axis
        center, halfwidth = 5e-3 * center_share, 10.0 ** (width_exp - 2.0)
    elif kind == "wide":  # many sinc lobes and phase periods
        center = 0.02 * center_share
        halfwidth = 0.079 * 10.0 ** (width_exp / 6.0)
    else:  # far off axis, up to the 0.1 rad edge of the domain
        center = math.copysign(0.05 + 0.045 * abs(center_share),
                               center_share)
        halfwidth = min(10.0 ** width_exp, 0.0999 - abs(center))
    window = sp.AngularWindow(center, halfwidth)
    got = (sp.window_coincidences(sp.PolarizerSettings(P45, P45), window,
                                  config),
           sp.window_coincidences(sp.PolarizerSettings(P45, -P45), window,
                                  config),
           sp.visibility(window, config),
           sp.concurrence(sp.aperture_density_matrix(window, config)))
    # the sweep's columns, concurrence in its closed form |M1| / M0
    got += tuple(float(column[0]) for column in measurement._sweep_columns(
        center, np.array([halfwidth]), config.envelope_slope,
        config.phase_slope))
    # the reference is bench/oracle.py's mpmath moments M0 and M1 of the
    # window, on the config's float slopes and edges, at 30 digits
    mpf = oracle.mp.mpf
    m0, m1 = oracle.moments(mpf(config.envelope_slope),
                            mpf(config.phase_slope), mpf(center - halfwidth),
                            mpf(center + halfwidth))
    want = (float((m0 + m1.real) / 2), float((m0 - m1.real) / 2),
            float(abs(m1.real) / m0), float(abs(m1) / m0)) * 2
    for index, (value, ref) in enumerate(zip(got, want)):
        size = abs(ref) if index % 4 < 2 else max(abs(ref), _UNIT_FLOOR)
        assert abs(value - ref) <= 1e-12 * size, (index, value, ref)


def test_window_kernel_reports_unmet_tolerance(anticompensated_config,
                                               monkeypatch):
    window = sp.AngularWindow(0.05, 0.04)
    with monkeypatch.context() as patch, \
            pytest.raises(sp.QuadratureError) as info:
        patch.setattr(measurement, "QUAD_TOL", 1e-30)
        sp.window_coincidences(sp.PolarizerSettings(P45, P45), window,
                               anticompensated_config)
    assert info.value.requested == 1e-30
    # the estimate is relative to M0 and sits near rounding level
    assert 1e-30 < info.value.achieved < 1e-12
    # edges that coincide in floating point leave no window to integrate
    with pytest.raises(sp.QuadratureError) as info:
        sp.visibility(sp.AngularWindow(1e-3, 1e-20), anticompensated_config)
    assert info.value.achieved == math.inf
    assert info.value.requested == measurement.QUAD_TOL
    # a bare 26 cm crystal over the whole domain needs more panels than a
    # pass holds; the kernel names the count and refuses before allocating
    bbo = sp.get_material("bbo")
    cut = anticompensated_config.production.cut_angle
    long_source = sp.SourceConfig(
        production=bbo.crystal(cut_angle=cut, length=0.26),
        pump_wavelength=351e-9)
    step = math.pi / long_source.envelope_slope
    count = math.ceil(0.1 / step) - math.floor(-0.1 / step)
    assert count > measurement._MAX_PANELS
    with pytest.raises(sp.QuadratureError, match=f"needs {count} panels"):
        sp.visibility(sp.AngularWindow(0.0, 0.1), long_source)


@pytest.fixture
def passes(monkeypatch):
    """The slices of every _integrands call, one entry per kernel pass."""
    slices = []
    integrands = measurement._integrands

    def spy(lefts, *args):
        slices.append(len(lefts))
        return integrands(lefts, *args)
    monkeypatch.setattr(measurement, "_integrands", spy)
    return slices


def _si_m0(envelope_slope, halfwidth):
    # M0 depends on the envelope slope a alone: int_{-H}^{H} sinc^2(a theta)
    # = (2 / a) (Si(2 a H) - sin^2(a H) / (a H)), at 30 digits
    with mpmath.workdps(30):
        a, edge = mpmath.mpf(envelope_slope), mpmath.mpf(halfwidth)
        return float(2 / a * (mpmath.si(2 * a * edge)
                              - mpmath.sin(a * edge) ** 2 / (a * edge)))


def test_whole_domain_windows_of_long_sources_fit_one_pass(production,
                                                           passes):
    # The kernel refuses a window only when its own panel count exceeds
    # _MAX_PANELS: the whole domain of a bare 20 cm source and of a 10 cm
    # source anticompensated by 5 cm takes 6452 panels each, one pass.
    bbo = sp.get_material("bbo")

    def crystal(length):
        return bbo.crystal(cut_angle=production.cut_angle, length=length)
    anticompensator = sp.CompensatorPlacement(
        crystal(0.05), sp.Orientation.ANTICOMPENSATING)
    for source in (sp.SourceConfig(production=crystal(0.2),
                                   pump_wavelength=351e-9),
                   sp.SourceConfig(production=crystal(0.1),
                                   pump_wavelength=351e-9,
                                   compensators=(anticompensator,))):
        passes.clear()
        moments = measurement._window_moments(
            0.0, np.array([0.1]), source.envelope_slope, source.phase_slope)
        assert len(passes) == 1
        assert 6000 < passes[0] <= measurement._MAX_PANELS
        want = _si_m0(source.envelope_slope, 0.1)
        assert abs(moments.m0[0] - want) <= 1e-12 * want


def _bare_250mm_sweep(tmp_path, points):
    # a bare 250 mm source at 351.1 nm behind a 500 mm lens, sweeping
    # nested windows on axis out to 160 mrad external
    path = tmp_path / "long.cfg"
    path.write_text(
        "[scenario]\nname = long\n\n[source]\nmaterial = bbo\n"
        "pump_wavelength_nm = 351.1\nlength_mm = 250\n\n[geometry]\n"
        "lens_focal_length_mm = 500\n\n[visibility]\n"
        f"points = {points}\nmax_halfwidth_mrad = 160\n")
    return sp.load_scenario(path)


def test_a_long_sweep_matches_mpmath_slicing_the_axis_once(tmp_path, passes,
                                                           oracle):
    # 200 nested windows of a 250 mm crystal: the widest alone holds about
    # 7750 panels, so window by window the sweep would integrate about
    # 775 000. Slices: the widest window's panels plus two per window, plus
    # the center.
    spec = _bare_250mm_sweep(tmp_path, 200)
    center, widest, slopes = scenario._sweep(spec)
    halfwidths = widest * np.arange(1, 201) / 200
    a = spec.source.envelope_slope
    [table] = sp.run_scenario(spec)
    widest = measurement._panel_count(
        center, halfwidths[-1], measurement._panel_step(a, slopes))
    assert widest > 7000
    assert widest <= sum(passes) <= widest + 2 * halfwidths.size + 2
    columns = np.array(table.rows)[:, 1:].T
    # M0 of every window against its closed form, a bare crystal's k = 2a
    for c_pp, c_pm, halfwidth in zip(*columns[:2], halfwidths):
        want = _si_m0(a, halfwidth)
        assert abs(c_pp + c_pm - want) <= 1e-12 * want
    # every column of a spread of windows against the mpmath moments, as
    # in test_window_observables_match_mpmath
    mpf = oracle.mp.mpf
    for index in (0, 9, 24):
        halfwidth = halfwidths[index]
        m0, m1 = oracle.moments(mpf(a), mpf(slopes[0]),
                                mpf(center - halfwidth),
                                mpf(center + halfwidth))
        want = (float((m0 + m1.real) / 2), float((m0 - m1.real) / 2),
                float(abs(m1.real) / m0), float(abs(m1) / m0))
        for column, (value, ref) in enumerate(zip(columns[:, index], want)):
            size = abs(ref) if column < 2 else max(abs(ref), _UNIT_FLOOR)
            assert abs(value - ref) <= 1e-12 * size, (index, column)


# --------------------------------------------------- batched window kernel

# (center, widest halfwidth) internal: a sweep straddling theta = 0, one
# far off axis, a wide one and one out to fig2c's 6.75 +- 0.57 mrad; each
# sweeps four nested windows out to its widest.
_MIXED_SWEEPS = ((1e-3, 3e-3), (0.09, 0.005), (0.02, 0.079),
                 (6.75e-3, 0.57e-3))


def _nested(widest, points=4):
    return widest * np.arange(1, points + 1) / points


def _one_by_one(center, halfwidths, envelope_slope, phase_slope):
    """The sweep columns from one kernel call per window."""
    rows = [[float(column[0]) for column in measurement._sweep_columns(
        center, np.array([halfwidth]), envelope_slope, phase_slope)]
        for halfwidth in halfwidths]
    return np.array(rows).T


def _assert_same_columns(batch, alone):
    # a sweep's windows share their inner slices and sum them outward, one
    # window alone sums only its own
    m0 = alone[0] + alone[1]
    for index, (got, want) in enumerate(zip(batch, alone)):
        size = m0 if index < 2 else 1.0
        assert np.all(np.abs(got - want) <= 2e-15 * size), index


def test_one_kernel_call_matches_one_window_calls(bare_config,
                                                  compensated_config,
                                                  anticompensated_config):
    for config in (bare_config, compensated_config, anticompensated_config):
        slopes = (config.envelope_slope, config.phase_slope)
        for center, widest in _MIXED_SWEEPS:
            halfwidths = _nested(widest)
            _assert_same_columns(
                measurement._sweep_columns(center, halfwidths, *slopes),
                _one_by_one(center, halfwidths, *slopes))


def test_batch_beyond_the_panel_limit_runs_in_passes(anticompensated_config,
                                                     passes):
    # a 20 cm crystal: the widest window, 0.01 +- 0.09 rad, takes about
    # 5800 panels, and 1500 windows add 3000 edges, so the slices fill more
    # than one pass
    bbo = sp.get_material("bbo")
    long_source = sp.SourceConfig(
        production=bbo.crystal(
            cut_angle=anticompensated_config.production.cut_angle,
            length=0.2),
        pump_wavelength=351e-9)
    center, halfwidths = 0.01, _nested(0.09, 1500)
    slopes = (long_source.envelope_slope, long_source.phase_slope)
    batch = measurement._sweep_columns(center, halfwidths, *slopes)
    assert len(passes) > 1
    assert sum(passes) > measurement._MAX_PANELS
    assert max(passes) <= measurement._MAX_PANELS
    spread = [0, 1, 700, 1498, 1499]
    _assert_same_columns([column[spread] for column in batch],
                         _one_by_one(center, halfwidths[spread], *slopes))


def test_kernel_rule_is_one_signed_vector_of_16_and_12_nodes():
    # The 16 weights, then the 12 check weights negated. On [0, 2] the
    # 16-point rule integrates t^31 exactly and the 12-point rule t^23, so
    # the estimate, the sum of the two segments, vanishes on t^23 only.
    nodes, weights = measurement._kernel_rule()
    assert nodes.shape == weights.shape == (28,)
    for degree, held in ((23, True), (31, False)):
        value, minus_check = np.add.reduceat(weights * nodes ** degree,
                                             (0, 16))
        exact = 2.0 ** (degree + 1) / (degree + 1)
        assert abs(value - exact) <= 1e-13 * exact
        assert (abs(value + minus_check) <= 1e-13 * exact) == held


_FIG3_CSV = ("import sys\n"
             "from spdcpol import output, scenario\n"
             "tables = scenario.run_scenario(scenario.load_scenario('fig3'))\n"
             "text = ''.join(output.to_csv(table) for table in tables)\n"
             "sys.stdout.buffer.write(text.encode('utf-8'))\n")


def _fig3_csv_under(coretype):
    """fig3's CSV bytes from a child process whose OpenBLAS runs the
    ``coretype`` kernels (auto-detected for None)."""
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    package_root = Path(sp.__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _FIG3_CSV], env=env,
                         capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode(errors="replace")
    return run.stdout


def test_sweep_bits_depend_on_neither_the_cpu_kernel_nor_the_pass_size(
        monkeypatch, passes):
    # The kernel sums each slice's nodes by numpy's own reduction, not by a
    # BLAS product whose kernel OpenBLAS picks by CPU, so fig3's tables are
    # the same bytes under every kernel this CPU can run.
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OPENBLAS_CORETYPE names x86-64 kernels")
    try:
        flags = set(Path("/proc/cpuinfo").read_text().split())
    except OSError:
        flags = set()
    coretypes = [None, "Prescott"]
    coretypes += ["SandyBridge"] * ("avx" in flags)
    coretypes += ["Haswell"] * ("avx2" in flags)
    texts = {_fig3_csv_under(coretype) for coretype in coretypes}
    assert len(texts) == 1
    assert texts.pop().startswith(b"halfwidth")
    # Nor do a sweep's bits depend on how its slices are cut into passes:
    # 2000 windows of fig3's source ten times as long take about 4300
    # slices, one pass at the default limit and two to four at these.
    spec = scenario.load_scenario("fig3")
    center, _, slopes = scenario._sweep(spec)
    a, laws = 10.0 * spec.source.envelope_slope, [10.0 * k for k in slopes]
    halfwidths = _nested(0.09, 2000)
    whole = measurement._sweep_columns(center, halfwidths, a, laws)
    assert len(passes) == 1
    for limit in (1400, 2048, 4096):
        passes.clear()
        monkeypatch.setattr(measurement, "_MAX_PANELS", limit)
        cut = measurement._sweep_columns(center, halfwidths, a, laws)
        assert len(passes) > 1 and max(passes) <= limit
        for got, want in zip(cut, whole):
            assert got.tobytes() == want.tobytes()


def test_panels_follow_one_grid_of_sinc_zeros_and_phase_periods(
        bare_config, compensated_config, anticompensated_config, passes):
    # The grid step is pi / (a m), m = max(1, ceil(|k| / 2a)), so a window
    # of +-5 sinc lobes about a grid point takes 10 m panels: m = 1 for the
    # bare source (k = 2a) and the compensated one (k = 0), m = 2 for the
    # anticompensated one (k = 4a). A center off the grid is one cut more.
    for config, m in ((bare_config, 1), (compensated_config, 1),
                      (anticompensated_config, 2)):
        a, k = config.envelope_slope, config.phase_slope
        lobe = math.pi / a
        for center, slices in ((0.0, 10 * m), (lobe / 3.0, 10 * m + 2)):
            passes.clear()
            measurement._window_moments(center, np.array([5.0 * lobe]), a, k)
            assert passes == [slices]


def test_phase_laws_share_the_grid_of_the_steepest(bare_config, passes):
    # Laws passed together share one grid, m = ceil(K / 2a) for the
    # largest |k| = K: a +-5-lobe window takes 20 panels under (2a, 4a)
    # and 10 under (0, 2a), each law on every panel.
    a = bare_config.envelope_slope
    lobe = math.pi / a
    for slopes, panels in (((2.0 * a, 4.0 * a), 20), ((0.0, 2.0 * a), 10)):
        passes.clear()
        moments = measurement._window_moments(
            0.0, np.array([5.0 * lobe]), a, slopes)
        assert passes == [panels]
        assert moments.even.shape == moments.error.shape == (2, 1)


def test_one_call_for_every_law_matches_one_law_calls(
        bare_config, compensated_config, anticompensated_config):
    # each source with its uncompensated baseline k = 2a; the
    # anticompensated baseline moves from the m = 1 grid to m = 2
    for config in (bare_config, compensated_config, anticompensated_config):
        a = config.envelope_slope
        slopes = (config.phase_slope, 2.0 * a)
        for center, widest in _MIXED_SWEEPS:
            halfwidths = _nested(widest)
            together = measurement._sweep_columns(center, halfwidths, a,
                                                  slopes)
            for law, slope in enumerate(slopes):
                _assert_same_columns(
                    [column[law] for column in together],
                    measurement._sweep_columns(center, halfwidths, a, slope))


@pytest.mark.parametrize("phase_slope", [0.0, 2026.9])
def test_windows_without_envelope_match_the_closed_forms(phase_slope):
    # w = 1: even, odd = h +- (sin k hi - sin k lo) / 2k and
    # imag = (cos k lo - cos k hi) / k, with h = (hi - lo) / 2
    k = phase_slope
    for center, widest in ((0.0, 0.1), (0.03, 0.02), (-0.05, 0.05),
                           (6.75e-3, 0.57e-3)):
        halfwidths = _nested(widest)
        lo, hi = center - halfwidths, center + halfwidths
        h = 0.5 * (hi - lo)
        if k:
            swing = (np.sin(k * hi) - np.sin(k * lo)) / (2.0 * k)
            imag = (np.cos(k * lo) - np.cos(k * hi)) / k
        else:
            swing, imag = h, np.zeros_like(h)
        moments = measurement._window_moments(center, halfwidths, 0.0, k)
        for got, want in zip(moments, (h + swing, h - swing, imag)):
            assert np.all(np.abs(got - want) <= 1e-12 * 2.0 * h)


def _bare_300mm_window():
    # the CI's hostile sweep: a bare 300 mm source at 351.1 nm behind a
    # 500 mm lens, one window of 166 mrad external halfwidth on axis
    bbo = sp.get_material("bbo")
    cut = sp.phase_matching_cut_angle(bbo, 351.1e-9)
    source = sp.SourceConfig(bbo.crystal(cut, 0.3), 351.1e-9)
    return (source.envelope_slope, [source.phase_slope], 0.0,
            sp.external_to_internal_angle(
                0.166, sp.GeometryConfig(lens_focal_length=0.5), source))


def _count_or_refusal(count):
    try:
        return count()
    except sp.QuadratureError as exc:
        return str(exc)


def _fence_count(envelope_slope, laws, center, halfwidth):
    # the fence's count of a sweep's widest window, as ScenarioSpec asks it
    return measurement._panel_count(
        center, halfwidth, measurement._panel_step(envelope_slope, laws))


# a step of 2**-17 rad: [0, 2**-4] is 8192 panels, the limit
_AT_LIMIT = (math.pi * 2.0 ** 17, [0.0], 2.0 ** -5)


@settings(max_examples=300, deadline=None)
@given(envelope_slope=st.floats(0.0, 1e6),
       laws=st.lists(st.floats(-4e6, 4e6), min_size=1, max_size=3),
       center=st.floats(-0.1, 0.1), halfwidth=st.floats(0.0, 0.1))
@example(*_bare_300mm_window())
@example(*_AT_LIMIT[:2], _AT_LIMIT[2], _AT_LIMIT[2])
@example(*_AT_LIMIT[:2], _AT_LIMIT[2], _AT_LIMIT[2] + 2.0 ** -17)
def test_the_fence_counts_the_panels_of_the_kernel_grid(
        envelope_slope, laws, center, halfwidth):
    # The kernel refuses a sweep exactly when the fence refuses its widest
    # window, message and all, before it integrates a slice; a sweep it
    # takes has at most the widest window's panels plus two slices per
    # window. The integrands are stubbed to ones: only the cuts count here.
    fence = _count_or_refusal(lambda: _fence_count(envelope_slope, laws,
                                                   center, halfwidth))
    slices = []

    def ones(lefts, offsets, rates):
        slices.append(len(lefts))
        return np.ones((3, len(rates) - 1, *offsets.shape))
    halfwidths = _nested(halfwidth, 2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measurement, "_integrands", ones)
        kernel = _count_or_refusal(lambda: measurement._window_moments(
            center, halfwidths, envelope_slope, laws))
    if isinstance(fence, str):
        assert (kernel, slices) == (fence, [])
    else:
        assert not isinstance(kernel, str) or "panels" not in kernel
        assert sum(slices) <= fence + 2 * halfwidths.size


def test_the_fence_count_examples_reach_the_panel_limit():
    # 8192 panels pass and 8194 do not, nor do the CI sweep's 9650
    a, laws, half = _AT_LIMIT
    assert _fence_count(a, laws, half, half) == 8192
    with pytest.raises(sp.QuadratureError, match="needs 8194 panels"):
        _fence_count(a, laws, half, half + 2.0 ** -17)
    with pytest.raises(sp.QuadratureError, match="needs 9650 panels"):
        _fence_count(*_bare_300mm_window())


def test_batch_names_the_window_that_fails(anticompensated_config,
                                           monkeypatch):
    slopes = (anticompensated_config.envelope_slope,
              anticompensated_config.phase_slope)
    center, halfwidths = 0.02, _nested(0.079)
    lo, hi = center - halfwidths, center + halfwidths
    # The estimates sit near rounding level, and the kernel repeats them bit
    # for bit, so a tolerance just below the largest fails that window alone.
    relative = measurement._window_moments(center, halfwidths, *slopes).error
    worst = int(np.argmax(relative))
    runner_up = np.delete(relative, worst).max()
    assert relative[worst] > runner_up
    tolerance = math.sqrt(relative[worst] * runner_up)
    with monkeypatch.context() as patch, \
            pytest.raises(sp.QuadratureError) as info:
        patch.setattr(measurement, "QUAD_TOL", tolerance)
        measurement._window_moments(center, halfwidths, *slopes)
    assert f"[{lo[worst]}, {hi[worst]}]" in str(info.value)
    assert info.value.achieved == relative[worst]
    assert info.value.requested == tolerance
    # a window narrower than float resolution inside good ones
    with pytest.raises(sp.QuadratureError) as info:
        measurement._window_moments(1e-3, np.array([1e-20, 1e-3, 2e-3]),
                                    *slopes)
    assert "[0.001, 0.001]" in str(info.value)
    assert info.value.achieved == math.inf
    # the kernel integrates windows only: halfwidth 0 has no weight
    with pytest.raises(sp.QuadratureError) as info:
        measurement._window_moments(2e-3, np.array([0.0, 1e-3, 2e-3]),
                                    *slopes)
    assert "[0.002, 0.002]" in str(info.value)
    assert info.value.achieved == math.inf


# ------------------------------------------------------------ concurrence

def test_concurrence_bell_state():
    rho = sp.DensityMatrix4(PSI_PLUS)
    assert sp.concurrence(rho) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_separable_mixture():
    mat = np.zeros((4, 4), dtype=complex)
    mat[1, 1] = 0.5
    mat[2, 2] = 0.5
    assert sp.concurrence(sp.DensityMatrix4(mat)) == pytest.approx(0.0,
                                                                   abs=1e-12)


def test_concurrence_pure_slice_is_one_for_any_phase(bare_config):
    rng = np.random.default_rng(99)
    for theta in rng.uniform(-8e-3, 8e-3, 50):
        rho = sp.DensityMatrix4(
            sp.state_at_angle(float(theta), bare_config).projector())
        assert sp.concurrence(rho) == pytest.approx(1.0, abs=1e-10)


def test_concurrence_of_main_lobe_window(bare_config):
    halfwidth = math.pi / bare_config.phase_slope
    rho = sp.aperture_density_matrix(sp.AngularWindow(0.0, halfwidth),
                                     bare_config)
    thetas = np.linspace(-halfwidth, halfwidth, 1_000_001)
    weights = np.sinc(bare_config.envelope_slope * thetas / math.pi) ** 2
    mean_phase = (np.trapezoid(
        weights * np.exp(1j * bare_config.phase_slope * thetas), thetas)
        / np.trapezoid(weights, thetas))
    assert sp.concurrence(rho) == pytest.approx(abs(mean_phase), abs=1e-8)


def test_concurrence_rejects_invalid_matrix():
    bad = np.eye(4, dtype=complex)  # trace 4
    with pytest.raises(sp.StateInvariantError):
        sp.concurrence(sp.DensityMatrix4(bad))
    skew = np.zeros((4, 4), dtype=complex)
    skew[1, 2] = 1.0  # not Hermitian
    with pytest.raises(sp.StateInvariantError):
        sp.concurrence(sp.DensityMatrix4(skew))



def test_density_matrix_refuses_an_invalid_matrix_when_built():
    skew = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
    skew[1, 2] = 0.25  # its mirror entry stays 0: not Hermitian
    negative = np.diag([1.5, -0.5, 0.0, 0.0])  # trace 1, eigenvalue -0.5
    for bad, message in ((skew, "not Hermitian"),
                         (np.eye(4) / 2.0, "trace"),
                         (negative, "not positive"),
                         (np.full((4, 4), math.nan), "not Hermitian"),
                         (np.eye(3) / 3.0, "4x4")):
        with pytest.raises(sp.StateInvariantError, match=message):
            sp.DensityMatrix4(bad)


def test_density_matrix_holds_a_read_only_copy():
    mat = np.array(PSI_PLUS)
    rho = sp.DensityMatrix4(mat)
    mat[1, 1] = 7.0  # the caller's array is not the state's
    assert np.array_equal(rho.matrix, PSI_PLUS)
    with pytest.raises(ValueError):
        rho.matrix[1, 1] = 7.0
    assert np.array_equal(rho.matrix, PSI_PLUS)
    assert sp.concurrence(rho) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------ counts

def test_counts_zero_duration():
    assert sp.simulate_counts(100.0, 5.0, 0.0, seed=1) == 0


def test_counts_deterministic_per_seed():
    a = sp.simulate_counts(100.0, 5.0, 2.0, seed=123)
    b = sp.simulate_counts(100.0, 5.0, 2.0, seed=123)
    assert a == b
    spread = {sp.simulate_counts(100.0, 5.0, 2.0, seed=s) for s in range(30)}
    assert len(spread) > 1


def test_counts_mean_matches_poisson_law():
    samples = [sp.simulate_counts(100.0, 0.0, 1.0, seed=s)
               for s in range(100_000)]
    mean = float(np.mean(samples))
    sem = math.sqrt(100.0 / len(samples))
    assert abs(mean - 100.0) < 3.0 * sem


def test_accidentals_scale_with_coincidence_window():
    # accidental rate R1 R2 tau: doubling tau doubles its mean contribution
    r1, r2 = 5_000.0, 4_000.0
    tau = 2e-6
    duration = 1.0
    n = 40_000
    mean_tau = np.mean([sp.simulate_counts(0.0, r1 * r2 * tau, duration,
                                           seed=s) for s in range(n)])
    mean_2tau = np.mean([sp.simulate_counts(0.0, r1 * r2 * 2 * tau, duration,
                                            seed=10_000_000 + s)
                         for s in range(n)])
    expected = r1 * r2 * tau * duration
    sem = math.sqrt(2.0 * expected / n) * 4.0
    assert abs((mean_2tau - mean_tau) - expected) < sem


def test_counts_validation():
    with pytest.raises(ValueError):
        sp.simulate_counts(-1.0, 0.0, 1.0, seed=0)
    with pytest.raises(ValueError):
        sp.simulate_counts(1.0, 0.0, -1.0, seed=0)
    with pytest.raises(ValueError):
        sp.simulate_counts(np.array([1.0, -1.0]), 0.0, 1.0, seed=0)


def test_counts_refuse_nan_rates_and_durations():
    # NaN is not >= 0: each input is refused with the function's message,
    # not numpy's "lam < 0 or lam is NaN"
    for args, message in [((math.nan, 0.0, 1.0), "rates must be >= 0"),
                          ((np.array([1.0, math.nan]), 0.0, 1.0),
                           "rates must be >= 0"),
                          ((1.0, math.nan, 1.0), "rates must be >= 0"),
                          ((1.0, 0.0, math.nan), "duration must be >= 0")]:
        with pytest.raises(ValueError) as info:
            sp.simulate_counts(*args, seed=0)
        assert str(info.value) == message


def test_counts_for_an_array_of_rates():
    rates = np.array([0.0, 10.0, 1000.0, 5.0])
    counts = sp.simulate_counts(rates, 2.0, 3.0, seed=np.random.SeedSequence(9))
    again = sp.simulate_counts(rates, 2.0, 3.0, seed=np.random.SeedSequence(9))
    assert counts.shape == rates.shape
    assert np.issubdtype(counts.dtype, np.integer)
    assert np.array_equal(counts, again)
    # one generator per call: the draws follow that generator's stream
    expected = np.random.default_rng(np.random.SeedSequence(9)).poisson(
        (rates + 2.0) * 3.0)
    assert np.array_equal(counts, expected)
    assert type(sp.simulate_counts(10.0, 2.0, 3.0, seed=9)) is int

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import spdcpol as sp

PUMP = 351e-9


def test_relative_phase_is_linear_and_zero_on_axis(bare_config):
    assert sp.relative_phase(0.0, bare_config) == 0.0
    theta = 1.3e-3
    assert sp.relative_phase(theta, bare_config) == pytest.approx(
        bare_config.phase_slope * theta, rel=1e-15)


def test_compensated_phase_vanishes_everywhere(compensated_config):
    # half-length, 180-degree-rotated crystal: phi identically zero
    lobe = 2.0 * math.pi / (2.0 * compensated_config.envelope_slope)
    rng = np.random.default_rng(42)
    thetas = rng.uniform(-lobe, lobe, 10_000)
    assert max(abs(sp.relative_phase(float(t), compensated_config))
               for t in thetas) < 1e-12


def test_anticompensated_phase_doubles_exactly(bare_config,
                                               anticompensated_config):
    rng = np.random.default_rng(43)
    for theta in rng.uniform(-5e-3, 5e-3, 200):
        if theta == 0.0:
            continue
        ratio = (sp.relative_phase(float(theta), anticompensated_config)
                 / sp.relative_phase(float(theta), bare_config))
        assert ratio == 2.0


@given(st.floats(-0.05, 0.05, allow_nan=False))
def test_phase_is_odd(theta):
    config = _module_config()
    assert sp.relative_phase(-theta, config) == -sp.relative_phase(theta,
                                                                   config)


_CONFIG_CACHE = {}


def _module_config():
    # hypothesis cannot take fixtures; build the bare config once
    if "bare" not in _CONFIG_CACHE:
        material = sp.get_material("bbo")
        cut = sp.phase_matching_cut_angle(material, PUMP)
        _CONFIG_CACHE["bare"] = sp.SourceConfig(
            production=material.crystal(cut_angle=cut, length=1e-3),
            pump_wavelength=PUMP)
    return _CONFIG_CACHE["bare"]


# ----------------------------------------------------------------- envelope

def test_envelope_on_axis(bare_config):
    assert sp.angular_envelope(0.0, bare_config) == 1.0


def test_envelope_paper_anchors(bare_config):
    slope = bare_config.envelope_slope
    assert sp.angular_envelope((math.pi / 4.0) / slope, bare_config) == \
        pytest.approx(0.9003, abs=1e-3)
    assert sp.angular_envelope((3.0 * math.pi / 4.0) / slope, bare_config) == \
        pytest.approx(0.3001, abs=1e-3)


def test_envelope_unchanged_by_compensators(bare_config, compensated_config,
                                            anticompensated_config):
    for theta in (0.0, 1e-3, 3e-3, -2e-3):
        reference = sp.angular_envelope(theta, bare_config)
        assert sp.angular_envelope(theta, compensated_config) == reference
        assert sp.angular_envelope(theta, anticompensated_config) == reference


def test_sinc_definition():
    assert sp.sinc(0.0) == 1.0
    assert sp.sinc(math.pi) == pytest.approx(0.0, abs=1e-15)
    assert sp.sinc(1.0) == pytest.approx(math.sin(1.0), rel=1e-15)


def test_sinc_is_elementwise_on_an_array():
    x = np.array([0.0, 1.0, -2.5, math.pi, 1e-300, -40.0])
    values = sp.sinc(x)
    assert isinstance(values, np.ndarray) and values.shape == x.shape
    assert values[0] == 1.0
    np.testing.assert_allclose(values, [sp.sinc(float(v)) for v in x],
                               rtol=1e-15, atol=1e-16)
    assert type(sp.sinc(1.0)) is float


# -------------------------------------------------------------------- state

def test_state_on_axis_is_psi_plus(bare_config):
    state = sp.state_at_angle(0.0, bare_config)
    overlap = abs(state.overlap(sp.bell_state(sp.BellState.PSI_PLUS))) ** 2
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_state_at_pi_over_bl_is_psi_minus(bare_config):
    theta = math.pi / bare_config.phase_slope
    state = sp.state_at_angle(theta, bare_config)
    overlap = abs(state.overlap(sp.bell_state(sp.BellState.PSI_MINUS))) ** 2
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_state_support_and_normalization(bare_config):
    rng = np.random.default_rng(44)
    for theta in rng.uniform(-6e-3, 6e-3, 300):
        amps = sp.state_at_angle(float(theta), bare_config).amplitudes
        assert amps[0] == 0.0 and amps[3] == 0.0  # no HH / VV component
        assert abs(np.vdot(amps, amps).real - 1.0) < 1e-12
        assert amps[1].imag == 0.0 and amps[1].real > 0.0  # fixed global phase


def test_bell_overlap_partition(bare_config):
    # |<Psi+|psi>|^2 = cos^2(phi/2), |<Psi-|psi>|^2 = sin^2(phi/2), sum 1
    rng = np.random.default_rng(45)
    plus = sp.bell_state(sp.BellState.PSI_PLUS)
    minus = sp.bell_state(sp.BellState.PSI_MINUS)
    for theta in rng.uniform(-8e-3, 8e-3, 500):
        state = sp.state_at_angle(float(theta), bare_config)
        phi = sp.relative_phase(float(theta), bare_config)
        p_plus = abs(plus.overlap(state)) ** 2
        p_minus = abs(minus.overlap(state)) ** 2
        assert p_plus == pytest.approx(math.cos(phi / 2.0) ** 2, abs=1e-12)
        assert p_minus == pytest.approx(math.sin(phi / 2.0) ** 2, abs=1e-12)
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)


def test_state_invariant_errors():
    with pytest.raises(sp.StateInvariantError):
        sp.TwoPhotonState(np.array([1.0, 1.0, 0.0, 0.0]))  # not normalized
    with pytest.raises(sp.StateInvariantError):
        sp.TwoPhotonState(np.array([1.0, 0.0, 0.0]))  # wrong shape


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 0.0)])
def test_state_refuses_non_finite_amplitudes(bad):
    # a NaN norm compares False both ways, so the test must be "not <= tol"
    with pytest.raises(sp.StateInvariantError, match="not normalized"):
        sp.TwoPhotonState(np.array([bad, 0.0, 0.0, 0.0]))
    with pytest.raises(sp.StateInvariantError, match="not normalized"):
        sp.TwoPhotonState(np.array([0.0, math.sqrt(0.5), bad, 0.0]))


# -------------------------------------------------------------- bell angles

def test_bell_angles_anticompensated_singlets(anticompensated_config):
    result = sp.bell_angles(anticompensated_config, sp.BellState.PSI_MINUS,
                            max_order=2)
    assert not result.uniform
    slope = anticompensated_config.phase_slope
    assert result.angles[0].theta == pytest.approx(math.pi / slope, rel=1e-15)
    assert result.angles[1].theta == pytest.approx(3.0 * math.pi / slope,
                                                   rel=1e-15)
    assert result.angles[0].envelope == pytest.approx(0.9003, abs=1e-3)
    assert result.angles[1].envelope == pytest.approx(0.3001, abs=1e-3)


def test_bell_angles_bare_crystal(bare_config):
    minus = sp.bell_angles(bare_config, sp.BellState.PSI_MINUS, max_order=1)
    assert minus.angles[0].theta == pytest.approx(
        math.pi / bare_config.phase_slope, rel=1e-15)
    plus = sp.bell_angles(bare_config, sp.BellState.PSI_PLUS, max_order=2)
    assert plus.angles[0].theta == 0.0
    assert plus.angles[0].envelope == 1.0
    assert plus.angles[1].theta == pytest.approx(
        2.0 * math.pi / bare_config.phase_slope, rel=1e-15)



@pytest.mark.parametrize("source", ["bare_config", "anticompensated_config"])
def test_bell_angles_are_the_targets_over_the_slope_exactly(request, source):
    config = request.getfixturevalue(source)
    slope = abs(config.phase_slope)
    plus = sp.bell_angles(config, sp.BellState.PSI_PLUS, max_order=8)
    minus = sp.bell_angles(config, sp.BellState.PSI_MINUS, max_order=8)
    assert [a.theta for a in plus.angles] == [2.0 * math.pi * n / slope
                                              for n in range(8)]
    assert [a.theta for a in minus.angles] == [(2 * n + 1) * math.pi / slope
                                               for n in range(8)]


def test_bell_angles_stop_before_float_overflow(production):
    # |B| L ~ 1e-307: the first Psi- angle pi / slope is near 3e307 rad
    thin = dataclasses.replace(production, length=1e-313)
    config = sp.SourceConfig(production=thin, pump_wavelength=PUMP)
    slope = config.phase_slope
    for which, delta in ((sp.BellState.PSI_PLUS, 0),
                         (sp.BellState.PSI_MINUS, 1)):
        angles = sp.bell_angles(config, which, max_order=8).angles
        assert 1 <= len(angles) < 8
        assert [a.theta for a in angles] == [(2 * n + delta) * math.pi / slope
                                             for n in range(len(angles))]
        assert all(math.isfinite(a.envelope) for a in angles)
        next_theta = (2 * len(angles) + delta) * math.pi / slope
        assert not math.isfinite(config.envelope_slope * next_theta)


def test_bell_angles_uniform_config(compensated_config):
    # a flat phase law is Psi+ at every angle and Psi- at none: both are
    # the uniform result, Psi- with no angles
    result = sp.bell_angles(compensated_config, sp.BellState.PSI_PLUS)
    assert result == sp.BellAngleSet(
        uniform=True, angles=(sp.BellAngle(theta=0.0, envelope=1.0),))
    assert sp.bell_angles(compensated_config, sp.BellState.PSI_MINUS) == \
        sp.BellAngleSet(uniform=True, angles=())


def test_two_photon_state_holds_a_read_only_copy():
    amplitudes = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    state = sp.TwoPhotonState(amplitudes)
    amplitudes[0] = 5.0
    assert np.vdot(state.amplitudes, state.amplitudes).real == 1.0
    with pytest.raises(ValueError, match="read-only"):
        state.amplitudes[1] = 0.0


def test_bell_angles_max_order_validation(bare_config):
    with pytest.raises(ValueError):
        sp.bell_angles(bare_config, sp.BellState.PSI_PLUS, max_order=0)


# ------------------------------------------------------------ source config

def test_source_config_rejects_unmatched_cut(bbo):
    bad = bbo.crystal(cut_angle=0.3, length=1e-3)
    with pytest.raises(sp.PhaseMatchingError):
        sp.SourceConfig(production=bad, pump_wavelength=PUMP)


def test_source_config_derived_quantities(bare_config, production):
    b = sp.transverse_walkoff_B(production.material, 2.0 * PUMP,
                                production.cut_angle)
    assert bare_config.ordinary_index == sp.index_ordinary(
        production.material, 2.0 * PUMP)
    assert bare_config.phase_slope == abs(b) * production.length
    assert bare_config.envelope_slope == abs(b) * production.length / 2.0
    # the three numbers the physics reads, and no other derived field
    assert [f.name for f in dataclasses.fields(sp.SourceConfig)
            if not f.init] == ["ordinary_index", "envelope_slope",
                               "phase_slope"]

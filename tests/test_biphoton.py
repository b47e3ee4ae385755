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


def test_bell_angles_uniform_config(compensated_config):
    result = sp.bell_angles(compensated_config, sp.BellState.PSI_PLUS)
    assert result.uniform
    assert result.angles == (sp.BellAngle(theta=0.0, envelope=1.0),)
    with pytest.raises(sp.UniformStateError) as info:
        sp.bell_angles(compensated_config, sp.BellState.PSI_MINUS)
    assert "uniform" in str(info.value)


def test_bell_angles_max_order_validation(bare_config):
    with pytest.raises(ValueError):
        sp.bell_angles(bare_config, sp.BellState.PSI_PLUS, max_order=0)


# ------------------------------------------------------------ source config

def test_source_config_rejects_unmatched_cut(bbo):
    bad = bbo.crystal(cut_angle=0.3, length=1e-3)
    with pytest.raises(sp.PhaseMatchingError):
        sp.SourceConfig(production=bad, pump_wavelength=PUMP)


def test_source_config_derived_quantities(bare_config, production):
    assert bare_config.degenerate_wavelength == 2.0 * PUMP
    b = sp.transverse_walkoff_B(production.material, 2.0 * PUMP,
                                production.cut_angle)
    assert bare_config.walkoff_B == b
    assert bare_config.phase_slope == abs(b) * production.length
    assert bare_config.envelope_slope == abs(b) * production.length / 2.0

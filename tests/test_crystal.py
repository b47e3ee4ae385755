import math

import numpy as np
import pytest

import spdcpol as sp
from spdcpol.crystal import phase_matching_mismatch

# float references from float_oracles; mpmath ones from bench/oracle.py
from float_oracles import independent_ne, independent_no

PUMP = 351e-9
DEGENERATE = 702e-9


# ---------------------------------------------------------------- indices

def test_index_ordinary_extended_precision_oracle(bbo, oracle):
    # n_o at the 702 nm degenerate wavelength of a 351 nm pump, from
    # bench/oracle.py's 30-digit Sellmeier evaluation of the catalogue
    reference = float(oracle.physics({
        "pump_nm": "351", "length_mm": "1", "compensator": None,
        "compensator_length_mm": None})["n_o"])
    value = sp.index_ordinary(bbo, DEGENERATE)
    assert abs(value - reference) / reference < 1e-12
    # frozen reference (extended-precision evaluation at exactly 0.702 um)
    assert value == pytest.approx(1.664814166989071626361, rel=1e-12)


def test_index_ordinary_frozen_values(bbo):
    assert sp.index_ordinary(bbo, PUMP) == pytest.approx(
        1.706847259271630632977, rel=1e-12)
    assert sp.index_extraordinary(bbo, DEGENERATE, math.pi / 2) == \
        pytest.approx(1.548436169985093258999, rel=1e-12)


def test_sellmeier_coefficient_algebraic_inverse(bbo):
    # b = (n^2 - a + d L^2)(L^2 - c) must reproduce the input b.
    coeffs = bbo.ordinary
    lam_um = 0.65
    n = coeffs.index(lam_um)
    b_back = (n ** 2 - coeffs.a + coeffs.d * lam_um ** 2) * (lam_um ** 2 - coeffs.c)
    assert abs(b_back - coeffs.b) / coeffs.b < 1e-12


def test_index_local_monotonic_bracket(bbo):
    # Dense sampling shows dn/dlambda keeps one sign on [600, 800] nm ...
    lams = np.linspace(600e-9, 800e-9, 4001)
    values = independent_no(lams * 1e6)
    assert np.all(np.diff(values) < 0.0)
    # ... so nearby evaluations bracket the midpoint.
    low = sp.index_ordinary(bbo, 710e-9)
    mid = sp.index_ordinary(bbo, 700e-9)
    high = sp.index_ordinary(bbo, 690e-9)
    assert low < mid < high


def test_out_of_band_error_names_band(bbo):
    with pytest.raises(sp.OutOfBandError) as info:
        sp.index_ordinary(bbo, 200e-9)
    message = str(info.value)
    assert "300" in message and "1100" in message
    with pytest.raises(sp.OutOfBandError):
        sp.index_extraordinary(bbo, 1.2e-6, 0.3)


def test_extraordinary_limits(bbo):
    n_o = sp.index_ordinary(bbo, DEGENERATE)
    assert sp.index_extraordinary(bbo, DEGENERATE, 0.0) == pytest.approx(
        n_o, rel=1e-15)
    principal = bbo.extraordinary.index(DEGENERATE * 1e6)
    assert sp.index_extraordinary(bbo, DEGENERATE, math.pi / 2) == \
        pytest.approx(principal, rel=1e-15)


def test_extraordinary_ellipse_symmetry(bbo):
    for theta in (0.2, 0.7, 1.1, 1.5):
        a = sp.index_extraordinary(bbo, DEGENERATE, theta)
        b = sp.index_extraordinary(bbo, DEGENERATE, math.pi - theta)
        assert a == pytest.approx(b, rel=1e-14)


def test_extraordinary_angle_domain(bbo):
    with pytest.raises(ValueError):
        sp.index_extraordinary(bbo, DEGENERATE, -0.1)
    with pytest.raises(ValueError):
        sp.index_extraordinary(bbo, DEGENERATE, math.pi + 0.1)


def test_negative_uniaxial_inequality(bbo):
    # n_e(theta) <= n_o with equality only along the optic axis.
    for lam in np.linspace(*bbo.band, 7):
        n_o = sp.index_ordinary(bbo, float(lam))
        for theta in np.linspace(0.0, math.pi / 2, 19):
            n_e = sp.index_extraordinary(bbo, float(lam), float(theta))
            assert n_e <= n_o + 1e-15
            if theta > 1e-3:
                assert n_e < n_o


# ------------------------------------------------------- phase matching

def test_phase_matching_residual(bbo):
    cut = sp.phase_matching_cut_angle(bbo, PUMP)
    assert abs(phase_matching_mismatch(bbo, PUMP, cut)) < 1e-12


def test_phase_matching_grid_bisection_oracle(bbo):
    # Independent formulas, 1e6-point grid scan, then plain bisection.
    lam_p_um = PUMP * 1e6
    lam_d_um = DEGENERATE * 1e6

    def mismatch(theta):
        return (2.0 * independent_ne(theta, lam_p_um)
                - independent_no(lam_d_um)
                - independent_ne(theta, lam_d_um))

    grid = np.linspace(0.0, math.pi / 2, 1_000_001)
    values = mismatch(grid)
    flips = np.nonzero(np.signbit(values[:-1]) != np.signbit(values[1:]))[0]
    assert len(flips) == 1
    lo, hi = float(grid[flips[0]]), float(grid[flips[0] + 1])
    f_lo = mismatch(lo)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if (mismatch(mid) > 0.0) == (f_lo > 0.0):
            lo = mid
            f_lo = mismatch(lo)
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    cut = sp.phase_matching_cut_angle(bbo, PUMP)
    assert abs(cut - oracle) < 1e-8


def test_phase_matching_shift_direction(bbo):
    # A pump shift moves the root against the mismatch gradient.
    cut = sp.phase_matching_cut_angle(bbo, PUMP)
    d_lam = 1e-9
    df_dlam = (phase_matching_mismatch(bbo, PUMP + d_lam, cut)
               - phase_matching_mismatch(bbo, PUMP - d_lam, cut)) / (2 * d_lam)
    d_theta = 1e-6
    df_dtheta = (phase_matching_mismatch(bbo, PUMP, cut + d_theta)
                 - phase_matching_mismatch(bbo, PUMP, cut - d_theta)) / (2 * d_theta)
    predicted_sign = math.copysign(1.0, -df_dlam / df_dtheta)
    shifted = sp.phase_matching_cut_angle(bbo, PUMP + d_lam)
    assert math.copysign(1.0, shifted - cut) == predicted_sign


def test_cut_solve_reads_each_principal_index_once(bbo, monkeypatch):
    # Two principal indices at lambda_p and two at lambda_d, however many
    # angles the solve tries; the root keeps its bits.
    calls = []
    index = sp.SellmeierCoefficients.index

    def counted(self, wavelength_um):
        calls.append(wavelength_um)
        return index(self, wavelength_um)

    monkeypatch.setattr(sp.SellmeierCoefficients, "index", counted)
    assert sp.phase_matching_cut_angle(bbo, PUMP) == 0.8538525780754935
    assert len(calls) == 4
    calls.clear()
    sp.dne_dtheta(bbo, DEGENERATE, 0.8538525780754935)
    assert len(calls) == 2


def test_mismatch_is_built_from_the_public_indices(bbo, production):
    angles = [0.0, math.pi / 2.0, *np.linspace(0.0, math.pi / 2.0, 37)[1:-1],
              production.cut_angle]
    for theta in angles:
        assert phase_matching_mismatch(bbo, PUMP, theta) == (
            2 * sp.index_extraordinary(bbo, PUMP, theta)
            - sp.index_ordinary(bbo, DEGENERATE)
            - sp.index_extraordinary(bbo, DEGENERATE, theta))


def test_no_phase_matching_for_isotropic_data(bbo):
    iso = sp.MaterialRecord("iso", bbo.ordinary, bbo.ordinary, bbo.band)
    with pytest.raises(sp.PhaseMatchingError) as info:
        sp.phase_matching_cut_angle(iso, PUMP)
    assert "no phase matching" in str(info.value)


# ------------------------------------------------------------ walk-off B

def test_walkoff_B_zero_at_symmetry_angles(bbo):
    assert sp.transverse_walkoff_B(bbo, DEGENERATE, 0.0) == 0.0
    # sin(2 theta) at pi/2 only vanishes to double precision
    assert abs(sp.transverse_walkoff_B(bbo, DEGENERATE,
                                       math.pi / 2)) < 1e-8


def test_walkoff_B_negative_at_cut(bbo, production):
    assert sp.transverse_walkoff_B(bbo, DEGENERATE,
                                   production.cut_angle) < 0.0


def test_walkoff_B_finite_difference_oracle(bbo, production):
    cut = production.cut_angle
    h = 1e-6
    k = lambda theta: (2.0 * math.pi / DEGENERATE) * independent_ne(
        theta, DEGENERATE * 1e6)
    oracle = (k(cut + h) - k(cut - h)) / (2.0 * h)
    value = sp.transverse_walkoff_B(bbo, DEGENERATE, cut)
    assert abs(value - oracle) / abs(oracle) < 1e-6


def test_dne_dtheta_matches_finite_differences_on_grid(bbo):
    lo, hi = bbo.band
    lams = np.linspace(lo + 1e-8, hi - 1e-8, 10)
    thetas = np.linspace(0.0, math.pi / 2, 25)
    h = 1e-6
    for lam in lams:
        lam_um = float(lam) * 1e6
        for theta in thetas:
            analytic = sp.dne_dtheta(bbo, float(lam), float(theta))
            fd = (independent_ne(theta + h, lam_um)
                  - independent_ne(theta - h, lam_um)) / (2.0 * h)
            assert abs(analytic - fd) <= 1e-6 * abs(fd) + 1e-9


# ------------------------------------------------------- group mismatch D

def test_group_mismatch_zero_for_identical_dispersion(bbo):
    iso = sp.MaterialRecord("iso", bbo.ordinary, bbo.ordinary, bbo.band)
    assert abs(sp.group_mismatch_D(iso, DEGENERATE, 0.5)) < 1e-15


def test_group_mismatch_step_convergence(bbo, production):
    cut = production.cut_angle
    d_full = sp.group_mismatch_D(bbo, DEGENERATE, cut, rel_step=1e-5)
    d_half = sp.group_mismatch_D(bbo, DEGENERATE, cut, rel_step=5e-6)
    assert abs(d_full - d_half) / abs(d_half) < 1e-6


def test_group_mismatch_five_point_stencil_oracle(bbo, production):
    cut = production.cut_angle
    c = 299792458.0
    omega = 2.0 * math.pi * c / DEGENERATE
    h = 1e-5 * omega

    def k_diff(w):
        lam_um = 2.0 * math.pi * c / w * 1e6
        return w * (independent_ne(cut, lam_um) - independent_no(lam_um)) / c

    oracle = (-k_diff(omega + 2 * h) + 8 * k_diff(omega + h)
              - 8 * k_diff(omega - h) + k_diff(omega - 2 * h)) / (12.0 * h)
    value = sp.group_mismatch_D(bbo, DEGENERATE, cut)
    assert abs(value - oracle) / abs(oracle) < 1e-6


def test_group_mismatch_step_leaving_band(bbo, production):
    with pytest.raises(sp.OutOfBandError):
        sp.group_mismatch_D(bbo, 1.09999e-6, production.cut_angle)


# --------------------------------------------- longitudinal walk-off check

def test_longitudinal_check_zero_mismatch(production):
    report = sp.longitudinal_walkoff_check(production, 0.0, DEGENERATE, 1e-9)
    assert report.walkoff_time == 0.0
    assert report.compensated


def test_longitudinal_check_narrow_filter_limit(bbo, production):
    d = sp.group_mismatch_D(bbo, DEGENERATE, production.cut_angle)
    report = sp.longitudinal_walkoff_check(production, d, DEGENERATE, 1e-30)
    assert report.coherence_time > 1e6
    assert report.compensated
    with pytest.raises(ValueError):
        sp.longitudinal_walkoff_check(production, d, DEGENERATE, 0.0)


def test_longitudinal_check_bbo_one_nm_filter(bbo, production):
    # 1 mm BBO with a 1 nm filter: walk-off sits inside the coherence time.
    d = sp.group_mismatch_D(bbo, DEGENERATE, production.cut_angle)
    report = sp.longitudinal_walkoff_check(production, d, DEGENERATE, 1e-9)
    assert report.walkoff_time == abs(d) * production.length
    assert report.compensated


# ----------------------------------------------------- crystal validation

def test_crystal_validation(bbo):
    with pytest.raises(ValueError):
        sp.UniaxialCrystal(bbo, cut_angle=0.5, length=0.0)
    with pytest.raises(ValueError):
        sp.UniaxialCrystal(bbo, cut_angle=2.0, length=1e-3)
    with pytest.raises(ValueError, match="not negative uniaxial"):
        # positive uniaxial data (swapped sets) is rejected with the record,
        # before any crystal is cut from it
        sp.MaterialRecord("swapped", bbo.extraordinary, bbo.ordinary, bbo.band)


NAN = float("nan")


@pytest.mark.parametrize("build, message", [
    (lambda bbo, production: sp.UniaxialCrystal(bbo, 0.5, NAN),
     "crystal length must be > 0"),
    (lambda bbo, production: sp.GeometryConfig(lens_focal_length=NAN),
     "focal length must be > 0"),
    (lambda bbo, production: sp.GeometryConfig(0.5, pinhole_diameter=NAN),
     "pinhole diameter must be >= 0"),
    (lambda bbo, production: sp.GeometryConfig(0.5, ambient_index=NAN),
     "ambient index must be > 0"),
    (lambda bbo, production: sp.longitudinal_walkoff_check(
        production, 0.0, DEGENERATE, NAN), "filter FWHM must be > 0"),
], ids=["crystal_length", "focal_length", "pinhole_diameter",
        "ambient_index", "filter_fwhm"])
def test_nan_fails_the_sign_checks(bbo, production, build, message):
    with pytest.raises(ValueError, match=message):
        build(bbo, production)

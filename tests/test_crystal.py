import math

import mpmath as mp
import numpy as np
import pytest

import spdcpol as sp
from spdcpol.crystal import phase_matching_mismatch

PUMP = 351e-9
DEGENERATE = 702e-9


def _independent_no(lam_um):
    """Vectorized Eimerl ordinary index, coded independently of the package."""
    return np.sqrt(2.7405 + 0.0184 / (lam_um ** 2 - 0.0179)
                   - 0.0155 * lam_um ** 2)


def _independent_neb(lam_um):
    return np.sqrt(2.3730 + 0.0128 / (lam_um ** 2 - 0.0156)
                   - 0.0044 * lam_um ** 2)


def _independent_ne(theta, lam_um):
    return 1.0 / np.sqrt(np.cos(theta) ** 2 / _independent_no(lam_um) ** 2
                         + np.sin(theta) ** 2 / _independent_neb(lam_um) ** 2)


# ---------------------------------------------------------------- indices

def test_index_ordinary_extended_precision_oracle(production):
    # Same Sellmeier expression evaluated at 40 decimal digits.
    mp.mp.dps = 40
    lam_um = mp.mpf(DEGENERATE) * mp.mpf(1e6)
    oracle = mp.sqrt(mp.mpf("2.7405") + mp.mpf("0.0184") / (lam_um ** 2 - mp.mpf("0.0179"))
                     - mp.mpf("0.0155") * lam_um ** 2)
    value = sp.index_ordinary(production, DEGENERATE)
    assert abs(value - float(oracle)) / float(oracle) < 1e-12
    # frozen reference (extended-precision evaluation at exactly 0.702 um)
    assert value == pytest.approx(1.664814166989071626361, rel=1e-12)


def test_index_ordinary_frozen_values(production):
    assert sp.index_ordinary(production, PUMP) == pytest.approx(
        1.706847259271630632977, rel=1e-12)
    assert sp.index_extraordinary(production, DEGENERATE, math.pi / 2) == \
        pytest.approx(1.548436169985093258999, rel=1e-12)


def test_sellmeier_coefficient_algebraic_inverse(bbo):
    # b = (n^2 - a + d L^2)(L^2 - c) must reproduce the input b.
    coeffs = bbo.ordinary
    lam_um = 0.65
    n = coeffs.index(lam_um)
    b_back = (n ** 2 - coeffs.a + coeffs.d * lam_um ** 2) * (lam_um ** 2 - coeffs.c)
    assert abs(b_back - coeffs.b) / coeffs.b < 1e-12


def test_index_local_monotonic_bracket(production):
    # Dense sampling shows dn/dlambda keeps one sign on [600, 800] nm ...
    lams = np.linspace(600e-9, 800e-9, 4001)
    values = _independent_no(lams * 1e6)
    assert np.all(np.diff(values) < 0.0)
    # ... so nearby evaluations bracket the midpoint.
    low = sp.index_ordinary(production, 710e-9)
    mid = sp.index_ordinary(production, 700e-9)
    high = sp.index_ordinary(production, 690e-9)
    assert low < mid < high


def test_out_of_band_error_names_band(production):
    with pytest.raises(sp.OutOfBandError) as info:
        sp.index_ordinary(production, 200e-9)
    message = str(info.value)
    assert "300" in message and "1100" in message
    with pytest.raises(sp.OutOfBandError):
        sp.index_extraordinary(production, 1.2e-6, 0.3)


def test_extraordinary_limits(production):
    n_o = sp.index_ordinary(production, DEGENERATE)
    assert sp.index_extraordinary(production, DEGENERATE, 0.0) == pytest.approx(
        n_o, rel=1e-15)
    principal = production.material.extraordinary.index(DEGENERATE * 1e6)
    assert sp.index_extraordinary(production, DEGENERATE, math.pi / 2) == \
        pytest.approx(principal, rel=1e-15)


def test_extraordinary_ellipse_symmetry(production):
    for theta in (0.2, 0.7, 1.1, 1.5):
        a = sp.index_extraordinary(production, DEGENERATE, theta)
        b = sp.index_extraordinary(production, DEGENERATE, math.pi - theta)
        assert a == pytest.approx(b, rel=1e-14)


def test_extraordinary_angle_domain(production):
    with pytest.raises(ValueError):
        sp.index_extraordinary(production, DEGENERATE, -0.1)
    with pytest.raises(ValueError):
        sp.index_extraordinary(production, DEGENERATE, math.pi + 0.1)


def test_negative_uniaxial_inequality(production):
    # n_e(theta) <= n_o with equality only along the optic axis.
    for lam in np.linspace(*production.material.band, 7):
        n_o = sp.index_ordinary(production, float(lam))
        for theta in np.linspace(0.0, math.pi / 2, 19):
            n_e = sp.index_extraordinary(production, float(lam), float(theta))
            assert n_e <= n_o + 1e-15
            if theta > 1e-3:
                assert n_e < n_o


# ------------------------------------------------------- phase matching

def test_phase_matching_residual(production):
    cut = sp.phase_matching_cut_angle(production, PUMP)
    assert abs(phase_matching_mismatch(production, PUMP, cut)) < 1e-12


def test_phase_matching_grid_bisection_oracle(production):
    # Independent formulas, 1e6-point grid scan, then plain bisection.
    lam_p_um = PUMP * 1e6
    lam_d_um = DEGENERATE * 1e6

    def mismatch(theta):
        return (2.0 * _independent_ne(theta, lam_p_um)
                - _independent_no(lam_d_um)
                - _independent_ne(theta, lam_d_um))

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
    cut = sp.phase_matching_cut_angle(production, PUMP)
    assert abs(cut - oracle) < 1e-8


def test_phase_matching_shift_direction(production):
    # A pump shift moves the root against the mismatch gradient.
    cut = sp.phase_matching_cut_angle(production, PUMP)
    d_lam = 1e-9
    df_dlam = (phase_matching_mismatch(production, PUMP + d_lam, cut)
               - phase_matching_mismatch(production, PUMP - d_lam, cut)) / (2 * d_lam)
    d_theta = 1e-6
    df_dtheta = (phase_matching_mismatch(production, PUMP, cut + d_theta)
                 - phase_matching_mismatch(production, PUMP, cut - d_theta)) / (2 * d_theta)
    predicted_sign = math.copysign(1.0, -df_dlam / df_dtheta)
    shifted = sp.phase_matching_cut_angle(production, PUMP + d_lam)
    assert math.copysign(1.0, shifted - cut) == predicted_sign


def test_cut_solve_reads_each_principal_index_once(bbo, monkeypatch):
    # Two principal indices at lambda_p and two at lambda_d, however many
    # angles the solve tries; the root keeps its bits.
    crystal = bbo.crystal(cut_angle=0.0, length=1e-3)
    calls = []
    index = sp.SellmeierCoefficients.index

    def counted(self, wavelength_um):
        calls.append(wavelength_um)
        return index(self, wavelength_um)

    monkeypatch.setattr(sp.SellmeierCoefficients, "index", counted)
    assert sp.phase_matching_cut_angle(crystal, PUMP) == 0.8538525780754935
    assert len(calls) == 4
    calls.clear()
    sp.dne_dtheta(crystal, DEGENERATE, 0.8538525780754935)
    assert len(calls) == 2


def test_mismatch_is_built_from_the_public_indices(production):
    angles = [0.0, math.pi / 2.0, *np.linspace(0.0, math.pi / 2.0, 37)[1:-1],
              production.cut_angle]
    for theta in angles:
        assert phase_matching_mismatch(production, PUMP, theta) == (
            2 * sp.index_extraordinary(production, PUMP, theta)
            - sp.index_ordinary(production, DEGENERATE)
            - sp.index_extraordinary(production, DEGENERATE, theta))


def test_no_phase_matching_for_isotropic_data(bbo):
    iso = sp.MaterialRecord("iso", bbo.ordinary, bbo.ordinary,
                            bbo.band).crystal(cut_angle=0.3, length=1e-3)
    with pytest.raises(sp.PhaseMatchingError) as info:
        sp.phase_matching_cut_angle(iso, PUMP)
    assert "no phase matching" in str(info.value)


# ------------------------------------------------------------ walk-off B

def test_walkoff_B_zero_at_symmetry_angles(production):
    assert sp.transverse_walkoff_B(production, DEGENERATE, 0.0) == 0.0
    # sin(2 theta) at pi/2 only vanishes to double precision
    assert abs(sp.transverse_walkoff_B(production, DEGENERATE,
                                       math.pi / 2)) < 1e-8


def test_walkoff_B_negative_at_cut(production):
    assert sp.transverse_walkoff_B(production, DEGENERATE,
                                   production.cut_angle) < 0.0


def test_walkoff_B_finite_difference_oracle(production):
    cut = production.cut_angle
    h = 1e-6
    k = lambda theta: (2.0 * math.pi / DEGENERATE) * _independent_ne(
        theta, DEGENERATE * 1e6)
    oracle = (k(cut + h) - k(cut - h)) / (2.0 * h)
    value = sp.transverse_walkoff_B(production, DEGENERATE, cut)
    assert abs(value - oracle) / abs(oracle) < 1e-6


def test_dne_dtheta_matches_finite_differences_on_grid(production):
    lo, hi = production.material.band
    lams = np.linspace(lo + 1e-8, hi - 1e-8, 10)
    thetas = np.linspace(0.0, math.pi / 2, 25)
    h = 1e-6
    for lam in lams:
        lam_um = float(lam) * 1e6
        for theta in thetas:
            analytic = sp.dne_dtheta(production, float(lam), float(theta))
            fd = (_independent_ne(theta + h, lam_um)
                  - _independent_ne(theta - h, lam_um)) / (2.0 * h)
            assert abs(analytic - fd) <= 1e-6 * abs(fd) + 1e-9


# ------------------------------------------------------- group mismatch D

def test_group_mismatch_zero_for_identical_dispersion(bbo):
    iso = sp.MaterialRecord("iso", bbo.ordinary, bbo.ordinary,
                            bbo.band).crystal(cut_angle=0.5, length=1e-3)
    assert abs(sp.group_mismatch_D(iso, DEGENERATE, 0.5)) < 1e-15


def test_group_mismatch_step_convergence(production):
    cut = production.cut_angle
    d_full = sp.group_mismatch_D(production, DEGENERATE, cut, rel_step=1e-5)
    d_half = sp.group_mismatch_D(production, DEGENERATE, cut, rel_step=5e-6)
    assert abs(d_full - d_half) / abs(d_half) < 1e-6


def test_group_mismatch_five_point_stencil_oracle(production):
    cut = production.cut_angle
    c = 299792458.0
    omega = 2.0 * math.pi * c / DEGENERATE
    h = 1e-5 * omega

    def k_diff(w):
        lam_um = 2.0 * math.pi * c / w * 1e6
        return w * (_independent_ne(cut, lam_um) - _independent_no(lam_um)) / c

    oracle = (-k_diff(omega + 2 * h) + 8 * k_diff(omega + h)
              - 8 * k_diff(omega - h) + k_diff(omega - 2 * h)) / (12.0 * h)
    value = sp.group_mismatch_D(production, DEGENERATE, cut)
    assert abs(value - oracle) / abs(oracle) < 1e-6


def test_group_mismatch_step_leaving_band(production):
    with pytest.raises(sp.OutOfBandError):
        sp.group_mismatch_D(production, 1.09999e-6, production.cut_angle)


# --------------------------------------------- longitudinal walk-off check

def test_longitudinal_check_zero_mismatch(production):
    report = sp.longitudinal_walkoff_check(production, 0.0, DEGENERATE, 1e-9)
    assert report.walkoff_time == 0.0
    assert report.compensated


def test_longitudinal_check_narrow_filter_limit(production):
    d = sp.group_mismatch_D(production, DEGENERATE, production.cut_angle)
    report = sp.longitudinal_walkoff_check(production, d, DEGENERATE, 1e-30)
    assert report.coherence_time > 1e6
    assert report.compensated
    with pytest.raises(ValueError):
        sp.longitudinal_walkoff_check(production, d, DEGENERATE, 0.0)


def test_longitudinal_check_bbo_one_nm_filter(production):
    # 1 mm BBO with a 1 nm filter: walk-off sits inside the coherence time.
    d = sp.group_mismatch_D(production, DEGENERATE, production.cut_angle)
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

"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).
Every tolerance is pinned here, not configurable.
"""

import io
import math
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest

import spdcpol as sp
import spdcpol.cli as cli

# float references coded apart from the package
from float_oracles import independent_ne, independent_no, projection_rate

P45 = math.pi / 4.0
PUMP = 351e-9
DEGENERATE = 702e-9


@contextmanager
def _report(label):
    outcome = {"ok": False}
    try:
        yield outcome
        outcome["ok"] = True
    finally:
        status = "PASS" if outcome["ok"] else "FAIL"
        print(f"[acceptance] {label}: {status}")


# ---------------------------------------------------------------------------

def test_criterion_1_projection_oracle_equivalence(bare_config,
                                                   anticompensated_config):
    """Closed-form rate == brute-force two-qubit projection, 1000 samples."""
    with _report("1 projection-oracle equivalence (1e-12, < 1 s)"):
        rng = np.random.default_rng(20260810)
        configs = (bare_config, anticompensated_config)
        start = time.perf_counter()
        worst = 0.0
        for k in range(1000):
            config = configs[k % 2]
            theta = rng.uniform(-9e-3, 9e-3)
            settings = sp.PolarizerSettings(rng.uniform(-math.pi, math.pi),
                                            rng.uniform(-math.pi, math.pi))
            rate = sp.coincidence_rate(theta, settings, config)
            # the brute-force projection of tests/float_oracles.py
            oracle = projection_rate(theta, settings, config)
            worst = max(worst, abs(rate - oracle))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-12
        assert elapsed < 1.0


def test_criterion_2_envelope_anchors():
    """sinc anchors 0.9003 / 0.3001 and the anti-compensated singlet pair."""
    with _report("2 envelope anchors sinc(pi/4), sinc(3pi/4)"):
        assert sp.sinc(math.pi / 4.0) == pytest.approx(0.9003, abs=1e-3)
        assert sp.sinc(3.0 * math.pi / 4.0) == pytest.approx(0.3001, abs=1e-3)
        table = sp.list_bell_angles(sp.load_scenario("fig2c"),
                                    sp.BellState.PSI_MINUS)
        envelopes = [row[2] for row in table.rows[:2]]
        assert envelopes[0] == pytest.approx(0.9003, abs=1e-3)
        assert envelopes[1] == pytest.approx(0.3001, abs=1e-3)


def test_criterion_3_singlet_angle():
    """fig2a first Psi- angle: lab value near 0.0055 rad, internal pi/(|B|L)."""
    with _report("3 singlet angle within 20% of 0.0055 rad, "
                 "internal pi/(|B|L) to 1e-10"):
        spec = sp.load_scenario("fig2a")
        table = sp.list_bell_angles(spec, sp.BellState.PSI_MINUS)
        theta_int, theta_ext, _ = table.rows[0]
        assert abs(theta_ext - 0.0055) / 0.0055 <= 0.20
        b = sp.transverse_walkoff_B(spec.source.production.material,
                                    DEGENERATE,
                                    spec.source.production.cut_angle)
        expected = math.pi / (abs(b) * spec.source.production.length)
        assert abs(theta_int - expected) <= 1e-10


def test_criterion_4_compensation():
    """fig2b: crossed rates < 1e-12 over three envelope lobes; V = 1 +- 1e-9."""
    with _report("4 compensation: crossed rates < 1e-12, V = 1 +- 1e-9"):
        spec = sp.load_scenario("fig2b")
        tables = {t.name: t for t in sp.run_scenario(spec)}
        crossed = tables["fig2b_scan_45_-45"]
        # the preset grid spans three envelope lobes on each side
        lobe = math.pi / spec.source.envelope_slope
        theta_int = np.array([row[1] for row in crossed.rows])
        assert theta_int.max() >= 3.0 * lobe
        rates = np.array([row[4] for row in crossed.rows])
        assert rates.max() < 1e-12
        vis_rows = tables["fig2b_visibility"].rows
        assert len(vis_rows) == 20
        for row in vis_rows:
            assert abs(row[3] - 1.0) <= 1e-9


def test_criterion_5_frequency_doubling(bare_config, anticompensated_config):
    """First zero of the anti-compensated (45,45) curve at half the angle."""
    with _report("5 anti-compensated first zero at half angle (ratio 2 "
                 "+- 1e-6)"):
        settings = sp.PolarizerSettings(P45, P45)

        def first_zero(config):
            rate = lambda t: sp.coincidence_rate(t, settings, config)
            grid = np.linspace(1e-7, 5e-3, 40_001)
            values = np.array([rate(float(t)) for t in grid])
            minima = np.nonzero((values[1:-1] <= values[:-2])
                                & (values[1:-1] <= values[2:])
                                & (values[1:-1] < 1e-6))[0]
            assert len(minima) > 0
            idx = int(minima[0]) + 1
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

        ratio = first_zero(bare_config) / first_zero(anticompensated_config)
        assert abs(ratio - 2.0) <= 1e-6


def test_criterion_6_visibility_decay(bare_config):
    """Uncompensated visibility: 1 at zero width, strictly decreasing,
    each sweep value matching a 1e6-point trapezoid oracle to 1e-6."""
    with _report("6 visibility decay: monotone sweep, trapezoid oracle 1e-6"):
        assert sp.visibility(sp.AngularWindow(0.0, 0.0), bare_config) == 1.0
        assert abs(sp.visibility(sp.AngularWindow(0.0, 1e-9), bare_config)
                   - 1.0) <= 1e-9
        tables = {t.name: t for t in sp.run_scenario(sp.load_scenario("fig3"))}
        rows = tables["fig3_visibility_uncompensated"].rows
        assert len(rows) == 20
        vis = np.array([row[3] for row in rows])
        assert np.all(np.diff(vis) < 0.0)
        # independent oracle from the emitted external halfwidths
        n_o = float(independent_no(DEGENERATE * 1e6))
        slope = bare_config.phase_slope
        env_slope = bare_config.envelope_slope
        for row in rows:
            halfwidth_int = row[0] / n_o
            thetas = np.linspace(-halfwidth_int, halfwidth_int, 1_000_001)
            x = env_slope * thetas
            weights = np.where(x == 0.0, 1.0, np.sin(x) / np.where(x == 0.0,
                                                                   1.0, x)) ** 2
            phases = slope * thetas
            c_pp = np.trapezoid(weights * np.cos(phases / 2.0) ** 2, thetas)
            c_pm = np.trapezoid(weights * np.sin(phases / 2.0) ** 2, thetas)
            oracle = abs((c_pp - c_pm) / (c_pp + c_pm))
            assert abs(row[3] - oracle) <= 1e-6


def test_criterion_7_density_matrix_invariants(production, bbo, bare_config):
    """1000 randomized (config, window) pairs: Hermitian, unit trace, PSD,
    {HV, VH} support; pure-slice concurrence 1 +- 1e-10."""
    with _report("7 density-matrix invariants on 1000 randomized pairs"):
        rng = np.random.default_rng(424242)
        lobe = 2.0 * math.pi / bare_config.phase_slope
        configs = [bare_config]
        for _ in range(39):
            placements = []
            for _ in range(int(rng.integers(0, 3))):
                comp = bbo.crystal(cut_angle=production.cut_angle,
                                   length=float(rng.uniform(0.1e-3, 1.2e-3)))
                orientation = (sp.Orientation.COMPENSATING
                               if rng.uniform() < 0.5
                               else sp.Orientation.ANTICOMPENSATING)
                placements.append(sp.CompensatorPlacement(comp, orientation))
            configs.append(sp.SourceConfig(production=production,
                                           pump_wavelength=PUMP,
                                           compensators=tuple(placements)))
        support = np.zeros((4, 4), dtype=bool)
        support[1:3, 1:3] = True
        for config in configs:
            for _ in range(25):
                center = float(rng.uniform(-lobe, lobe))
                halfwidth = float(rng.uniform(0.0, lobe))
                rho = sp.aperture_density_matrix(
                    sp.AngularWindow(center, halfwidth), config)
                mat = rho.matrix
                assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12
                assert abs(mat.trace().real - 1.0) <= 1e-12
                assert np.linalg.eigvalsh(mat).min() >= -1e-10
                assert np.max(np.abs(mat[~support])) <= 1e-12
                pure = sp.DensityMatrix4(
                    sp.state_at_angle(center, config).projector())
                assert abs(sp.concurrence(pure) - 1.0) <= 1e-10


def test_criterion_8_dispersion_correctness(bbo, production):
    """Analytic dn_e/dtheta vs finite differences on a 100x50 grid; residual
    < 1e-12; D vs 5-point stencil to 1e-6; 1 nm filter compensates."""
    with _report("8 dispersion: derivative grid, residual, D stencil, "
                 "walk-off check"):
        thetas = np.linspace(0.0, math.pi / 2.0, 100)
        lams = np.linspace(0.31e-6, 1.09e-6, 50)
        h = 1e-6
        for lam in lams:
            lam_um = float(lam) * 1e6
            fd = (independent_ne(thetas + h, lam_um)
                  - independent_ne(thetas - h, lam_um)) / (2.0 * h)
            analytic = np.array([sp.dne_dtheta(bbo, float(lam),
                                               float(t)) for t in thetas])
            assert np.all(np.abs(analytic - fd)
                          <= 1e-6 * np.abs(fd) + 1e-9)

        cut = sp.phase_matching_cut_angle(bbo, PUMP)
        residual = abs(sp.phase_matching_mismatch(bbo, PUMP, cut))
        assert residual < 1e-12

        c_light = 299792458.0
        omega = 2.0 * math.pi * c_light / DEGENERATE
        step = 1e-5 * omega

        def k_diff(w):
            lam_um = 2.0 * math.pi * c_light / w * 1e6
            return w * (independent_ne(cut, lam_um)
                        - independent_no(lam_um)) / c_light

        stencil = (-k_diff(omega + 2 * step) + 8 * k_diff(omega + step)
                   - 8 * k_diff(omega - step)
                   + k_diff(omega - 2 * step)) / (12.0 * step)
        d_value = sp.group_mismatch_D(bbo, DEGENERATE, cut)
        assert abs(d_value - stencil) / abs(stencil) <= 1e-6

        report = sp.longitudinal_walkoff_check(production, d_value,
                                               DEGENERATE, 1e-9)
        assert report.compensated is True


def test_criterion_9_determinism(tmp_path):
    """Two same-seed runs of every preset produce byte-identical CSVs."""
    with _report("9 determinism: byte-identical CSV per preset and seed"):
        for preset in sp.PRESETS:
            dir_a = tmp_path / f"{preset}_a"
            dir_b = tmp_path / f"{preset}_b"
            with redirect_stdout(io.StringIO()):
                assert cli.main(["run", preset, "--out", str(dir_a),
                                 "--seed", "11"]) == 0
                assert cli.main(["run", preset, "--out", str(dir_b),
                                 "--seed", "11"]) == 0
            files_a = sorted(dir_a.iterdir())
            assert files_a
            for path_a in files_a:
                path_b = dir_b / path_a.name
                assert path_a.read_bytes() == path_b.read_bytes()

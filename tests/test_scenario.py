import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spdcpol as sp
from spdcpol import cli, scenario
from spdcpol.output import format_cell, from_csv, to_csv

P45 = math.pi / 4.0


def _column(table, name):
    return np.array([row[table.columns.index(name)] for row in table.rows],
                    dtype=float)


def _table(tables, name):
    match = [t for t in tables if t.name == name]
    assert len(match) == 1, f"{name} not in {[t.name for t in tables]}"
    return match[0]


# ------------------------------------------------------------ preset loading

def test_presets_resolve():
    for name in sp.PRESETS:
        spec = sp.load_scenario(name)
        assert spec.name == name
        assert spec.source.production.material.name == "bbo"
        assert spec.geometry.lens_focal_length == 0.5
    assert len(sp.load_scenario("fig2a").source.compensators) == 0
    assert sp.load_scenario("fig2b").source.compensators[0].orientation is \
        sp.Orientation.COMPENSATING
    assert sp.load_scenario("fig2c").source.compensators[0].orientation is \
        sp.Orientation.ANTICOMPENSATING
    assert sp.load_scenario("fig3").visibility.compare_uncompensated


def test_unknown_scenario_name():
    with pytest.raises(sp.ConfigError):
        sp.load_scenario("fig9z")


def test_seed_override():
    assert sp.load_scenario("fig2a").seed == 20260810
    assert sp.load_scenario("fig2a", seed=7).seed == 7


def test_seed_override_runs_the_fence_once(monkeypatch):
    # the spec is built with the override seed, not built and then replaced
    calls = []
    fence = scenario._fence

    def counted(spec):
        calls.append(spec.seed)
        return fence(spec)
    monkeypatch.setattr(scenario, "_fence", counted)
    assert sp.load_scenario("fig3", seed=5).seed == 5
    assert calls == [5]


# ----------------------------------------------------------- loader errors

BASE = """\
[scenario]
name = demo

[source]
material = bbo
pump_wavelength_nm = 351
length_mm = 1.0

[geometry]
lens_focal_length_mm = 500

[scan]
theta_ext_min_mrad = -2
theta_ext_max_mrad = 2
points = 11
settings_deg = 45 45
"""


def _load_text(tmp_path, text, **kwargs):
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return sp.load_scenario(path, **kwargs)


def test_minimal_scenario_loads(tmp_path):
    spec = _load_text(tmp_path, BASE)
    assert spec.name == "demo"
    assert spec.scan.points == 11
    assert spec.visibility is None


def test_unknown_material_reports_line(tmp_path):
    text = BASE.replace("material = bbo", "material = unobtanium")
    with pytest.raises(sp.ConfigError) as info:
        _load_text(tmp_path, text)
    assert "unobtanium" in str(info.value)
    assert info.value.line == 5  # the material key line


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(sp.ConfigError) as info:
        _load_text(tmp_path, BASE + "\n[detector]\nx = 1\n")
    assert "detector" in str(info.value)


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(sp.ConfigError) as info:
        _load_text(tmp_path, BASE.replace("length_mm = 1.0",
                                          "length_mm = 1.0\ncolour = red"))
    assert "colour" in str(info.value)


def test_missing_section_rejected(tmp_path):
    text = BASE.replace("[geometry]\nlens_focal_length_mm = 500\n", "")
    with pytest.raises(sp.ConfigError) as info:
        _load_text(tmp_path, text)
    assert "geometry" in str(info.value)


def test_bad_orientation_reports_line(tmp_path):
    text = BASE + ("\n[compensator]\nmaterial = bbo\nlength_mm = 0.5\n"
                   "orientation = sideways\n")
    with pytest.raises(sp.ConfigError) as info:
        _load_text(tmp_path, text)
    assert "sideways" in str(info.value)
    assert info.value.line is not None


def test_bad_settings_pair(tmp_path):
    for value in ("45", "45 nan", "inf 45"):
        with pytest.raises(sp.ConfigError) as info:
            _load_text(tmp_path, BASE.replace("settings_deg = 45 45",
                                              f"settings_deg = {value}"))
        assert info.value.line == 16


def test_distinct_pairs_sharing_a_table_label_exit_2(tmp_path, capsys):
    # 45.0000001 prints as 45 under :g, so both pairs name demo_scan_45_45
    path = tmp_path / "scenario.cfg"
    path.write_text(BASE.replace("settings_deg = 45 45",
                                 "settings_deg = 45 45; 45.0000001 45"))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:16:" in err
    assert "45_45" in err
    assert "Traceback" not in err
    assert not out.exists()
    # an exact repeat stays legal and is kept once
    spec = _load_text(tmp_path, BASE.replace(
        "settings_deg = 45 45", "settings_deg = 45 45; 45.0 45; 0 90"))
    assert spec.scan.settings_deg == ((45.0, 45.0), (0.0, 90.0))


def test_scan_bounds_validated(tmp_path):
    with pytest.raises(sp.ConfigError):
        _load_text(tmp_path, BASE.replace("theta_ext_max_mrad = 2",
                                          "theta_ext_max_mrad = -3"))


# -------------------------------------------------------------- run: scans

def test_fig2a_tables(geometry):
    spec = sp.load_scenario("fig2a")
    tables = sp.run_scenario(spec)
    assert sorted(t.name for t in tables) == ["fig2a_scan_45_-45",
                                              "fig2a_scan_45_45"]
    parallel = _table(tables, "fig2a_scan_45_45")
    crossed = _table(tables, "fig2a_scan_45_-45")
    theta_ext = _column(parallel, "theta_ext_rad")
    rate_pp = _column(parallel, "rate_arb")
    rate_pm = _column(crossed, "rate_arb")
    # curves even in theta, Psi+ peak on axis
    assert np.allclose(rate_pp, rate_pp[::-1], atol=1e-13)
    assert np.allclose(rate_pm, rate_pm[::-1], atol=1e-13)
    assert rate_pp.argmax() == len(theta_ext) // 2
    # the crossed curve vanishes on axis and peaks near the singlet angle:
    # its true maximum (tan x = 2x, x = |B| L theta_int / 2) sits on the
    # singlet's inner shoulder, where the rate is still > 3/4 of the peak
    center = len(theta_ext) // 2
    # on axis the crossed rate is tiny but not zero: the finite pinhole
    # admits neighbouring modes whose phase already differs
    from spdcpol.scenario import _pinhole_halfwidth
    delta = _pinhole_halfwidth(spec.geometry, spec.source) / math.sqrt(3.0)
    expected_center = math.sin(spec.source.phase_slope * delta / 2.0) ** 2 \
        * sp.sinc(spec.source.envelope_slope * delta) ** 2
    assert rate_pm[center] == pytest.approx(expected_center, rel=1e-12)
    assert rate_pm[center] < 2e-3
    bell = sp.list_bell_angles(sp.load_scenario("fig2a"),
                               sp.BellState.PSI_MINUS)
    singlet_ext = bell.rows[0][1]
    assert abs(singlet_ext - 0.0055) / 0.0055 < 0.2
    peak_ext = abs(theta_ext[rate_pm.argmax()])
    assert 0.0 < peak_ext < singlet_ext
    at_singlet = rate_pm[np.argmin(np.abs(theta_ext - singlet_ext))]
    assert at_singlet > 0.75 * rate_pm.max()
    # the parallel curve has its first zero exactly at the singlet
    at_singlet_pp = rate_pp[np.argmin(np.abs(theta_ext - singlet_ext))]
    assert at_singlet_pp < 1e-3 * rate_pp.max()


def test_fig2b_scan_suppressed_and_envelope_shaped():
    spec = sp.load_scenario("fig2b")
    tables = sp.run_scenario(spec)
    crossed = _table(tables, "fig2b_scan_45_-45")
    assert _column(crossed, "rate_arb").max() < 1e-12
    parallel = _table(tables, "fig2b_scan_45_45")
    # with a flat phase the parallel curve is the pinhole-averaged envelope^2
    from spdcpol.scenario import _pinhole_halfwidth
    delta = _pinhole_halfwidth(spec.geometry, spec.source) / math.sqrt(3.0)
    for row in parallel.rows[:: len(parallel.rows) // 17]:
        theta_int = row[1]
        expected = 0.5 * (sp.angular_envelope(theta_int - delta, spec.source) ** 2
                          + sp.angular_envelope(theta_int + delta, spec.source) ** 2)
        assert row[4] == pytest.approx(expected, abs=1e-15)


def test_fig2c_doubled_oscillation():
    tables = sp.run_scenario(sp.load_scenario("fig2c"))
    parallel = _table(tables, "fig2c_scan_45_45")
    phases = _column(parallel, "phase_rad")
    thetas = _column(parallel, "theta_int_rad")
    bare_slope = sp.load_scenario("fig2a").source.phase_slope
    assert np.allclose(phases, 2.0 * bare_slope * thetas, rtol=1e-12,
                       atol=1e-12)


def test_scan_grid_is_external_mrad_spec():
    spec = sp.load_scenario("fig2a")
    tables = sp.run_scenario(spec)
    theta_ext = _column(_table(tables, "fig2a_scan_45_45"), "theta_ext_rad")
    assert theta_ext[0] == pytest.approx(-8e-3, rel=1e-12)
    assert theta_ext[-1] == pytest.approx(8e-3, rel=1e-12)
    assert len(theta_ext) == 321
    # internal column really is external / n_o
    table = _table(tables, "fig2a_scan_45_45")
    n_o = sp.index_ordinary(spec.source.production.material, 702e-9)
    assert _column(table, "theta_int_rad") == pytest.approx(theta_ext / n_o,
                                                            rel=1e-12)


@pytest.mark.parametrize("source", ["fig2a", "fig2b", "fig2c", "on_axis"])
def test_scan_envelope_and_phase_are_the_scalar_laws_bit_for_bit(source,
                                                                 tmp_path):
    if source == "on_axis":
        spec = _load_text(tmp_path, BASE.replace("points = 11", "points = 5"))
    else:
        spec = sp.load_scenario(source)
    table = sp.run_scenario(spec)[0]
    theta_int = [row[1] for row in table.rows]
    if source == "on_axis":
        assert 0.0 in theta_int
    for index, law in ((2, sp.angular_envelope), (3, sp.relative_phase)):
        assert (np.array([row[index] for row in table.rows]).tobytes()
                == np.array([law(t, spec.source) for t in theta_int]).tobytes())


def test_scan_at_general_settings_is_linear_in_the_reference_rates(tmp_path):
    # R(Theta1, Theta2) = sin^2(Theta1 + Theta2) R(45, 45)
    #                   + sin^2(Theta1 - Theta2) R(45, -45), pinhole or not
    text = (BASE.replace("lens_focal_length_mm = 500",
                         "lens_focal_length_mm = 500\npinhole_diameter_um = 150")
            .replace("theta_ext_min_mrad = -2", "theta_ext_min_mrad = -8")
            .replace("theta_ext_max_mrad = 2", "theta_ext_max_mrad = 8")
            .replace("points = 11", "points = 41")
            .replace("settings_deg = 45 45",
                     "settings_deg = 45 45; 45 -45; 0 90; 30 -60; 100 25"))
    spec = _load_text(tmp_path, text)
    from spdcpol.scenario import _pinhole_halfwidth
    delta = _pinhole_halfwidth(spec.geometry, spec.source) / math.sqrt(3.0)
    assert delta > 0.0
    tables = sp.run_scenario(spec)
    reference = {pair: _column(_table(tables, f"demo_scan_{pair}"), "rate_arb")
                 for pair in ("45_45", "45_-45")}
    for deg1, deg2 in spec.scan.settings_deg:
        table = _table(tables, f"demo_scan_{deg1:g}_{deg2:g}")
        rates = _column(table, "rate_arb")
        settings = sp.PolarizerSettings(math.radians(deg1),
                                        math.radians(deg2))
        averaged = np.array([
            0.5 * (sp.coincidence_rate(t - delta, settings, spec.source)
                   + sp.coincidence_rate(t + delta, settings, spec.source))
            for t in _column(table, "theta_int_rad")])
        assert np.all(np.abs(rates - averaged) <= 1e-15 * np.abs(averaged))
        linear = (math.sin(settings.theta1 + settings.theta2) ** 2
                  * reference["45_45"]
                  + math.sin(settings.theta1 - settings.theta2) ** 2
                  * reference["45_-45"])
        assert np.max(np.abs(rates - linear)) <= 1e-15


def test_scans_evaluate_the_two_reference_rates_once_per_node(tmp_path,
                                                               monkeypatch):
    # every settings pair is read from R(45, 45) and R(45, -45)
    calls = []

    def spy(theta, settings, config):
        calls.append(settings)
        return sp.coincidence_rate(theta, settings, config)
    monkeypatch.setattr(scenario, "coincidence_rate", spy)
    pairs = "settings_deg = 45 45; 45 -45; 0 90; 30 -60; 100 25"
    points = 41
    pinhole = (BASE.replace("points = 11", f"points = {points}")
               .replace("settings_deg = 45 45", pairs)
               .replace("lens_focal_length_mm = 500",
                        "lens_focal_length_mm = 500\n"
                        "pinhole_diameter_um = 150"))
    for text, nodes in ((pinhole, 2),
                        (pinhole.replace("pinhole_diameter_um = 150",
                                         "pinhole_diameter_um = 0"), 1)):
        calls.clear()
        spec = _load_text(tmp_path, text)
        tables = sp.run_scenario(spec)
        assert len(tables) == 5
        assert len(calls) == 2 * nodes * points
        assert set(calls) == {sp.PolarizerSettings(P45, P45),
                              sp.PolarizerSettings(P45, -P45)}
        delta = (scenario._pinhole_halfwidth(spec.geometry, spec.source)
                 / math.sqrt(3.0))
        for deg2 in (45, -45):
            settings = sp.PolarizerSettings(P45, math.radians(deg2))
            table = _table(tables, f"demo_scan_45_{deg2}")
            direct = [
                (sp.coincidence_rate(t, settings, spec.source)
                 if nodes == 1 else
                 0.5 * (sp.coincidence_rate(t - delta, settings, spec.source)
                        + sp.coincidence_rate(t + delta, settings,
                                              spec.source)))
                for t in _column(table, "theta_int_rad").tolist()]
            assert (np.array([row[4] for row in table.rows]).tobytes()
                    == np.array(direct).tobytes())


# --------------------------------------------------------- run: visibility

def test_fig3_visibility_tables():
    spec = sp.load_scenario("fig3")
    tables = sp.run_scenario(spec)
    names = sorted(t.name for t in tables)
    assert names == ["fig3_visibility", "fig3_visibility_uncompensated"]
    compensated = _table(tables, "fig3_visibility")
    baseline = _table(tables, "fig3_visibility_uncompensated")
    assert len(compensated.rows) == 20
    assert np.all(np.abs(_column(compensated, "V") - 1.0) <= 1e-9)
    vis = _column(baseline, "V")
    assert np.all(np.diff(vis) < 0.0)  # strictly decreasing
    assert vis[0] > 0.99
    assert vis[-1] < 0.2
    # visibility equals concurrence for symmetric windows
    conc = _column(baseline, "concurrence")
    assert np.max(np.abs(vis - conc)) < 1e-8
    # crossed counts never exceed parallel ones
    assert np.all(_column(baseline, "C_pm_arb")
                  <= _column(baseline, "C_pp_arb"))
    # the closed form |M1| / M0 is the Wootters concurrence of the window
    bare = sp.SourceConfig(production=spec.source.production,
                           pump_wavelength=spec.source.pump_wavelength)
    for table, config in ((compensated, spec.source), (baseline, bare)):
        halfwidths = sp.external_to_internal_angle(
            _column(table, "halfwidth_ext_rad"), spec.geometry, spec.source)
        wootters = [sp.concurrence(sp.aperture_density_matrix(
            sp.AngularWindow(0.0, float(h)), config)) for h in halfwidths]
        assert np.max(np.abs(_column(table, "concurrence") - wootters)) \
            <= 1e-14


def test_sweep_rejects_a_non_positive_state(monkeypatch):
    # |M1| > M0 would give the averaged state a negative eigenvalue
    from spdcpol import measurement

    def kernel(center, halfwidths, envelope_slope, phase_slopes):
        ones = np.ones((len(phase_slopes), len(halfwidths)))
        return measurement._Moments(ones, 0.0 * ones, 1e-4 * ones,
                                    0.0 * ones)
    monkeypatch.setattr(measurement, "_window_moments", kernel)
    with pytest.raises(sp.StateInvariantError):
        sp.run_scenario(sp.load_scenario("fig3"))


def test_sweep_is_one_kernel_call_per_sweep(monkeypatch):
    # the uncompensated baseline shares the production crystal and the
    # compensated table's kernel call
    from spdcpol import biphoton, measurement
    spec = sp.load_scenario("fig3")
    calls = {"kernel": 0, "cut_solve": 0}

    def counted(key, func):
        def wrapper(*args):
            calls[key] += 1
            return func(*args)
        return wrapper
    monkeypatch.setattr(measurement, "_window_moments",
                        counted("kernel", measurement._window_moments))
    monkeypatch.setattr(biphoton, "phase_matching_cut_angle",
                        counted("cut_solve",
                                biphoton.phase_matching_cut_angle))
    assert len(sp.run_scenario(spec)) == 2
    assert calls == {"kernel": 1, "cut_solve": 0}


def test_sweep_kernel_reports_its_errors_and_panels(monkeypatch):
    # fig3's one kernel call reports every window's error against M0, and
    # integrates its widest window's panels and at most two more slices
    # per window and the center's
    from spdcpol import measurement
    spec = sp.load_scenario("fig3")
    reports, slices = [], []
    kernel, integrands = measurement._window_moments, measurement._integrands

    def reporting(*args):
        reports.append(kernel(*args))
        return reports[-1]

    def spy(lefts, *args):
        slices.append(len(lefts))
        return integrands(lefts, *args)
    monkeypatch.setattr(measurement, "_window_moments", reporting)
    monkeypatch.setattr(measurement, "_integrands", spy)
    sp.run_scenario(spec)
    [report] = reports
    points = spec.visibility.points
    assert report.error.shape == (2, points)
    assert 0.0 < report.error.max() <= measurement.QUAD_TOL
    # with room to spare, so a cheaper rule cannot quietly eat the margin
    assert report.error.max() <= 1e-3 * measurement.QUAD_TOL
    center, widest, slopes = scenario._sweep(spec)
    widest = measurement._panel_count(center, widest * points / points,
                                      measurement._panel_step(
                                          spec.source.envelope_slope, slopes))
    assert len(slices) == 1
    assert widest <= slices[0] <= widest + 2 * points + 2


def test_sweep_outside_the_domain_is_refused_at_run():
    # a hand-built spec meets the load's fence when it is built
    spec = sp.load_scenario("fig3")
    with pytest.raises(ValueError, match="supported range"):
        dataclasses.replace(spec, visibility=dataclasses.replace(
            spec.visibility, max_halfwidth_ext=0.2))


def _fig3_internal(widest, points, spec=None):
    # fig3 with an ambient index of n_o: internal angles are the external
    # ones, so max_halfwidth_ext is the internal widest halfwidth itself
    spec = spec or sp.load_scenario("fig3")
    return dataclasses.replace(
        spec, geometry=dataclasses.replace(
            spec.geometry, ambient_index=spec.source.ordinary_index),
        visibility=dataclasses.replace(
            spec.visibility, max_halfwidth_ext=widest, points=points))


def test_the_fence_checks_the_windows_the_run_integrates():
    # widest 0.1 of 3 windows runs its last as 0.1 * 3 / 3, one ulp beyond
    # the domain edge that the widest itself meets
    assert scenario._sweep(_fig3_internal(0.1, 1))[1] == 0.1
    with pytest.raises(ValueError, match="window reaches") as info:
        _fig3_internal(0.1, 3)
    assert info.value.key == "max_halfwidth_mrad"


@settings(max_examples=40, deadline=None)
@given(widest=st.floats(1e-6, 0.1),
       points=st.integers(1, scenario.MAX_POINTS))
def test_the_fence_reads_the_runs_first_and_last_halfwidth(widest, points):
    # Bit for bit: the halfwidth the fence counts panels on is the run's
    # last, and the fence refuses exactly the sweeps whose last window
    # leaves the domain. A fence reading the widest itself fails both.
    fenced, run = [], []

    def panel_count(center, halfwidth, step):
        fenced.append(halfwidth)
        return 1

    def sweep_columns(center, halfwidths, envelope_slope, phase_slopes):
        run.append(halfwidths)
        return np.zeros((4, len(phase_slopes), halfwidths.size))
    fig3 = sp.load_scenario("fig3")
    internal = sp.external_to_internal_angle(
        widest, dataclasses.replace(
            fig3.geometry, ambient_index=fig3.source.ordinary_index),
        fig3.source)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario, "_panel_count", panel_count)
        patch.setattr(scenario, "_sweep_columns", sweep_columns)
        try:
            spec = _fig3_internal(widest, points, fig3)
        except ValueError:
            last = (internal * np.arange(1, points + 1) / points)[-1]
            assert last > scenario.MAX_SUPPORTED_ANGLE
            return
        sp.run_scenario(spec)
    [halfwidths] = run
    assert scenario._sweep(spec)[1] == internal
    assert fenced == [halfwidths[-1]]
    assert internal / points == halfwidths[0]


def test_scan_outside_the_domain_is_refused_at_run():
    # a hand-built scan meets the same fence as a loaded one, when built:
    # scan edge plus pinhole half-width
    spec = sp.load_scenario("fig2a")
    with pytest.raises(ValueError, match="supported range"):
        dataclasses.replace(spec, scan=dataclasses.replace(
            spec.scan, theta_ext_min=-2.0, theta_ext_max=2.0))
    h = scenario._pinhole_halfwidth(spec.geometry, spec.source)
    edge = sp.internal_to_external_angle(scenario.MAX_SUPPORTED_ANGLE - 2 * h,
                                         spec.geometry, spec.source)
    near = dataclasses.replace(spec, scan=dataclasses.replace(
        spec.scan, theta_ext_min=-edge, theta_ext_max=0.0))
    assert len(sp.run_scenario(near)) == 2
    with pytest.raises(ValueError, match="supported range"):
        dataclasses.replace(near, geometry=dataclasses.replace(
            spec.geometry,
            pinhole_diameter=4.0 * spec.geometry.pinhole_diameter))


def test_a_hand_built_sweep_beyond_the_panel_limit_is_refused_when_built(
        tmp_path):
    # a bare 300 mm source: a 1 mrad sweep fits, the whole domain needs
    # 9650 panels, more than the kernel takes in one window
    text = ("[source]\nmaterial = bbo\npump_wavelength_nm = 351.1\n"
            "length_mm = 300\n\n[geometry]\nlens_focal_length_mm = 500\n\n"
            "[visibility]\npoints = 1\nmax_halfwidth_mrad = 1\n")
    spec = _load_text(tmp_path, text)
    with pytest.raises(ValueError, match="supported range") as info:
        dataclasses.replace(spec, visibility=dataclasses.replace(
            spec.visibility, max_halfwidth_ext=0.166))
    assert "needs 9650 panels" in str(info.value)
    assert not isinstance(info.value, sp.SpdcpolError)


def test_a_hand_built_window_with_no_float_width_is_refused_when_built():
    # a sweep of no windows meets the points rule before any window
    spec = sp.load_scenario("fig3")
    for change, message in (
            ({"center_ext": 0.1, "max_halfwidth_ext": 1e-20},
             "no width in floating point"),
            ({"points": 0}, "visibility sweep needs 1 to 100000 points")):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(spec, visibility=dataclasses.replace(
                spec.visibility, **change))


def _part(spec, part, **change):
    # spec with fields of one of its parts (scan, visibility, counts) changed
    return dataclasses.replace(spec, **{part: dataclasses.replace(
        getattr(spec, part), **change)})


@pytest.mark.parametrize("change, message", [
    (lambda s: dataclasses.replace(s, name="../escaped"),
     "must be a plain file name"),
    (lambda s: dataclasses.replace(s, seed=-1), "seed must be >= 0"),
    (lambda s: dataclasses.replace(s, bell_max_order=0),
     r"bell_max_order must lie in \[1, 100000\]"),
    (lambda s: dataclasses.replace(s, seed=1.5),
     "seed must be an integer, got 1.5"),
    (lambda s: dataclasses.replace(s, seed=True),
     "seed must be an integer, got True"),
    (lambda s: dataclasses.replace(s, bell_max_order=2.5),
     "bell_max_order must be an integer, got 2.5"),
    (lambda s: dataclasses.replace(s, bell_max_order=True),
     "bell_max_order must be an integer, got True"),
    (lambda s: _part(s, "scan", points=1), "scan needs 2 to 100000 points"),
    (lambda s: _part(s, "scan", theta_ext_min=s.scan.theta_ext_max),
     "theta_ext_min_mrad must be below theta_ext_max_mrad"),
    (lambda s: _part(s, "scan",
                     settings_deg=((45.0, 45.0), (45.0000001, 45.0))),
     "share the table label '45_45'"),
    (lambda s: _part(s, "scan", settings_deg=()),
     "settings_deg needs at least one pair"),
    (lambda s: _part(s, "scan", settings_deg=((math.nan, 45.0),)),
     "settings_deg values must be finite numbers, got 'nan 45.0'"),
    (lambda s: _part(s, "scan", points=2.5),
     "scan points must be an integer, got 2.5"),
    (lambda s: _part(s, "visibility", points=100_001),
     "visibility sweep needs 1 to 100000 points"),
    (lambda s: _part(s, "visibility", points=True),
     "visibility sweep points must be an integer, got True"),
    (lambda s: _part(s, "visibility", max_halfwidth_ext=-1e-3),
     "max_halfwidth_mrad must be > 0"),
    (lambda s: dataclasses.replace(s, scan=None), r"needs a \[scan\] section"),
    (lambda s: _part(s, "counts", peak_rate=-1.0),
     "peak_rate_hz must be >= 0"),
    (lambda s: _part(s, "counts", duration=1e60), r"exceeds 2\*\*53"),
], ids=["name", "seed", "bell_max_order", "seed_float", "seed_bool",
        "bell_max_order_float", "bell_max_order_bool", "scan_points",
        "scan_edges", "settings_label", "settings_empty", "settings_nan",
        "scan_points_float", "visibility_points", "visibility_points_bool",
        "max_halfwidth", "counts_without_scan", "counts_rate", "counts_mean"])
def test_a_hand_built_spec_obeys_every_loader_rule(tmp_path, change, message):
    # each rule a scenario file meets holds for a hand-built spec, when it
    # is built, so nothing runs and nothing is written, inside --out or not
    path = tmp_path / "scenario.cfg"
    path.write_text(COUNTS + "\n[visibility]\npoints = 2\n"
                             "max_halfwidth_mrad = 1\n")
    spec = sp.load_scenario(path)
    with pytest.raises(ValueError, match=message) as info:
        for table in sp.run_scenario(change(spec)):
            sp.write_table(table, tmp_path / "out")
    assert not isinstance(info.value, sp.SpdcpolError)
    assert list(tmp_path.rglob("*")) == [path]


@pytest.mark.parametrize("preset, part, change, key", [
    ("fig2a", "scan", {"points": 2.5}, "points"),
    ("fig2a", "scan", {"points": True}, "points"),
    ("fig2a", "scan", {"points": np.int64(11)}, "points"),
    ("fig2a", "scan", {"settings_deg": ((45.0, 45.0), (45.0, -math.inf))},
     "settings_deg"),
    ("fig3", "visibility", {"points": 2.5}, "points"),
    ("fig3", "visibility", {"points": False}, "points"),
], ids=["scan_float", "scan_bool", "scan_int64", "settings_inf",
        "sweep_float", "sweep_bool"])
def test_points_must_be_ints_and_angles_finite_at_their_key(preset, part,
                                                            change, key):
    # fig2a once ran into np.linspace's TypeError at points=2.5, and fig3
    # swept 3 windows reaching 1.2 x max_halfwidth; a nan pair once ran
    spec = sp.load_scenario(preset)
    with pytest.raises(ValueError) as info:
        _part(spec, part, **change)
    assert (info.value.section, info.value.key) == (part, key)


def test_visibility_explicit_halfwidth(tmp_path):
    text = BASE + "\n[visibility]\npoints = 3\nmax_halfwidth_mrad = 2.0\n"
    spec = _load_text(tmp_path, text)
    tables = sp.run_scenario(spec)
    vis_table = _table(tables, "demo_visibility")
    halfwidths = _column(vis_table, "halfwidth_ext_rad")
    assert halfwidths[-1] == pytest.approx(2e-3, rel=1e-12)
    assert len(halfwidths) == 3


# ------------------------------------------------------------- run: counts

COUNTS = BASE + """
[counts]
duration_s = 1.0
peak_rate_hz = 1000
accidental_rate_hz = 10
"""


def test_counts_tables_deterministic(tmp_path):
    spec = _load_text(tmp_path, COUNTS)
    tables_a = sp.run_scenario(spec)
    tables_b = sp.run_scenario(spec)
    counts_a = _table(tables_a, "demo_counts_45_45")
    counts_b = _table(tables_b, "demo_counts_45_45")
    assert counts_a.rows == counts_b.rows
    true_rates = _column(counts_a, "true_rate_hz")
    rates = _column(_table(tables_a, "demo_scan_45_45"), "rate_arb")
    assert true_rates == pytest.approx(1000.0 * rates, rel=1e-12)
    assert np.all(_column(counts_a, "counts") >= 0)


def test_counts_change_with_seed(tmp_path):
    rows_a = _table(sp.run_scenario(_load_text(tmp_path, COUNTS, seed=1)),
                    "demo_counts_45_45").rows
    rows_b = _table(sp.run_scenario(_load_text(tmp_path, COUNTS, seed=2)),
                    "demo_counts_45_45").rows
    assert rows_a != rows_b


def test_counts_without_a_scan_exit_2_at_the_counts_line(tmp_path, capsys):
    # counts are drawn from the scan rates, so [counts] needs a [scan]
    path = tmp_path / "scenario.cfg"
    path.write_text(COUNTS.replace(
        "[scan]\ntheta_ext_min_mrad = -2\ntheta_ext_max_mrad = 2\n"
        "points = 11\nsettings_deg = 45 45\n",
        "[visibility]\npoints = 2\n"))
    with pytest.raises(sp.ConfigError, match=r"needs a \[scan\]") as info:
        sp.load_scenario(path)
    assert info.value.line == 15
    out = tmp_path / "out"
    for argv in (["run", str(path), "--out", str(out)],
                 ["bell-angles", str(path), "--state", "psi+"]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"{path}:15:" in err
        assert "Traceback" not in err
    assert not out.exists()


def test_an_exact_repeated_pair_gives_each_table_once(tmp_path):
    # each counts table draws from (seed, table index): a repeated pair once
    # gave a second, different counts table under the same name
    def run(settings):
        return sp.run_scenario(_load_text(tmp_path, COUNTS.replace(
            "settings_deg = 45 45", f"settings_deg = {settings}")))

    tables = run("45 45; 45 -45; 45 45")
    names = [table.name for table in tables]
    assert len(names) == 4
    assert len(set(names)) == 4
    assert tables == run("45 45; 45 -45")


def test_run_tables_share_one_csv_text_memo(tmp_path):
    text = BASE.replace("settings_deg = 45 45",
                        "settings_deg = 45 45; 45 -45; 0 90") + """
[counts]
duration_s = 2.5
peak_rate_hz = 1000
accidental_rate_hz = 10
"""
    spec = _load_text(tmp_path, text)
    tables = sp.run_scenario(spec)
    assert len(tables) == 6
    texts = [to_csv(table) for table in tables]
    for table, csv_text in zip(tables, texts):
        assert csv_text == ",".join(table.columns) + "\n" + "".join(
            ",".join(map(format_cell, row)) + "\n" for row in table.rows)
    out = tmp_path / "out"
    assert cli.main(["run", str(tmp_path / "scenario.cfg"), "--out",
                     str(out)]) == 0
    for table, csv_text in zip(tables, texts):
        assert (out / f"{table.name}.csv").read_bytes() == csv_text.encode()
    memo = tables[0]._float_text
    assert all(table._float_text is memo for table in tables)
    # theta_ext, theta_int, envelope and phase once, a rate and a true
    # rate per settings pair, the accidental rate and the duration
    assert len(memo) == 4 + 3 + 3 + 2


# ------------------------------------------------------------- bell angles

def test_bell_angles_fig2c_table():
    spec = sp.load_scenario("fig2c")
    table = sp.list_bell_angles(spec, sp.BellState.PSI_MINUS)
    assert table.columns == ("theta_int_rad", "theta_ext_rad", "envelope")
    envelopes = _column(table, "envelope")
    assert envelopes[0] == pytest.approx(0.9003, abs=1e-3)
    assert envelopes[1] == pytest.approx(0.3001, abs=1e-3)
    theta_int = _column(table, "theta_int_rad")
    theta_ext = _column(table, "theta_ext_rad")
    n_o = sp.index_ordinary(spec.source.production.material, 702e-9)
    assert theta_ext == pytest.approx(theta_int * n_o, rel=1e-12)


def test_bell_angles_fig2a_psi_plus_starts_on_axis():
    table = sp.list_bell_angles(sp.load_scenario("fig2a"),
                                sp.BellState.PSI_PLUS)
    assert table.rows[0][0] == 0.0
    assert table.rows[0][2] == 1.0


PSI_PLUS_FLAT = "state is uniform across the line-shape: Psi+ everywhere"
PSI_MINUS_FLAT = ("state is uniform, no such angle: the compensated phase "
                  "law is identically zero, Psi- never appears")


def test_bell_angles_on_a_flat_law(capsys):
    # fig3's source is compensated: Psi+ lists theta = 0, Psi- nothing;
    # each carries its note, and the CLI prints the empty table
    spec = sp.load_scenario("fig3")
    plus = sp.list_bell_angles(spec, sp.BellState.PSI_PLUS)
    assert (plus.name, plus.rows, plus.note) == (
        "fig3_bell_psi_plus", [(0.0, 0.0, 1.0)], PSI_PLUS_FLAT)
    minus = sp.list_bell_angles(spec, sp.BellState.PSI_MINUS)
    assert (minus.name, minus.rows, minus.note) == (
        "fig3_bell_psi_minus", [], PSI_MINUS_FLAT)
    assert cli.main(["bell-angles", "fig3", "--state", "psi-"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "theta_int_rad,theta_ext_rad,envelope\n"
    assert captured.err == f"note: {PSI_MINUS_FLAT}\n"


def test_bell_angles_fig2b_uniform_notice():
    spec = sp.load_scenario("fig2b")
    table = sp.list_bell_angles(spec, sp.BellState.PSI_MINUS)
    assert table.rows == []
    assert "uniform" in table.note
    plus = sp.list_bell_angles(spec, sp.BellState.PSI_PLUS)
    assert plus.rows == [(0.0, 0.0, 1.0)]
    assert "uniform" in plus.note


# ------------------------------------------------------------- determinism

def test_runs_are_byte_identical():
    spec = sp.load_scenario("fig2a")
    first = [to_csv(t) for t in sp.run_scenario(spec)]
    second = [to_csv(t) for t in sp.run_scenario(sp.load_scenario("fig2a"))]
    assert first == second


def test_emitted_csv_round_trips_exactly():
    tables = sp.run_scenario(sp.load_scenario("fig2a"))
    for table in tables:
        back = from_csv(to_csv(table), name=table.name)
        assert back.columns == table.columns
        assert back.rows == [tuple(row) for row in table.rows]


def test_run_requires_some_output_section(tmp_path):
    text = BASE.replace("[scan]\ntheta_ext_min_mrad = -2\n"
                        "theta_ext_max_mrad = 2\npoints = 11\n"
                        "settings_deg = 45 45\n", "")
    spec = _load_text(tmp_path, text)
    with pytest.raises(sp.ConfigError):
        sp.run_scenario(spec)
    # bell-angles still works on a scan-less scenario
    table = sp.list_bell_angles(spec, sp.BellState.PSI_MINUS)
    assert len(table.rows) == spec.bell_max_order


# -------------------------------------------------- load-time sanity checks

def test_invalid_geometry_is_config_error(tmp_path):
    text = BASE.replace("lens_focal_length_mm = 500",
                        "lens_focal_length_mm = 0")
    with pytest.raises(sp.ConfigError) as info:
        _load_text(tmp_path, text)
    assert "geometry" in str(info.value)


def test_oversized_window_is_config_error(tmp_path):
    text = BASE + "\n[visibility]\npoints = 2\nmax_halfwidth_mrad = 400\n"
    with pytest.raises(sp.ConfigError) as info:
        _load_text(tmp_path, text)
    assert "supported" in str(info.value)


def test_negative_counts_rate_is_config_error(tmp_path):
    # the first negative key, at its own line (the section is line 18)
    for values, key, line in [(("1.0", "-5", "0"), "peak_rate_hz", 20),
                              (("-1.0", "5", "0"), "duration_s", 19),
                              (("1.0", "5", "-0.5"), "accidental_rate_hz", 21),
                              (("-1.0", "-5", "-0.5"), "duration_s", 19),
                              (("1.0", "-5", "-0.5"), "peak_rate_hz", 20)]:
        text = BASE + ("\n[counts]\nduration_s = {}\npeak_rate_hz = {}\n"
                       "accidental_rate_hz = {}\n").format(*values)
        with pytest.raises(sp.ConfigError,
                           match=f"{key} must be >= 0") as info:
            _load_text(tmp_path, text)
        assert info.value.line == line


def test_invalid_compensator_length_is_config_error(tmp_path):
    text = BASE + ("\n[compensator]\nmaterial = bbo\nlength_mm = 0\n"
                   "orientation = compensating\n")
    with pytest.raises(sp.ConfigError) as info:
        _load_text(tmp_path, text)
    assert "compensator" in str(info.value)
    # each crystal fault at its own key's line, not the section's
    lines = text.splitlines()
    assert info.value.line == lines.index("length_mm = 0") + 1
    for bad, good, message in [
            ("length_mm = -1", "cut_angle_deg = 30", "length must be > 0"),
            ("cut_angle_deg = 120", "length_mm = 0.5", "cut angle must lie")]:
        text = BASE + ("\n[compensator]\nmaterial = bbo\norientation = "
                       f"compensating\n{bad}\n{good}\n")
        with pytest.raises(sp.ConfigError, match=message) as info:
            _load_text(tmp_path, text)
        assert info.value.line == text.splitlines().index(bad) + 1
    # the cut angle is refused in the degrees the file gives it
    assert "got 120 deg" in str(info.value)
    assert str(math.radians(120)) not in str(info.value)


def test_source_faults_are_reported_at_their_key(tmp_path):
    # [source] is line 4: material 5, pump_wavelength_nm 6, length_mm 7
    for old, new, line, message in [
            ("pump_wavelength_nm = 351", "pump_wavelength_nm = 100", 6,
             "invalid pump 100 nm for 'bbo': wavelength 100 nm outside"),
            ("pump_wavelength_nm = 351", "pump_wavelength_nm = 600", 6,
             "invalid pump 600 nm for 'bbo': wavelength 1200 nm outside"),
            ("length_mm = 1.0", "length_mm = -1", 7,
             "invalid source crystal: crystal length must be > 0")]:
        with pytest.raises(sp.ConfigError) as info:
            _load_text(tmp_path, BASE.replace(old, new))
        assert info.value.line == line
        assert message in str(info.value)
    # a pump in band that cannot phase-match stays at the material line
    bbo = sp.builtin_materials()["bbo"]
    iso = sp.MaterialRecord("iso", bbo.ordinary, bbo.ordinary, bbo.band)
    with pytest.raises(sp.ConfigError) as info:
        _load_text(tmp_path, BASE.replace("material = bbo", "material = iso"),
                   catalogue={"iso": iso})
    assert info.value.line == 5
    assert "cannot phase-match 'iso' at 351 nm pump" in str(info.value)


def test_non_finite_values_point_at_their_key(tmp_path):
    text = BASE.replace("pump_wavelength_nm = 351", "pump_wavelength_nm = nan")
    with pytest.raises(sp.ConfigError) as info:
        _load_text(tmp_path, text)
    assert info.value.line == 6
    text = BASE + "\n[counts]\nduration_s = nan\npeak_rate_hz = 10\n"
    with pytest.raises(sp.ConfigError) as info:
        _load_text(tmp_path, text)
    assert info.value.line == 19


def test_scan_edges_outside_domain_are_config_errors(tmp_path):
    # 400 mrad external is about 0.24 rad internal in BBO
    for key, line in (("theta_ext_min_mrad", 13), ("theta_ext_max_mrad", 14)):
        sign = "-" if key == "theta_ext_min_mrad" else ""
        text = BASE.replace(f"{key} = {sign}2", f"{key} = {sign}400")
        with pytest.raises(sp.ConfigError) as info:
            _load_text(tmp_path, text)
        assert info.value.line == line
        assert "supported" in str(info.value)
    # the fence adds half the pinhole's internal width to the 2 mrad edge:
    # a 164 mm pinhole behind the 500 mm lens still fits, 165 mm does not,
    # nor does a huge pinhole or a tiny lens
    def with_pinhole(focal_mm, diameter_um):
        return BASE.replace("lens_focal_length_mm = 500",
                            f"lens_focal_length_mm = {focal_mm}\n"
                            f"pinhole_diameter_um = {diameter_um}")
    assert _load_text(tmp_path, with_pinhole(500, 164000)).scan is not None
    for focal_mm, diameter_um in ((500, 165000), (500, 1e60), (1e-20, 1)):
        with pytest.raises(sp.ConfigError) as info:
            _load_text(tmp_path, with_pinhole(focal_mm, diameter_um))
        assert info.value.line == 11
        assert "pinhole" in str(info.value)


def test_sizes_are_capped(tmp_path, capsys):
    from spdcpol.scenario import MAX_POINTS
    text = BASE.replace("points = 11", f"points = {MAX_POINTS + 1}")
    with pytest.raises(sp.ConfigError) as info:
        _load_text(tmp_path, text)
    assert info.value.line == 15
    text = BASE + f"\n[visibility]\npoints = {10**12}\n"
    with pytest.raises(sp.ConfigError) as info:
        _load_text(tmp_path, text)
    assert info.value.line == 19
    text = BASE.replace("name = demo", f"name = demo\nbell_max_order = {10**12}")
    with pytest.raises(sp.ConfigError) as info:
        _load_text(tmp_path, text)
    assert info.value.line == 3
    text = BASE.replace("name = demo", "name = demo\nseed = -1")
    with pytest.raises(sp.ConfigError) as info:
        _load_text(tmp_path, text)
    assert info.value.line == 3
    with pytest.raises(sp.ConfigError):
        _load_text(tmp_path, BASE, seed=-1)
    # a --seed override is no line of the file, even when the file has a
    # seed of its own
    text = BASE.replace("name = demo", "name = demo\nseed = 3")
    with pytest.raises(sp.ConfigError) as info:
        _load_text(tmp_path, text, seed=-1)
    assert info.value.line is None
    assert str(info.value) == "seed must be >= 0, got -1"
    path = tmp_path / "scenario.cfg"
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--seed", "-1"]) == 2
    assert capsys.readouterr().err == ("config error: seed must be >= 0, "
                                       "got -1\n")


def test_a_run_of_too_many_cells_is_refused_at_settings_deg(tmp_path,
                                                           capsys):
    # 5000 distinct pairs of 100 000 points would build 5000 scan tables
    # of 5e8 rows in all; a MAX_POINTS scan of a few pairs still loads
    from spdcpol.scenario import MAX_CELLS, MAX_POINTS
    pairs = "; ".join(f"45 {angle}" for angle in range(5000))
    text = BASE.replace("points = 11", f"points = {MAX_POINTS}").replace(
        "settings_deg = 45 45", f"settings_deg = {pairs}")
    scenario_file = tmp_path / "scenario.cfg"
    scenario_file.write_text(text)
    assert cli.main(["run", str(scenario_file), "--out",
                     str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {scenario_file}:16: 5000 settings "
                          f"pairs of {MAX_POINTS} points")
    assert f"more than the limit of {MAX_CELLS}" in err
    assert [path.name for path in tmp_path.iterdir()] == ["scenario.cfg"]
    few = _load_text(tmp_path, BASE.replace(
        "points = 11", f"points = {MAX_POINTS}").replace(
        "settings_deg = 45 45", "settings_deg = 45 45; 45 -45; 0 90")
        + COUNTS[len(BASE):] + "\n[visibility]\npoints = 100000\n"
        "compare_uncompensated = true\n")
    assert len(few.scan.settings_deg) == 3
    # the same shape built by hand, and one pair fewer than the bound holds
    wide = tuple((45.0, float(angle)) for angle in range(5000))
    with pytest.raises(ValueError, match="5000 settings pairs") as info:
        _part(few, "scan", settings_deg=wide)
    assert (info.value.section, info.value.key) == ("scan", "settings_deg")
    other = 3 * few.bell_max_order + 2 * 5 * MAX_POINTS
    fits = (MAX_CELLS - other) // (11 * MAX_POINTS)
    assert _part(few, "scan", settings_deg=wide[:fits]).scan.points == \
        MAX_POINTS
    with pytest.raises(ValueError, match=f"{fits + 1} settings pairs"):
        _part(few, "scan", settings_deg=wide[:fits + 1])


def test_sub_resolution_window_is_config_error(tmp_path):
    text = BASE + ("\n[visibility]\npoints = 3\ncenter_mrad = 1\n"
                   "max_halfwidth_mrad = 1e-20\n")
    with pytest.raises(sp.ConfigError) as info:
        _load_text(tmp_path, text)
    assert info.value.line == 21
    # the same width on axis is a window
    assert _load_text(tmp_path, text.replace("center_mrad = 1",
                                             "center_mrad = 0")).visibility


def test_oversized_count_mean_is_config_error(tmp_path):
    for duration in ("1e60", "1e13"):
        text = COUNTS.replace("duration_s = 1.0", f"duration_s = {duration}")
        with pytest.raises(sp.ConfigError) as info:
            _load_text(tmp_path, text)
        assert info.value.line == 19
        assert "2**53" in str(info.value)
    # (1000 + 10) * 8e12 is just below 2**53 and still runs
    text = COUNTS.replace("duration_s = 1.0", "duration_s = 8e12")
    counts = _column(_table(sp.run_scenario(_load_text(tmp_path, text)),
                            "demo_counts_45_45"), "counts")
    assert counts.max() < 2.0 ** 53


# ----------------------------------------------------- the section table

COMPENSATOR = """
[compensator]
material = bbo
length_mm = {length}
orientation = {orientation}
"""


def test_repeated_section_is_reported_at_its_own_line(tmp_path):
    text = BASE + "\n[scan]\npoints = 3\n"
    with pytest.raises(sp.ConfigError) as info:
        _load_text(tmp_path, text)
    assert "duplicate section [scan]" in str(info.value)
    assert info.value.line == text.splitlines().index("[scan]", 13) + 1


def test_compensator_sections_add_their_phase_contributions(tmp_path):
    def source(*placements):
        return _load_text(tmp_path, BASE + "".join(
            COMPENSATOR.format(length=length, orientation=orientation)
            for length, orientation in placements)).source

    bare = source().phase_slope
    first = source(("0.2", "compensating")).phase_slope - bare
    second = source(("0.3", "anticompensating")).phase_slope - bare
    both = source(("0.2", "compensating"), ("0.3", "anticompensating"))
    assert [p.orientation for p in both.compensators] == [
        sp.Orientation.COMPENSATING, sp.Orientation.ANTICOMPENSATING]
    assert [p.crystal.length for p in both.compensators] == [0.2e-3, 0.3e-3]
    assert first < 0.0 < second
    assert both.phase_slope == pytest.approx(bare + first + second,
                                             rel=1e-12)


def test_unknown_key_in_a_repeated_compensator_is_reported_at_its_line(
        tmp_path):
    text = (BASE + COMPENSATOR.format(length="0.2", orientation="compensating")
            + COMPENSATOR.format(length="0.3", orientation="compensating")
            + "colour = red\n")
    with pytest.raises(sp.ConfigError) as info:
        _load_text(tmp_path, text)
    assert "unknown key 'colour' in [compensator]" in str(info.value)
    assert info.value.line == text.splitlines().index("colour = red") + 1


def test_scenario_section_is_optional(tmp_path):
    path = tmp_path / "headless.cfg"
    path.write_text(BASE.replace("[scenario]\nname = demo\n", ""))
    spec = sp.load_scenario(path)
    assert (spec.name, spec.seed, spec.bell_max_order) == ("headless", 0, 8)


def test_a_custom_catalogue_resolves_the_scenario_materials(tmp_path):
    # the bundled BBO record under a name only this catalogue knows
    record = dataclasses.replace(sp.builtin_materials()["bbo"], name="eimerl")
    text = BASE.replace("material = bbo", "material = eimerl") + """
[compensator]
material = eimerl
length_mm = 0.5
orientation = compensating
"""
    spec = _load_text(tmp_path, text, catalogue={"eimerl": record})
    production = spec.source.production
    assert production.material is record
    assert spec.source.compensators[0].crystal.material is record
    assert production.cut_angle == sp.phase_matching_cut_angle(record,
                                                               351e-9)
    with pytest.raises(sp.ConfigError) as info:
        _load_text(tmp_path, text)
    assert "eimerl" in str(info.value)
    assert info.value.line == 5  # the [source] material line


def test_a_compensator_outside_its_band_is_refused_at_its_section(tmp_path):
    # its walk-off B is read at the degenerate wavelength, 702 nm here
    bbo = sp.builtin_materials()["bbo"]
    short = dataclasses.replace(bbo, name="short", band=(0.3e-6, 0.6e-6))
    text = BASE + COMPENSATOR.format(length="0.5", orientation="compensating")
    text = text.replace("material = bbo\nlength_mm = 0.5",
                        "material = short\nlength_mm = 0.5")
    with pytest.raises(sp.ConfigError) as info:
        _load_text(tmp_path, text, catalogue={"bbo": bbo, "short": short})
    assert "invalid compensator crystal: wavelength 702 nm" in str(info.value)
    assert info.value.line == text.splitlines().index("[compensator]") + 1


def test_the_first_refused_crystal_in_beam_order_is_blamed(tmp_path):
    # compensator 1 overflows the phase slope and compensator 2 is read out
    # of its band: the load names compensator 1, with its own refusal
    bbo = sp.builtin_materials()["bbo"]
    short = dataclasses.replace(bbo, name="short", band=(0.3e-6, 0.6e-6))
    text = (BASE
            + COMPENSATOR.format(length="1e308", orientation="compensating")
            + COMPENSATOR.format(length="0.5", orientation="compensating")
            .replace("material = bbo", "material = short"))
    with pytest.raises(sp.ConfigError) as info:
        _load_text(tmp_path, text, catalogue={"bbo": bbo, "short": short})
    assert "crystal too long" in str(info.value)
    assert info.value.line == text.splitlines().index("length_mm = 1e308") + 1


def test_a_scenario_load_checks_no_dispersion_data(monkeypatch):
    # The catalogue record was checked when builtin_materials() read it: a
    # load evaluates only the indices the physics needs (7 for a bare
    # source, 9 with a compensator; 4 fewer when the cut solve's memo
    # already holds the pump), not the 33-point band sampling.
    sp.builtin_materials()
    calls = []
    index = sp.SellmeierCoefficients.index

    def counted(self, wavelength_um):
        calls.append(wavelength_um)
        return index(self, wavelength_um)

    monkeypatch.setattr(sp.SellmeierCoefficients, "index", counted)
    for name in sp.PRESETS:
        calls.clear()
        sp.load_scenario(name)
        assert len(calls) <= 9, name


def test_a_scenario_load_solves_its_cut_once(monkeypatch):
    # load_scenario and the SourceConfig it builds both ask for the cut;
    # the second ask is the memo's, so the root is bracketed once.
    from spdcpol import crystal
    crystal.phase_matching_cut_angle.cache_clear()
    roots = []
    bracketed = crystal._bracketed_root

    def counted(*args, **kwargs):
        roots.append(bracketed(*args, **kwargs))
        return roots[-1]

    monkeypatch.setattr(crystal, "_bracketed_root", counted)
    spec = sp.load_scenario("fig2a")
    assert roots == [0.8538525780754935]
    assert spec.source.production.cut_angle == roots[0]


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_a_scenario_file_loads_the_same_with_any_line_ending(tmp_path,
                                                              newline):
    # The file is read as bytes, so parse_config's folding of \r\n and \r
    # is the one newline handling a file gets: the same spec as the \n
    # twin, and the same line for a bad value.
    text = scenario.preset_text("fig2b")
    assert "\r" not in text
    lines = text.splitlines()
    bad_line = lines.index("length_mm = 1.0") + 1
    for kind, body in (("good", text),
                       ("bad", text.replace("length_mm = 1.0",
                                            "length_mm = one"))):
        paths = {}
        for ending, name in (("\n", "lf"), (newline, "other")):
            paths[ending] = tmp_path / name / f"{kind}.cfg"
            paths[ending].parent.mkdir(exist_ok=True)
            paths[ending].write_bytes(body.replace("\n", ending).encode())
        if kind == "good":
            assert sp.load_scenario(paths[newline]) == sp.load_scenario(
                paths["\n"])
            continue
        messages = []
        for ending, path in paths.items():
            with pytest.raises(sp.ConfigError) as info:
                sp.load_scenario(path)
            assert info.value.line == bad_line
            assert str(info.value).startswith(f"{path}:{bad_line}: ")
            messages.append(str(info.value).removeprefix(str(path)))
        assert messages[0] == messages[1]


def test_a_scenario_load_builds_one_crystal_per_slab(monkeypatch):
    # The cut is solved on the material record: no crystal is built for it.
    built = []
    check = sp.UniaxialCrystal.__post_init__

    def counted(self):
        built.append(self)
        return check(self)

    monkeypatch.setattr(sp.UniaxialCrystal, "__post_init__", counted)
    for name, slabs in (("fig2a", 1), ("fig2b", 2), ("fig2c", 2),
                        ("fig3", 2)):
        built.clear()
        sp.load_scenario(name)
        assert len(built) == slabs, name


def test_scenario_docstring_lists_every_section_key():
    # Each "[section]" line of the module docstring, with its indented
    # continuation lines, must name every key the loader accepts there.
    blocks = {name: set(re.findall(r"\w+", body)) for name, body in
              re.findall(r"^    \[(\w+)\](.*(?:\n {6,}\S.*)*)",
                         scenario.__doc__, re.MULTILINE)}
    assert set(blocks) == set(scenario._SECTION_KEYS)
    for name, keys in scenario._SECTION_KEYS.items():
        assert keys <= blocks[name], (name, keys - blocks[name])

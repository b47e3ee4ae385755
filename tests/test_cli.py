import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spdcpol
import spdcpol.cli as cli
from spdcpol.errors import (PhaseMatchingError, QuadratureError,
                            StateInvariantError)


def test_run_preset_writes_csv(tmp_path, capsys):
    code = cli.main(["run", "fig2a", "--out", str(tmp_path)])
    assert code == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["fig2a_scan_45_-45.csv", "fig2a_scan_45_45.csv"]
    header = (tmp_path / "fig2a_scan_45_45.csv").read_text().splitlines()[0]
    assert header == "theta_ext_rad,theta_int_rad,envelope,phase_rad,rate_arb"
    out = capsys.readouterr().out
    assert "wrote" in out


def test_run_json_format(tmp_path):
    code = cli.main(["run", "fig2a", "--out", str(tmp_path), "--format",
                     "json"])
    assert code == 0
    payload = json.loads((tmp_path / "fig2a_scan_45_45.json").read_text())
    assert payload["columns"][0] == "theta_ext_rad"
    assert len(payload["rows"]) == 321


def test_run_same_seed_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["run", "fig3", "--out", str(out_a), "--seed", "5"]) == 0
    assert cli.main(["run", "fig3", "--out", str(out_b), "--seed", "5"]) == 0
    for path_a in sorted(out_a.iterdir()):
        path_b = out_b / path_a.name
        assert path_a.read_bytes() == path_b.read_bytes()


def test_main_calls_share_no_state(monkeypatch, tmp_path):
    seen = []

    def spy(command):
        def record(args):
            seen.append(vars(args).copy())
            return command(args)
        return record
    monkeypatch.setattr(cli, "_cmd_run", spy(cli._cmd_run))
    monkeypatch.setattr(cli, "_cmd_bell_angles", spy(cli._cmd_bell_angles))
    out = str(tmp_path)
    plain_run = {"command": "run", "spec": "fig2a", "out": out,
                 "format": "csv", "seed": None}
    for argv in (["run", "fig2a", "--out", out, "--seed", "5"],
                 ["run", "fig2a", "--out", out],
                 ["bell-angles", "fig2a", "--state", "psi-", "--out", out],
                 ["run", "fig2a", "--out", out]):
        assert cli.main(argv) == 0
    assert seen == [{**plain_run, "seed": 5}, plain_run,
                    {"command": "bell-angles", "spec": "fig2a",
                     "state": "psi-", "out": out, "format": "csv"},
                    plain_run]


def test_bell_angles_takes_no_seed(capsys):
    # a Bell table never reads the seed
    assert cli.main(["bell-angles", "fig2a", "--state", "psi+",
                     "--seed", "1"]) == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_a_usage_error_after_a_run_still_exits_2_with_usage(tmp_path,
                                                            capsys):
    # a good call leaves nothing behind for the next one
    assert cli.main(["run", "fig2a", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for argv in (["run", "fig2a", "--format", "xml"], ["run"], []):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: spdcpol")
        assert captured.out == ""


def test_run_unknown_spec_exits_2(tmp_path, capsys):
    code = cli.main(["run", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "below_a_file", "over_long"])
def test_a_spec_that_opens_no_file_exits_2(tmp_path, capsys, kind):
    # no file and no preset of that name, or a path the system refuses
    # outright: a name of 5000 bytes is beyond NAME_MAX (ENAMETOOLONG)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    spec, message = {
        "missing": (str(tmp_path / "nope.cfg"), "is neither an existing "
                                                "file nor a preset"),
        "below_a_file": (str(blocker / "x.cfg"), "is neither an existing "
                                                 "file nor a preset"),
        "over_long": (str(tmp_path / ("a" * 5000)), "cannot read scenario: "),
    }[kind]
    assert cli.main(["run", spec, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert len(err.splitlines()) == 1
    assert sorted(path.name for path in tmp_path.iterdir()) == ["blocker"]


def test_an_over_long_spec_path_has_no_traceback():
    run = _run_console_script("spdcpol.cli:main", ["run", "a" * 5000])
    assert run.returncode == 2, run.stderr
    assert "cannot read scenario: " in run.stderr
    assert "Traceback" not in run.stderr


def test_run_bad_material_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("""\
[source]
material = kryptonite
pump_wavelength_nm = 351
length_mm = 1.0

[geometry]
lens_focal_length_mm = 500
""")
    code = cli.main(["run", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "kryptonite" in err
    assert "bad.cfg:2" in err


@pytest.mark.parametrize("error", [QuadratureError, PhaseMatchingError,
                                   StateInvariantError])
def test_numerics_failure_exits_3(monkeypatch, capsys, error):
    # every spdcpol error but a ConfigError is numerical
    def boom(spec):
        raise error("synthetic numerical failure")

    monkeypatch.setattr(cli, "run_scenario", boom)
    code = cli.main(["run", "fig2a"])
    assert code == 3
    assert "numerical error" in capsys.readouterr().err


def test_window_center_outside_domain_exits_2(tmp_path):
    # The default first_singlet halfwidth has no key of its own, so the
    # domain check must name the center that pushed the window out.
    scenario = tmp_path / "offaxis.cfg"
    scenario.write_text("""\
[source]
material = bbo
pump_wavelength_nm = 351
length_mm = 1.0

[geometry]
lens_focal_length_mm = 500

[visibility]
points = 3
center_mrad = 200
""")
    run = _run_console_script("spdcpol.cli:main",
                              ["run", str(scenario), "--out",
                               str(tmp_path / "out")])
    assert run.returncode == 2, run.stderr
    assert f"{scenario}:11:" in run.stderr
    assert "supported" in run.stderr
    assert "Traceback" not in run.stderr


def test_oversized_count_mean_exits_2(tmp_path):
    scenario = tmp_path / "huge.cfg"
    scenario.write_text("""\
[source]
material = bbo
pump_wavelength_nm = 351
length_mm = 1.0

[geometry]
lens_focal_length_mm = 500

[scan]
theta_ext_min_mrad = -2
theta_ext_max_mrad = 2
points = 5
settings_deg = 45 45

[counts]
peak_rate_hz = 1
duration_s = 1e60
""")
    run = _run_console_script("spdcpol.cli:main",
                              ["run", str(scenario), "--out",
                               str(tmp_path / "out")])
    assert run.returncode == 2, run.stderr
    assert f"{scenario}:17:" in run.stderr
    assert "Traceback" not in run.stderr


FUZZ_BASE = """\
[scenario]
name = fuzz
seed = 3
bell_max_order = 4

[source]
material = bbo
pump_wavelength_nm = 351
length_mm = 1.0

[compensator]
material = bbo
length_mm = 0.5
orientation = anticompensating
cut_angle_deg = 49

[geometry]
lens_focal_length_mm = 500
pinhole_diameter_um = 200
ambient_index = 1.0

[scan]
theta_ext_min_mrad = -6
theta_ext_max_mrad = 6
points = 9
settings_deg = 45 45; 45 -45

[visibility]
points = 3
max_halfwidth_mrad = 2
center_mrad = 1
compare_uncompensated = true

[counts]
duration_s = 1.5
peak_rate_hz = 1000
accidental_rate_hz = 5
"""
FUZZ_KEY_LINES = [i for i, line in enumerate(FUZZ_BASE.splitlines())
                  if "=" in line]
HOSTILE = ("nan", "inf", "-1", "0", "1e60", "1e-20", "1e-320", "1e308",
           str(10**12), "abc")


@settings(max_examples=300, deadline=None)
@given(line=st.sampled_from(FUZZ_KEY_LINES), value=st.sampled_from(HOSTILE))
def test_hostile_values_exit_cleanly(line, value):
    lines = FUZZ_BASE.splitlines()
    key = lines[line].partition("=")[0].strip()
    lines[line] = f"{key} = {value}"
    with tempfile.TemporaryDirectory() as directory:
        scenario = Path(directory) / "fuzz.cfg"
        scenario.write_text("\n".join(lines) + "\n")
        code = cli.main(["run", str(scenario), "--out",
                         str(Path(directory) / "out")])
    assert code in (0, 2, 3)


@pytest.mark.parametrize("command", [["run"], ["bell-angles", "--state",
                                               "psi-"]])
@pytest.mark.parametrize("section", ["[source]", "[compensator]"])
def test_an_overflowing_crystal_length_exits_2_at_its_line(tmp_path, capsys,
                                                           section, command):
    # |B| L overflows to inf: the phase law has no finite slope, and the
    # crystal whose length_mm pushed it there is named
    lines = FUZZ_BASE.splitlines()
    line = next(i for i in range(lines.index(section), len(lines))
                if lines[i].startswith("length_mm"))
    lines[line] = "length_mm = 1e308"
    scenario = tmp_path / "long.cfg"
    scenario.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert cli.main([command[0], str(scenario), "--out", str(out),
                     *command[1:]]) == 2
    err = capsys.readouterr().err
    assert f"{scenario}:{line + 1}: crystal too long" in err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"],
                                     ["bell-angles", "--state", "psi+"],
                                     ["bell-angles", "--state", "psi-"]])
@pytest.mark.parametrize("source", ["bare", "anticompensated"])
def test_a_crystal_too_short_for_its_sinc_exits_2_at_its_line(
        tmp_path, capsys, source, command):
    # |B| L / 2 is subnormal: the first sinc zero, the first Bell angle and
    # the window grid step are infinite, and the source length is named
    blocks = FUZZ_BASE.split("\n\n")
    if source == "bare":
        blocks = [b for b in blocks if not b.startswith("[compensator]")]
    lines = "\n\n".join(blocks).splitlines()
    line = lines.index("length_mm = 1.0")
    lines[line] = "length_mm = 1e-320"
    scenario = tmp_path / "thin.cfg"
    scenario.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert cli.main([command[0], str(scenario), "--out", str(out),
                     *command[1:]]) == 2
    err = capsys.readouterr().err
    assert f"{scenario}:{line + 1}: crystal too short" in err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_a_phase_slope_far_beyond_the_envelope_slope_exits_2(tmp_path,
                                                             capsys):
    # k / 2a overflows: with no sinc zero in the domain the window grid
    # follows the phase period, and the load refuses the widest window's
    # panel count at the sweep's halfwidth line (30), for every command
    text = FUZZ_BASE.replace("length_mm = 1.0", "length_mm = 1e-300")
    text = text.replace("length_mm = 0.5", "length_mm = 1e300")
    scenario = tmp_path / "steep.cfg"
    scenario.write_text(text)
    out = tmp_path / "out"
    for argv in (["run", str(scenario), "--out", str(out)],
                 ["bell-angles", str(scenario), "--state", "psi-"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {scenario}:30: the "
                                       f"widest window lies outside the "
                                       f"supported range")
        assert "e+299 panels, more than the limit" in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""
    assert not out.exists()
    # the kernel still refuses the same window for a library call
    scenario.write_text(text.split("[visibility]")[0])
    spec = spdcpol.load_scenario(scenario)
    window = spdcpol.AngularWindow(*(
        spdcpol.external_to_internal_angle(angle, spec.geometry, spec.source)
        for angle in (1e-3, 2e-3)))
    with pytest.raises(QuadratureError, match=r"e\+299 panels, more than"):
        spdcpol.visibility(window, spec.source)


# A bare 300 mm BBO source whose one sweep window spans nearly the whole
# model domain; line 11 is max_halfwidth_mrad.
BIG_SOURCE = """\
[source]
material = bbo
pump_wavelength_nm = 351.1
length_mm = 300

[geometry]
lens_focal_length_mm = 500

[visibility]
points = 1
max_halfwidth_mrad = 166
"""


def test_a_sweep_beyond_the_panel_limit_exits_2_at_its_line(tmp_path,
                                                            capsys):
    # a bare 300 mm source over nearly the whole domain needs 9650 panels,
    # more than the kernel's limit: the load refuses it at the halfwidth
    scenario = tmp_path / "big.cfg"
    scenario.write_text(BIG_SOURCE)
    assert cli.main(["run", str(scenario), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {scenario}:11: the widest window")
    assert "needs 9650 panels, more than the limit of 8192" in err
    assert "Traceback" not in err
    assert [path.name for path in tmp_path.iterdir()] == ["big.cfg"]


@pytest.mark.parametrize("length, state, kept", [
    ("1e-310", "psi+", 2), ("1e-310", "psi-", 2),
    ("3e-310", "psi+", 6), ("3e-310", "psi-", 5)])
def test_bell_angles_beyond_float_range_are_dropped_with_a_note(
        tmp_path, capsys, length, state, kept):
    # the Bell angles of a bare crystal this thin pass 1e307 rad: those
    # whose internal or lab angle overflows are left out, not written as inf
    blocks = [b for b in FUZZ_BASE.split("\n\n")
              if not b.startswith("[compensator]")]
    text = "\n\n".join(blocks).replace("length_mm = 1.0",
                                         f"length_mm = {length}")
    scenario = tmp_path / "thin.cfg"
    scenario.write_text(text.replace("bell_max_order = 4",
                                     "bell_max_order = 8") + "\n")
    assert cli.main(["bell-angles", str(scenario), "--state", state]) == 0
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[1:]
    assert len(rows) == kept
    assert "inf" not in captured.out
    assert captured.err == (f"note: {8 - kept} of the first 8 angles "
                            f"lie beyond float range\n")


@pytest.mark.parametrize("name", [
    "", ".", "..", "../escaped", "a/b", "a\0b",
    *([f"a{os.altsep}b"] if os.altsep else [])])
def test_names_that_are_not_plain_file_names_exit_2(tmp_path, capsys, name):
    # the name prefixes every table file written into --out
    scenario = tmp_path / "named.cfg"
    scenario.write_text(spdcpol.scenario.preset_text("fig2a").replace(
        "name = fig2a", f"name = {name}"), encoding="utf-8")
    line = [text.startswith("name =") for text in
            scenario.read_text(encoding="utf-8").splitlines()].index(True) + 1
    assert cli.main(["run", str(scenario), "--out",
                     str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{scenario}:{line}:" in err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert list(tmp_path.rglob("*")) == [scenario]


def test_a_defaulted_name_is_refused_without_a_line(tmp_path, capsys):
    # without a [scenario] section the name defaults to the file stem, here
    # '.', which no line of the file holds
    scenario = tmp_path / "..cfg"
    text = spdcpol.scenario.preset_text("fig2a")
    scenario.write_text(text[text.index("[source]"):], encoding="utf-8")
    assert cli.main(["run", str(scenario), "--out",
                     str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{scenario}: name '.'" in err
    assert ":0:" not in err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_bell_angles_stdout(capsys):
    columns = ("theta_int_rad", "theta_ext_rad", "envelope")
    assert cli.main(["bell-angles", "fig2c", "--state", "psi-"]) == 0
    table = spdcpol.from_csv(capsys.readouterr().out)
    assert table.columns == columns
    assert len(table.rows) > 0
    assert cli.main(["bell-angles", "fig2c", "--state", "psi-",
                     "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert tuple(payload["columns"]) == columns
    assert [tuple(row) for row in payload["rows"]] == table.rows


def test_bell_angles_uniform_notice(capsys):
    code = cli.main(["bell-angles", "fig2b", "--state", "psi-"])
    assert code == 0
    captured = capsys.readouterr()
    assert "note:" in captured.err
    assert "uniform" in captured.err
    assert spdcpol.from_csv(captured.out).columns == (
        "theta_int_rad", "theta_ext_rad", "envelope")


def _file_fault(kind, tmp_path):
    """argv that meets a file-system fault, and the path it must name."""
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    if kind == "run_out_is_file":
        return ["run", "fig2a", "--out", str(blocker)], blocker
    if kind == "bell_out_is_file":
        return (["bell-angles", "fig2a", "--state", "psi+", "--out",
                 str(blocker)], blocker)
    if kind == "spec_is_directory":
        return ["run", str(tmp_path), "--out", str(tmp_path / "out")], tmp_path
    scenario = tmp_path / "latin1.cfg"
    scenario.write_bytes("[source]\nmaterial = b\xe9b\n".encode("latin-1"))
    return ["run", str(scenario), "--out", str(tmp_path / "out")], scenario


@pytest.mark.parametrize("kind", ["run_out_is_file", "bell_out_is_file",
                                  "spec_is_directory", "spec_not_utf8"])
def test_file_faults_exit_2(tmp_path, capsys, kind):
    argv, path = _file_fault(kind, tmp_path)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert str(path) in err


def test_file_fault_has_no_traceback(tmp_path):
    argv, path = _file_fault("run_out_is_file", tmp_path)
    run = _run_console_script("spdcpol.cli:main", argv)
    assert run.returncode == 2, run.stderr
    assert str(path) in run.stderr
    assert "Traceback" not in run.stderr


def test_bell_angles_to_file(tmp_path):
    code = cli.main(["bell-angles", "fig2a", "--state", "psi+", "--out",
                     str(tmp_path)])
    assert code == 0
    assert (tmp_path / "fig2a_bell_psi_plus.csv").exists()


def test_materials_list(capsys):
    assert cli.main(["materials", "list"]) == 0
    out = capsys.readouterr().out
    assert "bbo" in out
    assert "2.7405" in out


def _declared_console_scripts():
    """``[project.scripts]`` of the checkout's own ``pyproject.toml``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"].get("scripts", {})


def _console_script(target, args, options=(), env_overrides=None):
    """argv and environment that run ``module:attr`` as a console script.

    ``options`` go to the interpreter; ``env_overrides`` to its environment.
    """
    module, attr = target.split(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    package_root = Path(spdcpol.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")]))
    env.update(env_overrides or {})
    return [sys.executable, *options, "-c", code, *args], env


def _run_console_script(target, args, options=(), env_overrides=None,
                        stdout=subprocess.PIPE):
    """Run ``module:attr`` the way a setuptools console script does.

    ``options`` go to the interpreter; ``env_overrides`` to its environment;
    its standard output to ``stdout``, captured by default.
    """
    argv, env = _console_script(target, args, options, env_overrides)
    return subprocess.run(argv, env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def test_entry_point_installed(tmp_path):
    target = _declared_console_scripts().get("spdcpol")
    assert target is not None, "pyproject.toml declares no spdcpol script"
    module, attr = target.split(":")
    assert getattr(importlib.import_module(module), attr) is cli.main

    listed = _run_console_script(target, ["materials", "list"])
    assert listed.returncode == 0, listed.stderr
    assert "bbo" in listed.stdout

    missing = _run_console_script(target,
                                  ["run", str(tmp_path / "nope.cfg")])
    assert missing.returncode == 2
    assert "config error" in missing.stderr
    assert "Traceback" not in missing.stderr

    # Where the package is installed, the installed entry point and script
    # must agree with this checkout's declaration.
    installed = importlib.metadata.entry_points(group="console_scripts",
                                                name="spdcpol")
    for entry in installed:
        assert entry.value == target
    script = shutil.which("spdcpol")
    if script is not None:
        run = subprocess.run([script, "materials", "list"],
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout == listed.stdout


def test_text_is_utf8_whatever_the_locale(tmp_path):
    # Under the C locale without UTF-8 mode the default encoding is ASCII:
    # every read and write of text must name UTF-8 itself.
    scenario = tmp_path / "comment.cfg"
    scenario.write_text(
        "# 0.5 mm BBO compensator \u2014 200 \u00b5m pinhole\n"
        + spdcpol.scenario.preset_text("fig2c").replace("name = fig2c",
                                                         "name = comment"),
        encoding="utf-8")
    strict = dict(options=["-X", "warn_default_encoding",
                           "-W", "error::EncodingWarning"],
                  env_overrides={"PYTHONUTF8": "0", "LC_ALL": "C"})
    for argv in (["run", str(scenario), "--out", str(tmp_path / "out")],
                 ["materials", "list"],
                 ["bell-angles", "fig2a", "--state", "psi-"]):
        run = _run_console_script("spdcpol.cli:main", argv, **strict)
        assert run.returncode == 0, (argv, run.stderr)
    assert (tmp_path / "out" / "comment_scan_45_45.csv").exists()


def test_name_outside_the_file_system_encoding_exits_2(tmp_path):
    # Under the C locale without UTF-8 mode, file names are ASCII: a table
    # named after scenario "café" cannot be written, and that is reported as
    # one configuration error naming the table and the --out directory.
    scenario = tmp_path / "cafe.cfg"
    scenario.write_text(spdcpol.scenario.preset_text("fig2a").replace(
        "name = fig2a", "name = café"), encoding="utf-8")
    out = tmp_path / "out"
    for argv in (["run", str(scenario), "--out", str(out)],
                 ["bell-angles", str(scenario), "--state", "psi-",
                  "--out", str(out)]):
        run = _run_console_script(
            "spdcpol.cli:main", argv,
            env_overrides={"PYTHONUTF8": "0", "LC_ALL": "C"})
        assert run.returncode == 2, (argv, run.stderr)
        assert "Traceback" not in run.stderr
        assert len(run.stderr.splitlines()) == 1
        assert str(out) in run.stderr
        assert "caf" in run.stderr


def test_a_stdout_that_cannot_take_the_output_exits_2(tmp_path):
    # A pipe whose reader is gone (as in `| head -c 0`): one line and exit 2,
    # as for an unwritable --out, with no traceback and no report at exit
    # of the output still buffered.
    for argv in (["bell-angles", "fig2c", "--state", "psi-"],
                 ["materials", "list"],
                 ["run", "fig2a", "--out", str(tmp_path / "out")]):
        reader, writer = os.pipe()
        os.close(reader)
        try:
            run = _run_console_script("spdcpol.cli:main", argv,
                                      stdout=writer)
        finally:
            os.close(writer)
        assert run.returncode == 2, (argv, run.stderr)
        assert run.stderr == ("config error: cannot write to stdout: "
                              "[Errno 32] Broken pipe\n"), argv
    # An ASCII stdout cannot print the path of a table named "é".
    scenario = tmp_path / "accent.cfg"
    scenario.write_text(spdcpol.scenario.preset_text("fig2a").replace(
        "name = fig2a", "name = \u00e9"), encoding="utf-8")
    run = _run_console_script(
        "spdcpol.cli:main",
        ["run", str(scenario), "--out", str(tmp_path / "accent")],
        env_overrides={"PYTHONIOENCODING": "ascii", "PYTHONUTF8": "1"})
    assert run.returncode == 2, run.stderr
    [line] = run.stderr.splitlines()
    assert line.startswith("config error: cannot write to stdout: 'ascii' "
                           "codec can't encode character '\\xe9'")


FULL = ("config error: cannot write to stdout: "
        "[Errno 28] No space left on device\n")
CLOSED = "config error: cannot write to stdout: it is closed\n"
HEADER = "theta_int_rad,theta_ext_rad,envelope\n"  # fig2b's empty Psi- table


@pytest.mark.parametrize(
    "argv, redirect, code, out, err",
    [(["materials", "list"], ">/dev/full", 2, "", FULL),
     (["bell-angles", "fig2c", "--state", "psi-"], ">/dev/full", 2, "", FULL),
     (["bell-angles", "fig2c", "--state", "psi-"], ">&-", 2, "", CLOSED),
     (["run", "fig2a", "--out", "{out}"], ">&-", 2, "", CLOSED),
     (["bell-angles", "fig2b", "--state", "psi-"], "2>&-", 0, HEADER, ""),
     (["bell-angles", "fig2b", "--state", "psi-"], "2>/dev/full", 0, HEADER,
      ""),
     (["run", "nope"], "2>/dev/full", 2, "", ""),
     (["materials", "list"], "| head -1", 0, "bbo: band 0.3-1.1 um\n", ""),
     (["run", "fig2a", "--out", "{out}"], "| head -1", 0,
      "wrote {out}/fig2a_scan_45_45.csv\n", ""),
     (["--help"], ">/dev/full", 2, "", FULL),
     (["--help"], ">&-", 2, "", CLOSED),
     (["--help"], "| head -1", 0,
      "usage: spdcpol [-h] {{run,bell-angles,materials}} ...\n", ""),
     (["bogus"], "2>/dev/full", 2, "", "")],
    ids=["materials_stdout_full", "bell_stdout_full", "bell_stdout_closed",
         "run_stdout_closed", "bell_stderr_closed", "bell_stderr_full",
         "run_error_stderr_full", "materials_head_1", "run_head_1",
         "help_stdout_full", "help_stdout_closed", "help_head_1",
         "usage_error_stderr_full"])
def test_each_stream_fault_has_one_outcome(tmp_path, argv, redirect, code,
                                           out, err):
    # The interpreter runs under sh with one stream redirected, closed
    # before it starts, or read as `| head -1` reads: one line, then gone.
    # Both streams are captured; a redirected one must stay empty. Each case
    # runs with buffered streams and under PYTHONUNBUFFERED, where every
    # write goes straight to the descriptor.
    if "/dev/full" in redirect and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    if shutil.which("sh") is None:
        pytest.skip("no sh to redirect a stream with")
    for unbuffered in ("", "1"):
        out_dir = tmp_path / f"out{unbuffered}"
        command, env = _console_script(
            "spdcpol.cli:main", [arg.format(out=out_dir) for arg in argv])
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        if not redirect.startswith("|"):
            command = ["sh", "-c", f'exec "$@" {redirect}', "sh", *command]
        with subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            if redirect.startswith("|"):
                got_out = proc.stdout.readline()
                proc.stdout.close()
                got_err = proc.stderr.read()
            else:
                got_out, got_err = proc.communicate(timeout=120)
            returncode = proc.wait(timeout=120)
        for text in (got_out, got_err):
            assert (b"Traceback" not in text
                    and b"Exception ignored" not in text), unbuffered
        assert (returncode, got_out, got_err) == (
            code, out.format(out=out_dir).encode(), err.encode()), unbuffered
        if redirect == ">&-":
            assert not out_dir.exists()


def _readme_blocks(language):
    text = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    return [block.split("\n```", 1)[0]
            for block in text.split(f"```{language}\n")[1:]]


def test_readme_examples_run(tmp_path):
    ini_blocks = _readme_blocks("ini")
    assert ini_blocks
    for index, block in enumerate(ini_blocks):
        scenario = tmp_path / f"readme_{index}.cfg"
        scenario.write_text(block, encoding="utf-8")
        out = tmp_path / f"out_{index}"
        assert cli.main(["run", str(scenario), "--out", str(out)]) == 0
        assert any(out.iterdir())
    python_blocks = _readme_blocks("python")
    assert python_blocks
    for block in python_blocks:
        exec(compile(block, "README.md", "exec"), {})

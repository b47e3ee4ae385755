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
from spdcpol.errors import QuadratureError


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
                     "state": "psi-", "out": out, "format": "csv",
                     "seed": None},
                    plain_run]


def test_run_unknown_spec_exits_2(tmp_path, capsys):
    code = cli.main(["run", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


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


def test_numerics_failure_exits_3(monkeypatch, capsys):
    def boom(spec):
        raise QuadratureError("synthetic non-convergence", achieved=1e-6,
                              requested=1e-10)

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
HOSTILE = ("nan", "inf", "-1", "0", "1e60", "1e-20", str(10**12), "abc")


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


def _run_console_script(target, args, options=(), env_overrides=None):
    """Run ``module:attr`` the way a setuptools console script does.

    ``options`` go to the interpreter; ``env_overrides`` to its environment.
    """
    module, attr = target.split(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    package_root = Path(spdcpol.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")]))
    env.update(env_overrides or {})
    return subprocess.run([sys.executable, *options, "-c", code, *args],
                          env=env, capture_output=True, text=True,
                          timeout=120)


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

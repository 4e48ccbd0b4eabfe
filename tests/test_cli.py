"""End-to-end subcommand checks through the installed entry module.

Each test drives ``python -m mcf4d.cli`` in a subprocess with a small config
file, then inspects exit codes, stderr error-class prefixes, and the written
artifacts.
"""

import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "mcf4d.cli", *args],
                          capture_output=True, text=True)


def write_config(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body), encoding="ascii")
    return str(path)


def test_simulate_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path, f"""
        scenario.name = clifford_torus
        scenario.n1 = 16
        scenario.n2 = 16
        controls.dt = 1e-3
        controls.max_steps = 20
        controls.stride = 10
        output.directory = {tmp_path / 'out'}
    """)
    proc = run_cli("simulate", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    assert "step_limit" in proc.stdout
    out = tmp_path / "out"
    assert (out / "timeseries.csv").is_file()
    assert (out / "snapshot_initial.txt").is_file()
    assert (out / "snapshot_final.txt").is_file()
    lines = (out / "timeseries.csv").read_text().splitlines()
    assert len(lines) == 1 + 3                    # header + stored states


def test_simulate_sphere_ode_dispatch(tmp_path):
    cfg = write_config(tmp_path, f"""
        scenario.name = sphere_ode
        scenario.radius = 1.0
        controls.max_steps = 200
        output.directory = {tmp_path / 'out'}
    """)
    proc = run_cli("simulate", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    assert "blowup_detected" in proc.stdout


def test_missing_config_file_exits_two(tmp_path):
    proc = run_cli("simulate", "--config", str(tmp_path / "absent.cfg"))
    assert proc.returncode == 2
    assert "FileNotFoundError" in proc.stderr


def test_unknown_scenario_exits_two(tmp_path):
    cfg = write_config(tmp_path, "scenario.name = moebius\n")
    proc = run_cli("simulate", "--config", cfg)
    assert proc.returncode == 2
    assert "BadParameter" in proc.stderr


def test_verify_reports_convergence_order(tmp_path):
    cfg = write_config(tmp_path, """
        scenario.name = lagrangian_graph
        scenario.n1 = 16
        scenario.n2 = 16
        controls.dt = 9.6e-3
        controls.max_steps = 4
    """)
    proc = run_cli("verify", "--config", cfg, "--quantity", "cos_theta",
                   "--refine", "2")
    assert proc.returncode == 0, proc.stderr
    assert "order_dt" in proc.stdout


def test_verify_flags_noise_floor_as_low_order(tmp_path):
    # cos(alpha) vanishes identically on the torus, so the residual is pure
    # rounding noise and no convergence order can be observed.
    cfg = write_config(tmp_path, """
        scenario.name = clifford_torus
        scenario.n1 = 16
        scenario.n2 = 16
        controls.dt = 1e-3
        controls.max_steps = 4
    """)
    proc = run_cli("verify", "--config", cfg, "--quantity", "cos_alpha",
                   "--refine", "2")
    assert proc.returncode == 3
    assert "OrderTooLow" in proc.stderr


def test_verify_rejects_unknown_quantity(tmp_path):
    cfg = write_config(tmp_path, "scenario.name = clifford_torus\n")
    proc = run_cli("verify", "--config", cfg, "--quantity", "torsion")
    assert proc.returncode == 2                   # argparse choices


def test_rescale_without_singularity_coverage_exits_three(tmp_path):
    cfg = write_config(tmp_path, f"""
        scenario.name = clifford_torus
        scenario.n1 = 16
        scenario.n2 = 16
        controls.t_end = 0.05
        rescale.T_hat = 0.5
        output.directory = {tmp_path / 'out'}
    """)
    proc = run_cli("rescale", "--config", cfg)
    assert proc.returncode == 3
    assert "InsufficientCoverage" in proc.stderr


def test_theorem_on_translating_ridge_with_probe(tmp_path):
    cfg = write_config(tmp_path, f"""
        scenario.name = grim_reaper_product
        scenario.n1 = 129
        scenario.x_max = 1.4
        controls.t_end = 0.1
        controls.samples = 3
        run.p = 0.9
        output.directory = {tmp_path / 'out'}
    """)
    proc = run_cli("theorem", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["verdict"] == "satisfied"
    assert report["hypotheses"]["ancient"] is False
    expect = float(np.cos(1.4) * np.exp(0.5))
    assert abs(report["lhs"] - expect) < 2e-3
    probe = json.loads((tmp_path / "out" / "probe.json").read_text())
    assert set(probe) == {"maxGF", "interiorMax", "inequalityResidualMin"}


def test_monotonicity_report_and_columns(tmp_path):
    cfg = write_config(tmp_path, f"""
        scenario.name = lagrangian_graph
        scenario.n1 = 16
        scenario.n2 = 16
        scenario.amplitude = 0.1
        controls.dt = 1e-3
        controls.max_steps = 10
        controls.stride = 1
        run.kind = lagrangian
        weight.center = 3.141592653589793 0 3.141592653589793 0
        weight.t0 = 0.1
        output.directory = {tmp_path / 'out'}
    """)
    proc = run_cli("monotonicity", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(
        (tmp_path / "out" / "monotonicity_report.json").read_text())
    assert report["weightKind"] == "lagrangian"
    assert report["samples"] == 11
    assert report["maxLhs"] < 0.0
    assert report["psiFinal"] < report["psiInitial"]
    lines = (tmp_path / "out" / "timeseries.csv").read_text().splitlines()
    psi_col = lines[0].split(",").index("psi")
    assert lines[1].split(",")[psi_col] != "nan"


def test_cutoff_scan_passes_and_reports_bounds(tmp_path):
    cfg = write_config(tmp_path, f"""
        output.directory = {tmp_path / 'out'}
    """)
    proc = run_cli("cutoff-scan", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "cutoff_report.json").read_text())
    assert report["pass"] is True
    assert abs(report["maxNegSecond"] - 40.0 / np.sqrt(3.0)) < 1e-4
    assert report["maxRatio"] <= report["boundRatio"] + 1e-6
    assert report["plateauError"] == 0.0 and report["tailError"] == 0.0


def test_cutoff_scan_rejects_sparse_sampling(tmp_path):
    cfg = write_config(tmp_path, "scan.samples = 50\n")
    proc = run_cli("cutoff-scan", "--config", cfg)
    assert proc.returncode == 2
    assert "BadParameter" in proc.stderr


@pytest.mark.parametrize("line", [
    "controls.stride = 0",
    "controls.safety = 1.5",
    "controls.dt = -1",
    "controls.t_end = nan",
    "controls.max_steps = -1",
], ids=["stride", "safety", "dt", "t_end", "max_steps"])
def test_simulate_rejects_bad_run_controls(tmp_path, line):
    # The case line comes after the step cap, so it overrides it.
    cfg = write_config(tmp_path, f"""
        scenario.name = clifford_torus
        scenario.n1 = 16
        scenario.n2 = 16
        controls.max_steps = 2
        {line}
        output.directory = {tmp_path / 'out'}
    """)
    proc = run_cli("simulate", "--config", cfg)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("BadParameter:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, line", [
    ("simulate", "scenario.n1 = abc"),
    ("simulate", "scenario.radius = xyz"),
    ("simulate", "scenario.n1 = 16.9"),
    ("rescale", "rescale.radii = 0.25 abc"),
    ("rescale", "rescale.radii ="),
], ids=["n1_word", "radius_word", "n1_fraction", "radii_word", "radii_empty"])
def test_untyped_config_values_exit_two(tmp_path, command, line):
    cfg = write_config(tmp_path, f"""
        scenario.name = clifford_torus
        scenario.n1 = 16
        scenario.n2 = 16
        controls.max_steps = 2
        {line}
        output.directory = {tmp_path / 'out'}
    """)
    proc = run_cli(command, "--config", cfg)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("BadParameter:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("line, key", [
    ("scenario.eps = 0.1", "scenario.eps"),
    ("controls.strides = 5", "controls.strides"),
], ids=["scenario", "controls"])
def test_simulate_rejects_unknown_config_keys(tmp_path, line, key):
    # clifford_torus takes no eps (symplectic_graph does); RunControls has
    # a stride, not strides.
    cfg = write_config(tmp_path, f"""
        scenario.name = clifford_torus
        scenario.n1 = 16
        scenario.n2 = 16
        controls.max_steps = 2
        {line}
        output.directory = {tmp_path / 'out'}
    """)
    proc = run_cli("simulate", "--config", cfg)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("BadParameter:")
    assert repr(key) in proc.stderr
    assert not (tmp_path / "out").exists()


def test_integral_float_config_value_is_an_integer(tmp_path):
    cfg = write_config(tmp_path, f"""
        scenario.name = clifford_torus
        scenario.n1 = 16.0
        scenario.n2 = 16
        controls.max_steps = 2
        output.directory = {tmp_path / 'out'}
    """)
    proc = run_cli("simulate", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    head = (tmp_path / "out" / "snapshot_initial.txt").read_text().split()
    assert head[2:4] == ["16", "16"]


def test_verify_rejects_scenarios_without_a_doubly_periodic_flow(tmp_path):
    for name in ("plane", "sphere_ode", "grim_reaper_product"):
        cfg = write_config(tmp_path, f"""
            scenario.name = {name}
            controls.dt = 1e-3
            controls.max_steps = 4
        """)
        proc = run_cli("verify", "--config", cfg, "--quantity", "cos_theta")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("BadParameter:")

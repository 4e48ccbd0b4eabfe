"""End-to-end subcommand checks through the installed entry module.

Each test drives ``python -m mcf4d.cli`` in a subprocess with a small config
file, then inspects exit codes, stderr error-class prefixes, and the written
artifacts.
"""

import contextlib
import functools
import inspect
import io
import json
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from mcf4d import cli, scenarios
from mcf4d.errors import Mcf4dError

from conftest import src_env


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "mcf4d.cli", *args],
                          env=src_env(), capture_output=True, text=True,
                          cwd=cwd)


def write_config(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body), encoding="ascii")
    return str(path)


def set_once(lines):
    """Config lines with each key set once: a line gives way to a later
    line that sets the same key, as a config file may not repeat a key."""
    keys = [line.partition("=")[0].strip() if "=" in line else None
            for line in lines]
    return [line for i, (line, key) in enumerate(zip(lines, keys))
            if key is None or key not in keys[i + 1:]]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _strict_json(path):
    """A JSON artifact, refusing the NaN and Infinity json.dumps allows."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


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


def test_unreadable_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "accented.cfg"
    cfg.write_bytes("scenario.name = plane\n# café\n".encode("utf-8"))
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("BadParameter:") and "accented.cfg: line 2" in err
    assert cli.main(["simulate", "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("IsADirectoryError:")


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


def test_verify_runs_each_level_in_two_legs(tmp_path, monkeypatch, capsys):
    # Level l runs to step k_l - 1 keeping its first and last state, then
    # two steps from that last state: the three states the residual reads.
    legs = []

    def recorded(state, controls):
        trace = cli_run_flow(state, controls)
        legs.append((controls.max_steps, controls.stride, trace.state_steps,
                     state.time))
        return trace

    cli_run_flow = cli.run_flow
    monkeypatch.setattr(cli, "run_flow", recorded)
    cfg = write_config(tmp_path, """
        scenario.name = lagrangian_graph
        scenario.n1 = 16
        scenario.n2 = 16
        controls.dt = 9.6e-3
        controls.max_steps = 4
    """)
    assert cli.main(["verify", "--config", cfg, "--quantity", "cos_theta",
                     "--refine", "2"]) == 0, capsys.readouterr().err
    assert [leg[:3] for leg in legs] == [
        (1, 2, [0, 1]), (2, 1, [0, 1, 2]), (7, 8, [0, 7]), (2, 1, [0, 1, 2])]
    assert legs[1][3] == 9.6e-3
    assert legs[3][3] == pytest.approx(7 * 2.4e-3, rel=1e-14)


def test_verify_ends_a_level_whose_flow_stops_early(tmp_path, capsys):
    # dt far above the stability bound blows the level-0 graph up at step 1,
    # before the steps 1 to 3 its residual needs.
    cfg = write_config(tmp_path, """
        scenario.name = lagrangian_graph
        scenario.n1 = 16
        scenario.n2 = 16
        controls.dt = 3.0
        controls.max_steps = 4
    """)
    assert cli.main(["verify", "--config", cfg, "--quantity", "H2",
                     "--refine", "2"]) == 3
    assert capsys.readouterr().err == (
        "ShortTrace: level 0 ended with 'blowup_detected' at step 1; its "
        "residual needs steps 1 to 3\n")


def test_verify_ends_a_level_whose_second_leg_stops_early(tmp_path, capsys):
    # The torus's first leg reaches step 3, and the second leg blows up at
    # step 4, one short of the three states the residual reads.
    cfg = write_config(tmp_path, """
        scenario.name = clifford_torus
        scenario.n1 = 16
        scenario.n2 = 16
        controls.dt = 3.0
        controls.max_steps = 8
    """)
    assert cli.main(["verify", "--config", cfg, "--quantity", "H2",
                     "--refine", "2"]) == 3
    assert capsys.readouterr().err == (
        "ShortTrace: level 0 ended with 'blowup_detected' at step 4; its "
        "residual needs steps 3 to 5\n")


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


def test_rescale_on_the_default_sphere_ode_selects_every_radius(tmp_path):
    # The radius-ODE samples crowd towards T as an adaptive run's steps do,
    # so each default radius finds a state in the band its ball admits; the
    # sphere is self-similar, so every rescaled flow is normalized exactly.
    cfg = write_config(tmp_path, "scenario.name = sphere_ode\n")
    proc = run_cli("rescale", "--config", cfg, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "rescale_report.json").read_text())
    assert report["T_hat"] == pytest.approx(0.25, abs=1e-9)
    assert [r["rK"] for r in report["records"]] == [0.25, 0.125, 0.0625]
    for record in report["records"]:
        validation = record["validation"]
        assert validation["originNorm"] == pytest.approx(1.0, abs=1e-9)
        assert validation["supBound"] == pytest.approx(1.0, abs=1e-9)


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
    report = _strict_json(tmp_path / "out" / "report.json")
    assert report["verdict"] == "satisfied"
    assert report["hypotheses"]["ancient"] is False
    expect = float(np.cos(1.4) * np.exp(0.5))
    assert abs(report["lhs"] - expect) < 2e-3
    probe = _strict_json(tmp_path / "out" / "probe.json")
    assert set(probe) == {"maxGF", "interiorMax", "inequalityResidualMin"}


@pytest.mark.parametrize("max_steps", [0, 1])
def test_theorem_probe_on_a_short_trace_writes_nothing(tmp_path, capsys,
                                                       max_steps):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
        scenario.name = lagrangian_graph
        scenario.n1 = 16
        scenario.n2 = 16
        controls.max_steps = {max_steps}
        run.p = 0.5
        output.directory = {out}
    """)
    assert cli.main(["theorem", "--config", cfg]) == 3
    assert capsys.readouterr().err.startswith("ShortTrace: ")
    assert not (out / "report.json").exists()
    assert not (out / "probe.json").exists()


def test_theorem_probe_names_a_kind_mismatch_and_writes_nothing(tmp_path,
                                                                capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
        scenario.name = symplectic_graph
        scenario.n1 = 16
        scenario.n2 = 16
        controls.dt = 1e-3
        controls.max_steps = 4
        run.kind = lagrangian
        run.p = 0.5
        output.directory = {out}
    """)
    assert cli.main(["theorem", "--config", cfg]) == 3
    assert capsys.readouterr().err.startswith("KindMismatch: ")
    assert not (out / "report.json").exists()
    assert not (out / "probe.json").exists()


RIDGE_THEOREM = """
    scenario.name = grim_reaper_product
    scenario.n1 = 129
    scenario.x_max = 1.4
    controls.t_end = 0.1
    controls.samples = 3
"""
GRAPH_MONOTONICITY = """
    scenario.name = lagrangian_graph
    scenario.n1 = 16
    scenario.n2 = 16
    controls.dt = 1e-3
    controls.max_steps = 10
    weight.center = 0 0 0 0
    weight.t0 = 0.1
"""
TORUS_RESCALE = """
    scenario.name = clifford_torus
    scenario.n1 = 16
    scenario.n2 = 16
"""


@pytest.mark.parametrize("command, body, error", [
    ("theorem", RIDGE_THEOREM + "run.p = 2.0", "BadP"),
    ("theorem", RIDGE_THEOREM + "run.p = 0.9\nrun.radius = nan",
     "BadParameter"),
    ("theorem", RIDGE_THEOREM + "run.p = 0.9\nrun.radius = inf",
     "BadParameter"),
    ("theorem", RIDGE_THEOREM + "run.radius = nan", "BadParameter"),
    ("theorem", RIDGE_THEOREM + "run.kind = kaehler", "BadParameter"),
    ("monotonicity", GRAPH_MONOTONICITY + "run.kind = kaehler",
     "BadParameter"),
    ("rescale", TORUS_RESCALE + "rescale.radii = 0.25 -1", "BadParameter"),
    ("rescale", TORUS_RESCALE + "rescale.anchor = nan 0 0 0",
     "BadParameter"),
    ("rescale", TORUS_RESCALE + "rescale.T_hat = inf", "BadParameter"),
], ids=["p_out_of_range", "radius_nan", "radius_inf", "radius_without_p",
        "theorem_kind", "monotonicity_kind", "rescale_radius",
        "rescale_anchor", "rescale_T_hat"])
def test_run_values_are_checked_before_the_trace_is_built(
        tmp_path, monkeypatch, capsys, command, body, error):
    def never(*args, **kwargs):
        raise AssertionError("the trace was built")

    for name in ("run_flow", "translating_trace", "run_sphere_ode"):
        monkeypatch.setattr(scenarios, name, never)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, body + f"\noutput.directory = {out}\n")
    assert cli.main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"{error}: ")
    assert not out.exists()


@pytest.mark.parametrize("line", [
    "scenario.name = sphere_ode\ncontrols.t_end = -1",
    "scenario.name = sphere_ode\ncontrols.t_end = 0",
    "scenario.name = sphere_ode\ncontrols.blowup_threshold = inf",
    "scenario.name = sphere_ode\ncontrols.blowup_threshold = 1e17",
    "scenario.name = grim_reaper_product\ncontrols.samples = 2",
    "scenario.name = grim_reaper_product\nscenario.time = 5",
    "scenario.name = sphere_ode\ncontrols.max_steps = 4",
    "scenario.name = sphere_ode\ncontrols.max_steps = 30",
    "scenario.name = sphere_ode\ncontrols.blowup_threshold = 1",
    "scenario.name = sphere_ode\ncontrols.blowup_threshold = 2",
    "scenario.name = clifford_torus\nscenario.n1 = 8\nscenario.n2 = 8\n"
    "controls.t_end = -1",
], ids=["ode_t_end_negative", "ode_t_end_zero", "ode_threshold_inf",
        "ode_threshold_1e17", "translation_samples", "translation_time",
        "ode_max_steps_4", "ode_max_steps_30", "ode_threshold_1",
        "ode_threshold_initial", "flow_t_end_negative"])
def test_trace_inputs_the_mode_cannot_honour_exit_two(tmp_path, capsys,
                                                       line):
    # The radius ODE samples 32 times at least (max_steps >= 31) and starts
    # at |A|^2 = 2/r0^2 = 2, below any threshold it can halt at; every run
    # needs a positive t_end.
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"{line}\noutput.directory = {out}\n")
    assert cli.main(["simulate", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("BadParameter: ")
    assert not out.exists()


@pytest.mark.parametrize("command, body", [
    ("monotonicity", """
        scenario.name = complex_line
        scenario.n1 = 16
        scenario.n2 = 16
        controls.dt = 1e-3
        controls.max_steps = 4
        run.kind = lagrangian
        weight.center = 0 0 0 0
        weight.t0 = 0.1
    """),
    ("monotonicity", """
        scenario.name = symplectic_graph
        scenario.n1 = 16
        scenario.n2 = 16
        controls.dt = 1e-3
        controls.max_steps = 4
        run.kind = lagrangian
        weight.center = 3.141592653589793 3.141592653589793 0 -0.1
        weight.t0 = 0.1
    """),
    ("verify", """
        scenario.name = symplectic_graph
        scenario.n1 = 8
        scenario.n2 = 8
        controls.dt = 9.6e-3
        controls.max_steps = 4
    """),
], ids=["monotonicity_complex_line", "monotonicity_symplectic_graph",
        "verify_cos_theta"])
def test_a_lagrangian_read_of_a_non_lagrangian_flow_exits_three(
        tmp_path, capsys, command, body):
    # monotonicity asks for the lagrangian kind, and verify's cos_theta is
    # the lagrangian cosine; none of these flows is Lagrangian.
    out = tmp_path / "out"
    cfg = write_config(tmp_path, body + f"output.directory = {out}\n")
    extra = ["--quantity", "cos_theta", "--refine", "2"] \
        if command == "verify" else []
    assert cli.main([command, "--config", cfg, *extra]) == 3
    assert capsys.readouterr().err.startswith("KindMismatch: ")
    assert not out.exists()


def test_monotonicity_defaults_to_the_scenario_kind(tmp_path, capsys):
    # Without run.kind the scan takes the scenario's registry kind, as
    # theorem does: symplectic for a symplectic graph.
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
        scenario.name = symplectic_graph
        scenario.n1 = 16
        scenario.n2 = 16
        controls.dt = 1e-3
        controls.max_steps = 4
        weight.center = 3.141592653589793 3.141592653589793 0 -0.1
        weight.t0 = 0.1
        output.directory = {out}
    """)
    assert cli.main(["monotonicity", "--config", cfg]) == 0, \
        capsys.readouterr().err
    report = json.loads((out / "monotonicity_report.json").read_text())
    assert report["weightKind"] == "symplectic"


def test_a_key_set_twice_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
        scenario.name = clifford_torus
        scenario.n1 = 8
        scenario.n1 = 12
        scenario.n2 = 8
        controls.max_steps = 2
        output.directory = {out}
    """)
    assert cli.main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("BadParameter: config key 'scenario.n1' is set on "
                          "line 3 and again on line 4")
    assert not out.exists()


def _still_frames(builder, params, read):
    """A trace mode outside the registry's three: ``controls.fake`` copies
    of the builder's surface at times 0 to 1."""
    frames = read("controls.fake", int, 3)
    return lambda: scenarios.translating_trace(
        lambda t: builder(**params), np.linspace(0.0, 1.0, frames))


@pytest.mark.parametrize("line, code", [
    ("controls.fake = 4", 0), ("controls.dt = 1e-3", 2)], ids=["own", "dt"])
def test_a_new_trace_mode_is_one_registry_entry(tmp_path, monkeypatch,
                                                capsys, line, code):
    # cli knows no mode: the entry's mode reads its own controls.* keys, and
    # any other controls.* key is unknown.
    monkeypatch.setitem(scenarios.SCENARIOS, "still_torus", scenarios.Scenario(
        scenarios.clifford_torus, _still_frames, "symplectic"))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
        scenario.name = still_torus
        scenario.n1 = 8
        scenario.n2 = 8
        {line}
        output.directory = {out}
    """)
    assert cli.main(["simulate", "--config", cfg]) == code
    std = capsys.readouterr()
    if code:
        assert std.err.startswith("BadParameter: unknown config key "
                                  "'controls.dt'")
        assert not out.exists()
    else:
        assert std.out == "reached_t_end: 3 steps, t = 1, 4 stored states\n"
        assert (out / "snapshot_final.txt").exists()


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
    report = _strict_json(tmp_path / "out" / "monotonicity_report.json")
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
    report = _strict_json(tmp_path / "out" / "cutoff_report.json")
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
    "controls.blowup_threshold = 0",
], ids=["stride", "safety", "dt", "t_end", "max_steps", "blowup_threshold"])
def test_simulate_rejects_bad_run_controls(tmp_path, line):
    # The case line takes the place of the step cap when it sets max_steps.
    cfg = write_config(tmp_path, "\n".join(set_once([
        "scenario.name = clifford_torus", "scenario.n1 = 16",
        "scenario.n2 = 16", "controls.max_steps = 2", line,
        f"output.directory = {tmp_path / 'out'}"])) + "\n")
    proc = run_cli("simulate", "--config", cfg)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("BadParameter:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, body", [
    ("cutoff-scan", "scan.samples = 1e300"),
    ("cutoff-scan", f"scan.samples = {cli.MAX_SCAN_SAMPLES + 1}"),
    ("simulate", "scenario.name = clifford_torus\nscenario.n1 = 1e300"),
    ("simulate", "scenario.name = clifford_torus\nscenario.n1 = 4098\n"
                 "scenario.n2 = 8\ncontrols.max_steps = 0"),
    ("simulate", "scenario.name = grim_reaper_product\n"
                 f"controls.samples = {scenarios.MAX_TRACE_SAMPLES + 1}"),
    ("simulate", "scenario.name = clifford_torus\nscenario.n1 = 8\n"
                 "scenario.n2 = 8\ncontrols.t_end = 1e-3\n"
                 "controls.max_steps = 2147483648"),
], ids=["scan_huge", "scan_cap", "n1_huge", "n1_cap", "samples_cap",
        "max_steps_int_range"])
def test_oversized_integer_config_values_exit_two(tmp_path, monkeypatch,
                                                  capsys, command, body):
    # Rejected before any array is sized from them.
    cfg = write_config(tmp_path, body + "\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("BadParameter:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("line, code, error", [
    ("scenario.name = clifford_torus\nscenario.radius = 1e300", 3,
     "DegenerateMetric: det g = nan at node (0, 0)"),
    ("scenario.name = plane\nscenario.halfwidth = 1e75", 2,
     "BadParameter: grid spacings must lie in"),
    ("scenario.name = symplectic_graph\nscenario.eps = 1e75\n"
     "controls.max_steps = 3", 0, ""),
], ids=["torus_radius", "plane_halfwidth", "graph_eps"])
def test_huge_finite_scenario_values_end_in_an_error_class(tmp_path, capsys,
                                                           line, code, error):
    # A finite value so large that the metric or the stencil weights
    # overflow ends in a documented error; under warnings as errors no numpy
    # overflow warning escapes either.  The steep graph (eps = 1e75) is a
    # well-posed run: its CFL bound, from the smaller metric eigenvalue
    # det g / (half trace + radius), is about 5e112.
    cfg = write_config(tmp_path, f"{line}\nscenario.n1 = 8\nscenario.n2 = 8\n"
                       f"output.directory = {tmp_path / 'out'}\n")
    assert cli.main(["simulate", "--config", cfg]) == code
    err = capsys.readouterr().err
    assert err.startswith(error) if error else err == ""


@pytest.mark.parametrize("command, line", [
    ("simulate", "scenario.n1 = abc"),
    ("simulate", "scenario.radius = xyz"),
    ("simulate", "scenario.n1 = 16.9"),
    ("simulate", "scenario.radius = inf"),
    ("simulate", "scenario.radius = nan"),
    ("rescale", "rescale.radii = 0.25 abc"),
    ("rescale", "rescale.radii ="),
], ids=["n1_word", "radius_word", "n1_fraction", "radius_inf", "radius_nan",
        "radii_word", "radii_empty"])
def test_untyped_config_values_exit_two(tmp_path, command, line):
    cfg = write_config(tmp_path, "\n".join(set_once([
        "scenario.name = clifford_torus", "scenario.n1 = 16",
        "scenario.n2 = 16", "controls.max_steps = 2", line,
        f"output.directory = {tmp_path / 'out'}"])) + "\n")
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


@pytest.mark.parametrize("command, line, key", [
    ("monotonicity", "run.knd = symplectic", "run.knd"),
    ("simulate", "weight.t0 = 0.1", "weight.t0"),
    ("rescale", "rescale.radius = 0.25", "rescale.radius"),
    ("cutoff-scan", "scan.sample = 200", "scan.sample"),
    ("monotonicity", "output.directroy = elsewhere", "output.directroy"),
], ids=["run", "weight", "rescale", "scan", "output"])
def test_keys_the_subcommand_does_not_read_exit_two(tmp_path, command, line,
                                                    key):
    # monotonicity reads run.kind, not run.knd; simulate reads no weight.*;
    # rescale takes radii; cutoff-scan takes samples.  The case line makes
    # the subcommand stop before any flow runs, so no output is written.
    cfg = write_config(tmp_path, f"""
        scenario.name = lagrangian_graph
        scenario.n1 = 16
        scenario.n2 = 16
        controls.dt = 1e-3
        controls.max_steps = 10
        weight.center = 3.141592653589793 0 3.141592653589793 0
        weight.t0 = 0.1
        {line}
        output.directory = {tmp_path / 'out'}
    """ if command == "monotonicity" else f"""
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
    assert repr(key) in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, key", [
    ("outptu.directory = out", "outptu.directory"),
    ("directory = out", "directory"),
], ids=["misspelt_section", "no_section"])
def test_keys_outside_the_config_sections_exit_two(tmp_path, monkeypatch,
                                                   capsys, line, key):
    # Read as no section at all, the key would leave output.directory at its
    # default, the working directory, and the report would land there.
    cfg = write_config(tmp_path, line)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["cutoff-scan", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("BadParameter:")
    assert repr(key) in err
    assert not (tmp_path / "cutoff_report.json").exists()


@pytest.mark.parametrize("command, scenario, line, key", [
    ("simulate", "grim_reaper_product", "controls.dt = 1e-9", "controls.dt"),
    ("simulate", "grim_reaper_product", "controls.max_steps = 1",
     "controls.max_steps"),
    ("simulate", "sphere_ode", "controls.dt = 1e-9", "controls.dt"),
    ("simulate", "sphere_ode", "controls.safety = 0.5", "controls.safety"),
    ("simulate", "clifford_torus", "controls.samples = 5", "controls.samples"),
    ("verify", "lagrangian_graph", "controls.stride = 2", "controls.stride"),
], ids=["translating_dt", "translating_max_steps", "sphere_ode_dt",
        "sphere_ode_safety", "flow_samples", "verify_stride"])
def test_controls_the_trace_mode_ignores_exit_two(tmp_path, command, scenario,
                                                  line, key):
    # The translation reads t_end and samples; the radius ODE t_end,
    # max_steps, blowup_threshold and stride; a mesh flow the RunControls
    # fields; verify's refinement ladder dt and max_steps.
    cfg = write_config(tmp_path, f"""
        scenario.name = {scenario}
        controls.t_end = 0.1
        {line}
        output.directory = {tmp_path / 'out'}
    """ if command == "simulate" else f"""
        scenario.name = {scenario}
        controls.dt = 9.6e-3
        controls.max_steps = 4
        {line}
    """)
    extra = ["--quantity", "cos_theta", "--refine", "2"] \
        if command == "verify" else []
    proc = run_cli(command, "--config", cfg, *extra)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("BadParameter:")
    assert repr(key) in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cutoff_scan_names_every_key_it_does_not_read(tmp_path, monkeypatch,
                                                      capsys):
    # cutoff-scan reads scan.samples and output.directory, no scenario.* and
    # no controls.* key.
    cfg = write_config(tmp_path, """
        scenario.nmae = clifford_torus
        scenario.n1 = 16
        controls.bogus = 1
        scan.samples = 201
    """)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["cutoff-scan", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("BadParameter: unknown config key")
    named = err.partition(";")[0]
    for key in ("scenario.nmae", "scenario.n1", "controls.bogus"):
        assert repr(key) in named
    assert "scan.samples" not in named
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_cutoff_scan_passes_where_rounding_made_the_profile_negative(
        tmp_path, capsys):
    # At 2095 samples 1 - s rounded to -2.2e-16 just below r = 1.
    cfg = write_config(tmp_path, f"""
        scan.samples = 2095
        output.directory = {tmp_path / 'out'}
    """)
    assert cli.main(["cutoff-scan", "--config", cfg]) == 0, \
        capsys.readouterr().err
    report = _strict_json(tmp_path / "out" / "cutoff_report.json")
    assert report["valueMin"] >= 0.0 and report["pass"] is True


@pytest.mark.parametrize("refine, code, levels_run", [
    ("9", 3, [16]), ("10", 2, []), (str(10 ** 9), 2, [])])
def test_verify_checks_the_finest_level_before_any_runs(
        tmp_path, monkeypatch, capsys, refine, code, levels_run):
    # Level l of the ladder runs a (16 * 2**l)^2 torus: level 8, 4096 nodes
    # per axis, fits a grid, level 9 does not.  The stand-in flow records
    # the first level and stops the ladder there.
    calls = []

    def first_level_only(state, controls):
        calls.append(state.grid.n1)
        raise Mcf4dError("stand-in flow")

    monkeypatch.setattr(cli, "run_flow", first_level_only)
    cfg = write_config(tmp_path, """
        scenario.name = clifford_torus
        scenario.n1 = 16
        scenario.n2 = 16
        controls.dt = 1e-3
        controls.max_steps = 4
    """)
    assert cli.main(["verify", "--config", cfg, "--quantity", "cos_theta",
                     "--refine", refine]) == code
    assert capsys.readouterr().err.startswith(
        "BadParameter:" if code == 2 else "Mcf4dError:")
    assert calls == levels_run


@pytest.mark.parametrize("refine, code, levels_run", [
    ("7", 3, [(64, 64)]), ("8", 2, [])])
def test_verify_starts_its_ladder_at_the_configured_grid(
        tmp_path, monkeypatch, capsys, refine, code, levels_run):
    # Without scenario.n1/n2 the config describes the builder's 64^2 grid:
    # level 0 runs it, and level 7 (8192 nodes per axis) does not fit.
    calls = []

    def first_level_only(state, controls):
        calls.append(state.grid.shape)
        raise Mcf4dError("stand-in flow")

    monkeypatch.setattr(cli, "run_flow", first_level_only)
    cfg = write_config(tmp_path, """
        scenario.name = lagrangian_graph
        controls.dt = 1e-3
        controls.max_steps = 4
    """)
    assert cli.main(["verify", "--config", cfg, "--quantity", "cos_theta",
                     "--refine", refine]) == code
    assert capsys.readouterr().err.startswith(
        "BadParameter:" if code == 2 else "Mcf4dError:")
    assert calls == levels_run


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


# The config keys each subcommand reads, as the README's key table documents
# them: its own keys below, output.directory, and for all but cutoff-scan
# scenario.name, the builder's scenario.* parameters and the controls.* keys
# of the scenario's trace mode (for verify, of its refinement ladder).
DOCUMENTED_KEYS = {
    "simulate": (),
    "monotonicity": ("run.kind", "weight.center", "weight.t0"),
    "rescale": ("rescale.T_hat", "rescale.anchor", "rescale.radii"),
    "theorem": ("run.kind", "run.p", "run.radius"),
    "verify": (),
    "cutoff-scan": ("scan.samples",),
}
DOCUMENTED_CONTROLS = {
    scenarios.mesh_flow: ("t_end", "max_steps", "blowup_threshold", "stride",
                          "dt"),
    scenarios.radius_ode: ("t_end", "max_steps", "blowup_threshold",
                           "stride"),
    scenarios.translation: ("t_end", "samples"),
    "verify": ("dt", "max_steps"),
}


def test_readme_key_table_is_one_table():
    # A line inside the table that does not start with "|" ends it, and
    # every row below it renders as plain text.
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    first = lines.index("| key | meaning |")
    last = next(i for i, line in enumerate(lines)
                if line.startswith("| `scan.samples` |"))
    assert [line for line in lines[first:last + 1]
            if not line.startswith("|")] == []


def _config_keys(command, scenario):
    """Every documented key ``command`` reads for ``scenario`` (a mesh
    flow's keys for an unknown scenario)."""
    entry = cli.SCENARIOS.get(scenario, cli.SCENARIOS["clifford_torus"])
    keys = {"output.directory", *DOCUMENTED_KEYS[command]}
    if command != "cutoff-scan":
        mode = "verify" if command == "verify" else entry.mode
        keys |= {"scenario.name"}
        keys |= {f"scenario.{name}" for name in entry.params()}
        keys |= {f"controls.{name}" for name in DOCUMENTED_CONTROLS[mode]}
    return sorted(keys)


# A valid value of every documented key that is not a scenario parameter,
# small enough that each run takes well under a second.
DOCUMENTED_VALUES = {
    "controls.t_end": "0.1", "controls.max_steps": "40",
    "controls.blowup_threshold": "1e4", "controls.stride": "1",
    "controls.dt": "1e-4", "controls.samples": "3",
    "run.kind": "lagrangian", "run.p": "0.9", "run.radius": "1e3",
    "weight.center": "0 0 0 0", "weight.t0": "0.1",
    "rescale.T_hat": "0.5", "rescale.anchor": "0 0 0 0",
    "rescale.radii": "0.25", "scan.samples": "201",
}


@pytest.mark.parametrize("command, scenario", [
    (command, scenario) for command in sorted(cli.COMMANDS)
    for scenario in ("clifford_torus", "sphere_ode", "grim_reaper_product")
    if command != "cutoff-scan" or scenario == "clifford_torus"])
def test_every_documented_key_is_read(tmp_path, monkeypatch, capsys, command,
                                      scenario):
    # A config holding every key the README documents for the subcommand
    # and trace mode, scenario parameters at their defaults on 8-node axes,
    # passes the unread-key check; the run may still stop later, say verify
    # on a scenario that is not doubly periodic, or rescale on a short run.
    builder = inspect.signature(cli.SCENARIOS[scenario].builder).parameters
    values = {f"scenario.{name}": str(par.default)
              for name, par in builder.items()}
    values.update({"scenario.name": scenario, "scenario.n1": "8",
                   "scenario.n2": "8", "output.directory": str(tmp_path),
                   **DOCUMENTED_VALUES})
    keys = _config_keys(command, scenario)
    cfg = write_config(tmp_path, "".join(f"{k} = {values[k]}\n" for k in keys))
    passed, check = [], cli._check_read

    def recording_check(cfg):
        passed.append(check(cfg))
        return passed[-1]

    monkeypatch.setattr(cli, "_check_read", recording_check)
    extra = ["--quantity", "cos_theta", "--refine", "2"] \
        if command == "verify" else []
    code = cli.main([command, "--config", cfg, *extra])
    assert "unknown config key" not in capsys.readouterr().err
    assert passed == [str(tmp_path)], code


FUZZ_VALUES = ("0", "1", "2", "4", "-1", "-0.5", "0.5", "1e-3", "2.5e-4",
               "12", "3.5", "nan", "NaN", "inf", "-inf", "abc", "café", "",
               "1e9", "2147483648", "-2147483648", "1e300", "-1e300",
               "1 2", "0 0 0 0", "3.14 0 3.14 0", "nan 0 0 0", "0.25 0.125",
               "lagrangian", "symplectic", "clifford_torus", "sphere_ode")


# Values of the capping tail: valid ones, then malformed or too large ones.
TAIL_VALUES = {
    "scenario.n1": (("8", "10", "12"),
                    ("4", "12.5", "nan", "café", "4098", "1e300")),
    "controls.max_steps": (("4", "0", "1", "2"),
                           ("-1", "inf", "x", "2147483648", "1e300")),
    "controls.samples": (("3", "4", "5"), ("2", "0", "-1", "1001", "x")),
    "controls.dt": (("1e-4", "2.5e-4", "1e-3"),
                    ("0", "-1e-3", "nan", "inf", "x", "1e300")),
    "weight.center": (("0 0 0 0", "0.5 0 0.5 0", "1 1 1 1"),
                      ("1 2", "nan 0 0 0", "0 0 0 inf", "x", "")),
    "weight.t0": (("0.1", "0.5", "1"), ("nan", "inf", "x")),
}


def _fuzz_case(command, scenario):
    """Arguments and config lines of one ``command`` run on ``scenario``:
    random lines, mostly with a key the run reads, else with a misspelt
    key, else not ``key = value`` at all, then, unless the command is
    cutoff-scan, which reads no scenario, the scenario name and a tail that
    caps the work (at most 12 nodes per axis, 4 steps or 5 samples)
    and gives verify its controls.dt and monotonicity its weight.  A later
    line wins: an earlier line that sets the same key is dropped
    (:func:`set_once`).  At most one tail value, and in half the cases none, is
    malformed or too large to accept, so that verify and monotonicity runs
    get past config handling and run their flows."""
    keys = _config_keys(command, scenario)
    real = hs.sampled_from(keys)
    misspelt = real.flatmap(lambda key: hs.integers(0, len(key) - 1).map(
        lambda i: key[:i] + key[i + 1:]))
    kinds = {
        kind: hs.tuples(key, hs.sampled_from(FUZZ_VALUES)).map(
            lambda kv: f"{kv[0]} = {kv[1]}")
        for kind, key in (("real", real), ("misspelt", misspelt))}
    kinds["garbage"] = hs.sampled_from(
        ("no equals sign", "a.b.c = 1", "= 1", "# café", ""))
    line = hs.sampled_from(6 * ["real"] + ["misspelt", "garbage"]).flatmap(
        kinds.__getitem__)
    cap = "samples" if "controls.samples" in keys else "max_steps"
    tail = {"scenario.n1": TAIL_VALUES["scenario.n1"],
            f"controls.{cap}": TAIL_VALUES[f"controls.{cap}"],
            **{key: TAIL_VALUES[key] for key in {
                "verify": ("controls.dt",),
                "monotonicity": ("weight.center", "weight.t0"),
            }.get(command, ())}}
    tail_values = (hs.just(None) | hs.sampled_from(sorted(tail))).flatmap(
        lambda bad: hs.tuples(*(hs.sampled_from(values[key == bad])
                                for key, values in tail.items())))
    lines = hs.tuples(hs.lists(line, max_size=5), tail_values).map(
        lambda d: d[0] if command == "cutoff-scan" else [
            *d[0], f"scenario.name = {scenario}", f"scenario.n2 = {d[1][0]}",
            *(f"{key} = {value}" for key, value in zip(tail, d[1]))])
    args = (hs.sampled_from(cli.EVOLUTION_QUANTITIES).map(
        lambda q: ["--quantity", q, "--refine", "2"])
        if command == "verify" else hs.just([]))
    return hs.tuples(args.map(lambda a: [command, *a]), lines)


FUZZ_SCENARIOS = sorted(cli.SCENARIOS) + ["moebius"]
FUZZ_SHARE = 17     # derandomized examples per subcommand, 102 in all


def _run_fuzz_case(case):
    command, lines = case
    with tempfile.TemporaryDirectory() as root:
        path = f"{root}/fuzz.cfg"
        body = set_once(lines + [f"output.directory = {root}/out"])
        with open(path, "wb") as fh:
            fh.write("\n".join(body).encode("utf-8"))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main([*command, "--config", path])
    assert code in (0, 2, 3), code
    if code:
        assert re.match(r"\w+: ", err.getvalue()), err.getvalue()


def test_fuzzed_configs_end_in_a_documented_exit_code():
    # Any config, however malformed, ends in exit 0, 2 or 3 with the error
    # class named on stderr; none escapes as a traceback.  Each subcommand
    # gets the same share of examples.
    check = settings(max_examples=FUZZ_SHARE, derandomize=True,
                     database=None, deadline=None)
    for command in sorted(cli.COMMANDS):
        cases = hs.sampled_from(FUZZ_SCENARIOS).flatmap(
            functools.partial(_fuzz_case, command))
        check(given(case=cases)(_run_fuzz_case))()

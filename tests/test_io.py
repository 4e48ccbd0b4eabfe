"""Serialization round-trips and format-contract checks."""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from mcf4d.errors import BadParameter
from mcf4d.flow import RunControls, run_flow
from mcf4d.grid import ParamGrid, SurfaceState
from mcf4d.functionals import GaussianWeight, PinchingReport, monotonicity_scan
from mcf4d.io import (TIMESERIES_COLUMNS, _fmt, parse_config_text,
                      read_config, read_snapshot, write_report, write_snapshot,
                      write_timeseries)
from mcf4d.scenarios import clifford_torus, lagrangian_graph, plane

from conftest import LAGR_CENTER


def test_parse_config_basics():
    text = """
    # a comment
    scenario.name = clifford_torus

    controls.dt = 1e-3
    run.note = a = b
    """
    cfg = parse_config_text(text)
    assert cfg == {"scenario.name": "clifford_torus",
                   "controls.dt": "1e-3",
                   "run.note": "a = b"}


def test_parse_config_rejects_bad_lines():
    with pytest.raises(BadParameter) as err:
        parse_config_text("first = 1\nsecond line without equals\n")
    assert "line 2" in str(err.value)
    with pytest.raises(BadParameter):
        parse_config_text("a.b.c = 1")
    with pytest.raises(BadParameter):
        parse_config_text(" = 5")


def test_parse_config_rejects_a_repeated_key():
    # Silently keeping the later value would run on 12 nodes here.
    with pytest.raises(BadParameter, match="config key 'scenario.n1' is set "
                                           "on line 2 and again on line 4"):
        parse_config_text("scenario.name = plane\nscenario.n1 = 8\n\n"
                          " scenario.n1 =12\n")


def test_snapshot_roundtrip_periodic(tmp_path):
    state = clifford_torus(8, 8, radius=0.7).transformed(time=0.125)
    path = tmp_path / "snap.txt"
    write_snapshot(path, state)
    back = read_snapshot(path)
    assert back.grid.n1 == 8 and back.grid.n2 == 8
    assert back.grid.periodic1 and back.grid.periodic2
    assert back.grid.spacing1 == state.grid.spacing1
    assert back.time == 0.125
    np.testing.assert_array_equal(back.positions, state.positions)
    np.testing.assert_array_equal(back.shift1, state.shift1)
    np.testing.assert_array_equal(back.shift2, state.shift2)


def test_snapshot_roundtrip_clamped(tmp_path):
    state = plane(8, 12, halfwidth=2.5, offset=0.3)
    path = tmp_path / "snap.txt"
    write_snapshot(path, state)
    back = read_snapshot(path)
    assert not back.grid.periodic1 and not back.grid.periodic2
    np.testing.assert_array_equal(back.positions, state.positions)


_finite = hs.floats(allow_nan=False, allow_infinity=False)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(n1=hs.integers(8, 12), n2=hs.integers(8, 12),
       periodic=hs.tuples(hs.booleans(), hs.booleans()),
       spacing=hs.tuples(hs.floats(1e-6, 1e3), hs.floats(1e-6, 1e3)),
       time=_finite, seed=hs.integers(0, 2 ** 32 - 1),
       shifts=hs.lists(_finite, min_size=8, max_size=8),
       extremes=hs.lists(hs.sampled_from(
           [0.0, -0.0, 5e-324, -1.7976931348623157e308, 1.0 / 3.0]),
           min_size=4, max_size=4))
def test_snapshot_round_trip_is_bit_exact(n1, n2, periodic, spacing, time,
                                          seed, shifts, extremes):
    grid = ParamGrid(n1, n2, spacing[0], spacing[1], *periodic)
    positions = np.random.default_rng(seed).standard_normal((n1, n2, 4))
    positions[0, 0] = extremes
    shift1 = np.array(shifts[:4]) if periodic[0] else np.zeros(4)
    shift2 = np.array(shifts[4:]) if periodic[1] else np.zeros(4)
    state = SurfaceState(grid, positions, time, shift1, shift2)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.txt"), Path(tmp, "b.txt")
        write_snapshot(first, state)
        back = read_snapshot(first)
        write_snapshot(second, back)
        assert first.read_bytes() == second.read_bytes()
    assert back.grid == grid
    assert _bits(back.time) == _bits(time)
    assert _bits(back.positions) == _bits(positions)
    assert _bits(back.shift1) == _bits(shift1)
    assert _bits(back.shift2) == _bits(shift2)


def test_snapshot_header_has_seventeen_fields(tmp_path):
    path = tmp_path / "snap.txt"
    write_snapshot(path, clifford_torus(8, 8))
    head = path.read_text(encoding="ascii").splitlines()[0].split()
    assert len(head) == 17
    assert head[0] == "MCF4D" and head[1] == "1"


def test_snapshot_writes_are_deterministic(tmp_path):
    state = clifford_torus(8, 8)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_snapshot(a, state)
    write_snapshot(b, state)
    assert a.read_bytes() == b.read_bytes()


def test_read_snapshot_error_paths(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="ascii")
    with pytest.raises(BadParameter):
        read_snapshot(empty)

    good = tmp_path / "good.txt"
    write_snapshot(good, clifford_torus(8, 8))
    lines = good.read_text(encoding="ascii").splitlines()

    bad_magic = tmp_path / "magic.txt"
    bad_magic.write_text("\n".join(["NOPE" + lines[0][5:]] + lines[1:]) + "\n",
                         encoding="ascii")
    with pytest.raises(BadParameter):
        read_snapshot(bad_magic)

    head = lines[0].split()
    head[1] = "2"
    bad_version = tmp_path / "version.txt"
    bad_version.write_text("\n".join([" ".join(head)] + lines[1:]) + "\n",
                           encoding="ascii")
    with pytest.raises(BadParameter):
        read_snapshot(bad_version)

    truncated = tmp_path / "short.txt"
    truncated.write_text("\n".join(lines[:10]) + "\n", encoding="ascii")
    with pytest.raises(BadParameter):
        read_snapshot(truncated)

    narrow = tmp_path / "narrow.txt"
    narrow.write_text(
        "\n".join([lines[0]] + [" ".join(l.split()[:3]) for l in lines[1:]])
        + "\n", encoding="ascii")
    with pytest.raises(BadParameter):
        read_snapshot(narrow)


def test_read_snapshot_names_the_line_of_a_bad_value(tmp_path):
    good = tmp_path / "good.txt"
    write_snapshot(good, clifford_torus(8, 8))
    lines = good.read_text(encoding="ascii").splitlines()

    bad_row = tmp_path / "row.txt"
    bad_row.write_text("\n".join(lines[:3] + ["0.1 zz 0 0"] + lines[4:])
                       + "\n", encoding="ascii")
    with pytest.raises(BadParameter, match="row.txt: line 4"):
        read_snapshot(bad_row)

    head = lines[0].split()
    head[2] = "8.5"
    bad_n1 = tmp_path / "n1.txt"
    bad_n1.write_text("\n".join([" ".join(head)] + lines[1:]) + "\n",
                      encoding="ascii")
    with pytest.raises(BadParameter, match="n1.txt: line 1"):
        read_snapshot(bad_n1)

    head[2:5] = ["8", "8", "7"]
    bad_flag = tmp_path / "flag.txt"
    bad_flag.write_text("\n".join([" ".join(head)] + lines[1:]) + "\n",
                        encoding="ascii")
    with pytest.raises(BadParameter, match="flag.txt: line 1"):
        read_snapshot(bad_flag)


@pytest.mark.parametrize("field, value, message", [
    (7, "0", "grid spacings must lie in"),
    (2, "4", "grid needs 8 to 4097 nodes per axis, got 4x8")],
    ids=["spacing1_zero", "n1_four"])
def test_read_snapshot_names_the_file_and_line_of_a_bad_grid(
        tmp_path, field, value, message):
    good = tmp_path / "good.txt"
    write_snapshot(good, clifford_torus(8, 8))
    lines = good.read_text(encoding="ascii").splitlines()
    head = lines[0].split()
    head[field] = value
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join([" ".join(head)] + lines[1:]) + "\n",
                   encoding="ascii")
    with pytest.raises(BadParameter,
                       match=f"^{re.escape(str(bad))}: line 1: {message}"
                       ) as err:
        read_snapshot(bad)
    assert err.value.__cause__ is None


@pytest.mark.parametrize("field, value, message", [
    (10, "nan", "shift1 must be finite"), (16, "inf", "shift2 must be finite"),
    (9, "-inf", "shift1 must be finite"), (6, "nan", "time must be finite")],
    ids=["shift1_nan", "shift2_inf", "shift1_minus_inf", "time_nan"])
def test_read_snapshot_rejects_a_non_finite_seam_shift_or_time(
        tmp_path, field, value, message):
    # Read without error, a nan seam shift would surface only at the first
    # geometry build, as a degenerate metric at node (0, 0).
    good = tmp_path / "good.txt"
    write_snapshot(good, lagrangian_graph(8, 8))
    lines = good.read_text(encoding="ascii").splitlines()
    head = lines[0].split()
    head[field] = value
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join([" ".join(head)] + lines[1:]) + "\n",
                   encoding="ascii")
    with pytest.raises(BadParameter, match=f"bad.txt: line 1: .*{message}"):
        read_snapshot(bad)


def test_readers_name_the_file_and_line_of_a_non_ascii_byte(tmp_path):
    good = tmp_path / "good.txt"
    write_snapshot(good, clifford_torus(8, 8))
    lines = good.read_bytes().splitlines()
    accented = tmp_path / "accented.txt"
    accented.write_bytes(b"\n".join(lines[:2] + [b"0.1 caf\xc3\xa9 0 0"]
                                    + lines[3:]) + b"\n")
    with pytest.raises(BadParameter, match="accented.txt: line 3: byte 0xc3"):
        read_snapshot(accented)

    cfg = tmp_path / "run.cfg"
    cfg.write_bytes("scenario.name = plane\n# café\n".encode("utf-8"))
    with pytest.raises(BadParameter, match="run.cfg: line 2"):
        read_config(cfg)


def test_read_snapshot_rejects_lines_after_the_position_rows(tmp_path):
    good = tmp_path / "good.txt"
    write_snapshot(good, clifford_torus(8, 8))
    lines = good.read_text(encoding="ascii").splitlines()

    # A header that undercounts the rows must not load a truncated surface.
    taller = tmp_path / "taller.txt"
    write_snapshot(taller, clifford_torus(9, 8))
    tall = taller.read_text(encoding="ascii").splitlines()
    head = tall[0].split()
    head[2] = "8"
    undercount = tmp_path / "undercount.txt"
    undercount.write_text("\n".join([" ".join(head)] + tall[1:]) + "\n",
                          encoding="ascii")
    with pytest.raises(BadParameter, match="undercount.txt: line 66"):
        read_snapshot(undercount)

    garbage = tmp_path / "garbage.txt"
    garbage.write_text("\n".join(lines + ["", "garbage"]) + "\n",
                       encoding="ascii")
    with pytest.raises(BadParameter, match="garbage.txt: line 67: 'garbage'"):
        read_snapshot(garbage)

    blank_tail = tmp_path / "blank.txt"
    blank_tail.write_text("\n".join(lines + ["", "  "]) + "\n",
                          encoding="ascii")
    back = read_snapshot(blank_tail)
    np.testing.assert_array_equal(back.positions, read_snapshot(good).positions)


def test_timeseries_schema_without_scan(tmp_path):
    trace = run_flow(clifford_torus(8, 8),
                     RunControls(dt=1e-3, max_steps=10, stride=5))
    path = tmp_path / "series.csv"
    write_timeseries(path, trace)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == ",".join(TIMESERIES_COLUMNS)
    # The schema README documents, column by column.
    assert lines[0] == ("step,t,area,max_A2,max_H2,min_cos_alpha,"
                        "min_cos_theta,psi,rhs_drift,rhs_dissipation,"
                        "rhs_gradient,min_detg")
    assert len(lines) == 1 + len(trace.states)
    first = lines[1].split(",")
    assert len(first) == len(TIMESERIES_COLUMNS)
    assert first[0] == "0"
    psi_col = TIMESERIES_COLUMNS.index("psi")
    assert first[psi_col] == "nan"


def test_timeseries_includes_scan_columns(tmp_path):
    trace = run_flow(lagrangian_graph(16, 16, 0.1),
                     RunControls(dt=1e-3, max_steps=6, stride=1))
    scan = monotonicity_scan(trace, GaussianWeight(LAGR_CENTER, 0.1),
                             "lagrangian")
    path = tmp_path / "series.csv"
    write_timeseries(path, trace, scan=scan)
    rows = [l.split(",") for l in
            path.read_text(encoding="ascii").splitlines()[1:]]
    psi_col = TIMESERIES_COLUMNS.index("psi")
    drift_col = TIMESERIES_COLUMNS.index("rhs_drift")
    got_psi = np.array([float(r[psi_col]) for r in rows])
    np.testing.assert_array_equal(got_psi, scan.psi)
    assert rows[0][drift_col] == "nan" and rows[-1][drift_col] == "nan"
    interior = np.array([float(r[drift_col]) for r in rows[1:-1]])
    np.testing.assert_array_equal(interior, scan.rhs_drift)


def test_report_serializes_numpy_and_dataclasses(tmp_path):
    payload = {
        "value": np.float64(1.5),
        "counts": np.arange(3),
        "ok": np.bool_(True),
        "pinch": PinchingReport(min_margin=0.25, violating_nodes=[3]),
        "nested": [(np.int64(2), np.float32(0.5)), {"x": np.array(7.0)}],
    }
    path = tmp_path / "report.json"
    write_report(path, payload)
    loaded = json.loads(path.read_text(encoding="ascii"))
    assert loaded == {
        "value": 1.5,
        "counts": [0, 1, 2],
        "ok": True,
        "pinch": {"min_margin": 0.25, "violating_nodes": [3]},
        "nested": [[2, 0.5], {"x": 7.0}],
    }
    with pytest.raises(TypeError, match="type object is not JSON serializable"):
        write_report(tmp_path / "bad.json", {"x": object()})


def test_float_format_roundtrips_doubles():
    for x in [np.pi, 1.0 / 3.0, 1e-300, -0.0, 1.7976931348623157e308,
              5e-324]:
        assert float(_fmt(x)) == x

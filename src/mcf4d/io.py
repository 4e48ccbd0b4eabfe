"""Plain-text serialization: config files, snapshots, time series, reports.

Formats are fixed and deterministic so identical runs produce byte-identical
artifacts.  Floats are written with 17 significant digits, which round-trips
IEEE doubles exactly.

Config files are flat ``key = value`` lines with at most one dot in the key
(section.name); blank lines and ``#`` comments are ignored.

A snapshot's first line is ``MCF4D 1 <n1> <n2> <periodic1:0|1>
<periodic2:0|1> <time> <spacing1> <spacing2> <shift1: 4 floats> <shift2: 4
floats>`` followed by n1*n2 rows of four position floats in row-major node
order, then nothing but blank lines.  Readers that only consume the first six
fields still see the documented core header; the trailing ten fields carry
what is needed to rebuild the parameter grid and seam data exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass

import numpy as np

from .errors import BadParameter
from .flow import FlowTrace
from .grid import ParamGrid, SurfaceState

SNAPSHOT_MAGIC = "MCF4D"
SNAPSHOT_VERSION = 1
TIMESERIES_COLUMNS = ("step", "t", "area", "max_A2", "max_H2",
                      "min_cos_alpha", "min_cos_theta", "psi", "rhs_drift",
                      "rhs_dissipation", "rhs_gradient", "min_detg")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines into a string-to-string dict.  A key
    set twice raises BadParameter naming both lines."""
    out: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise BadParameter(f"config line {lineno} has no '=': {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key or key.count(".") > 1:
            raise BadParameter(
                f"config line {lineno}: key {key!r} must be nonempty with at "
                "most one dot")
        if lines.setdefault(key, lineno) != lineno:
            raise BadParameter(f"config key {key!r} is set on line "
                               f"{lines[key]} and again on line {lineno}")
        out[key] = value.strip()
    return out


def _read_ascii(path) -> str:
    """Text of a file that must be ASCII; a byte outside ASCII raises
    BadParameter naming the file and the line."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise BadParameter(f"{path}: line {lineno}: byte "
                           f"{exc.object[exc.start]:#04x} is not ASCII"
                           ) from None


def read_config(path) -> dict:
    return parse_config_text(_read_ascii(path))


def write_snapshot(path, state: SurfaceState) -> None:
    """Write a surface state; reading it back reproduces it bit-exactly."""
    g = state.grid
    head = [SNAPSHOT_MAGIC, str(SNAPSHOT_VERSION), str(g.n1), str(g.n2),
            "1" if g.periodic1 else "0", "1" if g.periodic2 else "0",
            _fmt(state.time), _fmt(g.spacing1), _fmt(g.spacing2)]
    head += [_fmt(x) for x in state.shift1] + [_fmt(x) for x in state.shift2]
    rows = state.positions.reshape(-1, 4)
    lines = [" ".join(head)]
    lines += [" ".join(_fmt(x) for x in row) for row in rows]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parsed(path, lineno: int, tokens: list[str], kind: type) -> list:
    """Tokens of line ``lineno`` parsed as ``kind``; a token that does not
    parse raises BadParameter naming the file and the line."""
    try:
        return [kind(x) for x in tokens]
    except ValueError:
        raise BadParameter(f"{path}: line {lineno}: {' '.join(tokens)!r} "
                           f"holds a value that is not {kind.__name__}"
                           ) from None


def read_snapshot(path) -> SurfaceState:
    lines = _read_ascii(path).splitlines()
    if not lines:
        raise BadParameter(f"{path}: empty snapshot")
    head = lines[0].split()
    if len(head) != 17 or head[0] != SNAPSHOT_MAGIC:
        raise BadParameter(f"{path}: malformed snapshot header")
    version, n1, n2, periodic1, periodic2 = _parsed(path, 1, head[1:6], int)
    if version != SNAPSHOT_VERSION:
        raise BadParameter(f"{path}: unsupported snapshot version {version}")
    if {periodic1, periodic2} - {0, 1}:
        raise BadParameter(f"{path}: line 1: periodic flags must be 0 or 1")
    time, h1, h2, *shifts = _parsed(path, 1, head[6:], float)
    grid = ParamGrid(n1, n2, h1, h2, periodic1 == 1, periodic2 == 1)
    if len(lines) < 1 + n1 * n2:
        raise BadParameter(f"{path}: expected {n1 * n2} position rows")
    for i in range(1 + n1 * n2, len(lines)):
        if lines[i].strip():
            raise BadParameter(f"{path}: line {i + 1}: {lines[i]!r} follows "
                               f"the last of the {n1 * n2} position rows")
    rows = [_parsed(path, i + 2, lines[i + 1].split(), float)
            for i in range(n1 * n2)]
    for i, row in enumerate(rows):
        if len(row) != 4:
            raise BadParameter(f"{path}: line {i + 2}: expected 4 position "
                               f"floats, got {len(row)}")
    try:
        return SurfaceState(grid, np.array(rows).reshape(n1, n2, 4), time,
                            np.array(shifts[:4]), np.array(shifts[4:]))
    except BadParameter as exc:     # a time or seam shift of the header
        raise BadParameter(f"{path}: line 1: {exc}") from None


def write_timeseries(path, trace: FlowTrace, scan=None) -> None:
    """CSV of per-stored-sample diagnostics with a fixed column schema.

    The first seven and the last column come from the flow's scalar series at
    the stored steps; ``psi`` and the three ``rhs_*`` columns are filled from
    a monotonicity scan when one is supplied (the rhs terms exist only at
    interior samples) and are ``nan`` otherwise.
    """
    sc = trace.scalars
    step_to_row = {int(s): k for k, s in enumerate(sc.step)}
    picks = [step_to_row[int(s)] for s in trace.state_steps]
    m = len(picks)
    psi = np.full(m, np.nan)
    drift = np.full(m, np.nan)
    dissipation = np.full(m, np.nan)
    gradient = np.full(m, np.nan)
    if scan is not None:
        psi[:] = scan.psi
        drift[1:-1] = scan.rhs_drift
        dissipation[1:-1] = scan.rhs_dissipation
        gradient[1:-1] = scan.rhs_gradient
    lines = [",".join(TIMESERIES_COLUMNS)]
    for k, row in enumerate(picks):
        values = [str(int(sc.step[row])), _fmt(sc.t[row]), _fmt(sc.area[row]),
                  _fmt(sc.max_A2[row]), _fmt(sc.max_H2[row]),
                  _fmt(sc.min_cos_alpha[row]), _fmt(sc.min_cos_theta[row]),
                  _fmt(psi[k]), _fmt(drift[k]), _fmt(dissipation[k]),
                  _fmt(gradient[k]), _fmt(sc.min_detg[row])]
        lines.append(",".join(values))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_report(path, payload) -> None:
    """JSON report with sorted keys; dataclasses and arrays are unwrapped."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")

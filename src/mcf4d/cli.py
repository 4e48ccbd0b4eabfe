"""Command-line pipelines: simulate, rescale, verify, monotonicity, theorem,
cutoff-scan.

Every subcommand reads a flat ``key = value`` config file and accepts
exactly the keys it reads: any other key exits 2 before work starts.
Outputs are deterministic text artifacts in the configured output
directory.  Exit code 0 means success, 2 a configuration or precondition
error (a config file or output directory that cannot be opened among
them), 3 a numerical failure; in both failure cases the error class name
is printed on stderr.  A ``simulate`` run that ends on a degenerate mesh
exits 0 with its artifacts and names the failed step on stderr.  The
scenario's registry entry
(:data:`scenarios.SCENARIOS`) names the trace mode that reads its
``controls.*`` keys and builds its trace.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import io
from .errors import (BadParameter, Mcf4dError, OrderTooLow, PropertyViolation,
                     ShortTrace)
from .flow import FlowTrace, RunControls, estimate_singular_time, run_flow
from .functionals import (CUTOFF_CONSTANT, CUTOFF_SUP_ABS_FIRST,
                          CUTOFF_SUP_NEG_SECOND, EVOLUTION_QUANTITIES,
                          GaussianWeight, check_kind, check_localizer,
                          cutoff_psi, evolution_residual, monotonicity_scan)
from .grid import MAX_AXIS_NODES
from .rescale import (check_selection, select_blowup_datum, validate_rescaled,
                      with_rescaled)
from .scenarios import SCENARIOS, find_scenario, generate_scenario, mesh_flow
from .theorem import check_main_theorem, gradient_estimate_probe, normalize_flow

CONFIG_EXIT = 2
NUMERICAL_EXIT = 3
INT_LIMIT = 2 ** 31          # integer config values lie strictly inside +-this
MAX_SCAN_SAMPLES = 10 ** 6   # scan.samples: points of the cutoff scan


class Config(dict):
    """Config entries that remember every key :func:`_read` asked for."""

    def __init__(self, entries):
        super().__init__(entries)
        self.read = set()


def _read(cfg: Config, key: str, kind: type = float, default=None,
          required: bool = False, length: int | None = None):
    """Config value of ``key`` parsed as ``kind``; ``default`` when absent.

    ``kind`` is str, int (integral values of magnitude below INT_LIMIT
    only, so ``16`` and ``16.0`` but not ``16.9`` or ``1e300``), float, or
    list: whitespace-separated floats, exactly ``length`` of them when
    given, else at least one.  A value that does not parse raises
    BadParameter naming the key.  The key counts as read either way.
    """
    cfg.read.add(key)
    raw = cfg.get(key)
    if raw is None:
        if required:
            raise BadParameter(f"config key {key!r} is required")
        return default
    if kind is str:
        return raw
    try:
        if kind is list:
            values = [float(x) for x in raw.split()]
            if not values or (length and len(values) != length):
                raise ValueError
            return values
        value = float(raw)
        if kind is int:
            if not value.is_integer():
                raise ValueError
            if abs(value) >= INT_LIMIT:
                raise BadParameter(f"config key {key!r}: {raw!r} lies "
                                   f"outside the integer range +-2**31")
            return int(value)
        return value
    except ValueError:
        count = f" of {length} numbers" if length else ""
        raise BadParameter(f"config key {key!r}: {raw!r} is not a valid "
                           f"{kind.__name__}{count}") from None


def _check_read(cfg: Config) -> str:
    """Raise BadParameter naming every key of ``cfg`` the subcommand did not
    read, so a misspelt or ignored key is not dropped silently; else return
    the output directory.  A subcommand calls this after its last read and
    before it builds a state, runs a flow or creates a directory."""
    out = _read(cfg, "output.directory", str, ".")
    unread = sorted(set(cfg) - cfg.read)
    if unread:
        raise BadParameter(f"unknown config key {', '.join(map(repr, unread))}"
                           f"; this run reads {sorted(cfg.read)}")
    return out


def _scenario(cfg):
    """Configured scenario name and the ``scenario.*`` parameters given,
    typed by the scenario builder's signature; each must be finite."""
    name = _read(cfg, "scenario.name", str, required=True)
    params = {key: _read(cfg, f"scenario.{key}", kind)
              for key, kind in find_scenario(name).params().items()}
    params = {k: v for k, v in params.items() if v is not None}
    if not all(np.isfinite(v) for v in params.values()):
        raise BadParameter(f"scenario parameters must be finite: {params}")
    return name, params


def _trace(cfg):
    """Read the configured scenario's keys and return a function that builds
    its trace by the scenario's trace mode."""
    name, params = _scenario(cfg)
    entry = SCENARIOS[name]
    return entry.mode(entry.builder, params, functools.partial(_read, cfg))


def cmd_simulate(cfg, args) -> int:
    run = _trace(cfg)
    out = _check_read(cfg)
    trace = run()
    os.makedirs(out, exist_ok=True)
    io.write_timeseries(os.path.join(out, "timeseries.csv"), trace)
    io.write_snapshot(os.path.join(out, "snapshot_initial.txt"),
                      trace.states[0])
    io.write_snapshot(os.path.join(out, "snapshot_final.txt"),
                      trace.states[-1])
    sc = trace.scalars
    print(f"{trace.termination_reason}: {int(sc.step[-1])} steps, "
          f"t = {sc.t[-1]:.10g}, {len(trace.states)} stored states")
    failure = trace.meta.get("run_stats", {}).get("failure")
    if failure:
        print(f"step {failure['step']} from t = {failure['time']:.10g} "
              f"failed: {failure['error']}: {failure['message']}",
              file=sys.stderr)
    return 0


def _kind(cfg) -> str:
    """Configured ``run.kind``, by default the scenario's registry kind; read
    after :func:`_trace`, which checks the scenario name."""
    return _read(cfg, "run.kind", str,
                 SCENARIOS[_read(cfg, "scenario.name", str)].kind)


def cmd_monotonicity(cfg, args) -> int:
    weight = GaussianWeight(
        _read(cfg, "weight.center", list, required=True, length=4),
        _read(cfg, "weight.t0", required=True))
    run = _trace(cfg)
    kind = _kind(cfg)
    out = _check_read(cfg)
    check_kind(kind)
    trace = run()
    scan = monotonicity_scan(trace, weight, kind)
    os.makedirs(out, exist_ok=True)
    io.write_timeseries(os.path.join(out, "timeseries.csv"), trace, scan=scan)
    residual = scan.residual()
    report = {
        "weightKind": kind,
        "samples": int(len(scan.times)),
        "psiInitial": float(scan.psi[0]),
        "psiFinal": float(scan.psi[-1]),
        "maxLhs": float(scan.lhs.max()),
        "maxAbsResidual": float(np.abs(residual).max()),
    }
    io.write_report(os.path.join(out, "monotonicity_report.json"), report)
    print(f"monotone: max dPsi/dt = {report['maxLhs']:.6e}, "
          f"decomposition residual = {report['maxAbsResidual']:.6e}")
    return 0


def cmd_rescale(cfg, args) -> int:
    t_hat = _read(cfg, "rescale.T_hat")
    anchor = _read(cfg, "rescale.anchor", list, np.zeros(4), length=4)
    radii = _read(cfg, "rescale.radii", list, [0.25, 0.125, 0.0625])
    run = _trace(cfg)
    out = _check_read(cfg)
    check_selection(t_hat, anchor, radii)
    trace = run()
    if t_hat is None:
        t_hat = estimate_singular_time(trace).singular_time
    os.makedirs(out, exist_ok=True)
    entries = []
    first_rescaled = None
    for r_k in radii:
        record = with_rescaled(trace, select_blowup_datum(
            trace, t_hat, anchor, r_k))
        validation = validate_rescaled(record)
        if first_rescaled is None:
            rt = record.rescaledTrace
            first_rescaled = rt.states[int(np.argmin(np.abs(rt.times)))]
        entries.append({
            "rK": record.rK, "sigmaK": record.sigmaK,
            "lambdaK": record.lambdaK, "peakNode": record.peakNode,
            "peakTies": record.peakTies, "peakTime": record.peakTime,
            "peakPoint": record.peakPoint, "validation": validation,
        })
    io.write_report(os.path.join(out, "rescale_report.json"),
                    {"T_hat": t_hat, "records": entries})
    io.write_snapshot(os.path.join(out, "snapshot_rescaled.txt"),
                      first_rescaled)
    for e in entries:
        print(f"r_k = {e['rK']:.6g}: sigma_k = {e['sigmaK']:.6g}, "
              f"lambda_k = {e['lambdaK']:.6g}, "
              f"lambda^2 sigma^2 = {e['validation']['lambdaSigmaSq']:.6e}")
    return 0


def cmd_theorem(cfg, args) -> int:
    run = _trace(cfg)
    kind = _kind(cfg)
    p = _read(cfg, "run.p")
    radius = None if p is None else _read(cfg, "run.radius", float, 1e3)
    out = _check_read(cfg)
    if p is None:
        check_kind(kind)
    else:
        check_localizer(p, radius, kind)
    trace = run()
    probe = None if p is None else gradient_estimate_probe(
        normalize_flow(trace)["trace"], p, radius, kind)
    report = check_main_theorem(trace, kind)
    os.makedirs(out, exist_ok=True)
    io.write_report(os.path.join(out, "report.json"), report)
    if probe is not None:
        io.write_report(os.path.join(out, "probe.json"), probe)
    print(f"{kind}: lhs = {report.lhs:.10g}, verdict = {report.verdict}, "
          f"ancient = {report.hypotheses['ancient']}")
    return 0


def cmd_cutoff_scan(cfg, args) -> int:
    samples = _read(cfg, "scan.samples", int, 20001)
    if not 101 <= samples <= MAX_SCAN_SAMPLES:
        raise BadParameter(f"scan.samples must lie in [101, "
                           f"{MAX_SCAN_SAMPLES}], got {samples}")
    out = _check_read(cfg)
    r = np.linspace(0.0, 1.2, samples)
    cv = cutoff_psi(r)
    plateau = cv.value[r <= 0.5]
    tail = cv.value[r >= 1.0]
    ratio = np.where(cv.value > 0.0,
                     cv.first_deriv ** 2 / np.where(cv.value > 0.0,
                                                    cv.value, 1.0), 0.0)
    stats = {
        "samples": samples,
        "valueMin": float(cv.value.min()),
        "valueMax": float(cv.value.max()),
        "plateauError": float(np.abs(plateau - 1.0).max()),
        "tailError": float(np.abs(tail).max()),
        "maxFirst": float(cv.first_deriv.max()),
        "maxAbsFirst": float(np.abs(cv.first_deriv).max()),
        "maxNegSecond": float((-cv.second_deriv).max()),
        "maxRatio": float(ratio.max()),
        "boundAbsFirst": CUTOFF_SUP_ABS_FIRST,
        "boundNegSecond": CUTOFF_SUP_NEG_SECOND,
        "boundRatio": CUTOFF_CONSTANT,
    }
    ok = (0.0 <= stats["valueMin"] and stats["valueMax"] <= 1.0
          and stats["plateauError"] == 0.0 and stats["tailError"] == 0.0
          and stats["maxFirst"] <= 0.0
          and stats["maxAbsFirst"] <= CUTOFF_SUP_ABS_FIRST + 1e-9
          and stats["maxNegSecond"] <= CUTOFF_SUP_NEG_SECOND + 1e-9
          and stats["maxRatio"] <= CUTOFF_CONSTANT + 1e-6)
    stats["pass"] = bool(ok)
    os.makedirs(out, exist_ok=True)
    io.write_report(os.path.join(out, "cutoff_report.json"), stats)
    print(f"cutoff scan over {samples} samples: "
          f"max -psi'' = {stats['maxNegSecond']:.9g}, "
          f"max psi'^2/psi = {stats['maxRatio']:.9g}, "
          f"pass = {stats['pass']}")
    if not ok:
        raise PropertyViolation("cutoff profile property scan failed")
    return 0


def _short_level(level: int, leg: FlowTrace, first_step: int,
                 k_l: int) -> ShortTrace:
    """ShortTrace for a leg of verify level ``level`` that started at step
    ``first_step`` and stopped before the steps its residual needs."""
    return ShortTrace(f"level {level} ended with {leg.termination_reason!r} "
                      f"at step {first_step + leg.state_steps[-1]}; its "
                      f"residual needs steps {k_l - 1} to {k_l + 1}")


def cmd_verify(cfg, args) -> int:
    quantity, levels = args.quantity, args.refine
    if levels < 2:
        raise BadParameter("--refine must be at least 2")
    name, params = _scenario(cfg)
    dt = _read(cfg, "controls.dt", required=True)
    steps = _read(cfg, "controls.max_steps", int, required=True)
    _check_read(cfg)
    grid = (generate_scenario(name, **params).grid
            if SCENARIOS[name].mode is mesh_flow else None)
    if grid is None or not (grid.periodic1 and grid.periodic2):
        raise BadParameter("verify needs a mesh-flow scenario on a grid "
                           "periodic on both axes")
    # Level l runs the configured grid refined 2**l times; the finest must
    # fit before any level runs.  The cap changes no verdict: 8 * 2**16 >
    # MAX_AXIS_NODES.
    n1, n2 = grid.n1, grid.n2
    if max(n1, n2) * 2 ** min(levels - 1, 16) > MAX_AXIS_NODES:
        raise BadParameter(f"--refine {levels} needs more than "
                           f"{MAX_AXIS_NODES} nodes per axis")
    k_star = max(2, steps // 2)

    residuals = []
    print("level      n          dt     residual   order_dt")
    order = None
    for level in range(levels):
        n = n1 * 2 ** level
        dt_l = dt / 4.0 ** level
        k_l = k_star * 4 ** level
        state = generate_scenario(name, **{**params, "n1": n,
                                           "n2": n2 * 2 ** level})
        # The residual is read at step k_l (time k_star * dt) alone, from
        # steps k_l - 1, k_l and k_l + 1: the first leg keeps only its first
        # and last state, and the second takes two steps from that last one.
        lead = run_flow(state, RunControls(dt=dt_l, max_steps=k_l - 1,
                                           stride=k_l))
        if lead.termination_reason != "step_limit":
            raise _short_level(level, lead, 0, k_l)
        trace = run_flow(lead.states[-1],
                         RunControls(dt=dt_l, max_steps=2, stride=1))
        if len(trace.states) < 3:
            raise _short_level(level, trace, k_l - 1, k_l)
        res = evolution_residual(trace, quantity)
        value = float(np.nanmax(np.abs(res.values[0])))
        residuals.append(value)
        if level:
            with np.errstate(divide="ignore", invalid="ignore"):
                order = float(np.log(residuals[-2] / value) / np.log(4.0))
        print(f"{level:5d} {n:6d} {dt_l:11.4e} {value:12.5e}"
              + (f" {order:10.2f}" if order is not None else "          -"))
    if order is None or not np.isfinite(order) or order < 1.5:
        raise OrderTooLow(
            f"observed dt-order {order} for {quantity} is below 1.5")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "rescale": cmd_rescale,
    "verify": cmd_verify,
    "monotonicity": cmd_monotonicity,
    "theorem": cmd_theorem,
    "cutoff-scan": cmd_cutoff_scan,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcf4d",
        description="Mean curvature flow of surfaces in R^4: simulation, "
                    "blow-up rescaling, and angle-pinching diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True,
                        help="path to a key = value config file")
        if name == "verify":
            sp.add_argument("--quantity", required=True,
                            choices=EVOLUTION_QUANTITIES,
                            help="evolution identity to refine")
            sp.add_argument("--refine", type=int, default=3,
                            help="number of refinement levels (default 3)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](Config(io.read_config(args.config)),
                                      args)
    except (OSError, BadParameter) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return CONFIG_EXIT
    except Mcf4dError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT


if __name__ == "__main__":
    sys.exit(main())

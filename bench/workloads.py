"""The benchmark's three workloads: seeded inputs, one timed pass, checks.

Each workload is a closed loop with one client: the pass makes sequential
calls through mcf4d's public API and starts the next call only after the
previous one returns.  Every public call and every correctness check counts
as one attempted operation; a call that raises, or a check outside its
acceptance tolerance, counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from mcf4d import flow, functionals, io, rescale, scenarios, theorem

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


class PassFailed(Exception):
    """A public call raised, so the rest of the pass cannot run."""


class Ops:
    """Operations of one pass and the values its checks looked at."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checked: dict[str, object] = {}

    def call(self, label: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            raise PassFailed(label) from exc

    def check(self, label: str, ok: bool, value) -> None:
        self.attempted += 1
        self.checked[label] = value
        if not ok:
            self.failed += 1
            self.failures.append(f"check {label} failed: {value!r}")


def su2_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-random special unitary 2x2 matrix as a real 4x4 acting on
    (x1, y1, x2, y2); it preserves both the Kahler and the Lagrangian angle."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    a, b = complex(q[0], q[1]), complex(q[2], q[3])
    u = np.array([[a, b], [-b.conjugate(), a.conjugate()]])
    out = np.zeros((4, 4))
    for r in range(2):
        for c in range(2):
            out[2 * r, 2 * c] = u[r, c].real
            out[2 * r, 2 * c + 1] = -u[r, c].imag
            out[2 * r + 1, 2 * c] = u[r, c].imag
            out[2 * r + 1, 2 * c + 1] = u[r, c].real
    return out


class RigidMotion:
    """Seeded map x -> R (x - c) with R in SU(2); points of interest (weight
    centres, rescale anchors) move with the surface."""

    def __init__(self, rng: np.random.Generator):
        self.rotation = su2_rotation(rng)
        self.offset = rng.uniform(-1.0, 1.0, 4)

    def state(self, state):
        return state.transformed(offset=self.offset, rotation=self.rotation)

    def point(self, x) -> np.ndarray:
        return self.rotation @ (np.asarray(x, dtype=float) - self.offset)


def _warm_flow(initial) -> None:
    """First calls on a grid: derivative matrices, einsum paths, BLAS."""
    trace = flow.run_flow(initial, flow.RunControls(stride=1, max_steps=2))
    trace.bundle(1, need_j=True)


class TorusBlowup:
    """Integrator-bound: n = 24 Clifford torus to max|A|^2 = 1e4 with every
    step stored, then the singular-time fit and blow-up rescaling at three
    radii."""

    name = "torus_blowup"
    N = 24
    R0 = 1.0
    RADII = (0.25, 0.125, 0.0625)

    def __init__(self, seed: int):
        self.motion = RigidMotion(np.random.default_rng(seed))
        self.initial = self.motion.state(
            scenarios.clifford_torus(self.N, self.N, self.R0))
        self.anchor = self.motion.point(np.zeros(4))
        self.controls = flow.RunControls(stride=1, blowup_threshold=1e4)

    def warm_up(self) -> None:
        _warm_flow(self.initial)

    def run_pass(self, ops: Ops) -> dict:
        t0 = time.perf_counter()
        trace = ops.call("run_flow", flow.run_flow, self.initial, self.controls)
        t1 = time.perf_counter()
        verdict = ops.call("estimate_singular_time",
                           flow.estimate_singular_time, trace)
        validations = []
        for r_k in self.RADII:
            rec = ops.call(f"select_blowup_datum {r_k}",
                           rescale.select_blowup_datum, trace,
                           verdict.singular_time, self.anchor, r_k)
            rec = ops.call(f"with_rescaled {r_k}", rescale.with_rescaled,
                           trace, rec)
            val = ops.call(f"validate_rescaled {r_k}",
                           rescale.validate_rescaled, rec)
            validations.append((r_k, rec, val))
        t2 = time.perf_counter()

        t_hat = verdict.singular_time
        ops.check("T_hat", abs(t_hat - 0.5 * self.R0 ** 2) <= 1e-3, t_hat)
        ops.check("classification", verdict.classification == "TypeI",
                  verdict.classification)
        start, stop = verdict.window
        sc = trace.scalars
        rate_err = float(np.abs((t_hat - sc.t[start:stop])
                                * sc.max_A2[start:stop] - 1.0).max())
        ops.check("rate", rate_err <= 0.05, rate_err)
        for r_k, rec, val in validations:
            ops.check(f"originNorm {r_k}", abs(val["originNorm"] - 1.0) <= 1e-3,
                      val["originNorm"])
            ops.check(f"supBound {r_k}", val["supBound"] <= 4.05,
                      val["supBound"])
            ops.check(f"lambdaSigmaSq {r_k}",
                      0.0 < val["lambdaSigmaSq"] <= 4.0, val["lambdaSigmaSq"])
            dist = float(np.linalg.norm(rec.peakPoint - self.anchor))
            ops.check(f"peak in ball {r_k}",
                      dist <= r_k * (1.0 + rescale.BALL_SLACK), dist)
        t3 = time.perf_counter()
        return {"wall_s": t3 - t0, "flow_s": t1 - t0, "analysis_s": t2 - t1}

    def close(self) -> None:
        pass


class GraphDiagnostics:
    """Analysis-bound: Lagrangian and symplectic graphs at 48^2, fixed dt,
    60 steps stored every fourth step (16 states each, more than the trace's
    12-entry bundle cache holds), then every stored-state analysis."""

    name = "graph_diagnostics"
    N = 48
    AMPLITUDE = 0.1
    CONTROLS = flow.RunControls(dt=2.5e-4, max_steps=60, stride=4)
    WEIGHT_T0 = 0.1
    PROBE_RADIUS = 1e3
    # kind -> (initial surface builder, Gaussian centre, probe exponent p,
    #          evolution identities checked on this flow)
    KINDS = {
        "lagrangian": (scenarios.lagrangian_graph,
                       (np.pi, 0.0, np.pi, 0.0), 0.9,
                       ("cos_theta", "inv_cos_theta", "H2")),
        "symplectic": (scenarios.symplectic_graph,
                       (np.pi, np.pi, 0.0, -0.1), 0.45,
                       ("cos_alpha", "inv_cos2_alpha")),
    }

    def __init__(self, seed: int):
        self.motion = RigidMotion(np.random.default_rng(seed))
        self.initial = {}
        self.weight = {}
        for kind, (build, center, _, _) in self.KINDS.items():
            self.initial[kind] = self.motion.state(
                build(self.N, self.N, self.AMPLITUDE))
            self.weight[kind] = functionals.GaussianWeight(
                self.motion.point(center), self.WEIGHT_T0)

    def warm_up(self) -> None:
        for state in self.initial.values():
            _warm_flow(state)

    def run_pass(self, ops: Ops) -> dict:
        t0 = time.perf_counter()
        traces = {kind: ops.call(f"run_flow {kind}", flow.run_flow,
                                 self.initial[kind], self.CONTROLS)
                  for kind in self.KINDS}
        t1 = time.perf_counter()
        lagr, sympl = traces["lagrangian"], traces["symplectic"]
        scans = {kind: ops.call(f"monotonicity_scan {kind}",
                                functionals.monotonicity_scan, traces[kind],
                                self.weight[kind], kind)
                 for kind in self.KINDS}
        ident = ops.call("weighted_integral_identity_check",
                         functionals.weighted_integral_identity_check, lagr,
                         self.weight["lagrangian"])
        residuals = {}
        for kind, (_, _, _, quantities) in self.KINDS.items():
            for q in quantities:
                residuals[q] = ops.call(f"evolution_residual {q}",
                                        functionals.evolution_residual,
                                        traces[kind], q)
        margins = []
        for i in range(len(sympl.states)):
            bundle = ops.call(f"bundle {i}", sympl.bundle, i, need_j=True)
            margins.append(ops.call(f"pinching_check {i}",
                                    functionals.pinching_check, bundle))
        reports, probes = {}, {}
        for kind, (_, _, p, _) in self.KINDS.items():
            reports[kind] = ops.call(f"check_main_theorem {kind}",
                                     theorem.check_main_theorem, traces[kind],
                                     kind)
            normalized = ops.call(f"normalize_flow {kind}",
                                  theorem.normalize_flow, traces[kind])
            probes[kind] = ops.call(f"gradient_estimate_probe {kind}",
                                    theorem.gradient_estimate_probe,
                                    normalized["trace"], p, self.PROBE_RADIUS,
                                    kind)
        t2 = time.perf_counter()

        for kind in self.KINDS:
            lhs_max = float(scans[kind].lhs.max())
            ops.check(f"psi lhs {kind}", lhs_max <= 1e-6, lhs_max)
        gap = float(np.abs(ident.residual
                           - scans["lagrangian"].residual()).max())
        ops.check("identity vs scan", gap <= 1e-10, gap)
        for q, res in residuals.items():
            ops.check(f"residual finite {q}",
                      bool(np.all(np.isfinite(res.values))), res.max_abs())
        for i, rep in enumerate(margins):
            ops.check(f"pinching margin {i}", rep.min_margin >= -1e-6,
                      rep.min_margin)
        for kind in self.KINDS:
            rep = reports[kind]
            ops.check(f"theorem {kind}",
                      rep.verdict == "violated" and not rep.claims_disproof(),
                      (rep.verdict, rep.lhs))
            resid = probes[kind]["inequalityResidualMin"]
            ops.check(f"probe residual {kind}", resid >= -1e-12, resid)
        t3 = time.perf_counter()
        return {"wall_s": t3 - t0, "flow_s": t1 - t0, "analysis_s": t2 - t1}

    def close(self) -> None:
        pass


def _config(lines: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


class CliPipeline:
    """Every subcommand as users run it, one ``python -m mcf4d.cli`` process
    each, then a read-back of every written snapshot."""

    name = "cli_pipeline"
    # Subcommands whose process runs the flow integrator; their wall time is
    # flow_s, the rest (and the read-back) is analysis_s.
    FLOW_COMMANDS = ("simulate", "monotonicity", "rescale", "verify")
    SNAPSHOTS = (("simulate", "snapshot_initial.txt"),
                 ("simulate", "snapshot_final.txt"),
                 ("rescale", "snapshot_rescaled.txt"))
    RADII = (0.25, 0.125, 0.0625)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.x_max = float(rng.uniform(1.3, 1.45))
        self.radius = float(rng.uniform(0.9, 1.1))
        scratch = ROOT / ".bench_work"
        scratch.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="cli_", dir=scratch))
        self.first_hashes: dict[str, str] | None = None
        r = self.radius
        configs = {
            "simulate": {"scenario.name": "clifford_torus",
                         "scenario.n1": 32, "scenario.n2": 32,
                         "scenario.radius": repr(r), "controls.dt": "1e-4",
                         "controls.max_steps": 100, "controls.stride": 20},
            "monotonicity": {"scenario.name": "lagrangian_graph",
                             "scenario.n1": 32, "scenario.n2": 32,
                             "scenario.amplitude": 0.1,
                             "controls.dt": "2.5e-4",
                             "controls.max_steps": 40, "controls.stride": 1,
                             "run.kind": "lagrangian",
                             "weight.center":
                                 f"{np.pi!r} 0 {np.pi!r} 0",
                             "weight.t0": 0.1},
            # The run stops at the same scaled curvature for every radius,
            # so the step count does not depend on the seed.
            "rescale": {"scenario.name": "clifford_torus",
                        "scenario.n1": 16, "scenario.n2": 16,
                        "scenario.radius": repr(r), "controls.stride": 1,
                        "controls.blowup_threshold": repr(1e4 / r ** 2),
                        "rescale.radii": " ".join(repr(k * r)
                                                  for k in self.RADII)},
            "theorem": {"scenario.name": "grim_reaper_product",
                        "scenario.n1": 1025,
                        "scenario.x_max": repr(self.x_max),
                        "controls.t_end": 0.1, "controls.samples": 5,
                        "run.p": 0.9},
            "verify": {"scenario.name": "lagrangian_graph",
                       "scenario.n1": 16, "scenario.n2": 16,
                       "controls.dt": "9.6e-3", "controls.max_steps": 4},
            "cutoff-scan": {},
        }
        self.commands = []
        for sub, cfg in configs.items():
            cfg["output.directory"] = str(self.out(sub))
            path = self.work / f"{sub}.cfg"
            path.write_text(_config(cfg), encoding="ascii")
            extra = ["--quantity", "cos_theta", "--refine", "3"] \
                if sub == "verify" else []
            self.commands.append((sub, ["--config", str(path), *extra]))

    def out(self, sub: str) -> Path:
        return self.work / "out" / sub

    def warm_up(self) -> None:
        """Each subcommand process pays its own import and first calls."""

    def _spawn(self, sub: str, argv: list[str], spans: Path | None):
        """Run one subcommand process; return (exit code, wall s, peak RSS
        in KiB, tail of its output)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        if spans is None:
            cmd = [sys.executable, "-m", "mcf4d.cli", sub, *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"),
                   str(spans), sub, *argv]
        log = self.work / f"{sub}.log"
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                    env=env, cwd=self.work)
            # wait4 gives this child's own peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_maxrss,
                log.read_text(errors="replace")[-2000:])

    def run_pass(self, ops: Ops, span_files: Path | None = None) -> dict:
        """One pass; with ``span_files`` each process runs under the tracer
        and writes its spans there."""
        shutil.rmtree(self.work / "out", ignore_errors=True)
        walls, rss = {}, []
        t0 = time.perf_counter()
        for sub, argv in self.commands:
            spans = None if span_files is None else span_files / f"{sub}.json"
            code, wall, maxrss, log = self._spawn(sub, argv, spans)
            walls[sub] = wall
            rss.append(maxrss)
            ops.attempted += 1
            if code != 0:
                ops.failed += 1
                ops.failures.append(f"{sub} exited {code}: {log}")
        t1 = time.perf_counter()
        round_trip = {}
        for sub, name in self.SNAPSHOTS:
            path = self.out(sub) / name
            state = ops.call(f"read_snapshot {name}", io.read_snapshot, path)
            copy = self.work / f"roundtrip_{name}"
            ops.call(f"write_snapshot {name}", io.write_snapshot, copy, state)
            round_trip[name] = copy.read_bytes() == path.read_bytes()
        t2 = time.perf_counter()

        for name, same in round_trip.items():
            ops.check(f"round trip {name}", same, same)
        ops.call("read reports", self._check_reports, ops)
        hashes = {str(p.relative_to(self.work / "out")):
                  hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted((self.work / "out").rglob("*")) if p.is_file()}
        if self.first_hashes is None:
            self.first_hashes = hashes
        ops.check("artifacts match first pass", hashes == self.first_hashes,
                  sorted(k for k in hashes
                         if hashes[k] != self.first_hashes.get(k)))
        ops.checked["artifacts"] = hashes
        t3 = time.perf_counter()
        flow_s = sum(walls[s] for s in self.FLOW_COMMANDS)
        return {"wall_s": t3 - t0, "flow_s": flow_s,
                "analysis_s": (t1 - t0) - flow_s + (t2 - t1),
                "peak_rss_kib": max(rss), "command_s": walls}

    def _report(self, sub: str, name: str):
        return json.loads((self.out(sub) / name).read_text())

    def _check_reports(self, ops: Ops) -> None:
        mono = self._report("monotonicity", "monotonicity_report.json")
        ops.check("monotonicity maxLhs", mono["maxLhs"] <= 1e-6,
                  mono["maxLhs"])
        ops.check("monotonicity samples", mono["samples"] == 41,
                  mono["samples"])
        res = self._report("rescale", "rescale_report.json")
        expect_t = 0.5 * self.radius ** 2
        ops.check("rescale T_hat",
                  abs(res["T_hat"] - expect_t) <= 1e-3 * self.radius ** 2,
                  res["T_hat"])
        for rec in res["records"]:
            val = rec["validation"]
            ops.check(f"rescale originNorm {rec['rK']}",
                      abs(val["originNorm"] - 1.0) <= 1e-3, val["originNorm"])
            ops.check(f"rescale supBound {rec['rK']}", val["supBound"] <= 4.05,
                      val["supBound"])
            ops.check(f"rescale lambdaSigmaSq {rec['rK']}",
                      0.0 < val["lambdaSigmaSq"] <= 4.0, val["lambdaSigmaSq"])
        thm = self._report("theorem", "report.json")
        expect = float(np.cos(self.x_max) * np.exp(0.5))
        ops.check("ridge lhs", abs(thm["lhs"] - expect) <= 1e-6, thm["lhs"])
        ops.check("ridge verdict", thm["verdict"] == "satisfied"
                  and thm["hypotheses"]["ancient"] is False, thm["verdict"])
        probe = self._report("theorem", "probe.json")
        ops.check("ridge probe keys", set(probe) == {
            "maxGF", "interiorMax", "inequalityResidualMin"}, sorted(probe))
        cut = self._report("cutoff-scan", "cutoff_report.json")
        ops.check("cutoff pass", cut["pass"] is True, cut["pass"])

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        scratch = self.work.parent
        if scratch.is_dir() and not any(scratch.iterdir()):
            scratch.rmdir()


WORKLOADS = {cls.name: cls for cls in (TorusBlowup, GraphDiagnostics,
                                       CliPipeline)}

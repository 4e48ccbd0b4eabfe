"""Benchmark of mcf4d: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload torus_blowup --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout.  It sets up the workload, repeats whole
passes of it for about ``--seconds`` seconds, checks every pass against the
paper's closed forms at the acceptance tolerances, and prints a detail line
(environment, per-metric samples with quartiles) followed, as its last line,
by one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of the traced passes plus
trace.overhead_ratio; the checked values of every traced pass must equal
those of the first untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
BLAS_THREADS = 1
# Least number of fresh processes timed for setup_s; the median is reported.
SETUP_SAMPLES = 7
END_TO_END = {"setup_s": "s", "wall_s": "s", "flow_s": "s", "analysis_s": "s",
              "peak_rss_mb": "MiB", "pass_ratio": "1"}
TIMINGS = ("setup_s", "wall_s", "flow_s", "analysis_s")
# Host-speed correction (README.md): on a shared host the CPU speed drifts by
# up to ~1.5x for minutes at a time and moves every timing of a run together.
# A reference kernel that does not use mcf4d is timed between rounds, and each
# timing is scaled by REFERENCE_S over the mean of the reference times on
# either side of it.  REFERENCE_S is about the kernel's time on the 2-vCPU
# Xeon (Sapphire Rapids, KVM) the benchmark was written on, in its fast state.
REFERENCE_S = 0.3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("torus_blowup", "graph_diagnostics",
                            "cli_pipeline"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_blas_threads() -> None:
    """Run BLAS single-threaded (set before numpy is imported; subprocesses
    inherit it).  On a 2-core machine two BLAS threads were no faster than
    one, and 4-6x slower whenever another process shared the cores."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)), "src_lines": src_lines}


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def reference_seconds() -> float:
    """Time of the reference kernel: the three kinds of work mcf4d's passes
    do (interpreter loops, numpy calls on small arrays, sweeps over 1 MB
    arrays) on fixed inputs, so that only the host's speed changes it.  Its
    buffers take about 2 MB, so it does not move the run's peak RSS."""
    import numpy as np

    rng = np.random.default_rng(0)
    d = rng.standard_normal((24, 24))
    f = rng.standard_normal((4, 24, 24))
    sweep = rng.standard_normal(2 ** 17)
    out = np.empty_like(sweep)
    acc = 0.0
    start = time.perf_counter()
    for k in range(1_500_000):
        acc += k * 3 % 7
    for _ in range(2000):
        g = np.einsum("ij,cjk->cik", d, f)
        h = np.einsum("cij,cij->ij", g, f)
        acc += float((np.sqrt(np.abs(h) + 1.0) - h / (1.0 + h * h)).max())
    for _ in range(200):
        np.multiply(sweep, sweep, out=out)
        out += 1.0
        acc += float(np.sqrt(out, out=out).sum())
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise ArithmeticError("reference kernel produced a non-finite sum")
    return elapsed


def speed_factor(reference_times: list[float]) -> float:
    """Correction for the round between the last two reference times."""
    return 2.0 * REFERENCE_S / (reference_times[-2] + reference_times[-1])


def setup_probe(args) -> int:
    """Set the workload up in this fresh process and report readiness."""
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        wl.warm_up()
        print("ready", flush=True)
    finally:
        wl.close()
    return 0


def time_setup(args, ops) -> float | None:
    """One setup_s sample: a fresh process timed from its start to ready
    (imports, seeded inputs, warm-up; the configs of the CLI workload)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    _, err = proc.communicate()
    ok = line.strip() == "ready" and proc.returncode == 0
    ops.check("setup probe", ok, err[-2000:])
    return elapsed if ok else None


def run_pass(wl, ops, **kwargs) -> dict | None:
    """One pass; None when a public call raised (the failure is in ``ops``)."""
    import workloads

    try:
        return wl.run_pass(ops, **kwargs)
    except workloads.PassFailed:
        return None


def measure(args, wl) -> tuple[dict, list]:
    """Untraced passes for about ``args.seconds``: a pass starts only if one
    more round of the last round's length still fits.  A round is a setup_s
    sample, a pass and a reference time, so that setup_s and the passes
    spread over the same time and each is corrected by the reference times
    on either side of it.  The measured timings are kept as ``raw.<name>``."""
    import workloads

    samples = {key: [] for key in TIMINGS}
    samples.update({f"raw.{key}": [] for key in TIMINGS})
    samples["reference_s"] = [reference_seconds()]
    setup_ops = workloads.Ops()
    all_ops, rss = [setup_ops], []

    def record(key, value, speed):
        samples[f"raw.{key}"].append(value)
        samples[key].append(value * speed)

    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        setup = time_setup(args, setup_ops)
        ops = workloads.Ops()
        all_ops.append(ops)
        res = run_pass(wl, ops)
        samples["reference_s"].append(reference_seconds())
        speed = speed_factor(samples["reference_s"])
        if setup is not None:
            record("setup_s", setup, speed)
        if res is None:
            break
        for key in ("wall_s", "flow_s", "analysis_s"):
            record(key, res[key], speed)
        if "peak_rss_kib" in res:
            rss.append(res["peak_rss_kib"])
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    while setup_ops.attempted < SETUP_SAMPLES:
        setup = time_setup(args, setup_ops)
        samples["reference_s"].append(reference_seconds())
        if setup is not None:
            record("setup_s", setup, speed_factor(samples["reference_s"]))
    if not rss:
        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    samples["peak_rss_mb"] = [max(rss) / 1024.0]
    return samples, all_ops


def traced_pass(wl, ops, reference) -> tuple[dict | None, dict]:
    """One pass under the span recorder: its result and its layer metrics.

    Its checked values must equal those of the untraced ``reference`` pass,
    and every mcf4d binding must be restored afterwards.
    """
    import tracer
    import workloads
    from mcf4d import stencils

    recorder = tracer.SpanRecorder()
    before = tracer.package_bindings()
    kwargs = {}
    if isinstance(wl, workloads.CliPipeline):
        kwargs["span_files"] = Path(tempfile.mkdtemp(prefix="spans_",
                                                     dir=wl.work))
    with tracer.instrument(recorder):
        res = run_pass(wl, ops, **kwargs)
    if res is not None:
        ops.check("traced equals untraced", ops.checked == reference,
                  sorted(k for k in ops.checked
                         if ops.checked[k] != reference.get(k)))
    ops.check("mcf4d bindings restored", tracer.package_bindings() == before,
              "")
    misses = stencils.derivative_matrix.cache_info().misses
    if kwargs:
        misses = 0
        for path in sorted(kwargs["span_files"].glob("*.json")):
            child = json.loads(path.read_text())
            recorder.extend_records(child["spans"])
            misses += child["misses"]
    metrics = tracer.layer_metrics(recorder.spans)
    metrics["stencils.derivative_matrix.misses"] = misses
    commands = res.get("command_s", {}) if res else {}
    for sub in tracer.CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}.total_s"] = commands.get(sub, 0.0)
    return res, metrics


def measure_traced(args, wl) -> tuple[dict, list]:
    """Alternate untraced and traced passes for about ``args.seconds``."""
    import workloads
    # Load every module the tracer rebinds before recording the bindings.
    from mcf4d import cli  # noqa: F401

    all_ops, walls, traced_walls, layers = [], [], [], []
    reference = None
    start = time.perf_counter()
    while True:
        ops = workloads.Ops()
        all_ops.append(ops)
        res = run_pass(wl, ops)
        if res is None:
            break
        reference = ops.checked if reference is None else reference
        ops = workloads.Ops()
        all_ops.append(ops)
        traced, metrics = traced_pass(wl, ops, reference)
        if traced is None:
            break
        walls.append(res["wall_s"])
        traced_walls.append(traced["wall_s"])
        layers.append(metrics)
        if time.perf_counter() - start + res["wall_s"] + traced["wall_s"] \
                > args.seconds:
            break
    if not layers:
        return {}, all_ops
    samples = {key: [m[key] for m in layers] for key in layers[0]}
    samples["trace.overhead_ratio"] = [
        statistics.median(traced_walls) / statistics.median(walls)]
    return samples, all_ops


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mcf4d" / "__init__.py").is_file():
        print(f"bench: no mcf4d sources under {ROOT / 'src'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args)

    import tracer
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        wl.warm_up()
        if args.trace:
            samples, all_ops = measure_traced(args, wl)
            units = {k: u for k, (u, _) in tracer.per_layer_metrics().items()}
        else:
            samples, all_ops = measure(args, wl)
            units = END_TO_END
    finally:
        wl.close()
    attempted = sum(o.attempted for o in all_ops)
    failed = sum(o.failed for o in all_ops)
    if not args.trace:
        samples["pass_ratio"] = [1.0 - failed / attempted]
    correct = failed == 0 and all(samples.get(k) for k in units)

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(),
              "samples": {k: summary(v) for k, v in sorted(samples.items())
                          if v},
              "failures": [f for o in all_ops for f in o.failures][:20]}
    print(json.dumps({"detail": detail}))
    metrics = {k: {"value": statistics.median(samples[k]) if samples.get(k)
                   else 0.0, "unit": unit} for k, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

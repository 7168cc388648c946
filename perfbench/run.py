"""Benchmark for switchsde: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the package is imported from its ``src/``):

    python3 perfbench/run.py --workload lq-riccati --seed 1 --seconds 20 --trace 0

A run builds the workload's inputs from the seed, repeats timed passes over
them for about ``--seconds`` seconds, checks every output against an
oracle, and prints a report followed, on the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run makes untraced
passes, then traced passes, and reports the per-layer metrics. See
perfbench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_trace"
BLAS_THREADS = 1
# fixed before numpy loads, in this process and in every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_SAMPLES = 5
# about calibration_kernel()'s time on the quiet 2-core machine the benchmark
# was written on; end-to-end times are reported at that machine speed
CAL_REF_S = 0.007
now = time.perf_counter

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "part1_s": "s",
    "part2_s": "s",
}

# per-workload names of part1_s and part2_s in the report: (name, unit, scale)
NAMED_PARTS = {
    "lq-riccati": (("riccati_solve_ms", "ms", 1e3), ("lq_sweep_s", "s", 1.0)),
    "hjb-grid": (("stationary_s", "s", 1.0), ("ladder_s", "s", 1.0)),
    "mc-paths": (("horizon_s", "s", 1.0), ("exit_s", "s", 1.0)),
    "cli-commands": (("cmd_p50_ms", "ms", 1e3), ("import_ms", "ms", 1e3)),
}


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit."""
    units = {
        "riccati.rk4_ms_per_1k_steps.scalar": "ms",
        "riccati.rk4_ms_per_1k_steps.reference": "ms",
        "riccati.rhs_us": "us",
        "riccati.feedback_cost_ms_per_1k_steps": "ms",
        "riccati.steps": "count",
        "robustness.lq_row_ms": "ms",
    }
    for crit in ("discounted", "exit", "finite-horizon", "ergodic"):
        units[f"robustness.grid_row_ms.{crit}"] = "ms"
    units["robustness.eps_row_ms"] = "ms"
    for crit in ("discounted", "exit", "finite-horizon"):
        units[f"hjbgrid.solve_ms.{crit}"] = "ms"
        units[f"hjbgrid.eval_ms.{crit}"] = "ms"
        units[f"hjbgrid.outer_iters.{crit}"] = "count"
    units["hjbgrid.ergodic_ms"] = "ms"
    for alpha in (0.2, 0.1, 0.05, 0.025):
        units[f"hjbgrid.eval_sweeps.alpha_{alpha}"] = "count"
    units.update({
        "simulate.stepper_init_ms": "ms",
        "simulate.refill_ms.sigma0": "ms",
        "simulate.refill_ms.sigma": "ms",
        "simulate.step_us": "us",
        "simulate.path_steps": "count",
        "costs.msteps_per_s.discounted_sigma0": "Msteps/s",
        "costs.msteps_per_s.discounted_sigma": "Msteps/s",
        "costs.msteps_per_s.exit": "Msteps/s",
        "costs.live_row_ratio": "ratio",
        "model.validate_ms": "ms",
        "model.from_dict_ms": "ms",
        "model.perturb_seq_ms": "ms",
        "cli.import_ms": "ms",
    })
    for cmd in ("validate", "riccati", "simulate", "cost", "hjb", "ergodic", "robustness", "eps-check"):
        units[f"cli.cmd_ms.{cmd}"] = "ms"
    units["cli.parse_ms"] = "ms"
    units["cli.artifact_bytes"] = "bytes"
    for layer in ("model", "riccati", "hjbgrid", "simulate", "costs", "robustness", "cli"):
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.calls"] = "count"
    units["trace.overhead_pct"] = "%"
    units["trace.spans"] = "count"
    units["src.lines"] = "lines"
    units["calibration_ms"] = "ms"
    return units


def src_state() -> tuple[str, int]:
    """SHA-256 over the package sources, and their line count."""
    h = hashlib.sha256()
    lines = 0
    for p in sorted((SRC / "switchsde").rglob("*.py")):
        data = p.read_bytes()
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return h.hexdigest(), lines


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def timed_setups(args) -> list[tuple[float, float]]:
    """Fresh interpreters that import, build inputs and warm up: (wall, calibration)."""
    import workloads

    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    ops = {}
    for _ in range(SETUP_SAMPLES):
        workloads.timed(ops, "setup", subprocess.run, argv, env=child_env(), check=True,
                        stdout=subprocess.DEVNULL)
    return ops["setup"]


def run_pass(pass_fn, inp, checks, tracer=None, ctx=None) -> dict:
    """One timed pass; with a tracer, under span wrappers, keeping its spans."""
    child_spans = tracer is not None and hasattr(inp, "span_dir")
    if child_spans:
        inp.span_dir = Path(tempfile.mkdtemp(dir=ctx.work))
    if tracer is not None:
        tracer.install()
    try:
        t = now()
        res = pass_fn(inp, checks)
        res["wall"] = now() - t
    finally:
        if tracer is not None:
            tracer.uninstall()
    if child_spans:
        for f in sorted(inp.span_dir.glob("*.json")):
            tracer.adopt(json.loads(f.read_text()))
        inp.span_dir = None
    if tracer is not None:
        res["spans"] = tracer.take()
    return res


def calibrated(samples) -> float:
    """Median over (wall, calibration) samples of wall * CAL_REF_S / calibration.

    Other tenants of a shared machine slow everything on it by tens of
    percent in bursts of seconds; dividing each sample by the calibration
    measured around it removes that, and the median removes the rest.
    """
    return statistics.median(t * CAL_REF_S / c for t, c in samples)


def op_times(results) -> tuple[dict, float]:
    """Calibrated time of each operation over the passes, and of one pass."""
    samples = {}
    for r in results:
        for op, pairs in r["ops"].items():
            samples.setdefault(op, []).extend(pairs)
    times = {op: calibrated(pairs) for op, pairs in samples.items()}
    wall = sum(times[op] * len(pairs) for op, pairs in results[0]["ops"].items())
    return times, wall


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def layer_values(results, probes, untraced_wall, src_lines) -> tuple[dict, dict]:
    """Per-layer metrics: the workload's own traced passes, then the probes.

    A metric that the workload's own passes do not feed (a layer it does not
    load) is taken from the first probe that feeds it, so every metric is
    measured in every traced run.
    """
    import tracing

    def pass_metrics(r):
        m = tracing.layer_metrics(r["spans"])
        m["cli.artifact_bytes"] = r.get("artifact_bytes")
        return m

    own = [pass_metrics(r) for r in results]
    probe_metrics = [(name, pass_metrics(r)) for name, r in probes]
    values, sources = {}, {}
    for key in per_layer_units():
        got = [m[key] for m in own if m.get(key) is not None]
        if got:
            values[key], sources[key] = statistics.median(got), "own"
            continue
        for name, m in probe_metrics:
            if m.get(key) is not None:
                values[key], sources[key] = m[key], f"probe {name}"
                break
    traced_wall = op_times(results)[1]
    values["calibration_ms"] = 1e3 * statistics.median(
        c for r in results for pairs in r["ops"].values() for _, c in pairs)
    values["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
    values["trace.spans"] = len(results[0]["spans"])
    values["src.lines"] = src_lines
    for key in ("calibration_ms", "trace.overhead_pct", "trace.spans", "src.lines"):
        sources[key] = "own"
    return values, sources


def print_layer_tables(results, probes) -> None:
    import tracing

    print("self time per layer, per traced pass (ms; span time minus direct child spans):")
    runs = [("own", r) for r in results[:1]] + [(f"probe {n}", r) for n, r in probes]
    print("  layer       " + "".join(f"{name:>22}" for name, _ in runs))
    tables = [tracing.layer_table(r["spans"]) for _, r in runs]
    for layer in tracing.LAYERS:
        cells = "".join(f"{t[layer][0]:>14.1f} ({t[layer][1]:>5d})" for t in tables)
        print(f"  {layer:<12}{cells}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "switchsde" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}/switchsde; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import switchsde

    if Path(switchsde.__file__).resolve().parent != (SRC / "switchsde").resolve():
        print(f"error: switchsde imported from {switchsde.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import warnings

    warnings.filterwarnings("ignore", message=".*nudged.*")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    build, pass_fn, parts = workloads.WORKLOADS[args.workload]

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        ctx = SimpleNamespace(work=work, env=child_env())
        if args.setup_only:
            workloads.warm_up(args.workload, build(args.seed, False, ctx))
            return 0
        return measure(args, build, pass_fn, parts, ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, build, pass_fn, parts, ctx) -> int:
    import numpy
    import scipy
    import workloads

    digest_before, src_lines = src_state()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"environment: nproc={nproc} python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__} blas_threads={BLAS_THREADS} src_lines={src_lines} "
          f"src_sha256={digest_before[:16]}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")

    setups = timed_setups(args)
    inp = build(args.seed, False, ctx)
    workloads.warm_up(args.workload, inp)

    checks = workloads.Checks()
    untraced, traced, probes = [], [], []
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    try:
        # traced runs alternate untraced and traced passes, so both see the
        # same machine and the difference is the tracing overhead
        start = now()
        while True:
            untraced.append(run_pass(pass_fn, inp, checks))
            if tracer is not None:
                traced.append(run_pass(pass_fn, inp, checks, tracer, ctx))
            per_round = (now() - start) / len(untraced)
            if len(untraced) >= (1 if tracer else 2) and now() - start + per_round > args.seconds:
                break
        if tracer is not None:
            for name, (pbuild, pfn, _) in workloads.WORKLOADS.items():
                if name != args.workload:
                    pctx = SimpleNamespace(work=Path(tempfile.mkdtemp(dir=ctx.work)), env=ctx.env)
                    pinp = pbuild(args.seed, True, pctx)
                    workloads.warm_up(name, pinp)
                    probes.append((name, run_pass(pfn, pinp, checks, tracer, pctx)))
    except Exception:
        traceback.print_exc()
        print("error: a pass raised; no metrics", file=sys.stderr)
        return 1
    for r in (untraced + traced)[1:]:
        if r["digest"] is not None:
            checks.expect("outputs identical across passes", r["digest"] == untraced[0]["digest"])
    checks.expect("src/ unchanged by the run", src_state()[0] == digest_before)

    times, wall = op_times(untraced)
    part1, part2 = parts(times)
    e2e = {"wall_s": wall, "setup_s": calibrated(setups), "peak_rss_mb": peak_rss_mb(),
           "part1_s": part1, "part2_s": part2}
    print(f"untraced passes: {len(untraced)}; times at calibration {1e3 * CAL_REF_S:g} ms")
    print("  operation                       runs   raw median s   calibration ms   calibrated s")
    for op, pairs in [("setup", setups)] + [(op, [p for r in untraced for p in r["ops"][op]]) for op in times]:
        print(f"  {op:<30}{len(pairs):>5}{statistics.median(t for t, _ in pairs):>15.4f}"
              f"{1e3 * statistics.median(c for _, c in pairs):>17.4f}{calibrated(pairs):>15.4f}")
    for (name, unit, scale), value in zip(NAMED_PARTS[args.workload], (part1, part2)):
        print(f"  {name} = {value * scale:.6g} {unit}")
    if "path_steps" in untraced[0]:
        for label, steps, secs in zip(("horizon", "exit"), untraced[0]["path_steps"], (part1, part2)):
            print(f"  {label}_msteps_per_s = {steps / secs / 1e6:.6g} Msteps/s")
    for key, value in e2e.items():
        print(f"  {key} = {value:.6g} {END_TO_END[key]}")
    failed = len(checks.failures)
    print(f"checks: attempted={checks.attempted} failed={failed} "
          f"failed_frac={failed / max(checks.attempted, 1):.4g}")
    for line in checks.failures:
        print(f"  FAIL {line}")

    if args.trace:
        values, sources = layer_values(traced, probes, wall, src_lines)
        print(f"traced passes: {len(traced)}; probes: {', '.join(n for n, _ in probes)}")
        print_layer_tables(traced, probes)
        units = per_layer_units()
        for key, unit in units.items():
            print(f"  {key} = {values.get(key, 0.0):.6g} {unit} [{sources.get(key, 'missing')}]")
        metrics = {k: {"value": float(values.get(k, 0.0)), "unit": u} for k, u in units.items()}
        TRACE_OUT.mkdir(exist_ok=True)
        out = TRACE_OUT / f"{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "passes": [r["spans"] for r in traced],
            "probes": {n: r["spans"] for n, r in probes},
        }))
        print(f"spans written to {out.relative_to(ROOT)}")
    else:
        metrics = {k: {"value": float(v), "unit": END_TO_END[k]} for k, v in e2e.items()}

    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The p3prime benchmark: one command, three workloads, untraced or traced.

    python3 bench/run.py --workload {series_highorder,trajectory,cli} --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports p3prime from src/ and needs
nothing built.  Each workload is a closed loop with one client.

--trace 0 measures the workload for S seconds of op time with tracing off
and prints the end-to-end metrics.  The machine this benchmark was written
on ran the same code up to 20-30 % slower, at times 2x, for minutes at a
time, so a fixed calibration task, chosen per workload, is timed before each
op (workloads.calibration), and the op times of the in-process workloads are
scaled by a power (SLOWNESS_EXP) of its median time over its typical time.
Set-up and CLI commands run in fresh interpreters, dominated by start-up and
imports, which the calibration does not track; their times are not scaled.
The unscaled figures are in the report line.

--trace 1 runs the workload for S/2 seconds of op time, alternating
untraced and traced input cycles (the difference in ops per second is the
tracing overhead), then makes the fixed traced layer pass (layers.py) and
prints the per-layer metrics, unscaled; the spans go to
.bench_work/trace-<workload>-<seed>.json.

Human-readable report lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"correct" is false when an op returned output that failed its check;
"failed" also counts ops that raised or exited non-zero.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread here and, through the environment, in every child
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics as catalogue  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
# Op time follows calibration time to about this power: when the machine
# speeds up or slows down, the small calibration tasks change more than the
# ops do.  Fitted log-log slopes of op time on calibration time, over runs
# and over passes of identical inputs, ranged 0.48 to 0.86 (median 0.70);
# scaling by the full ratio made runs in fast spells of the machine read
# 20-30 % slow.
SLOWNESS_EXP = 0.7
WORKLOAD_NAMES = tuple(catalogue.WORKLOADS)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Workload:
    """Inputs, op, check, cycle length and finishing step of one workload."""

    def __init__(self, name: str, env: dict, workdir: Path, trace_dir: Path | None = None):
        import workloads as wl

        self.name = name
        self.in_process = name != "cli"
        if name == "series_highorder":
            self.inputs, self.op, self.check = wl.series_inputs, wl.series_op, wl.series_check
            self.cycle, self.finish, self.warmup_ops = len(wl.SERIES_ORDERS), wl.series_finish, 3
            self.cal_task = "products"
        elif name == "trajectory":
            self.inputs, self.op, self.check = wl.trajectory_inputs, wl.trajectory_op, wl.trajectory_check
            self.cycle, self.finish, self.warmup_ops = 1, wl.trajectory_finish, 2
            self.cal_task = "stepper"
        else:
            runner = wl.CliRunner(workdir, env, trace_dir)
            self.inputs, self.op, self.check = wl.cli_inputs, runner.op, runner.check
            self.cycle, self.finish, self.warmup_ops = len(wl.CLI_COMMANDS), wl.cli_finish, 0
            self.cal_task = "products"  # reported only; cli times are not scaled

    def warm_up(self, seed: int) -> None:
        """Import and first-call costs, paid before timing.  Warm-up ops are
        neither checked nor counted; one that raises one of p3prime's errors
        has still paid its share."""
        import workloads as wl

        inputs = self.inputs(seed, wl.WARMUP)
        for _ in range(self.warmup_ops):
            try:
                self.op(next(inputs))
            except (ValueError, RuntimeError):  # DomainError, IntegrationError and kin
                pass


def setup_probe(name: str, seed: int) -> int:
    """Body of the child process whose wall time is one setup_s sample."""
    Workload(name, {}, WORK).warm_up(seed)
    return 0


def measure_setup(name: str, seed: int, env: dict) -> float:
    """Median wall time of fresh interpreters doing the workload's set-up:
    import plus warm-up in-process, ``import p3prime.cli`` for cli."""
    if name == "cli":
        argv = [sys.executable, "-c", "import p3prime.cli"]
    else:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=60, capture_output=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def slowness(samples: list) -> float:
    """How much slower than typical the machine ran: the median calibration() ratio."""
    return statistics.median(samples)


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def quantile_ms(latencies: list, q: int) -> float:
    """q-th percentile in ms, interpolating between order statistics."""
    if len(latencies) < 2:
        return 1e3 * latencies[0] if latencies else math.nan
    return 1e3 * statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def untraced_run(w: Workload, seed: int, seconds: float, env: dict) -> tuple[dict, dict, list]:
    import workloads as wl

    setup_s = measure_setup(w.name, seed, env)
    if w.in_process:
        w.warm_up(seed)
    res = wl.run_ops(w.op, w.check, w.inputs(seed, wl.TIMED), w.cycle, seconds=seconds, cal_task=w.cal_task)
    peak = peak_rss_mb(w.in_process)
    extra = w.finish(res)  # the extended-precision reference runs here, after timing
    lat = res.latencies
    raw = {
        "ops_per_s": res.ops_per_s,
        "op_p50_ms": quantile_ms(lat, 50),
        "op_p90_ms": quantile_ms(lat, 90),
        "setup_s": setup_s,
    }
    slow = slowness(res.slowness)
    scale = slow**SLOWNESS_EXP if w.in_process else 1.0
    metrics = {
        "ops_per_s": raw["ops_per_s"] * scale,
        "op_p50_ms": raw["op_p50_ms"] / scale,
        "op_p90_ms": raw["op_p90_ms"] / scale,
        "setup_s": setup_s,
        "peak_rss_mb": peak,
    }
    report = {
        "ops_completed": len(lat),
        "op_p90_samples_beyond": sum(1e3 * x > raw["op_p90_ms"] for x in lat),
        "failed_frac": res.failed / res.attempted,
        **extra,
        "slowness": slow,
        "unscaled": raw,
    }
    return metrics, report, [res]


def traced_run(w: Workload, seed: int, seconds: float, env: dict) -> tuple[dict, dict, list]:
    import layers
    import workloads as wl
    from tracer import Tracer

    if w.in_process:
        w.warm_up(seed)
    for other in ("series_highorder", "trajectory"):  # the layer pass runs both in-process
        if other != w.name:
            Workload(other, env, WORK).warm_up(seed)
    # untraced and traced input cycles alternate, so a slow spell of the
    # machine hits both sides; the two streams visit the same input design
    untraced, traced, tracer = wl.LoopResult(), wl.LoopResult(), Tracer()
    traced_w = w if w.in_process else Workload(w.name, env, WORK / "cli", trace_dir=WORK / "child-traces")
    (WORK / "child-traces").mkdir(parents=True, exist_ok=True)
    plain_inputs, traced_inputs = w.inputs(seed, wl.TIMED), traced_w.inputs(seed, wl.TRACED)
    while untraced.busy_s + traced.busy_s < seconds / 2:
        wl.run_ops(w.op, w.check, plain_inputs, w.cycle, count=w.cycle, result=untraced, cal_task=w.cal_task)
        if w.in_process:
            with tracer.installed():
                wl.run_ops(w.op, w.check, traced_inputs, w.cycle, count=w.cycle, tracer=tracer,
                           label="op." + w.name, result=traced, cal_task=w.cal_task)
        else:
            wl.run_ops(traced_w.op, traced_w.check, traced_inputs, w.cycle, count=w.cycle, result=traced)
    metrics, results, layer_tracer, summaries = layers.layer_pass(seed, env, WORK / "cli")
    metrics["trace.untraced_ops_per_s"] = untraced.ops_per_s
    metrics["trace.traced_ops_per_s"] = traced.ops_per_s
    metrics["trace.overhead_frac"] = 1.0 - traced.ops_per_s / untraced.ops_per_s
    results = [untraced, traced, *results]
    metrics["failed_frac"] = sum(r.failed for r in results) / sum(r.attempted for r in results)
    trace_file = WORK / f"trace-{w.name}-{seed}.json"
    trace_file.write_text(json.dumps({
        "workload_spans": tracer.spans,
        "workload_counts": dict(tracer.counts),
        "layer_pass_spans": layer_tracer.spans,
        "layer_pass_summary": layer_tracer.summary(),
        "cli_child_summaries": summaries,
    }), encoding="utf-8")
    report = {"trace_file": str(trace_file.relative_to(ROOT)),
              "slowness": slowness(untraced.slowness + traced.slowness),
              "self_s": {k: v["self_s"] for k, v in layer_tracer.summary()["spans"].items()}}
    return metrics, report, results


def _number(v):
    return v if isinstance(v, int) or math.isfinite(v) else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "p3prime" / "__init__.py").is_file():
        print(f"error: {SRC / 'p3prime'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    env = child_env()
    shutil.rmtree(WORK / "cli", ignore_errors=True)
    shutil.rmtree(WORK / "child-traces", ignore_errors=True)
    (WORK / "cli").mkdir(parents=True, exist_ok=True)
    try:
        w = Workload(args.workload, env, WORK / "cli")
        if args.trace:
            metrics, report, results = traced_run(w, args.seed, args.seconds, env)
            names = catalogue.PER_LAYER
        else:
            metrics, report, results = untraced_run(w, args.seed, args.seconds, env)
            names = catalogue.END_TO_END
    finally:
        shutil.rmtree(WORK / "cli", ignore_errors=True)
        shutil.rmtree(WORK / "child-traces", ignore_errors=True)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    wrong = sum(r.wrong for r in results)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops attempted, {failed} failed ({wrong} with wrong output)")
    for r in results:
        for line in r.failures[:20]:
            print("  failed:", line)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {names[name][0]}")
    print("  report:", json.dumps(report, default=str))
    out = {name: {"value": _number(metrics[name]), "unit": names[name][0]} for name in names}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The traced layer pass and the probes behind the per-layer metrics.

Every traced run makes the same pass, whatever its workload: a fixed number
of series_highorder and trajectory ops in-process under the tracer, the four
CLI commands in traced child interpreters, an order sweep of run_scheme, the
criterion-5 increment iteration, the criterion-1 error at the rounding-tail
anchors, an import-time probe and a line count of src/.  With fixed op counts and inputs drawn from the seed, every count
repeats exactly for a given seed; only times vary.
"""

from __future__ import annotations

import json
import math
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from tracer import Tracer

LAYER_SERIES_OPS = 6  # two cycles of orders 20, 40, 80
LAYER_TRAJECTORY_OPS = 10
SWEEP_REPEATS = {5: 20, 20: 10, 40: 5, 80: 3, 160: 1}  # order: calls, median taken
INCREMENT_REPEATS = 3


def _criterion5_anchor():
    from p3prime.acceptance import REF_LAM3, REF_PARAMS, REF_ROOTS
    from p3prime.equation import RootAnchor

    return RootAnchor(REF_ROOTS[4], 1, REF_LAM3[0]), REF_PARAMS


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def order_sweep() -> dict:
    """run_scheme times at the criterion-5 anchor and the log-log growth
    exponent over orders 20..160."""
    from p3prime.series import run_scheme

    a, p = _criterion5_anchor()
    ms = {n: 1e3 * _median_time(lambda: run_scheme(a, p, n), k) for n, k in SWEEP_REPEATS.items()}
    xs = [math.log(n) for n in ms if n >= 20]
    ys = [math.log(ms[n]) for n in ms if n >= 20]
    xbar, ybar = statistics.fmean(xs), statistics.fmean(ys)
    growth = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum((x - xbar) ** 2 for x in xs)
    out = {f"series.run_scheme_o{n}_ms": v for n, v in ms.items()}
    out["series.run_scheme_growth_exp"] = growth
    return out


def increments_probe() -> float:
    """algorithm_increments at n = 40 on criterion 5's anchor and samples."""
    from p3prime.bounds import algorithm_increments, convergence_bounds

    a, p = _criterion5_anchor()
    bs = convergence_bounds(a, p, 0.5)
    h = bs.alpha_tilde * abs(a.t0)
    samples = [a.t0 + f * h for f in (-0.9, -0.45, 0.1, 0.5, 0.9)]
    return _median_time(lambda: algorithm_increments(a, p, 40, samples, bounds=bs), INCREMENT_REPEATS)


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")  # indent: 2 per level


def import_probe(env: dict) -> dict:
    """``python -X importtime -c 'import p3prime.cli'``: the whole import,
    and the share spent in scipy modules (sum of their self times)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import p3prime.cli"],
                          cwd=wl.ROOT, env=env, capture_output=True, text=True, timeout=60, check=True)
    total_us = scipy_us = 0
    for m in _IMPORTTIME.finditer(proc.stderr):
        self_us, cum_us, indent, name = int(m[1]), int(m[2]), m[3], m[4]
        if name.split(".")[0] == "p3prime" and not indent:
            total_us += cum_us
        if name.split(".")[0] == "scipy":
            scipy_us += self_us
    return {"cli.import_s": total_us * 1e-6, "cli.import_scipy_s": scipy_us * 1e-6}


def src_lines() -> int:
    return sum(len(f.read_text(encoding="utf-8").splitlines()) for f in sorted((wl.SRC / "p3prime").glob("*.py")))


def _layer_metrics(tr: Tracer) -> dict:
    tot = tr.totals()
    calls = lambda name: tot.get(name, (0, 0.0, 0.0))[0]
    total_s = lambda name: tot.get(name, (0, 0.0, 0.0))[1]
    crossings = tr.counts["ode.crossings"]
    return {
        "series.run_scheme_calls": calls("series.run_scheme"),
        "series.run_scheme_s": total_s("series.run_scheme"),
        "series.residual_order_s": total_s("series.residual_order"),
        "poles.root_to_pole_s": total_s("poles.root_to_pole"),
        "bounds.convergence_bounds_s": total_s("bounds.convergence_bounds"),
        "equation.rhs_scalar_calls": tr.counts["equation.rhs_scalar_calls"],
        "equation.third_derivative_calls": tr.counts["equation.third_derivative_calls"],
        "ode.integrate_s": total_s("ode.integrate"),
        "ode.steps": tr.counts["ode.steps"],
        "ode.solve_ivp_calls": calls("ode.solve_ivp"),
        "ode.crossings": crossings,
        "ode.pole_stops": tr.counts["ode.pole_stops"],
        "ode.crossing_fit_s": total_s("ode.least_squares"),
        "ode.crossing_fit_nfev": tr.counts["ode.crossing_fit_nfev"],
        "ode.run_scheme_per_crossing": tr.calls_under("series.run_scheme", "ode.integrate") / crossings if crossings else 0.0,
        "ode.crossing_fit_unsuccessful": tr.counts["ode.crossing_fit_unsuccessful"],
        "ode.find_roots_s": total_s("ode.find_roots"),
        "ode.lam3_at_root_s": total_s("ode.lam3_at_root"),
    }


def _child_metrics(summaries: dict) -> dict:
    """io and acceptance times from the traced CLI children."""
    io_s = sum(v["self_s"] for s in summaries.values() for k, v in s["spans"].items() if k.startswith("io."))
    out = {"io.write_s": io_s}
    criteria = summaries.get("verify", {}).get("criteria_s") or [[math.nan] * 9]
    out.update({f"acceptance.criterion_{k + 1}_s": v for k, v in enumerate(criteria[0])})
    return out


def layer_pass(seed: int, env: dict, workdir: Path):
    """Returns (per-layer metrics, [loop results], in-process tracer, child summaries)."""
    tracer = Tracer()
    with tracer.installed():
        s = wl.run_ops(wl.series_op, wl.series_check, wl.series_inputs(seed, wl.LAYER), 3,
                       count=LAYER_SERIES_OPS, tracer=tracer, label="op.series_highorder")
        t = wl.run_ops(wl.trajectory_op, wl.trajectory_check, wl.trajectory_inputs(seed, wl.LAYER), 1,
                       count=LAYER_TRAJECTORY_OPS, tracer=tracer, label="op.trajectory")
    trace_dir = workdir / "child-traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    runner = wl.CliRunner(workdir, env, trace_dir=trace_dir)
    c = wl.run_ops(runner.op, runner.check, iter(wl.CLI_COMMANDS), len(wl.CLI_COMMANDS), count=len(wl.CLI_COMMANDS))
    summaries = {}
    for name, _ in wl.CLI_COMMANDS:
        for f in trace_dir.glob(f"{name}-*.json"):
            summaries[name] = json.loads(f.read_text(encoding="utf-8"))

    metrics = _layer_metrics(tracer)
    metrics.update(_child_metrics(summaries))
    metrics.update(order_sweep())
    metrics["bounds.algorithm_increments_s"] = increments_probe()
    metrics.update(import_probe(env))
    metrics["src.lines"] = src_lines()
    metrics["coeff_err_max"] = wl.series_finish(s)["coeff_err_max"]
    metrics["series.rounding_tail_err"] = wl.rounding_tail_error()
    metrics["span_covered_frac"] = wl.trajectory_finish(t)["span_covered_frac"]
    metrics["ode.lam3_gap_max"] = wl.trajectory_finish(t)["lam3_gap_max"]
    metrics.update(wl.cli_finish(c))
    return metrics, [s, t, c], tracer, summaries

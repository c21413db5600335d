"""The three workloads: seeded inputs, one op each, the op's output check,
and the closed loop (one client) that runs ops and counts failures.

Inputs come from ``numpy.random.default_rng([seed, stream])``.  Warm-up,
timed, traced and layer-pass ops draw from different streams, so no input of
an in-process workload repeats within a run.  The p3prime modules are
imported inside the ops, so a run loads only what its workload uses.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WARMUP, TIMED, TRACED, LAYER = range(4)  # input streams

SERIES_ORDERS = (20, 40, 80)
SERIES_T0_MIN = 1.0  # see series_inputs
# (t0, sgn, lam3, chi0, chi_inf): draws of criterion 1's ranges on which
# run_scheme's order-5 prefix misses lam6_reference by 1.1e-12 to 2.7e-12
# (found by scanning 40 000 draws; lam6_reference agrees with the
# extended-precision reference to 3e-16 on each)
ROUNDING_TAIL_ANCHORS = (
    (-0.5354048331291923, -1, 0.49112485207815304, 2.8383257588727364, -1.6948244718233922),
    (0.46643686403546314, -1, 1.4503589854936934, 2.8322849696870476, 2.5441637646522253),
    (-0.5407971559551369, 1, -9.017973106653937, -1.8921019086706516, 1.801113101199853),
    (0.5457810236819077, -1, 6.884040988006646, 2.357718764295588, 2.0524504281439597),
    (0.3002386942419676, -1, 9.435823817712468, -2.4983846956850444, -0.7360680002108957),
    (-0.35691726759001013, -1, -0.6206467889521541, 2.6891716760949196, 2.833601347082321),
)
GRID_FRACS = tuple(float(x) for x in np.logspace(-3, -1, 25))  # dt/t0, as in criterion 2
ORACLE_TOL = 1e-12  # criterion 1 and criterion 7
TRAJ_SPAN = (0.05, 3.0)
TRAJ_DESIGN = 128  # points of the trajectory input design
DESIGN_SEED = 1729  # acceptance.DEFAULT_SEED
LAM3_GAP_TOL = 0.01  # criterion 3
SLOPE_TOL = 1e-3  # criterion 3

_WORKED = ["--chi0", "-0.811597", "--chiinf", "-0.0550042"]
CLI_COMMANDS = (
    ("expand_root", ["expand-root", *_WORKED, "--t0", "0.511115", "--sgn", "+1", "--lam3", "-9.01149", "--order", "5"]),
    ("lam3", ["lam3", *_WORKED, "--cauchy", "0.833651:0.288298:0.374531", "--span", "0.01:2"]),
    ("verify", ["verify"]),
    ("appendix", ["reproduce-appendix"]),
)


@dataclass(frozen=True)
class SeriesInput:
    t0: float
    sgn: int
    lam3: float
    chi0: float
    chi_inf: float
    order: int


@dataclass(frozen=True)
class TrajectoryInput:
    chi0: float
    chi_inf: float
    t_init: float
    lam0: float
    lamdot0: float


def series_inputs(seed: int, stream: int):
    """Draw ranges of ``acceptance._draws``, except |t0| in U(SERIES_T0_MIN, 3)
    rather than U(0.3, 3); the validity order cycles 20, 40, 80.

    run_scheme's rounding error grows like a power of 1/|t0|.  Over 40 000
    draws of the acceptance ranges, 21 had a dt^0..dt^5 prefix off
    lam6_reference by 1.0e-12 to 2.7e-12, beyond criterion 1's 1e-12, all at
    |t0| < 0.75; at |t0| >= 1 the worst was 4.2e-13.  An op on such a draw
    fails its check, so a run of ~160 ops would fail about one time in
    twelve.  The timed inputs stay where the check holds; the defect is
    measured on every traced run at fixed anchors (ROUNDING_TAIL_ANCHORS).
    """
    rng = np.random.default_rng([seed, stream])
    for i in itertools.count():
        chi0, chi_inf = rng.uniform(-3, 3, 2)
        t0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(SERIES_T0_MIN, 3))
        lam3 = float(rng.uniform(-10, 10))
        yield SeriesInput(t0, 1 if i % 2 == 0 else -1, lam3, float(chi0), float(chi_inf), SERIES_ORDERS[i % 3])


def trajectory_inputs(seed: int, stream: int):
    """chi0, chi_inf in U(-1.5, 1.5); t_init in U(0.2, 2.5); |lam0| in
    U(0.2, 1.5) with a random sign; lamdot0 in U(-1.5, 1.5).

    Op cost varies strongly, and not additively, with the draw (coefficient
    of variation about 0.6; it follows the number of roots), so the mean of
    a run of ~130 independent draws moves by ~5 % from seed to seed.  The
    inputs therefore follow a fixed Latin-hypercube design of TRAJ_DESIGN
    points, whose stratum pairing and order are drawn once from
    DESIGN_SEED.  The seed places every point inside its strata, afresh on
    each pass over the design: inputs never repeat and another seed gives
    other inputs, while every run does comparable work.
    """
    strata = np.argsort(np.random.default_rng(DESIGN_SEED).random((TRAJ_DESIGN, 6)), axis=0)
    rng = np.random.default_rng([seed, stream])
    while True:
        for u in ((strata + rng.random(strata.shape)) / TRAJ_DESIGN).tolist():  # Python floats, as the CLI passes
            lam0 = (1.0 if u[3] < 0.5 else -1.0) * (0.2 + 1.3 * u[4])
            yield TrajectoryInput(-1.5 + 3 * u[0], -1.5 + 3 * u[1], 0.2 + 2.3 * u[2], lam0, -1.5 + 3 * u[5])


def cli_inputs(seed: int, stream: int):
    """The four commands in a seeded order per cycle.  The commands repeat by
    design: repeated identical invocations must write identical files."""
    rng = np.random.default_rng([seed, stream])
    while True:
        for k in rng.permutation(len(CLI_COMMANDS)):
            yield CLI_COMMANDS[k]


# ---------------------------------------------------------------------------
# ops and checks; a check returns None or the reason the output is wrong


def series_op(x: SeriesInput):
    from p3prime import bounds, poles, series
    from p3prime.equation import DomainError, EquationParams, RootAnchor

    a, p = RootAnchor(x.t0, x.sgn, x.lam3), EquationParams(x.chi0, x.chi_inf)
    lam3s, mu = series.run_scheme(a, p, x.order)
    lam = series.assemble_lambda(a, lam3s, p)
    try:
        slope = series.residual_order(lam, p, [a.t0 * f for f in GRID_FRACS])
    except DomainError as exc:
        # residual_order's documented answer for a series whose residual is
        # rounding dust to its working order (|t0| >~ 1.7 at orders 40, 80):
        # no slope can be measured, and nothing is wrong
        if "vanishes to working precision" not in str(exc):
            raise
        slope = None
    le = poles.root_to_pole(a, p, x.order)
    bounds.convergence_bounds(a, p, 0.5)
    return lam3s, mu, slope, le


def series_check(x: SeriesInput, out, stats: dict):
    from p3prime.equation import EquationParams, RootAnchor
    from p3prime.poles import pole_b5_reference
    from p3prime.series import lam6_reference
    from reference import coeff_error

    lam3s, mu, slope, le = out
    a, p = RootAnchor(x.t0, x.sgn, x.lam3), EquationParams(x.chi0, x.chi_inf)
    stats.setdefault("coeffs", []).append((x, lam3s.trusted()))
    if slope is None:
        stats["residual_at_precision"] = stats.get("residual_at_precision", 0) + 1
    values = [*lam3s.coeffs, *mu.coeffs, le.residue, *le.regular_coeffs, *([] if slope is None else [slope])]
    if not all(math.isfinite(v) for v in values):
        return "non-finite coefficient"
    err = coeff_error(lam3s.trusted()[:6], lam6_reference(a, p).trusted())
    if err > ORACLE_TOL:
        return f"cubic-factor prefix off lam6_reference by {err:.1e}"
    ref = pole_b5_reference(a, p)
    err = coeff_error([le.residue, *le.trusted()[:5]], [ref.residue, *ref.trusted()])
    if err > ORACLE_TOL:
        return f"pole prefix off pole_b5_reference by {err:.1e}"
    return None


def series_finish(res) -> dict:
    """coeff_err_max against the extended-precision reference; run after
    the timed phase."""
    from reference import coeff_error, cubic_factor_coeffs, self_check

    self_check()
    worst = 0.0
    for x, got in res.stats.get("coeffs", ()):
        ref = cubic_factor_coeffs(x.t0, x.sgn, x.lam3, x.chi0, x.chi_inf, x.order)
        worst = max(worst, coeff_error(got, ref))
    return {"coeff_err_max": worst, "residual_at_precision": res.stats.get("residual_at_precision", 0)}


def rounding_tail_error() -> float:
    """Largest criterion-1 error (order-5 prefix against lam6_reference) over
    ROUNDING_TAIL_ANCHORS; above ORACLE_TOL while run_scheme's rounding
    defect lasts."""
    from p3prime.equation import EquationParams, RootAnchor
    from p3prime.series import lam6_reference, run_scheme
    from reference import coeff_error

    worst = 0.0
    for t0, sgn, lam3, chi0, chi_inf in ROUNDING_TAIL_ANCHORS:
        a, p = RootAnchor(t0, sgn, lam3), EquationParams(chi0, chi_inf)
        worst = max(worst, coeff_error(run_scheme(a, p, 5)[0].trusted(), lam6_reference(a, p).trusted()))
    return worst


def trajectory_op(x: TrajectoryInput):
    from p3prime import ode
    from p3prime.equation import EquationParams

    p = EquationParams(x.chi0, x.chi_inf)
    sol = ode.integrate(p, x.t_init, x.lam0, x.lamdot0, TRAJ_SPAN)
    roots = ode.find_roots(sol)
    return sol, roots, [ode.lam3_at_root(sol, r, p) for r in roots]


def trajectory_check(x: TrajectoryInput, out, stats: dict):
    from p3prime.equation import DomainError
    from p3prime.ode import root_slope

    sol, roots, lam3s = out
    stats.setdefault("covered", []).append((sol.t_max - sol.t_min) / (TRAJ_SPAN[1] - TRAJ_SPAN[0]))
    stats["roots"] = stats.get("roots", 0) + len(roots)
    fitted = {c.t0: c.lam3 for c in sol.crossings}
    for r, lam3 in zip(roots, lam3s):
        if not math.isfinite(lam3):
            return f"non-finite lam3 at t0={r.t0}"
        if r.t0 in fitted:
            gap = abs(fitted[r.t0] - lam3)
            stats["lam3_gap_max"] = max(stats.get("lam3_gap_max", 0.0), gap / abs(lam3))
            # scaled by max(1, |lam3|), as criterion 1 scales coefficients: the
            # mesh estimate's error is absolute (~5e-6 at a root with lam3 =
            # 1.2e-4 whose fit moved 2e-10 under a 100x tighter tolerance), and
            # criterion 3's roots have |lam3| > 1, where this is its 1 %
            if gap > LAM3_GAP_TOL * max(1.0, abs(lam3)):
                return f"crossing-fit lam3 {fitted[r.t0]:.6g} off the mesh estimate {lam3:.6g} at t0={r.t0}"
        try:
            slope = root_slope(sol, r.t0)
        except DomainError:  # the slope window leaves the computed span
            stats["slope_window_outside"] = stats.get("slope_window_outside", 0) + 1
            continue
        if abs(abs(slope) - 1.0) > SLOPE_TOL:
            return f"|root slope| - 1 = {abs(slope) - 1:.1e} at t0={r.t0}"
    return None


def trajectory_finish(res) -> dict:
    stats = res.stats
    covered = stats.get("covered", [])
    return {
        "span_covered_frac": sum(covered) / len(covered) if covered else float("nan"),
        "lam3_gap_max": stats.get("lam3_gap_max", 0.0),
        "roots": stats.get("roots", 0),
        "slope_window_outside": stats.get("slope_window_outside", 0),
    }


def _digests(out: Path) -> dict:
    """SHA-256 of each file a command wrote: the files of the ``--out``
    directory, or ``<out>.json`` and ``<out>.csv``, keyed by suffix."""
    if out.is_dir():
        return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}
    files = sorted(out.parent.glob(out.name + ".*"))
    return {f.name[len(out.name):]: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


class CliRunner:
    """Runs each command in a fresh interpreter.  With ``trace_dir`` set, the
    child installs the layer tracer (``child.py``) and leaves its summary
    there."""

    def __init__(self, workdir: Path, env: dict, trace_dir: Path | None = None):
        self.workdir, self.env, self.trace_dir = workdir, env, trace_dir
        self.calls = 0

    def op(self, cmd):
        name, args = cmd
        self.calls += 1
        out = self.workdir / f"{name}-{self.calls}"
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "p3prime.cli"]
        else:
            argv = [sys.executable, str(ROOT / "bench" / "child.py"), str(self.trace_dir / f"{name}-{self.calls}.json")]
        proc = subprocess.run([*argv, *args, "--out", str(out)], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=60)
        return proc, out

    def check(self, cmd, result, stats: dict):
        name, _ = cmd
        proc, out = result
        digests = _digests(out)
        if out.is_dir():
            shutil.rmtree(out)
        for f in out.parent.glob(out.name + ".*"):
            f.unlink()
        if proc.returncode != 0:
            raise CommandFailed(f"{name} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if name == "verify":
            passes = sum(line.startswith("[PASS]") for line in proc.stdout.splitlines())
            if passes != 9:
                return f"verify printed {passes} [PASS] lines, not 9"
        first = stats.setdefault("digests", {}).setdefault(name, digests)
        if digests != first:
            return f"{name} wrote different files on a repeated identical invocation"
        return None


def cli_finish(res) -> dict:
    """Median wall time of each command, from the successful ops."""
    out = {}
    for name, _ in CLI_COMMANDS:
        times = [dt for (cmd, dt) in res.done if cmd[0] == name]
        if times:
            out[f"{name}_s"] = float(np.median(times))
    return out


class CommandFailed(RuntimeError):
    """A CLI command exited non-zero."""


# ---------------------------------------------------------------------------
# machine speed
#
# The shared machine runs everything up to 20-30 % slower, at times 2x, for
# minutes at a time, and a fresh process may land in a slower or faster
# state than the last.  A fixed task that shares no code with p3prime slows
# with it; the ratio of its time to its typical time on the 2-vCPU machine
# the benchmark was written on measures how slow the machine ran.  Tasks
# differ in how strongly they follow the machine, so each in-process
# workload has the task that followed its ops most closely: over repeated
# passes of identical inputs, op time over task time varied by 2.0 %
# (series_highorder, products) and 2.8 % (trajectory, stepper), against
# 3.6 % and 4.4 % with the tasks swapped and 5.4 % and 7.9 % unscaled.

_CAL_A = [((i * 7919) % 1000) / 1000.0 for i in range(60)]


def _products() -> None:
    """Pure Python polynomial products, like _poly, and small numpy operations."""
    out = [0.0] * (2 * len(_CAL_A) - 1)
    for _ in range(8):
        for i, x in enumerate(_CAL_A):
            for j, y in enumerate(_CAL_A):
                out[i + j] += x * y
    v = np.arange(30.0)
    for _ in range(100):
        v = np.convolve(v, (0.5, 0.5))[:30]


def _stepper() -> None:
    """Classical RK4 on a damped oscillator with a Python right-hand side and
    2-element numpy states, like RK45 stepping through rhs_scalar."""
    f = lambda t, y: np.array((y[1], -y[0] - 0.1 * t * y[1]))
    y, t, h = np.array((1.0, 0.0)), 0.0, 0.01
    for _ in range(200):
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        y, t = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4), t + h


CAL_TASKS = {"products": (_products, 2.5e-3), "stepper": (_stepper, 3.0e-3)}  # task, typical seconds


def calibration(task: str = "products") -> float:
    """How many times its typical time one calibration task took just now."""
    fn, typical_s = CAL_TASKS[task]
    t = time.perf_counter()
    fn()
    return (time.perf_counter() - t) / typical_s


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class LoopResult:
    done: list = field(default_factory=list)  # (input, seconds) of each successful op
    busy_s: float = 0.0  # time spent inside ops, failed ones included
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failed ops whose output was returned but failed its check
    failures: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    slowness: list = field(default_factory=list)  # one calibration() before each op

    @property
    def latencies(self) -> list:
        return [dt for _, dt in self.done]

    @property
    def ops_per_s(self) -> float:
        return len(self.done) / self.busy_s if self.busy_s > 0 else 0.0


def run_ops(op, check, inputs, cycle: int, seconds: float = math.inf, count: int | None = None,
            tracer=None, label: str = "op", result: LoopResult | None = None,
            cal_task: str = "products") -> LoopResult:
    """Run ops back to back until ``count`` ops, or until ``seconds`` of op
    time have passed and the last input cycle is complete.  Checks, and a
    calibration() before each op, run outside the op time.  An op fails if
    it raises or its check fails."""
    res = result if result is not None else LoopResult()
    start_attempted = res.attempted
    busy0 = res.busy_s
    while True:
        n = res.attempted - start_attempted
        if count is not None and n >= count:
            break
        if count is None and res.busy_s - busy0 >= seconds and n % cycle == 0:
            break
        res.slowness.append(calibration(cal_task))
        x = next(inputs)
        res.attempted += 1
        t = time.perf_counter()
        try:
            if tracer is None:
                out = op(x)
            else:
                with tracer.op_span(label, res.attempted):
                    out = op(x)
        except Exception as exc:  # an op that raises is a failed op; the loop goes on
            res.busy_s += time.perf_counter() - t
            res.failed += 1
            res.failures.append(f"{x}: {type(exc).__name__}: {exc}")
            continue
        dt = time.perf_counter() - t
        res.busy_s += dt
        try:
            problem = check(x, out, res.stats)
        except CommandFailed as exc:
            res.failed += 1
            res.failures.append(str(exc))
            continue
        if problem is not None:
            res.failed += 1
            res.wrong += 1
            res.failures.append(f"{x}: {problem}")
            continue
        res.done.append((x, dt))
    return res

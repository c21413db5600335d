"""Independent numerical integration of P-III' through its roots.

The scalar right-hand side is 0/0-indeterminate at roots of lam, so lam
itself is never stepped into a root.  The stretch around each root is
stepped in the Hamiltonian chart (lam, mu), on the polynomial vector field
of the sign switch sg that matches the slope at the root, where mu is
regular and the root is an ordinary point of the run.  A lam-chart run hands
over when s0*lam falls to 0.1|t| (s0 the sign of lam where the run starts),
with sg = sign(lam') there; a lam-chart start inside |lam| < 0.1|t| starts
in (lam, mu) the same way.  A mu-chart run stops where s0*lam falls through
zero, so the event search places the root t0 on the run's interpolant, and
records the root with the cubic coefficient lam3 = lam'''(t0)/6 read off
mu(t0), ``series.mu_at_root`` inverted.  The relaunch goes on from the same
(lam, mu) with s0 = sg times the sweep direction.  A mu-chart run hands back
to lam when |lam| rises to 0.2|t|, and moves to the chart of -sg, with mu
recomputed from (lam, lam'), when sg*lam' falls through zero: lam has turned
back toward a root of the other slope, at which this mu has a double pole.
Its segment's interpolant maps back to (lam, lam'), lam' from the field.

Poles are approached in the reciprocal chart g = t/lam, which solves P-III'
with chi0 and chi_inf swapped and has a simple root at every pole of lam.  A
run switches to g when lam^2 > 4|t| and back to lam when g^2 > 4|t| (a
factor-16 hysteresis); each solver run stays in one chart, and a g-chart
segment's interpolant maps back to (lam, lam').  Poles are not crossed: when
|lam| reaches a cap of 1e6 (s0*g - |t|/1e6 falls through zero) the
integration stops on that side and leaves a pole marker.

The stepping runs on ``_rk.solve_ivp``, scipy's DOP853 (order 8, with a
7th-order dense output formed lazily) ported to Python floats.  Each solver
segment keeps its step count, its right-hand-side calls and why it ended;
``integrate`` logs them, and each root crossed, one line each at DEBUG
(``P3_LOG=debug``).  A sign change between mesh nodes away from the crossed
roots is polished with ``_rk.brentq``, a port of scipy's, so the module
needs no scipy at run time.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from ._rk import EPS, DenseOutput, brentq, solve_ivp
from .equation import (
    DomainError,
    EquationParams,
    SignSwitch,
    hamilton_field,
    mu_from_lambda,
    rhs_scalar,
    third_derivative,
)
from .series import DtSeries, series_eval

_POLE_CAP = 1e6  # |lam| at which a sweep stops and leaves a pole marker
_CHART_SWITCH = 4.0  # a run leaves its chart when the chart's variable squared exceeds this * |t|
# the stretch around a root is stepped in (lam, mu): a run enters that chart
# when |lam| falls to _MU_ENTER |t| and leaves it when |lam| rises to
# _MU_LEAVE |t|
_MU_ENTER = 0.1
_MU_LEAVE = 0.2
# least_squares is not called here; it stays, with FitResult, _dot and these, because bench/tracer.py wraps it by name
_SQRT_EPS = math.sqrt(EPS)  # relative forward-difference step of the fit's Jacobian
_FIT_XTOL = 1e-15  # relative size, in Jacobian-scaled units, of the step that ends the fit
_FIT_MAX_NFEV = 200  # residual calls before the fit gives up


def _debug_log():
    """This module's logger if it logs at DEBUG, else None.

    Only code that configures logging imports it (the CLI does), so while
    ``logging`` is not imported nothing can be enabled, and the module
    neither imports it nor pays its memory.
    """
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger(__name__)
    return log if log.isEnabledFor(logging.DEBUG) else None


class IntegrationError(RuntimeError):
    """The integrator failed; the message carries the location."""


@dataclass(frozen=True)
class RootInfo:
    """A root of lam: location, slope switch, and (for a root ``integrate``
    crossed) the cubic coefficient lam'''(t0)/6 identifying the local
    solution family."""

    t0: float
    sgn: int
    lam3: float | None = None


@dataclass(frozen=True)
class Segment:
    """One solver run of the composite solution and how it went."""

    lo: float
    hi: float
    sol: DenseOutput | _LamFrom  # sol(t) -> [lam, lam'] over the run, in any chart
    steps: int  # accepted steps
    rhs_calls: int  # right-hand-side calls during integrate: rejected steps and dense-output stages included
    # "span_end", "root" (lam fell through zero), "pole_cap" (|lam| reached
    # the cap) or "chart_switch" (the next run steps another chart)
    end: str
    # the variable the run stepped: "lam", "g" = t/lam, or "mu" = (lam, mu)
    # on the Hamilton field of the slope-matching switch
    chart: str = "lam"


# per chart, for the index of the terminal event that fired: why the segment
# ended and the chart of the next run
_EVENT_ENDS = {
    "lam": (("chart_switch", "g"), ("chart_switch", "mu")),
    "g": (("pole_cap", None), ("chart_switch", "lam")),
    "mu": (("root", "mu"), ("chart_switch", "lam"), ("chart_switch", "mu")),
}


def _reciprocal(t, y):
    """(v, v') -> (t/v, (v - t v')/v^2): the state in the other chart; the
    map is its own inverse."""
    v, vdot = y
    return [t / v, (v - t * vdot) / (v * v)]


def _lam_on(hamilton):
    """(lam, mu) -> (lam, lam'), with lam' from the Hamilton field."""

    def to_lam(t, y):
        return [y[0], hamilton(t, y)[0]]

    return to_lam


def _band_event(s0, level, direction):
    """Terminal event s0*lam - level*|t| through zero in ``direction``."""

    def event(t, y):
        return s0 * y[0] - level * abs(t)

    event.direction = direction
    return event


def _turn_event(to_lam, sg):
    """Terminal event sg*lam' falling through zero, with lam' from the mu
    chart's ``to_lam``: lam turns back toward a root of slope -sg."""

    def event(t, y):
        return sg * to_lam(t, y)[1]

    event.direction = -1
    return event


class _LamFrom:
    """A g- or mu-chart run's dense output read as (lam, lam') through
    ``to_lam(t, y)``, for calls and for the accepted states ``ys`` next to
    the mesh ``ts``."""

    def __init__(self, sol: DenseOutput, to_lam):
        self.sol = sol
        self.to_lam = to_lam
        self.ts = sol.ts
        self.ys = [to_lam(t, y) for t, y in zip(sol.ts, sol.ys)]

    @property
    def nfev(self) -> int:
        return self.sol.nfev

    def __call__(self, t):
        return self.to_lam(t, self.sol(t))


@dataclass
class DenseSolution:
    """Piecewise dense P-III' solution: the solver segments, sorted by
    ``lo`` and meeting only at their edges, and the roots crossed there.

    A lookup at t is answered by the first segment (by ``lo``) whose
    [lo, hi] holds t, else by the nearest segment if t lies within 1e-9
    (relative) of its edge; otherwise it raises DomainError.  The segments'
    ``hi`` are sorted like their ``lo``, so the first rule bisects them.
    """

    params: EquationParams
    rel_tol: float
    abs_tol: float
    segments: list = field(default_factory=list)  # Segment records
    crossings: list = field(default_factory=list)  # RootInfo with lam3 of each root crossed
    pole_markers: list = field(default_factory=list)  # (t, side) where |lam| hit the cap
    _his: list = field(default_factory=list, init=False, repr=False, compare=False)  # the segments' hi, bisected

    @property
    def t_min(self) -> float:
        return min(seg.lo for seg in self.segments)

    @property
    def t_max(self) -> float:
        return max(seg.hi for seg in self.segments)

    def _lookup(self, t: float):
        """The interpolant of the first segment that holds t, or None."""
        if len(self._his) != len(self.segments):
            self._his = [seg.hi for seg in self.segments]
        i = bisect_left(self._his, t)
        if i < len(self._his) and self.segments[i].lo <= t:
            return self.segments[i].sol
        return None

    def covers(self, t: float) -> bool:
        return self._lookup(t) is not None

    def _locate(self, t: float):
        obj = self._lookup(t)
        if obj is not None:
            return obj
        best = None
        for seg in self.segments:
            gap = min(abs(t - seg.lo), abs(t - seg.hi))
            if best is None or gap < best[0]:
                best = (gap, seg.sol)
        if best is not None and best[0] < 1e-9 * max(1.0, abs(t)):
            return best[1]
        raise DomainError(f"t={t} outside the computed span")

    def state(self, t: float) -> tuple[float, float]:
        """(lam, lam') at t."""
        lam, lamdot = self._locate(t)(t)
        return float(lam), float(lamdot)

    def lam(self, t: float) -> float:
        return self.state(t)[0]

    def lam_dot(self, t: float) -> float:
        return self.state(t)[1]


def _dot(a, b):
    return math.fsum(map(mul, a, b))


@dataclass(frozen=True)
class FitResult:
    """Outcome of ``least_squares``; the field names are scipy's."""

    x: list
    fun: list  # residuals at x
    success: bool
    message: str
    nfev: int  # residual calls, the finite-difference Jacobians' included


def least_squares(fun, x0):
    """Minimise the sum of squares of fun(x) over two unknowns.

    Levenberg-Marquardt (Marquardt 1963): damped Gauss-Newton steps on the
    normal equations of the Jacobian with unit-norm columns, J = Js D, which
    are (Js^T Js + mu I) D dx = -Js^T r.  The Jacobian is a forward
    difference at steps of sqrt(eps) |x_j| (sqrt(eps) where x_j = 0), as in
    MINPACK's ``fdjac2``.  A step that lowers the cost is taken and divides
    mu by 3; one that does not is refused and multiplies mu by 2, 4, 8, ...
    in turn (Nielsen 1999).  Converged when a proposed step satisfies
    |D dx| <= xtol (xtol + |D x|) with xtol = 1e-15; unsuccessful when the
    damped system is singular or 200 residual calls run out.
    """
    x = [float(v) for v in x0]
    r = fun(x)
    nfev = 1
    cost = _dot(r, r)
    if not math.isfinite(cost):
        return FitResult(x, r, False, "The residuals at the starting point are not finite.", nfev)
    mu, nu = 1e-6, 2.0
    while nfev + 2 <= _FIT_MAX_NFEV:
        cols = []
        for j, xj in enumerate(x):
            xh = list(x)
            xh[j] = xj + (_SQRT_EPS * abs(xj) or _SQRT_EPS)
            h = xh[j] - xj
            cols.append([(b - a) / h for a, b in zip(r, fun(xh))])
        nfev += 2
        du, dv = (math.hypot(*col) or 1.0 for col in cols)
        u, v = [c / du for c in cols[0]], [c / dv for c in cols[1]]
        a00, a11, a01, g0, g1 = _dot(u, u), _dot(v, v), _dot(u, v), _dot(u, r), _dot(v, r)
        x_norm = math.hypot(du * x[0], dv * x[1])
        while True:
            det = (a00 + mu) * (a11 + mu) - a01 * a01
            if not det > 0:
                return FitResult(x, r, False, "The damped normal equations are singular.", nfev)
            y0 = ((a11 + mu) * g0 - a01 * g1) / -det
            y1 = ((a00 + mu) * g1 - a01 * g0) / -det
            if math.hypot(y0, y1) <= _FIT_XTOL * (_FIT_XTOL + x_norm):
                return FitResult(x, r, True, "The step fell below xtol.", nfev)
            if nfev >= _FIT_MAX_NFEV:
                break
            x_new = [x[0] + y0 / du, x[1] + y1 / dv]
            r_new = fun(x_new)
            nfev += 1
            cost_new = _dot(r_new, r_new)
            if cost_new < cost:
                x, r, cost = x_new, r_new, cost_new
                mu, nu = mu / 3, 2.0
                break
            mu *= nu
            nu *= 2
    return FitResult(x, r, False, "The maximum number of function evaluations is exceeded.", nfev)


def integrate(
    p: EquationParams,
    t_init: float,
    lam0: float,
    lamdot0: float,
    span: tuple,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
) -> DenseSolution:
    """Adaptive DOP853 (order 8) integration of P-III' over ``span`` from
    Cauchy data at ``t_init``, with dense output, roots stepped through in
    the chart (lam, mu) and a pole cap approached in the chart g = t/lam;
    integrates in both directions from t_init."""
    lo, hi = min(span), max(span)
    if not (lo <= t_init <= hi):
        raise DomainError("t_init must lie inside span")
    if lo <= 0.0 <= hi:
        raise DomainError("span must not contain t = 0")
    if lam0 == 0:
        raise DomainError("initial lambda must be nonzero: the equation is indeterminate at a root")
    if not abs(lam0) < _POLE_CAP:
        raise DomainError("initial lambda must lie below the pole cap |lam| < 1e6")

    sol = DenseSolution(params=p, rel_tol=rel_tol, abs_tol=abs_tol)

    def first_order(q):
        def rhs(t, y):
            v, vdot = y
            return (vdot, rhs_scalar(t, v, vdot, q))

        return rhs

    rhs = {"lam": first_order(p), "g": first_order(p.swapped())}  # g = t/lam solves the swapped equation
    fields = {sg: hamilton_field(p, SignSwitch(sg)) for sg in (1, -1)}  # the mu chart's, per switch

    def ev_leave(t, y):
        return y[0] * y[0] - _CHART_SWITCH * abs(t)

    ev_leave.direction = 1

    def sweep(t_start, y_start, t_end):
        # the next run starts at t_cur in ``chart``, from y_lam = (lam, lam')
        # or, past a crossed root, from y_mu = (lam, mu) with s0 given; sg is
        # its switch in the mu chart
        t_cur, y_lam, y_mu, chart, sg = t_start, list(y_start), None, "lam", None
        direction = 1.0 if t_end > t_start else -1.0
        while (t_end - t_cur) * direction > 0:
            if chart == "lam":
                if y_lam[0] * y_lam[0] > _CHART_SWITCH * abs(t_cur):
                    chart = "g"  # a launch, or any hand-back to lam, beyond the threshold steps g
                elif abs(y_lam[0]) < _MU_ENTER * abs(t_cur):
                    chart, sg = "mu", 1 if y_lam[1] > 0 else -1  # one inside the band steps mu
            if chart == "lam":
                fun, y_cur, view = rhs["lam"], y_lam, None
            elif chart == "g":
                fun, y_cur, view = rhs["g"], _reciprocal(t_cur, y_lam), _reciprocal
            else:
                fun, view = fields[sg], _lam_on(fields[sg])
                y_cur = y_mu or [y_lam[0], mu_from_lambda(t_cur, *y_lam, SignSwitch(sg), p)]
            # past a root lam starts at zero and takes the sign sg*direction
            s0 = sg * direction if y_mu else math.copysign(1.0, y_cur[0])
            # each chart's band event falls through zero at its threshold
            # (lam: the mu chart's entry; mu: the root; g: the pole cap) and
            # stays negative past it, so a step that jumps the threshold
            # still fires it and the event search finds that point
            if chart == "lam":
                events = [ev_leave, _band_event(s0, _MU_ENTER, -1)]
            elif chart == "g":
                events = [_band_event(s0, 1 / _POLE_CAP, -1), ev_leave]
            else:
                events = [_band_event(s0, 0.0, -1), _band_event(s0, _MU_LEAVE, 1), _turn_event(view, sg)]
            res = solve_ivp(fun, (t_cur, t_end), y_cur, rtol=rel_tol, atol=abs_tol, events=events)
            if res.status == -1:
                raise IntegrationError(f"integration failed near t={res.t[-1]}: {res.message}")
            seg = res.sol if view is None else _LamFrom(res.sol, view)
            if res.status == 0:  # reached t_end
                (end, nxt), t_s = ("span_end", None), res.t[-1]
            else:
                k = next(i for i, te in enumerate(res.t_events) if te)
                (end, nxt), t_s = _EVENT_ENDS[chart][k], float(res.t_events[k][0])
            sol.segments.append(
                Segment(min(t_cur, t_s), max(t_cur, t_s), seg, len(res.t) - 1, res.nfev + seg.nfev, end, chart)
            )
            if end == "span_end":
                return
            if end == "pole_cap":
                sol.pole_markers.append((t_s, "right" if direction > 0 else "left"))
                return
            t_cur, y_lam, y_mu = t_s, seg.ys[-1], None
            if end == "root":
                y_mu = res.sol.ys[-1]  # (lam, mu) at the root: mu is regular there
                lam3 = (2 * y_mu[1] - 1 - sg * (1 - p.chi0 * p.chi0) / (2 * t_s)) / (3 * t_s)
                sol.crossings.append(RootInfo(t_s, sg, lam3))
            elif chart == "mu" and nxt == "mu":
                sg = -sg  # lam turned back toward a root of the other slope
            elif nxt == "mu":
                sg = 1 if y_lam[1] > 0 else -1  # the switch that matches the slope at the root ahead
            chart = nxt

    if hi > t_init:
        sweep(t_init, (lam0, lamdot0), hi)
    if lo < t_init:
        sweep(t_init, (lam0, lamdot0), lo)
    sol.segments.sort(key=lambda seg: seg.lo)
    sol.crossings.sort(key=lambda c: c.t0)
    log = _debug_log()
    if log is not None:
        for seg in sol.segments:
            log.debug(
                "segment [%.17g, %.17g] chart %s: %d steps, %d rhs calls, end %s",
                seg.lo, seg.hi, seg.chart, seg.steps, seg.rhs_calls, seg.end,
            )
        for c in sol.crossings:
            log.debug("crossing t0=%.17g lam3=%.17g", c.t0, c.lam3)
    return sol


def integrate_hamiltonian(
    p: EquationParams,
    s: SignSwitch,
    t_init: float,
    lam0: float,
    mu0: float,
    span: tuple,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
):
    """Plain dense integration of the coupled Hamilton system (lam, mu) for
    one fixed sign switch, with no chart changes (mu is regular at
    matching-sign roots), on the same ``hamilton_field`` as the mu chart of ``integrate``.
    Returns the kernel's result: ``.sol(t)`` gives (lam, mu) and
    ``.t`` the accepted steps.  Raises IntegrationError naming t if the step
    size underflows before the span end."""
    res = solve_ivp(hamilton_field(p, s), span, [lam0, mu0], rtol=rel_tol, atol=abs_tol)
    if res.status != 0:
        raise IntegrationError(f"Hamiltonian integration failed near t={res.t[-1]}: {res.message}")
    return res


def root_slope(sol: DenseSolution, t0: float) -> float:
    """lam'(t0) measured from the numerical data 4 % and 2 % of |t0| to
    either side (Richardson-extrapolated central average), not from the
    root's crossing record; used to validate unit slope at roots."""
    d = 0.04 * abs(t0)
    s1 = 0.5 * (sol.lam_dot(t0 + d) + sol.lam_dot(t0 - d))
    s2 = 0.5 * (sol.lam_dot(t0 + d / 2) + sol.lam_dot(t0 - d / 2))
    return (4 * s2 - s1) / 3


def _node_lams(sol: DenseSolution) -> tuple[list, list]:
    """The sorted distinct mesh nodes and lam at each, without interpolating:
    the accepted state the first segment (by ``lo``) with that node kept,
    which differs from ``state``'s interpolant only in rounding."""
    lam_at = {}
    for seg in sol.segments:
        for t, y in zip(seg.sol.ts, seg.sol.ys):
            lam_at.setdefault(t, y[0])
    ts = sorted(lam_at)
    return ts, [lam_at[t] for t in ts]


def find_roots(sol: DenseSolution) -> list[RootInfo]:
    """All roots of lam in the computed span: the roots ``integrate``
    crossed, plus a sign-change scan of lam at the mesh nodes
    (``_node_lams``) between which no crossed root lies, each change
    polished with ``brentq`` on ``lam``; the scan is a safety net and is
    normally empty."""
    roots = [RootInfo(c.t0, c.sgn) for c in sol.crossings]
    crossed = {c.t0 for c in sol.crossings}  # mesh nodes, where lam reads zero up to rounding
    ts, vals = _node_lams(sol)
    for i in range(len(ts) - 1):
        lo, hi = ts[i], ts[i + 1]
        if vals[i] == 0.0 or vals[i] * vals[i + 1] >= 0 or lo in crossed or hi in crossed:
            continue
        r = brentq(sol.lam, lo, hi, xtol=1e-14 * max(1.0, abs(hi)))
        if all(abs(r - q.t0) > 1e-8 * max(1.0, abs(r)) for q in roots):
            roots.append(RootInfo(float(r), 1 if sol.lam_dot(r) > 0 else -1))
    return sorted(roots, key=lambda r: r.t0)


def lam3_at_root(sol: DenseSolution, root: RootInfo, p: EquationParams) -> float:
    """Cubic coefficient lam'''(t0)/6 extracted from the numerical solution.

    The third derivative is evaluated through its closed form on a grid of
    41 evenly spaced points over the window |t - t0| <= 0.1 |t0|, at those
    the solution covers (one side only where the computed span ends inside
    the window), so the estimate does not depend on how densely the solver
    stepped there.  Points with |lam| below an exclusion threshold are
    dropped (the formula is indeterminate at the root itself), and a
    degree-4 polynomial is least-squares fitted and read off at the root.
    """
    t0 = root.t0
    w = 0.1 * abs(t0)
    excl = 1e-3 * max(1.0, abs(t0))
    kept = []
    for t in np.linspace(t0 - w, t0 + w, 41).tolist():
        if sol.covers(t):
            lam, lamdot = sol.state(t)
            if abs(lam) > excl:
                kept.append((t, lam, lamdot))
    if len(kept) < 10:
        raise DomainError(f"only {len(kept)} usable points in the window around t0={t0}")
    x = np.array([t - t0 for t, _, _ in kept])
    y = np.array([third_derivative(t, lam, lamdot, p) for t, lam, lamdot in kept])
    coeffs = np.polynomial.polynomial.polyfit(x, y, 4)
    return float(coeffs[0]) / 6


def residual_scan(sol: DenseSolution, grid, fd_step: float) -> list[tuple[float, float]]:
    """Central-finite-difference lam'' minus the scalar right-hand side at
    each grid point, using interpolated values.

    The five-point stencil on t, t +- h and t +- 2h (h = fd_step) errs by
    h^4/90 times lam's sixth derivative.  The three-point stencil's h^2/12
    times the fourth derivative was 1.8e-7 at h = 5e-4 with the worked
    example's parameters, above the interpolation error at the default
    tolerances, which is what the scan is meant to show."""
    h = fd_step
    out = []
    for t in grid:
        lam, lamdot = sol.state(t)
        if lam == 0:
            raise DomainError(f"grid point t={t} sits on a root")
        near = sol.lam(t - h) + sol.lam(t + h)
        far = sol.lam(t - 2 * h) + sol.lam(t + 2 * h)
        fd2 = (16 * near - far - 30 * lam) / (12 * h * h)
        out.append((float(t), fd2 - rhs_scalar(t, lam, lamdot, sol.params)))
    return out


def compare_series(sol: DenseSolution, lam_series: DtSeries, window: tuple, n: int = 1000) -> float:
    """Max |series - interpolant| over a dense grid in the window."""
    t0 = lam_series.anchor.t0
    lo, hi = min(window), max(window)
    grid = np.linspace(lo, hi, n)
    dev = 0.0
    for t in grid:
        dev = max(dev, abs(series_eval(lam_series, t - t0) - sol.lam(float(t))))
    return dev


def symmetry_check(sol: DenseSolution, p: EquationParams, grid) -> float:
    """Integrate the parameter-swapped equation from t/lam initial data and
    return max |t/lam(t) - lam_swapped(t)| over the grid."""
    grid = [float(t) for t in grid]
    for t in grid:
        if abs(sol.lam(t)) < 1e-6 * max(1.0, abs(t)):
            raise DomainError(f"grid point t={t} too close to a zero of lambda")
    t_a = grid[len(grid) // 2]
    lam_a, lamdot_a = sol.state(t_a)
    g0 = t_a / lam_a
    g0dot = (lam_a - t_a * lamdot_a) / lam_a**2
    swapped = integrate(
        p.swapped(), t_a, g0, g0dot, (min(grid), max(grid)), sol.rel_tol, sol.abs_tol
    )
    dev = 0.0
    for t in grid:
        dev = max(dev, abs(t / sol.lam(t) - swapped.lam(t)))
    return dev

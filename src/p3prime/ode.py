"""Independent numerical integration of P-III' with root crossing.

The scalar right-hand side is 0/0-indeterminate at roots of lam, so blind
stepping across them is not trusted.  Instead, when |lam| falls below a
switching threshold of 1e-4 |t| the integrator stops, fits the local root
expansion (root location, slope switch, cubic coefficient) to the numerical
data, steps across the root analytically with that series, and resumes on
the far side.  The stop is one terminal event per solver run,
s0*lam - 1e-4 |t| with s0 the sign of lam where the run starts: it falls
through zero at the near-side switch point and stays negative past the root,
so a step that jumps the whole switching band still fires it and the event
search places the stop at that point.  A launch inside the band is refused,
since the event could not see the root next to it.  The excluded zone is
evaluated from the fitted series, so the composite solution is smooth
through every root and every root comes with a crossing record.

Poles are approached in the reciprocal chart g = t/lam, which solves P-III'
with chi0 and chi_inf swapped and has a simple root at every pole of lam.  A
run switches to g when lam^2 > 4|t| and back to lam when g^2 > 4|t| (a
factor-16 hysteresis); each solver run stays in one chart, and a g-chart
segment's interpolant maps back to (lam, lam').  Poles are not crossed: when
|lam| reaches a cap of 1e6 (s0*g - |t|/1e6 falls through zero) the
integration stops on that side and leaves a pole marker.

The last stretch before and after each root is stepped in the Hamiltonian
chart (lam, mu), on the polynomial vector field of the sign switch sg that
matches the slope at the root, where mu is regular and the scalar
right-hand side is a 0/0 cancellation.  A lam-chart run hands over when
s0*lam falls to 0.1|t|, with sg = sign(lam') there, and the relaunch past a
crossed root starts in (lam, mu) with that root's switch.  A mu-chart run
stops on the same switching event as the lam chart, and hands back to lam
when |lam| rises to 0.2|t| or when |lam' - sg| rises to 1, where lam turns
back toward a root of the other slope, at which this mu has a double pole.
Its segment's interpolant maps back to (lam, lam'), lam' from the field.

The stepping runs on ``_rk.solve_ivp``, scipy's DOP853 (order 8, with a
7th-order dense output formed lazily) ported to Python floats.  Each solver
segment keeps its step count, its right-hand-side calls and why it ended;
``integrate`` logs them, and each crossing's fit, one line each at DEBUG
(``P3_LOG=debug``).  Roots are polished with ``_rk.brentq``, a port
of scipy's, and the crossing fit runs on ``least_squares``, a two-unknown
Levenberg-Marquardt solver, so the module needs no scipy at run time.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import mul
from typing import NamedTuple

import numpy as np

from ._rk import EPS, DenseOutput, brentq, solve_ivp
from .equation import (
    DomainError,
    EquationParams,
    RootAnchor,
    SignSwitch,
    hamilton_field,
    mu_from_lambda,
    rhs_scalar,
    third_derivative,
)
from .series import DtSeries, assemble_lambda, series_eval, series_eval_derivative, taylor_at_root

_EPS_SWITCH_REL = 1e-4  # |lam| < this * |t| triggers the crossing protocol
# resume distance past the root: data at |dt| = eps cannot carry the cubic
# coefficient (sensitivity ~ err/(3*dt^2) would scramble it), so the far-side
# relaunch happens where the fitted series is still machine-accurate but the
# cubic term is numerically alive
_EPS_RESUME_REL = 1e-2
_POLE_CAP = 1e6  # |lam| at which a sweep stops and leaves a pole marker
_CHART_SWITCH = 4.0  # a run leaves its chart when the chart's variable squared exceeds this * |t|
# the last stretch before and after a root is stepped in (lam, mu): a run
# enters that chart when |lam| falls to _MU_ENTER |t| and leaves it when
# |lam| rises to _MU_LEAVE |t|, or when |lam' - sg| rises to _MU_BLOWUP:
# mu = (... + (lam' - sg) t)/(2 lam^2) has a double pole at a root where
# lam' = -sg, which is where lam heads once it turns back (lam' = 0)
_MU_ENTER = 0.1
_MU_LEAVE = 0.2
_MU_BLOWUP = 1.0
_FIT_ORDER = 5  # cubic-factor validity used by the crossing fit
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
    """A detected root: location, slope switch, and (once extracted) the
    cubic coefficient lam'''(t0)/6 identifying the local solution family."""

    t0: float
    sgn: int
    lam3: float | None = None


@dataclass(frozen=True)
class CrossingRecord:
    """Local series model used to step across one root."""

    t0: float
    sgn: int
    lam3: float
    zone: tuple  # (lo, hi) excluded from numerical data
    series: DtSeries  # assembled lam expansion anchored at t0
    fit_nfev: int  # residual calls of the crossing fit, Jacobians included
    fit_residual: float  # 2-norm of the fit's residuals at (t0, lam3)
    chart: str  # the chart of the run that stopped before the root: "mu", or "lam" if it started inside |lam| < 0.1|t|


@dataclass(frozen=True)
class Segment:
    """One solver run of the composite solution and how it went."""

    lo: float
    hi: float
    sol: DenseOutput | _LamFrom  # sol(t) -> [lam, lam'] over the run, in any chart
    steps: int  # accepted steps
    rhs_calls: int  # right-hand-side calls during integrate: rejected steps and dense-output stages included
    # "span_end", "near_root" (stopped at the switching threshold), "pole_cap"
    # (|lam| reached the cap) or "chart_switch" (the next run steps another chart)
    end: str
    # the variable the run stepped: "lam", "g" = t/lam, or "mu" = (lam, mu)
    # on the Hamilton field of the slope-matching switch
    chart: str = "lam"


# per chart, for the index of the terminal event that fired: why the segment
# ended and the chart of the next run (past a crossed root, the relaunch)
_EVENT_ENDS = {
    "lam": (("near_root", "mu"), ("chart_switch", "g"), ("chart_switch", "mu")),
    "g": (("pole_cap", None), ("chart_switch", "lam")),
    "mu": (("near_root", "mu"), ("chart_switch", "lam"), ("chart_switch", "lam")),
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


def _slope_event(to_lam, sg):
    """Terminal event |lam' - sg| - _MU_BLOWUP rising through zero, with
    lam' from the mu chart's ``to_lam``."""

    def event(t, y):
        return abs(to_lam(t, y)[1] - sg) - _MU_BLOWUP

    event.direction = 1
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


class _Index(NamedTuple):
    """``DenseSolution``'s lookup table, for the lists' lengths in ``key``."""

    key: tuple  # (len(segments), len(crossings))
    edges: list  # sorted distinct edges of zones and segments
    at: list  # at[i]: the piece holding t == edges[i], or None
    between: list  # between[i]: the piece holding edges[i-1] < t < edges[i], or None


@dataclass
class DenseSolution:
    """Piecewise dense P-III' solution: solver segments plus crossing zones.

    A lookup at t is answered by the first crossing whose zone holds t, else
    by the first segment (by ``lo``) whose [lo, hi] holds t, else by the
    nearest segment if t lies within 1e-9 (relative) of its edge; otherwise
    it raises DomainError.  The first two rules are tabulated once, on the
    first lookup, over the sorted zone and segment edges, so a lookup
    bisects; the table is rebuilt if segments or crossings are added.
    """

    params: EquationParams
    rel_tol: float
    abs_tol: float
    segments: list = field(default_factory=list)  # Segment records
    crossings: list = field(default_factory=list)
    pole_markers: list = field(default_factory=list)  # (t, side) where |lam| hit the cap
    _index: _Index | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def t_min(self) -> float:
        return min(seg.lo for seg in self.segments)

    @property
    def t_max(self) -> float:
        return max(seg.hi for seg in self.segments)

    def _indexed(self) -> _Index:
        key = (len(self.segments), len(self.crossings))
        if self._index is None or self._index.key != key:
            spans = [(*c.zone, c) for c in self.crossings] + [(seg.lo, seg.hi, seg.sol) for seg in self.segments]
            edges = sorted({e for lo, hi, _ in spans for e in (lo, hi)})
            at = [next((obj for lo, hi, obj in spans if lo <= e <= hi), None) for e in edges]
            bounds = [-math.inf, *edges, math.inf]
            between = [
                next((obj for lo, hi, obj in spans if lo <= a and b <= hi), None)
                for a, b in zip(bounds, bounds[1:])
            ]
            self._index = _Index(key, edges, at, between)
        return self._index

    def _lookup(self, t: float):
        """The crossing record or segment interpolant that holds t, or None."""
        _, edges, at, between = self._indexed()
        i = bisect_left(edges, t)
        return at[i] if i < len(edges) and edges[i] == t else between[i]

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
        obj = self._locate(t)
        if isinstance(obj, CrossingRecord):
            dt = t - obj.t0
            return (
                series_eval(obj.series, dt),
                series_eval_derivative(obj.series, dt),
            )
        lam, lamdot = obj(t)
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


def _crossing_from_stop(p, inner, t_s, t_start, direction, chart) -> CrossingRecord:
    """Cross the root ahead of the near-side stop point t_s of a run in
    ``chart`` that started at t_start and sweeps in ``direction`` (+1 or -1).

    Fits (t0, lam3) of the local root expansion to (t, lam, lam') at t_s and
    at a window point further back in the run, so that the cubic coefficient
    is conditioned on O(0.05*t0) data, not O(eps).  The record's zone runs
    from t_s to the relaunch point _EPS_RESUME_REL*|t0| past the root.
    """
    lam_s, lamdot_s = inner(t_s)
    sgn = 1 if lamdot_s > 0 else -1
    t0_guess = t_s - lam_s / lamdot_s
    lam3_guess = 0.0
    pts = [(t_s, lam_s, lamdot_s)]
    t_w = t0_guess - direction * 0.05 * abs(t0_guess)
    t_w = min(max(t_w, min(t_start, t_s)), max(t_start, t_s))
    if abs(t_w - t_s) > 10 * _EPS_SWITCH_REL * abs(t0_guess):
        pts.append((t_w, *inner(t_w)))
        try:
            lam3_guess = third_derivative(*pts[1], p) / 6
        except DomainError:
            pass

    def residuals(x):
        t0, L = x
        if t0 == 0:
            return [1e6] * (2 * len(pts))
        a = RootAnchor(t0, SignSwitch(sgn), L)
        lam = assemble_lambda(a, taylor_at_root(a, p, _FIT_ORDER), p)
        out = []
        for t, lv, ld in pts:
            out.append(series_eval(lam, t - t0) - lv)
            out.append(series_eval_derivative(lam, t - t0) - ld)
        return out

    fit = least_squares(residuals, [t0_guess, lam3_guess])
    if not fit.success:
        raise IntegrationError(f"crossing fit near t={t_s} did not converge: {fit.message}")
    t0, lam3 = fit.x
    a = RootAnchor(t0, SignSwitch(sgn), lam3)
    series = assemble_lambda(a, taylor_at_root(a, p, _FIT_ORDER), p)
    t_r = t0 + direction * _EPS_RESUME_REL * abs(t0)
    zone = (min(t_s, t_r), max(t_s, t_r))
    return CrossingRecord(t0, sgn, lam3, zone, series, fit.nfev, math.hypot(*fit.fun), chart)


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
    Cauchy data at ``t_init``, with dense output, series-based root crossing
    approached in the chart (lam, mu) and a pole cap approached in the chart
    g = t/lam; integrates in both directions from t_init."""
    lo, hi = min(span), max(span)
    if not (lo <= t_init <= hi):
        raise DomainError("t_init must lie inside span")
    if lo <= 0.0 <= hi:
        raise DomainError("span must not contain t = 0")
    if abs(lam0) <= _EPS_SWITCH_REL * abs(t_init):
        raise DomainError("initial lambda must lie outside the switching band |lam| <= 1e-4 |t|")
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
        # y_lam: (lam, lam') where the next run starts; sg: its switch in the mu chart
        t_cur, y_lam, chart, sg = t_start, list(y_start), "lam", None
        direction = 1.0 if t_end > t_start else -1.0
        while (t_end - t_cur) * direction > 0:
            if chart == "lam" and y_lam[0] * y_lam[0] > _CHART_SWITCH * abs(t_cur):
                chart = "g"  # a launch, or any hand-back to lam, beyond the threshold steps g
            if chart == "lam":
                fun, y_cur, view = rhs["lam"], y_lam, None
            elif chart == "g":
                fun, y_cur, view = rhs["g"], _reciprocal(t_cur, y_lam), _reciprocal
            else:
                fun, view = fields[sg], _lam_on(fields[sg])
                y_cur = [y_lam[0], mu_from_lambda(t_cur, *y_lam, SignSwitch(sg), p)]
            s0 = math.copysign(1.0, y_cur[0])
            # each chart's first event falls through zero at the near-side
            # threshold (lam, mu: the switching band of a root; g: the pole
            # cap) and stays negative past the zero of y[0], so a step that
            # jumps the whole band still fires it and the event search finds
            # that point
            if chart == "lam":
                events = [_band_event(s0, _EPS_SWITCH_REL, -1), ev_leave, _band_event(s0, _MU_ENTER, -1)]
            elif chart == "g":
                events = [_band_event(s0, 1 / _POLE_CAP, -1), ev_leave]
            else:
                events = [_band_event(s0, _EPS_SWITCH_REL, -1), _band_event(s0, _MU_LEAVE, 1), _slope_event(view, sg)]
            res = solve_ivp(fun, (t_cur, t_end), y_cur, rtol=rel_tol, atol=abs_tol, events=events)
            if res.status == -1:
                raise IntegrationError(f"integration failed near t={res.t[-1]}: {res.message}")
            seg = res.sol if view is None else _LamFrom(res.sol, view)
            if res.status == 0:  # reached t_end
                (end, nxt), t_s = ("span_end", None), res.t[-1]
            else:
                k = next(i for i, te in enumerate(res.t_events) if te)
                (end, nxt), t_s = _EVENT_ENDS[chart][k], float(res.t_events[k][0])
            if end == "near_root":
                crossing = _crossing_from_stop(p, seg, t_s, t_cur, direction, chart)
            # appended after the crossing fit has read the dense output, so
            # that seg.nfev counts every interpolant stage formed for it
            sol.segments.append(
                Segment(min(t_cur, t_s), max(t_cur, t_s), seg, len(res.t) - 1, res.nfev + seg.nfev, end, chart)
            )
            if end == "span_end":
                return
            if end == "pole_cap":
                sol.pole_markers.append((t_s, "right" if direction > 0 else "left"))
                return
            if end == "chart_switch":
                t_cur, y_lam, chart = t_s, seg.ys[-1], nxt
                if chart == "mu":
                    sg = 1 if y_lam[1] > 0 else -1  # the switch that matches the slope at the root ahead
                continue

            sol.crossings.append(crossing)
            t_r = crossing.zone[1] if direction > 0 else crossing.zone[0]  # the relaunch point
            if (t_end - t_r) * direction <= 0:
                return
            dt_r = t_r - crossing.t0
            t_cur, chart, sg = t_r, nxt, crossing.sgn
            y_lam = [series_eval(crossing.series, dt_r), series_eval_derivative(crossing.series, dt_r)]

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
            log.debug(
                "crossing t0=%.17g lam3=%.17g fit_nfev=%d fit_residual=%.3e, approach chart %s",
                c.t0, c.lam3, c.fit_nfev, c.fit_residual, c.chart,
            )
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
    one fixed sign switch; no root crossing (mu is regular at matching-sign
    roots), on the same ``hamilton_field`` as the mu chart of ``integrate``.
    Returns the kernel's result: ``.sol(t)`` gives (lam, mu) and
    ``.t`` the accepted steps.  Raises IntegrationError naming t if the step
    size underflows before the span end."""
    res = solve_ivp(hamilton_field(p, s), span, [lam0, mu0], rtol=rel_tol, atol=abs_tol)
    if res.status != 0:
        raise IntegrationError(f"Hamiltonian integration failed near t={res.t[-1]}: {res.message}")
    return res


def root_slope(sol: DenseSolution, t0: float) -> float:
    """lam'(t0) measured from the numerical data just outside the excluded
    zone (Richardson-extrapolated central average), not from the fitted
    series; used to validate unit slope at roots."""
    d = 4 * _EPS_RESUME_REL * abs(t0)
    s1 = 0.5 * (sol.lam_dot(t0 + d) + sol.lam_dot(t0 - d))
    s2 = 0.5 * (sol.lam_dot(t0 + d / 2) + sol.lam_dot(t0 - d / 2))
    return (4 * s2 - s1) / 3


def _node_lams(sol: DenseSolution) -> tuple[list, list]:
    """The sorted distinct mesh nodes and lam at each, without interpolating:
    the crossing series where a zone holds the node, as ``state`` reads it,
    else the accepted state the first segment (by ``lo``) with that node
    kept, which differs from ``state``'s interpolant only in rounding."""
    lam_at = {}
    for seg in sol.segments:
        for t, y in zip(seg.sol.ts, seg.sol.ys):
            lam_at.setdefault(t, y[0])
    ts = sorted(lam_at)
    vals = [lam_at[t] for t in ts]
    for c in reversed(sol.crossings):  # so the first zone holding a node sets its value
        for i in range(bisect_left(ts, c.zone[0]), bisect_right(ts, c.zone[1])):
            vals[i] = series_eval(c.series, ts[i] - c.t0)
    return ts, vals


def find_roots(sol: DenseSolution) -> list[RootInfo]:
    """All roots of lam in the computed span, from the crossing records plus
    a sign-change scan of lam at the mesh nodes (``_node_lams``), each
    change polished with ``brentq`` on ``lam``; the scan is a safety net
    and is normally empty."""
    roots = [RootInfo(c.t0, c.sgn) for c in sol.crossings]
    ts, vals = _node_lams(sol)
    for i in range(len(ts) - 1):
        if vals[i] == 0.0 or vals[i] * vals[i + 1] >= 0:
            continue
        lo, hi = ts[i], ts[i + 1]
        if any(c.zone[0] <= 0.5 * (lo + hi) <= c.zone[1] for c in sol.crossings):
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

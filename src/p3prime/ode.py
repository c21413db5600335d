"""Independent numerical integration of P-III' through its roots.

The sweep steps one of three charts.  Between singular points it steps lam
on the second-order equation ("lam").  Through roots it steps (lam, mu)
("mu") on the polynomial Hamilton field of the sign switch sg that matches
lam's slope at its next root, where the momentum mu is regular and the root
an ordinary point of the run.  Into poles it steps (g, nu) ("nu"), the same
chart for g = t/lam, which solves P-III' with chi0 and chi_inf swapped and
has a simple root at every pole of lam.  The scalar right-hand side is
0/0-indeterminate at a root of lam, so no lam run is stepped into one.

A lam run hands over to mu where s0*lam falls to 0.3|t| (s0 the sign of lam
where the run starts), and to nu where lam^2 rises to 4|t|; a launch, or a
hand-back, with |lam| <= 0.3|t| or lam^2 >= 4|t| starts there the same
way.  The switch is sg = sign(v') of the chart's variable v (lam in
mu, g in nu), or, where v' = 0, the sign v' takes next in the sweep
direction, and the momentum comes from ``mu_from_lambda`` (on the swapped
parameters for nu).  A mu run hands back to lam when |lam| rises to 0.6|t|,
a nu run when g^2 rises to 4|t|, that is when lam^2 falls to |t|/4 (a
factor-16 hysteresis).  A Hamiltonian run moves to the chart of -sg, its
momentum recomputed from (v, v'), when sg*v' falls through zero: v has
turned back toward a root of the other slope, at which this momentum has a
double pole.  sg flips there; it is not recomputed from v', which is zero
up to rounding.  Each solver run stays in one chart, and its segment's
interpolant maps back to (lam, lam').

A mu run stops where s0*lam falls through zero, so the event search places
the root t0 on the run's interpolant, and records the root with the cubic
coefficient lam3 = lam'''(t0)/6 read off mu(t0), ``series.mu_at_root``
inverted.  The relaunch goes on from the same (lam, mu) with s0 = sg times
the sweep direction.  Only a mu run reaches lam = 0, so these records are
the roots of the computed span, and ``find_roots`` returns them.  Poles are
not crossed: a nu run stops where |lam| reaches a cap of 1e6
(s0*g - |t|/1e6 falls through zero), and the integration stops on that
side and leaves a pole marker.

The stepping runs on ``_rk.solve_ivp``, scipy's DOP853 (order 8, with a
7th-order dense output formed lazily) ported to Python floats, so the
module needs no scipy at run time.  Each solver segment keeps its step
count, its right-hand-side calls and why it ended; ``integrate`` logs them,
and each root crossed, one line each at DEBUG (``P3_LOG=debug``).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import mul

import numpy as np

# brentq is not called here; it stays because bench/tracer.py wraps ode.brentq by name, as it wraps least_squares
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
_CHART_SWITCH = 4.0  # a lam run hands over to nu, and a nu run back to lam, when its variable squared exceeds this * |t|
# the stretch around a root of lam is stepped in the mu chart: a run enters
# it when |lam| falls to _MU_ENTER |t| and leaves it when |lam| rises to _MU_LEAVE |t|
_MU_ENTER = 0.3
_MU_LEAVE = 0.6
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
    # what the run stepped: "lam" on the scalar equation, or on the Hamilton
    # field of the slope-matching switch "mu" = (lam, mu) or "nu" = (g, nu)
    # with g = t/lam, the latter on the swapped equation's
    chart: str = "lam"


# per chart, for the index of the terminal event that fired: why the segment
# ended and the chart of the next run
_EVENT_ENDS = {
    "lam": (("chart_switch", "nu"), ("chart_switch", "mu")),
    "mu": (("root", "mu"), ("chart_switch", "lam"), ("chart_switch", "mu")),
    "nu": (("pole_cap", None), ("chart_switch", "lam"), ("chart_switch", "nu")),
}


def _reciprocal(t, y):
    """(v, v') -> (t/v, (v - t v')/v^2): the state in the other chart; the
    map is its own inverse."""
    v, vdot = y
    return [t / v, (v - t * vdot) / (v * v)]


def _lam_on(hamilton):
    """(v, momentum) -> (v, v'), with v' from the Hamilton field: (lam, mu)
    -> (lam, lam') in the mu chart, (g, nu) -> (g, g') in the nu chart."""

    def to_lam(t, y):
        return [y[0], hamilton(t, y)[0]]

    return to_lam


def _band_event(s0, level, direction):
    """Terminal event s0*lam - level*|t| through zero in ``direction``."""

    def event(t, y):
        return s0 * y[0] - level * abs(t)

    event.direction = direction
    return event


def _turn_event(own, sg):
    """Terminal event sg*v' falling through zero, with (v, v') from a
    Hamiltonian chart's ``own``: v turns back toward a root of slope -sg."""

    def event(t, y):
        return sg * own(t, y)[1]

    event.direction = -1
    return event


class _LamFrom:
    """A mu- or nu-chart run's dense output read as (lam, lam'): the chart's
    (v, v') from ``own(t, y)``, then for v = g the reciprocal map."""

    def __init__(self, sol: DenseOutput, own, reciprocal: bool):
        self.sol = sol
        self.own = own
        self.reciprocal = reciprocal
        self.ts = sol.ts

    @property
    def nfev(self) -> int:
        return self.sol.nfev

    def __call__(self, t):
        y = self.own(t, self.sol(t))
        return _reciprocal(t, y) if self.reciprocal else y


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
    the chart (lam, mu) and a pole cap approached in the chart (g, nu) of
    g = t/lam; integrates in both directions from t_init."""
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

    def rhs(t, y):
        lam, lamdot = y
        return (lamdot, rhs_scalar(t, lam, lamdot, p))

    # the parameters each Hamiltonian chart's variable solves with: g = t/lam solves the swapped equation
    params = {"mu": p, "nu": p.swapped()}
    fields = {(chart, sg): hamilton_field(params[chart], SignSwitch(sg)) for chart in ("mu", "nu") for sg in (1, -1)}

    def ev_switch(t, y):  # lam^2 rising to 4|t| in the lam chart, g^2 in the nu chart
        return y[0] * y[0] - _CHART_SWITCH * abs(t)

    ev_switch.direction = 1

    def sweep(t_start, y_start, t_end):
        # the next run starts at t_cur in ``chart``, from y_v = (v, v') of
        # the chart's variable v (lam for lam and mu, g for nu) or, past a
        # crossed root, from y_ham = (lam, mu) with s0 given; sg is the
        # switch of a Hamiltonian chart, None until the chart is entered
        t_cur, y_v, y_ham, chart, sg = t_start, list(y_start), None, "lam", None
        direction = 1.0 if t_end > t_start else -1.0
        while (t_end - t_cur) * direction > 0:
            if chart == "lam":
                # a launch, or a hand-back, on or beyond a threshold starts in that
                # threshold's chart, where the lam chart's event would fire at once
                if y_v[0] * y_v[0] >= _CHART_SWITCH * abs(t_cur):
                    chart, y_v = "nu", _reciprocal(t_cur, y_v)
                elif abs(y_v[0]) <= _MU_ENTER * abs(t_cur):
                    chart = "mu"
            if chart == "lam":
                fun, y_cur, own = rhs, y_v, None
            else:
                if sg is None:  # sign(v'), or where v' = 0 that of direction * v'': no turn at the start
                    sg = 1 if (y_v[1] or direction * rhs_scalar(t_cur, *y_v, params[chart])) > 0 else -1
                fun = fields[chart, sg]
                own = _lam_on(fun)
                y_cur = y_ham or [y_v[0], mu_from_lambda(t_cur, *y_v, SignSwitch(sg), params[chart])]
            # past a root lam starts at zero and takes the sign sg*direction
            s0 = sg * direction if y_ham else math.copysign(1.0, y_cur[0])
            # the band events fall through zero at their threshold (lam: the
            # mu chart's entry; mu: the root; nu: the pole cap) and stay
            # negative past it, so a step that jumps the threshold still
            # fires them and the event search finds that point
            if chart == "lam":
                events = [ev_switch, _band_event(s0, _MU_ENTER, -1)]
            elif chart == "mu":
                events = [_band_event(s0, 0.0, -1), _band_event(s0, _MU_LEAVE, 1), _turn_event(own, sg)]
            else:
                events = [_band_event(s0, 1 / _POLE_CAP, -1), ev_switch, _turn_event(own, sg)]
            res = solve_ivp(fun, (t_cur, t_end), y_cur, rtol=rel_tol, atol=abs_tol, events=events)
            if res.status == -1:
                raise IntegrationError(f"integration failed near t={res.t[-1]}: {res.message}")
            seg = res.sol if own is None else _LamFrom(res.sol, own, chart == "nu")
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
            y_end = res.sol.ys[-1]
            t_cur, y_v, y_ham = t_s, y_end if own is None else own(t_s, y_end), None
            if end == "root":
                y_ham = y_end  # (lam, mu) at the root: mu is regular there
                lam3 = (2 * y_ham[1] - 1 - sg * (1 - p.chi0 * p.chi0) / (2 * t_s)) / (3 * t_s)
                sol.crossings.append(RootInfo(t_s, sg, lam3))
            elif nxt == chart:
                sg = -sg  # the variable turned back toward a root of the other slope
            else:
                sg = None  # a Hamiltonian chart entered next takes the slope's switch
                if "nu" in (chart, nxt):
                    y_v = _reciprocal(t_s, y_v)
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


def find_roots(sol: DenseSolution) -> list[RootInfo]:
    """All roots of lam in the computed span, in order: the roots
    ``integrate`` stepped through, without their lam3.  Only a mu run
    reaches lam = 0, and it ends on the root event there, so no root of the
    span lies outside these records."""
    return [RootInfo(c.t0, c.sgn) for c in sol.crossings]


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

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
up to rounding.  Each solver run stays in one chart, whose table gives
each terminal event why the run ends there and the chart of the next run.
A Hamiltonian run reads v' = field(t, y)[0] off its own Hamilton field, in
its turn event, its hand-over state and its segment's interpolant, which
maps back to (lam, lam').

A mu run stops where s0*lam falls through zero, so the event search places
the root t0 on the run's interpolant, and records the root as the
``RootAnchor`` (t0, sg, lam3) that fixes the solution, with the cubic
coefficient lam3 = lam'''(t0)/6 read off mu(t0) (``series.lam3_from_mu``).
The relaunch goes on from the same (lam, mu) with s0 = sg times
the sweep direction.  Only a mu run reaches lam = 0, so these records are
the roots of the computed span, and ``find_roots`` returns them.  Poles are
not crossed: a nu run stops where |lam| reaches a cap of 1e6
(s0*g - |t|/1e6 falls through zero), and the integration stops on that
side and leaves a pole marker.

The stepping runs on ``_rk.solve_ivp``, scipy's DOP853 (order 8, with a
7th-order dense output formed lazily) ported to Python floats, so the
module needs no scipy at run time, and numpy only in ``lam3_at_root``'s
fit.  Each solver segment keeps its step count, its right-hand-side calls
and why it ended; ``integrate`` logs them, and each root crossed, one line
each at DEBUG (``P3_LOG=debug``).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import mul

# brentq is not called here; it stays because bench/tracer.py wraps ode.brentq by name, as it wraps least_squares
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
from .series import DtSeries, lam3_from_mu, series_eval

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


def linspace(a: float, b: float, n: int) -> list[float]:
    """n >= 2 evenly spaced floats from a to b, both ends included:
    ``np.linspace(a, b, n).tolist()`` bit for bit, without numpy.  Like
    numpy it takes a + i*step and then sets the last point to b, and where
    the step underflows to zero it scales (b - a) by i/(n - 1) instead."""
    delta = b - a
    step = delta / (n - 1)
    if step == 0:
        return [a + i / (n - 1) * delta for i in range(n - 1)] + [b]
    return [a + i * step for i in range(n - 1)] + [b]


def _check_run(rel_tol: float, abs_tol: float, *state: float) -> None:
    # a NaN tolerance or initial state made the initial step NaN, which no step-size bound replaces
    if not (0 < rel_tol < math.inf and 0 < abs_tol < math.inf):
        raise DomainError("rel_tol and abs_tol must be finite and positive")
    if not all(map(math.isfinite, state)):
        raise DomainError("initial data must be finite")


@dataclass(frozen=True)
class Segment:
    """One solver run of the composite solution and how it went."""

    lo: float
    hi: float
    sol: DenseOutput | _LamFrom  # sol(t) -> [lam, lam'] over the run, in any chart
    steps: int  # accepted steps
    rhs_calls: int  # right-hand-side calls during integrate: rejected steps and dense-output stages included
    # "span_end", or the entry of the chart's event table whose event fired:
    # "root" (lam fell through zero), "pole_cap" (|lam| reached the cap) or
    # "chart_switch" (the next run steps another chart, or after a turn the
    # same chart of the other switch)
    end: str
    # what the run stepped: "lam" on the scalar equation, or on the Hamilton
    # field of the slope-matching switch "mu" = (lam, mu) or "nu" = (g, nu)
    # with g = t/lam, the latter on the swapped equation's
    chart: str = "lam"


def _reciprocal(t, y):
    """(v, v') -> (t/v, (v - t v')/v^2): the state in the other chart; the
    map is its own inverse."""
    v, vdot = y
    return [t / v, (v - t * vdot) / (v * v)]


def _band_event(s0, level, direction):
    """Terminal event s0*lam - level*|t| through zero in ``direction``."""

    def event(t, y):
        return s0 * y[0] - level * abs(t)

    event.direction = direction
    return event


def _turn_event(field, sg):
    """Terminal event sg*v' falling through zero, with v' = field(t, y)[0]
    from a Hamiltonian chart's field: v turns back toward a root of slope -sg."""

    def event(t, y):
        return sg * field(t, y)[0]

    event.direction = -1
    return event


class _LamFrom:
    """A mu- or nu-chart run's dense output read as (lam, lam'): the chart's
    (v, v'), with v' = field(t, y)[0] from its Hamilton field, then for
    v = g the reciprocal map."""

    def __init__(self, sol: DenseOutput, field, reciprocal: bool):
        self.sol = sol
        self.field = field
        self.reciprocal = reciprocal
        self.ts = sol.ts

    def __call__(self, t):
        y = self.sol(t)
        y = [y[0], self.field(t, y)[0]]
        return _reciprocal(t, y) if self.reciprocal else y


@dataclass
class DenseSolution:
    """Piecewise dense P-III' solution: the solver segments, sorted by
    ``lo`` at construction, which tile [t_min, t_max] and meet only at their
    edges, and the roots crossed there, sorted by ``t0``.

    A lookup at t is answered by the first segment (by ``lo``) whose
    [lo, hi] holds t, else by the outer segment at t_min or t_max if t lies
    within 1e-9 (relative) beyond it; otherwise it raises DomainError.  The
    segments' ``hi`` are sorted like their ``lo``, so the first rule bisects
    them.
    """

    params: EquationParams
    rel_tol: float
    abs_tol: float
    segments: list  # Segment records, at least one
    crossings: list  # RootAnchor (t0, sgn, lam3) of each root crossed
    pole_markers: list  # (t, side) where |lam| hit the cap
    _his: list = field(init=False, repr=False, compare=False)  # the segments' hi, bisected

    def __post_init__(self):
        self.segments.sort(key=lambda seg: seg.lo)
        self.crossings.sort(key=lambda c: c.t0)
        self._his = [seg.hi for seg in self.segments]

    @property
    def t_min(self) -> float:
        return self.segments[0].lo

    @property
    def t_max(self) -> float:
        return self.segments[-1].hi

    def _lookup(self, t: float):
        """The interpolant of the first segment that holds t, or None."""
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
        # the segments tile [t_min, t_max], so the nearest to an uncovered t is an outer one
        seg, gap = (self.segments[0], self.t_min - t) if t < self.t_min else (self.segments[-1], t - self.t_max)
        if gap < 1e-9 * max(1.0, abs(t)):
            return seg.sol
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
    if lo == hi:
        raise DomainError("span must have positive length")
    if not (lo <= t_init <= hi):
        raise DomainError("t_init must lie inside span")
    if lo <= 0.0 <= hi:
        raise DomainError("span must not contain t = 0")
    _check_run(rel_tol, abs_tol, lam0, lamdot0)
    if lam0 == 0:
        raise DomainError("initial lambda must be nonzero: the equation is indeterminate at a root")
    if not abs(lam0) < _POLE_CAP:
        raise DomainError("initial lambda must lie below the pole cap |lam| < 1e6")

    segments, crossings, pole_markers = [], [], []

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
                fun, y_cur = rhs, y_v
            else:
                if sg is None:  # sign(v'), or where v' = 0 that of direction * v'': no turn at the start
                    sg = 1 if (y_v[1] or direction * rhs_scalar(t_cur, *y_v, params[chart])) > 0 else -1
                fun = fields[chart, sg]
                y_cur = y_ham or [y_v[0], mu_from_lambda(t_cur, *y_v, SignSwitch(sg), params[chart])]
            # past a root lam starts at zero and takes the sign sg*direction
            s0 = sg * direction if y_ham else math.copysign(1.0, y_cur[0])
            # per terminal event: (event, why the run ends, chart of the next
            # run).  The band events fall through zero at their threshold
            # (lam: the mu chart's entry; mu: the root; nu: the pole cap) and
            # stay negative past it, so a step that jumps the threshold still
            # fires them and the event search finds that point
            if chart == "lam":
                table = [(ev_switch, "chart_switch", "nu"), (_band_event(s0, _MU_ENTER, -1), "chart_switch", "mu")]
            elif chart == "mu":
                table = [(_band_event(s0, 0.0, -1), "root", "mu"),
                         (_band_event(s0, _MU_LEAVE, 1), "chart_switch", "lam")]
            else:
                table = [(_band_event(s0, 1 / _POLE_CAP, -1), "pole_cap", None),
                         (ev_switch, "chart_switch", "lam")]
            if chart != "lam":  # a turn: the next run steps the same chart, of the other switch
                table.append((_turn_event(fun, sg), "chart_switch", chart))
            events = [ev for ev, _, _ in table]
            res = solve_ivp(fun, (t_cur, t_end), y_cur, rtol=rel_tol, atol=abs_tol, events=events)
            if res.status == -1:
                raise IntegrationError(f"integration failed near t={res.t[-1]}: {res.message}")
            if res.status == 0:  # reached t_end
                end, nxt, t_s = "span_end", None, res.t[-1]
            else:
                k = next(i for i, te in enumerate(res.t_events) if te)
                (_, end, nxt), t_s = table[k], float(res.t_events[k][0])
            if t_s == t_cur:  # an empty segment would break DenseSolution's bisection
                raise IntegrationError(f"a {chart}-chart run ended where it started, at t={t_cur}")
            seg = res.sol if chart == "lam" else _LamFrom(res.sol, fun, chart == "nu")
            segments.append(Segment(min(t_cur, t_s), max(t_cur, t_s), seg, len(res.t) - 1, res.nfev, end, chart))
            if end == "span_end":
                return
            if end == "pole_cap":
                pole_markers.append((t_s, "right" if direction > 0 else "left"))
                return
            y_end = res.sol.ys[-1]
            t_cur, y_v, y_ham = t_s, y_end if chart == "lam" else [y_end[0], fun(t_s, y_end)[0]], None
            if end == "root":
                y_ham = y_end  # (lam, mu) at the root: mu is regular there
                crossings.append(RootAnchor(t_s, sg, lam3_from_mu(t_s, sg, y_ham[1], p)))
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
    sol = DenseSolution(p, rel_tol, abs_tol, segments, crossings, pole_markers)
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
    lam0: float,
    mu0: float,
    span: tuple,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
):
    """Plain dense integration of the coupled Hamilton system (lam, mu) from
    (lam0, mu0) at span[0] to span[1], for one fixed sign switch, with no
    chart changes (mu is regular at matching-sign roots), on the same
    ``hamilton_field`` as the mu chart of ``integrate``.
    Returns the kernel's result: ``.sol(t)`` gives (lam, mu) and
    ``.t`` the accepted steps.  Raises IntegrationError naming t if the step
    size underflows before the span end, DomainError unless both
    tolerances are finite and positive and lam0, mu0 finite."""
    _check_run(rel_tol, abs_tol, lam0, mu0)
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


def find_roots(sol: DenseSolution) -> list[RootAnchor]:
    """All roots of lam in the computed span, in order: the crossing records
    of the roots ``integrate`` stepped through.  Only a mu run reaches
    lam = 0, and it ends on the root event there, so no root of the span
    lies outside these records."""
    return list(sol.crossings)


def lam3_at_root(sol: DenseSolution, root: RootAnchor, p: EquationParams) -> float:
    """Cubic coefficient lam'''(t0)/6 at ``root.t0``, estimated from the
    numerical solution independently of the crossing record's lam3.

    The third derivative is evaluated through its closed form on a grid of
    41 evenly spaced points over the window |t - t0| <= 0.1 |t0|, at those
    the solution covers (one side only where the computed span ends inside
    the window), so the estimate does not depend on how densely the solver
    stepped there.  Points with |lam| below an exclusion threshold are
    dropped (the formula is indeterminate at the root itself), and a
    degree-4 polynomial is least-squares fitted and read off at the root.
    """
    import numpy as np  # for polyfit; the rest of the module runs without numpy

    t0 = root.t0
    w = 0.1 * abs(t0)
    excl = 1e-3 * max(1.0, abs(t0))
    kept = []
    for t in linspace(t0 - w, t0 + w, 41):
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
    dev = 0.0
    for t in linspace(lo, hi, n):
        dev = max(dev, abs(series_eval(lam_series, t - t0) - sol.lam(t)))
    return dev


def symmetry_check(sol: DenseSolution, p: EquationParams, grid) -> float:
    """Integrate the parameter-swapped equation from t/lam initial data and
    return max |t/lam(t) - lam_swapped(t)| over the grid."""
    grid = [float(t) for t in grid]
    for t in grid:
        if abs(sol.lam(t)) < 1e-6 * max(1.0, abs(t)):
            raise DomainError(f"grid point t={t} too close to a zero of lambda")
    t_a = grid[len(grid) // 2]
    g0, g0dot = _reciprocal(t_a, sol.state(t_a))
    swapped = integrate(
        p.swapped(), t_a, g0, g0dot, (min(grid), max(grid)), sol.rel_tol, sol.abs_tol
    )
    dev = 0.0
    for t in grid:
        dev = max(dev, abs(t / sol.lam(t) - swapped.lam(t)))
    return dev

"""Dormand-Prince 5(4) integration on Python floats, and Brent's root finder.

This is scipy's ``solve_ivp(method="RK45", dense_output=True)`` written for
the small systems the verifier integrates (two components), where numpy's
per-call overhead on every stage of every step costs more than the
arithmetic.  It keeps scipy's behaviour: the Dormand-Prince (1980) tableau,
the initial step and the step-size controller of Hairer-Norsett-Wanner
(Sec. II.4), the quartic dense output of Shampine (1986), the segment choice
of ``OdeSolution`` at mesh nodes and the terminal-event handling.  The dense
output is lazy: an accepted step keeps its stage values, and the quartic's
coefficients are formed on the first evaluation in that step, with the sums
scipy's eager form would make, so most steps, which are never evaluated,
never form them.  Next to the mesh ``ts`` the solution keeps the accepted
states ``ys``, which callers can read instead of interpolating at a node.

Sums run in another order than numpy's dot products, so results differ
from scipy's in rounding.  The step controller carries that rounding of the
error estimate into the step sizes, and the mesh drifts by about 1e-10
relative; the numbers of accepted steps and right-hand-side calls stay
scipy's.

Events are located with ``brentq``, a port of scipy's that gives its
iterates bit for bit; ``ode`` polishes roots with it too.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import mul

EPS = 2.0**-52
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)

C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1)  # nodes of stages 1..5; stage 0 sits at t
A = (  # row s holds the coefficients of stages 0..s-1 in stage s
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
B = (35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
E = (-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
# dense output: column k of P weights the stages in the x**(k+1) coefficient
P = (
    (1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0, 0, 0, 0),
    (0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
P_COLS = tuple(zip(*P))

MESSAGES = {
    -1: "Required step size is less than spacing between numbers.",
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
}


def brentq(f, a, b, xtol=2e-12, rtol=4 * EPS, maxiter=100):
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    A line-for-line port of scipy's ``brentq`` (``Zeros/brentq.c``, after
    Brent 1973, Ch. 4): the same iterates, defaults and exceptions.  It
    raises ValueError when f(a) and f(b) share a sign or f returns NaN, and
    RuntimeError when ``maxiter`` iterations end without convergence.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < 4 * EPS:
        raise ValueError(f"rtol too small ({rtol:g} < {4 * EPS:g})")

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _rms(v):
    return math.sqrt(sum([x * x for x in v])) / math.sqrt(len(v))


def _interpolate(piece, t):
    """State at t from one step's quartic interpolant.

    A piece is ``[t_old, h, y_old, q]``.  Until its first use, q holds the
    step's stage values, component by component, in one ``array('d')``;
    the first use replaces them with the coefficients of x, x**2, x**3 and
    x**4 per component.
    """
    t_old, h, y_old, q = piece
    if type(q) is array:
        n = len(P)  # stages
        q = piece[3] = [[sum(map(mul, pc, q[i : i + n])) for pc in P_COLS] for i in range(0, len(q), n)]
    x = (t - t_old) / h
    x2 = x * x
    x3 = x2 * x
    x4 = x3 * x
    return [h * (a * x + b * x2 + c * x3 + d * x4) + y for y, (a, b, c, d) in zip(y_old, q)]


class DenseOutput:
    """Piecewise quartic interpolant over the accepted steps.

    At a mesh node the step with the lower index, the one ending there, is
    used in either sweep direction, as in scipy's ``OdeSolution``: bisect
    left on an ascending mesh, right on the reversed descending one.
    ``ys[k]`` is the accepted state at ``ts[k]``; after a terminal event the
    last entry is the interpolated state at the event time, ``self(ts[-1])``.
    """

    def __init__(self, ts, ys, pieces):
        self.ts = ts
        self.ys = ys
        self.pieces = pieces
        self._ascending = ts[-1] >= ts[0]
        self._ts_sorted = ts if self._ascending else ts[::-1]

    def __call__(self, t):
        last = len(self.pieces) - 1
        if self._ascending:
            i = min(max(bisect_left(self._ts_sorted, t) - 1, 0), last)
        else:
            i = last - min(max(bisect_right(self._ts_sorted, t) - 1, 0), last)
        return _interpolate(self.pieces[i], t)


@dataclass
class IvpResult:
    t: list  # accepted abscissae; a terminal event's time replaces the last one
    sol: DenseOutput
    status: int  # -1 step size underflow, 0 reached the span end, 1 terminal event
    message: str
    t_events: list  # per event, the times it fired (at most one in total)
    nfev: int  # right-hand-side calls


def _initial_step(fun, t0, y0, f0, t_bound, direction, rtol, atol):
    interval_length = abs(t_bound - t0)
    scale = [atol + abs(y) * rtol for y in y0]
    d0 = _rms([y / s for y, s in zip(y0, scale)])
    d1 = _rms([f / s for f, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0 * direction, [y + h0 * direction * f for y, f in zip(y0, f0)])
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-ERROR_EXPONENT)
    return min(100 * h0, h1, interval_length)


def solve_ivp(fun, t_span, y0, rtol=1e-3, atol=1e-6, events=()):
    """Integrate y' = fun(t, y) over t_span from y0 with dense output.

    Every event is terminal: the integration stops at the first root, in
    the sweep direction, of an event function ``event(t, y)`` that changes
    sign across a step in its ``direction`` attribute (default 0, either
    way).  The root is located in the step's interpolant with
    xtol = rtol = 4 * EPS.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    if t == t_bound:
        raise ValueError("integration span is empty")
    direction = 1.0 if t_bound > t else -1.0
    y = [float(v) for v in y0]
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, direction, rtol, atol)
    nfev = 2
    ts, ys, pieces = [t], [y], []
    ev_dirs = [getattr(ev, "direction", 0) for ev in events]
    g = [ev(t, y) for ev in events]
    t_events = [[] for _ in events]
    status = None
    while status is None:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return IvpResult(ts, DenseOutput(ts, ys, pieces), -1, MESSAGES[-1], t_events, nfev)
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            K = [f]
            for c, a in zip(C, A):
                K.append(fun(t + c * h, [yi + sum(map(mul, a, k)) * h for yi, k in zip(y, zip(*K))]))
            y_new = [yi + h * sum(map(mul, B, k)) for yi, k in zip(y, zip(*K))]
            f_new = fun(t + h, y_new)
            K.append(f_new)
            nfev += 6
            columns = list(zip(*K))
            error_norm = _rms(
                [
                    sum(map(mul, E, k)) * h / (atol + max(abs(yi), abs(yn)) * rtol)
                    for yi, yn, k in zip(y, y_new, columns)
                ]
            )
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else min(MAX_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
            rejected = True

        piece = [t, h, y, array("d", sum(columns, ()))]
        pieces.append(piece)
        if direction * (t_new - t_bound) >= 0:
            status = 0
        if events:
            g_new = [ev(t_new, y_new) for ev in events]
            active = [
                i
                for i, (a, b, d) in enumerate(zip(g, g_new, ev_dirs))
                if (a <= 0 <= b and d >= 0) or (a >= 0 >= b and d <= 0)  # up or down, as directed
            ]
            if active:
                roots = [
                    brentq(
                        lambda s, ev=events[i]: ev(s, _interpolate(piece, s)),
                        t,
                        t_new,
                        xtol=4 * EPS,
                        rtol=4 * EPS,
                    )
                    for i in active
                ]
                i, t_new = min(zip(active, roots), key=lambda ir: direction * ir[1])
                t_events[i].append(t_new)
                status = 1
            g = g_new
        if len(ts) > 1 and ts[-1] == t_new:
            pieces.pop()
        else:
            ts.append(t_new)
            ys.append(y_new)
        if status == 1:
            ys[-1] = _interpolate(pieces[-1], t_new)
        t, y, f = t_new, y_new, f_new
    return IvpResult(ts, DenseOutput(ts, ys, pieces), status, MESSAGES[status], t_events, nfev)

"""DOP853 integration of two-component systems on Python floats, and
Brent's root finder.

This is scipy's ``solve_ivp(method="DOP853")`` written for the pairs the
verifier integrates, ``(lam, lam')``, ``(lam, mu)`` and ``(g, nu)``, where
numpy's per-call overhead on every stage of every step costs more than the
arithmetic.  Each component keeps its own list of stage values, every
combination of stages is one C-level ``sum(map(mul, coefficients, stages))``,
and the two components are written out, with no loop over them; a state
that is not a pair raises ValueError.  It keeps scipy's behaviour: the
12-stage, order-8 Dormand-Prince tableau of Hairer-Norsett-Wanner
(Sec. II.10) with its combined 5th- and 3rd-order error estimate, the
initial step and step-size controller of Sec. II.4 (exponent -1/8), the
7th-order dense output, the segment choice of ``OdeSolution`` at mesh nodes
and the terminal-event handling.  The dense output is lazy: an accepted step
keeps its 13 stage values per component, and its interpolant is formed on
the first evaluation in that step, with the 3 extra stages and the sums
scipy's eager form would make, so most steps, which are never evaluated,
never pay for them.  Next to the mesh ``ts`` the solution keeps the
accepted states ``ys``, which callers can read instead of interpolating at
a node.

Sums run in another order than numpy's dot products, so results differ
from scipy's in rounding, and the step controller carries that rounding of
the error estimate into the step sizes; the numbers of accepted steps and
right-hand-side calls stay scipy's.

Events are located with ``brentq``, a port of scipy's that gives its
iterates bit for bit.
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
ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order + 1)

# The DOP853 coefficients, with the decimal digits of Hairer's dop853.f as
# scipy's dop853_coefficients.py gives them.  Stage 0 sits at t, stage 12 is
# the right-hand side at (t + h, y_new), and stages 13..15 enter only the
# dense output.
C = (  # nodes of stages 1..11
    0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0,
)
A = (  # row s holds the coefficients of stages 0..s-1 in stage s
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (
        2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1,
    ),
    (
        3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
        1.25467687566822425016691814123e-1,
    ),
    (
        3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
        -1.7578125e-2,
    ),
    (
        3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
        1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3,
    ),
    (
        6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
        -4.34898841810699588477366255144e1,
    ),
    (
        4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
        -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2,
    ),
    (
        -9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
        1.09143734899672957818500254654, -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
        2.27394870993505042818970056734e1, 2.49360555267965238987089396762, -3.0467644718982195003823669022,
    ),
    (
        2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444, -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
        -2.85899827713502369474065508674, -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1,
    ),
)
B = (  # weights of stages 0..11 in y_new
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
)
# error estimators over stages 0..12: the 3rd-order one is B minus an
# embedded solution, the 5th-order one is given outright
E3 = (
    B[0] - 0.244094488188976377952755905512, *B[1:8], B[8] - 0.733846688281611857341361741547, *B[9:11],
    B[11] - 0.220588235294117647058823529412e-1, 0.0,
)
E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1, 0.0,
)
C_EXTRA = (0.1, 0.2, 0.777777777777777777777777777778)  # nodes of stages 13..15
A_EXTRA = (  # row s holds the coefficients of stages 0..12+s in stage 13+s
    (
        5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0, 2.53500210216624811088794765333e-1,
        -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
        8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3, -8.298e-3,
    ),
    (
        3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0, 2.83009096723667755288322961402e-2,
        5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2, 0.0, 0.0,
        -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
        -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1,
    ),
    (
        -4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0, -4.69762141536116384314449447206,
        7.68342119606259904184240953878, 4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0.0,
        0.0, 0.0, -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
        -9.15095847217987001081870187138,
    ),
)
D = (  # row r weights stages 0..15 in the dense output's coefficient r + 3
    (
        -0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0, 0.56671495351937776962531783590,
        -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
        -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
        -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
        -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1,
    ),
    (
        0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0, 0.24228349177525818288430175319e+3,
        0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
        -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
        -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
        0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
        -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2,
    ),
    (
        0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0, -0.38703730874935176555105901742e+3,
        -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
        -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
        -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
        -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2,
    ),
    (
        -0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0, -0.15418974869023643374053993627e+3,
        -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
        -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
        -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
        -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3,
    ),
)
N_STAGES = len(B)  # right-hand-side calls of one step attempt, f_new included

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


def _rms(a, b):
    return math.sqrt(a * a + b * b) / math.sqrt(2)


def _error_norm(K0, K1, h, s0, s1):
    """scipy's DOP853 error norm: |h| times the 5th-order estimate's squared
    norm over the root of the two estimates' combined squared norms."""
    a5 = sum(map(mul, E5, K0)) / s0
    b5 = sum(map(mul, E5, K1)) / s1
    a3 = sum(map(mul, E3, K0)) / s0
    b3 = sum(map(mul, E3, K1)) / s1
    e5 = a5 * a5 + b5 * b5
    e3 = a3 * a3 + b3 * b3
    if e5 == 0 and e3 == 0:
        return 0.0
    return abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * 2)


def _interpolate(piece, t, fun):
    """State at t from one step's 7th-order interpolant.

    A piece is ``[t_old, h, y_old, y_new, q]``.  Until its first use, q
    holds the step's stages 0..12 of the first component, then those of the
    second, in one ``array('d')``; the first use calls ``fun`` for stages
    13..15 and replaces q with the interpolant's 7 coefficients per
    component, one tuple each.
    """
    t_old, h, (y0, y1), y_new, q = piece
    if type(q) is array:
        n = N_STAGES + 1
        K0, K1 = q[:n].tolist(), q[n:].tolist()
        for c, a in zip(C_EXTRA, A_EXTRA):
            v0, v1 = fun(t_old + c * h, [y0 + sum(map(mul, a, K0)) * h, y1 + sum(map(mul, a, K1)) * h])
            K0.append(v0)
            K1.append(v1)
        dy0, dy1 = y_new[0] - y0, y_new[1] - y1
        q = piece[4] = [
            (dy0, h * K0[0] - dy0, 2 * dy0 - h * (K0[N_STAGES] + K0[0]), *[h * sum(map(mul, d, K0)) for d in D]),
            (dy1, h * K1[0] - dy1, 2 * dy1 - h * (K1[N_STAGES] + K1[0]), *[h * sum(map(mul, d, K1)) for d in D]),
        ]
    (a0, a1, a2, a3, a4, a5, a6), (b0, b1, b2, b3, b4, b5, b6) = q
    x = (t - t_old) / h
    u = 1 - x
    return [
        y0 + x * (a0 + u * (a1 + x * (a2 + u * (a3 + x * (a4 + u * (a5 + x * a6)))))),
        y1 + x * (b0 + u * (b1 + x * (b2 + u * (b3 + x * (b4 + u * (b5 + x * b6)))))),
    ]


class DenseOutput:
    """Piecewise 7th-order interpolant over the accepted steps.

    At a mesh node the step with the lower index, the one ending there, is
    used in either sweep direction, as in scipy's ``OdeSolution``: bisect
    left on an ascending mesh, right on the reversed descending one.
    ``ys[k]`` is the accepted state at ``ts[k]``; after a terminal event the
    last entry is the interpolated state at the event time, ``self(ts[-1])``.
    The first evaluation in a step calls ``fun`` three times.
    """

    def __init__(self, ts, ys, pieces, fun):
        self.ts = ts
        self.ys = ys
        self.pieces = pieces
        self.fun = fun
        self._ascending = ts[-1] >= ts[0]
        self._ts_sorted = ts if self._ascending else ts[::-1]

    def __call__(self, t):
        last = len(self.pieces) - 1
        if self._ascending:
            i = min(max(bisect_left(self._ts_sorted, t) - 1, 0), last)
        else:
            i = last - min(max(bisect_right(self._ts_sorted, t) - 1, 0), last)
        return _interpolate(self.pieces[i], t, self.fun)


@dataclass
class IvpResult:
    t: list  # accepted abscissae; a terminal event's time replaces the last one
    sol: DenseOutput
    status: int  # -1 step size underflow, 0 reached the span end, 1 terminal event
    message: str
    t_events: list  # per event, the times it fired (at most one in total)
    nfev: int  # right-hand-side calls, the event step's dense-output stages included


def _initial_step(fun, t0, y, f, t_bound, direction, rtol, atol):
    interval_length = abs(t_bound - t0)
    (y0, y1), (f0, f1) = y, f
    s0, s1 = atol + abs(y0) * rtol, atol + abs(y1) * rtol
    d0 = _rms(y0 / s0, y1 / s1)
    d1 = _rms(f0 / s0, f1 / s1)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    g0, g1 = fun(t0 + h0 * direction, [y0 + h0 * direction * f0, y1 + h0 * direction * f1])
    d2 = _rms((g0 - f0) / s0, (g1 - f1) / s1) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-ERROR_EXPONENT)
    return min(100 * h0, h1, interval_length)


def solve_ivp(fun, t_span, y0, rtol=1e-3, atol=1e-6, events=()):
    """Integrate the pair y' = fun(t, y) over t_span from y0 with dense output.

    ``y0`` must have two components, and ``fun`` returns two; any other
    ``y0`` raises ValueError, as does an empty span.  Every event is
    terminal: the integration stops at the first root, in the sweep
    direction, of an event function ``event(t, y)`` that changes sign
    across a step in its ``direction`` attribute (default 0, either way).
    The root is located in the step's interpolant with
    xtol = rtol = 4 * EPS.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    if t == t_bound:
        raise ValueError("integration span is empty")
    y = [float(v) for v in y0]
    if len(y) != 2:
        raise ValueError(f"the kernel integrates two-component states, not {len(y)}")
    direction = 1.0 if t_bound > t else -1.0
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
        y0, y1 = y
        while True:
            if h_abs < min_step:
                return IvpResult(ts, DenseOutput(ts, ys, pieces, fun), -1, MESSAGES[-1], t_events, nfev)
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            K0, K1 = [f[0]], [f[1]]  # stages of each component
            for c, a in zip(C, A):
                v0, v1 = fun(t + c * h, [y0 + sum(map(mul, a, K0)) * h, y1 + sum(map(mul, a, K1)) * h])
                K0.append(v0)
                K1.append(v1)
            n0, n1 = y0 + h * sum(map(mul, B, K0)), y1 + h * sum(map(mul, B, K1))
            y_new = [n0, n1]
            f_new = fun(t + h, y_new)
            K0.append(f_new[0])
            K1.append(f_new[1])
            nfev += N_STAGES
            s0 = atol + max(abs(y0), abs(n0)) * rtol
            s1 = atol + max(abs(y1), abs(n1)) * rtol
            error_norm = _error_norm(K0, K1, h, s0, s1)
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else min(MAX_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
            rejected = True

        piece = [t, h, y, y_new, array("d", K0 + K1)]
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
                nfev += len(A_EXTRA)  # the interpolant's stages, formed on the first call below
                roots = [
                    brentq(
                        lambda s, ev=events[i]: ev(s, _interpolate(piece, s, fun)),
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
            ys[-1] = _interpolate(pieces[-1], t_new, fun)
        t, y, f = t_new, y_new, f_new
    return IvpResult(ts, DenseOutput(ts, ys, pieces, fun), status, MESSAGES[status], t_events, nfev)

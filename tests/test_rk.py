"""The DOP853 kernel against scipy's DOP853, and the brentq port against
scipy's brentq, as the oracles; scipy's RK45 as an independent method."""

import math
from array import array
from operator import mul

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.optimize import brentq as scipy_brentq

from p3prime import EquationParams, RootAnchor, SignSwitch, _rk
from p3prime._rk import EPS, _interpolate, brentq, solve_ivp
from p3prime.equation import rhs_scalar
from p3prime.poles import root_to_pole

P = EquationParams(-0.811597, -0.0550042)
WORKED = (0.833651, (0.288298, 0.374531))  # Cauchy data between the roots 0.511 and 1.38
RTOL, ATOL = 1e-10, 1e-12
# Agreement with scipy's DOP853, scaled by max(1, |value|).  The step factor
# error_norm**(-1/8) carries the rounding of the error estimate, sums that
# cancel O(1) stage values down to rtol size and that numpy's dot products
# add in another order, so the meshes drift apart from the second step on,
# by at most 2.1e-8 over these cases.  Both interpolants are far more
# accurate than rtol, so values at a common t agree to 4.2e-15, and to
# 3.3e-12 next to the pole cap, where |lam| reaches 1e6; event times, roots
# of the same event in nearly the same interpolant, agree to 2.4e-16.
# The bounds leave a margin of about 10x.
MESH_TOL = 2e-7
VALUE_TOL = 3e-11
EVENT_TOL = 1e-14


def _rhs(p):
    return lambda t, y: (y[1], rhs_scalar(t, y[0], y[1], p))


def _oscillator(t, y):
    # lam'' = -lam: the zero event without P-III''s 0/0 right-hand side at the root
    return (y[1], -y[0])


def ev_zero(t, y):
    return y[0]


def ev_near(t, y):
    return abs(y[0]) - 1e-4 * abs(t)


def ev_pole(t, y):
    return abs(y[0]) - 1e6


for ev, direction in ((ev_zero, 0), (ev_near, -1), (ev_pole, 1)):
    ev.terminal = True  # the kernel treats every event as terminal; scipy needs the flag
    ev.direction = direction

ALL_EVENTS = [ev_zero, ev_near, ev_pole]


def _pole_launch():
    # data just left of a simple pole, as in the pole-marker test of ode
    a = RootAnchor(0.7, SignSwitch(1), 1.5)
    le = root_to_pole(a, P, 6)
    dt = -0.05 * a.t0
    return a.t0 + dt, (le.eval(dt), le.eval_derivative(dt))


CASES = {
    # name: (rhs, t_start, y_start, t_end, events, expected status, index of the fired event)
    "up_span_end": (_rhs(P), *WORKED, 1.2, ALL_EVENTS, 0, None),
    "down_span_end": (_rhs(P), *WORKED, 0.6, ALL_EVENTS, 0, None),
    "up_near_switch": (_rhs(P), *WORKED, 2.0, ALL_EVENTS, 1, 1),
    "down_near_switch": (_rhs(P), *WORKED, 0.3, ALL_EVENTS, 1, 1),
    "up_pole_cap": (_rhs(P), *_pole_launch(), 0.75, ALL_EVENTS, 1, 2),
    "up_zero": (_oscillator, 0.0, (1.0, 0.3), 3.0, ALL_EVENTS, 1, 0),
    "down_zero": (_oscillator, 0.0, (1.0, 0.3), -3.0, [ev_zero], 1, 0),
}


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


def _kernel(name):
    fun, t_start, y_start, t_end, events, _, _ = CASES[name]
    return solve_ivp(fun, (t_start, t_end), y_start, rtol=RTOL, atol=ATOL, events=events)


def _scipy(name, method="DOP853", dense_output=True):
    fun, t_start, y_start, t_end, events, _, _ = CASES[name]
    return scipy_solve_ivp(
        fun, (t_start, t_end), y_start, method=method, rtol=RTOL, atol=ATOL,
        dense_output=dense_output, events=events,
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_matches_scipy_dop853(name):
    _, t_start, _, _, _, status, fired = CASES[name]
    res, ref = _kernel(name), _scipy(name)
    # without dense output scipy forms the interpolant only in a step where
    # an event fires, as the lazy kernel does, so its call count is the kernel's
    stepped = _scipy(name, dense_output=False)
    assert res.status == ref.status == stepped.status == status
    assert res.message == ref.message
    assert len(res.t) == len(ref.t) == len(stepped.t)
    assert res.nfev == stepped.nfev
    assert all(_close(a, b, MESH_TOL) for a, b in zip(res.t, ref.t))
    assert [len(te) for te in res.t_events] == [len(te) for te in ref.t_events]
    if fired is not None:
        assert len(res.t_events[fired]) == 1
        assert _close(res.t_events[fired][0], float(ref.t_events[fired][0]), EVENT_TOL)
    for t in np.linspace(t_start, res.t[-1], 301):
        assert all(_close(a, float(b), VALUE_TOL) for a, b in zip(res.sol(float(t)), ref.sol(t)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_matches_scipy_rk45(name):
    # RK45 is another method with its own error, so agreement is at the
    # level of RK45's global error at rtol = 1e-10: at most 9.9e-10 below,
    # with lam scaled by max(1, lam^2) and lam' by max(1, |lam'|^1.5).  Near
    # the pole cap lam ~ r / (t - t_p) and lam' ~ -lam^2 / r, so an error d
    # in the pole's position moves lam by lam^2 d / r and lam' by
    # 2 |lam|^3 d / r^2, which is what these scales follow.
    _, t_start, _, _, _, status, fired = CASES[name]
    res, ref = _kernel(name), _scipy(name, method="RK45")
    assert res.status == ref.status == status
    assert [len(te) for te in res.t_events] == [len(te) for te in ref.t_events]
    if fired is not None:
        assert _close(res.t_events[fired][0], float(ref.t_events[fired][0]), 1e-10)
    for t in np.linspace(t_start, res.t[-1], 301):
        (lam, lamdot), (ref_lam, ref_lamdot) = res.sol(float(t)), ref.sol(t).tolist()
        assert abs(lam - ref_lam) <= 1e-8 * max(1.0, ref_lam**2)
        assert abs(lamdot - ref_lamdot) <= 1e-8 * max(1.0, abs(ref_lamdot) ** 1.5)


def test_tableau_is_scipys_bit_for_bit():
    ref = dop853_coefficients
    n = ref.N_STAGES
    assert _rk.N_STAGES == n and len(_rk.A) == n - 1
    assert _rk.C == tuple(ref.C[1:n].tolist())
    assert all(row == tuple(ref.A[s, :s].tolist()) for s, row in enumerate(_rk.A, start=1))
    assert _rk.B == tuple(ref.B.tolist())
    assert _rk.E3 == tuple(ref.E3.tolist())
    assert _rk.E5 == tuple(ref.E5.tolist())
    assert _rk.D == tuple(tuple(row) for row in ref.D.tolist())
    # the extra stages of the dense output: rows n + 1.. of the extended tableau
    assert _rk.C_EXTRA == tuple(ref.C[n + 1 :].tolist())
    assert len(_rk.A_EXTRA) == ref.N_STAGES_EXTENDED - n - 1
    assert all(row == tuple(ref.A[s, :s].tolist()) for s, row in enumerate(_rk.A_EXTRA, start=n + 1))


@pytest.mark.parametrize("name", ["down_span_end", "down_near_switch", "down_zero"])
def test_descending_mesh_nodes_use_the_step_ending_there(name):
    res, ref = _kernel(name), _scipy(name)
    pieces, fun = res.sol.pieces, res.sol.fun
    formed = len(pieces) - (res.status == 1)  # event location formed the last step's interpolant
    for k in range(1, len(res.t)):
        y = res.sol(res.t[k])
        # OdeSolution takes the lower-index step at a node: the one ending
        # there.  Both sides give the same state here, since y_old + (y_new -
        # y_old) rounds back to y_new, so the rule shows in which step's
        # interpolant the lookup formed
        assert isinstance(pieces[k - 1][4], list)
        if k < formed:
            assert isinstance(pieces[k][4], array)
        assert y == _interpolate(pieces[k - 1], res.t[k], fun)
        assert all(_close(a, float(b), VALUE_TOL) for a, b in zip(y, ref.sol(res.t[k])))


def _stage_columns(stages):
    """The per-component stage lists an unevaluated step keeps, 0..12."""
    n = _rk.N_STAGES + 1
    return [stages[i : i + n].tolist() for i in range(0, len(stages), n)]


def _eager_coefficients(fun, piece):
    """scipy's ``DOP853._dense_output_impl`` on one step, in the kernel's
    sums: stages 13..15, then per component the 7 coefficients
    dy, h f_old - dy, 2 dy - h (f_new + f_old) and h D K."""
    t_old, h, y_old, y_new, stages = piece
    K = _stage_columns(stages)
    for c, a in zip(_rk.C_EXTRA, _rk.A_EXTRA):
        y = [yi + sum(map(mul, a, k)) * h for yi, k in zip(y_old, K)]
        for k, v in zip(K, fun(t_old + c * h, y)):
            k.append(v)
    out = []
    for y0, y1, k in zip(y_old, y_new, K):
        dy = y1 - y0
        out.append((dy, h * k[0] - dy, 2 * dy - h * (k[12] + k[0]), *[h * sum(map(mul, d, k)) for d in _rk.D]))
    return out


@pytest.mark.parametrize("name", ["up_span_end", "down_span_end", "up_zero"])
def test_lazy_coefficients_equal_the_eager_ones(name):
    fun, t_start, y_start, t_end, events, _, _ = CASES[name]
    calls = []
    counted = lambda t, y: calls.append(t) or fun(t, y)
    res = solve_ivp(counted, (t_start, t_end), y_start, rtol=RTOL, atol=ATOL, events=events)
    fired = res.status == 1  # event location has already evaluated the last step
    assert len(calls) == res.nfev
    for k, piece in enumerate(res.sol.pieces[: len(res.sol.pieces) - fired]):
        stages = piece[4]
        # not evaluated yet: stages 0..12 of each component, not coefficients
        assert isinstance(stages, array) and len(stages) == len(y_start) * (_rk.N_STAGES + 1)
        eager = _eager_coefficients(fun, piece)
        t_old, h = piece[0], piece[1]
        t_mid = t_old + 0.5 * h
        calls.clear()
        first = res.sol(t_mid)
        assert len(calls) == 3  # the 3 extra stages, on the first use only
        assert piece[4] == eager
        coefficients = piece[4]
        assert res.sol(t_mid) == first and len(calls) == 3
        assert piece[4] is coefficients
        # evaluated as scipy's Dop853DenseOutput does, operation for operation
        dense = Dop853DenseOutput(t_old, res.t[k + 1], np.array(piece[2]), np.array(coefficients).T)
        for x in (0.0, 0.3, 0.5, 0.9, 1.0):
            t = t_old + x * h
            assert _interpolate(piece, t, fun) == dense(t).tolist()
    if fired:
        assert isinstance(res.sol.pieces[-1][4], list)


@pytest.mark.parametrize("name", sorted(CASES))
def test_node_states_are_the_accepted_states(name):
    fun, t_start, y_start, t_end, events, status, fired = CASES[name]
    res = solve_ivp(fun, (t_start, t_end), y_start, rtol=RTOL, atol=ATOL, events=events)
    sol = res.sol
    assert res.status == status
    assert len(sol.ys) == len(res.t)
    assert sol.ys[0] == [float(v) for v in y_start]
    # y_new = y + h * sum(B * stages 0..11) per component, the kernel's own
    # sum, from the stage values each unevaluated step kept
    for k, (t, h, y_old, y_new, stages) in enumerate(sol.pieces[: len(sol.pieces) - (status == 1)]):
        assert y_old == sol.ys[k]
        assert y_new == sol.ys[k + 1]
        cols = _stage_columns(stages)
        assert y_new == [y + h * sum(map(mul, _rk.B, col)) for y, col in zip(y_old, cols)]
        # stage 0 is the right-hand side at the step's start, stage s the one
        # at t + C[s-1] h and the state y + (sum of A[s-1] times stages
        # 0..s-1) * h, in that order of operations, and stage 12 the one at
        # the step's end
        assert [col[0] for col in cols] == list(fun(t, y_old))
        for s, (c, a) in enumerate(zip(_rk.C, _rk.A), start=1):
            y = [yi + sum(map(mul, a, col[:s])) * h for yi, col in zip(y_old, cols)]
            assert [col[s] for col in cols] == list(fun(t + c * h, y))
        assert [col[_rk.N_STAGES] for col in cols] == list(fun(res.t[k + 1], y_new))
    if status == 1:
        assert res.t[-1] == res.t_events[fired][0]
        assert sol.ys[-1] == sol(res.t[-1])


def test_step_size_underflow_fails_like_scipy():
    # y' = y^2, y(0) = 1 blows up at t = 1; the second component stays 0
    fun = lambda t, y: [y[0] ** 2, 0.0]
    res = solve_ivp(fun, (0.0, 2.0), [1.0, 0.0], rtol=RTOL, atol=ATOL)
    ref = scipy_solve_ivp(fun, (0.0, 2.0), [1.0, 0.0], method="DOP853", rtol=RTOL, atol=ATOL)
    assert res.status == ref.status == -1
    assert res.message == ref.message
    assert len(res.t) == len(ref.t)
    assert abs(res.t[-1] - 1.0) < 1e-9


def test_empty_span_rejected():
    with pytest.raises(ValueError):
        solve_ivp(_rhs(P), (1.0, 1.0), [1.0, 0.0])


@pytest.mark.parametrize("y0", [[1.0], [1.0, 0.0, 0.5]])
def test_states_other_than_pairs_rejected(y0):
    calls = []
    fun = lambda t, y: calls.append(t) or [0.0] * len(y)
    with pytest.raises(ValueError, match="two-component"):
        solve_ivp(fun, (0.0, 1.0), y0)
    assert calls == []  # rejected before the first right-hand-side call


# the tolerances p3prime passes: event location in the kernel, the back-off
# to the switch point and the root polish of ode.find_roots
BRENTQ_TOLS = {
    "event": lambda t: {"xtol": 4 * EPS, "rtol": 4 * EPS},
    "switch_point": lambda t: {"xtol": 1e-15 * max(1.0, abs(t))},
    "root_polish": lambda t: {"xtol": 1e-14 * max(1.0, abs(t))},
}


def _brentq_outcome(solver, f, a, b, **kw):
    """The points f was called at and the root as a hex string, or the
    exception's type and message."""
    calls = []

    def g(x):
        calls.append(float(x).hex())
        return f(x)

    try:
        return calls, float(solver(g, a, b, **kw)).hex()
    except (ValueError, RuntimeError) as exc:
        return calls, (type(exc).__name__, str(exc))


def _brackets(seed, n=300):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        c0, c1, c2, c3 = rng.uniform(-2, 2, 4).tolist()
        a, b = float(rng.uniform(-3, 0)), float(rng.uniform(0.1, 3))
        yield (lambda x: c0 + c1 * x + c2 * math.sin(3 * x) + c3 * x**3), a, b


@pytest.mark.parametrize("tol", sorted(BRENTQ_TOLS))
def test_brentq_matches_scipy_bit_for_bit(tol):
    outcomes = set()
    for f, a, b in _brackets(seed=2024):
        mine = _brentq_outcome(brentq, f, a, b, **BRENTQ_TOLS[tol](b))
        ref = _brentq_outcome(scipy_brentq, f, a, b, **BRENTQ_TOLS[tol](b))
        assert mine == ref
        outcomes.add(type(ref[1]))
    assert outcomes == {str, tuple}  # both roots and same-sign brackets occurred


def _steep_root_brackets(seed, n=300):
    # sign(x - r) |x - r|^p with small p is nearly a step, so the secant and
    # inverse quadratic steps overshoot; on a few brackets per seed (6, 6 and
    # 12 of these 300 under the three tolerances) Brent's acceptance test
    # 2 |stry| < min(|spre|, 3 |sbis| - delta) is decided by the factor 3
    # itself: its outcome flips if the 3 becomes 2.9
    rng = np.random.default_rng(seed)
    for _ in range(n):
        r, p, a, b = rng.uniform(-1, 1), rng.uniform(0.02, 0.2), rng.uniform(-3, -1), rng.uniform(1, 3)
        yield (lambda x, r=float(r), p=float(p): math.copysign(abs(x - r) ** p, x - r)), float(a), float(b)


@pytest.mark.parametrize("tol", sorted(BRENTQ_TOLS))
def test_brentq_matches_scipy_where_the_step_test_is_close(tol):
    for f, a, b in _steep_root_brackets(seed=2025):
        mine = _brentq_outcome(brentq, f, a, b, **BRENTQ_TOLS[tol](b))
        assert isinstance(mine[1], str)
        assert mine == _brentq_outcome(scipy_brentq, f, a, b, **BRENTQ_TOLS[tol](b))


@pytest.mark.parametrize("tol", sorted(BRENTQ_TOLS))
def test_brentq_matches_scipy_on_a_kernel_interpolant(tol):
    # the near-switch event inside the step where the worked example's run stops
    res = solve_ivp(_rhs(P), (WORKED[0], 2.0), WORKED[1], rtol=RTOL, atol=ATOL, events=ALL_EVENTS)
    piece, t_new = res.sol.pieces[-1], res.t[-1]
    f = lambda s: ev_near(s, _interpolate(piece, s, res.sol.fun))
    t, t_end = piece[0], piece[0] + piece[1]
    assert res.t_events[1] == [t_new] and t < t_new < t_end
    mine = _brentq_outcome(brentq, f, t, t_end, **BRENTQ_TOLS[tol](t_end))
    assert isinstance(mine[1], str)  # a root, not an exception
    assert mine == _brentq_outcome(scipy_brentq, f, t, t_end, **BRENTQ_TOLS[tol](t_end))


def test_brentq_same_sign_bracket_raises_like_scipy():
    f = lambda x: x * x + 1
    with pytest.raises(ValueError) as mine:
        brentq(f, 0.0, 1.0)
    with pytest.raises(ValueError) as ref:
        scipy_brentq(f, 0.0, 1.0)
    assert str(mine.value) == str(ref.value) == "f(a) and f(b) must have different signs"


def test_brentq_exhausted_maxiter_raises_like_scipy():
    f = lambda x: x**3 - 2
    with pytest.raises(RuntimeError) as mine:
        brentq(f, 0.0, 3.0, maxiter=3)
    with pytest.raises(RuntimeError) as ref:
        scipy_brentq(f, 0.0, 3.0, maxiter=3)
    assert str(mine.value) == str(ref.value)
    assert brentq(f, 0.0, 3.0) == scipy_brentq(f, 0.0, 3.0)

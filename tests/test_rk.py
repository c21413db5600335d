"""The Dormand-Prince 5(4) kernel against scipy's RK45, and the brentq port
against scipy's brentq, as the oracles."""

import math
from array import array
from operator import mul

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.optimize import brentq as scipy_brentq

from p3prime import EquationParams, RootAnchor, SignSwitch, _rk
from p3prime._rk import EPS, _interpolate, brentq, solve_ivp
from p3prime.equation import rhs_scalar
from p3prime.poles import root_to_pole

P = EquationParams(-0.811597, -0.0550042)
WORKED = (0.833651, (0.288298, 0.374531))  # Cauchy data between the roots 0.511 and 1.38
RTOL, ATOL = 1e-10, 1e-12
# Agreement with scipy, scaled by max(1, |value|).  The step factor
# error_norm**(-1/5) carries the rounding of the error estimate, a sum that
# cancels O(1) stage values down to rtol size and that numpy's dot products
# add in another order, so the meshes drift apart from the second step on:
# by at most 3.6e-10 on P-III' and 1.5e-7 on the oscillator, whose error
# estimate cancels further.  Both interpolants are rtol-accurate, so values
# at a common t agree well within rtol (at most 3.4e-11 here); event times
# are roots of the same event in nearly the same interpolant.
MESH_TOL = 1e-6
VALUE_TOL = RTOL
EVENT_TOL = 1e-12


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


def _both(name):
    fun, t_start, y_start, t_end, events, _, _ = CASES[name]
    res = solve_ivp(fun, (t_start, t_end), y_start, rtol=RTOL, atol=ATOL, events=events)
    ref = scipy_solve_ivp(
        fun, (t_start, t_end), y_start, method="RK45", rtol=RTOL, atol=ATOL,
        dense_output=True, events=events,
    )
    return res, ref


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_matches_scipy_rk45(name):
    _, t_start, _, _, _, status, fired = CASES[name]
    res, ref = _both(name)
    assert res.status == ref.status == status
    assert res.message == ref.message
    assert res.nfev == ref.nfev
    assert len(res.t) == len(ref.t)
    assert all(_close(a, b, MESH_TOL) for a, b in zip(res.t, ref.t))
    assert [len(te) for te in res.t_events] == [len(te) for te in ref.t_events]
    if fired is not None:
        assert len(res.t_events[fired]) == 1
        assert _close(res.t_events[fired][0], float(ref.t_events[fired][0]), EVENT_TOL)
    for t in np.linspace(t_start, res.t[-1], 301):
        assert all(_close(a, float(b), VALUE_TOL) for a, b in zip(res.sol(float(t)), ref.sol(t)))


@pytest.mark.parametrize("name", ["down_span_end", "down_near_switch", "down_zero"])
def test_descending_mesh_nodes_use_the_step_ending_there(name):
    res, ref = _both(name)
    pieces = res.sol.pieces
    sides_differ = 0
    for k in range(1, len(res.t)):
        y = res.sol(res.t[k])
        # OdeSolution takes the lower-index step at a node: the one ending there
        assert y == _interpolate(pieces[k - 1], res.t[k])
        if k < len(pieces):
            sides_differ += y != _interpolate(pieces[k], res.t[k])
        assert all(_close(a, float(b), VALUE_TOL) for a, b in zip(y, ref.sol(res.t[k])))
    assert sides_differ > 0  # the two sides of a node differ in rounding, so the rule is visible


def _stage_columns(stages):
    n = len(_rk.P)
    return [stages[i : i + n] for i in range(0, len(stages), n)]


@pytest.mark.parametrize("name", ["up_span_end", "down_span_end", "up_zero"])
def test_lazy_coefficients_equal_the_eager_ones(name):
    fun, t_start, y_start, t_end, events, _, _ = CASES[name]
    res = solve_ivp(fun, (t_start, t_end), y_start, rtol=RTOL, atol=ATOL, events=events)
    fired = res.status == 1  # event location has already evaluated the last step
    for piece in res.sol.pieces[: len(res.sol.pieces) - fired]:
        stages = piece[3]
        assert isinstance(stages, array)  # not evaluated yet: the stage values, not coefficients
        eager = [[sum(map(mul, pc, k)) for pc in _rk.P_COLS] for k in _stage_columns(stages)]
        t_mid = piece[0] + 0.5 * piece[1]
        first = _interpolate(piece, t_mid)
        assert piece[3] == eager
        coefficients = piece[3]
        assert _interpolate(piece, t_mid) == first
        assert piece[3] is coefficients
    if fired:
        assert isinstance(res.sol.pieces[-1][3], list)


@pytest.mark.parametrize("name", sorted(CASES))
def test_node_states_are_the_accepted_states(name):
    fun, t_start, y_start, t_end, events, status, fired = CASES[name]
    res = solve_ivp(fun, (t_start, t_end), y_start, rtol=RTOL, atol=ATOL, events=events)
    sol = res.sol
    assert res.status == status
    assert len(sol.ys) == len(res.t)
    assert sol.ys[0] == [float(v) for v in y_start]
    # y_new = y + h * sum(B * stages) per component, the kernel's own sum, from
    # the stage values each unevaluated step kept
    for k, (_, h, y_old, stages) in enumerate(sol.pieces[: len(sol.pieces) - (status == 1)]):
        assert y_old == sol.ys[k]
        y_new = [y + h * sum(map(mul, _rk.B, col)) for y, col in zip(y_old, _stage_columns(stages))]
        assert sol.ys[k + 1] == y_new
    if status == 1:
        assert res.t[-1] == res.t_events[fired][0]
        assert sol.ys[-1] == sol(res.t[-1])


def test_step_size_underflow_fails_like_scipy():
    # y' = y^2, y(0) = 1 blows up at t = 1
    fun = lambda t, y: [y[0] ** 2]
    res = solve_ivp(fun, (0.0, 2.0), [1.0], rtol=RTOL, atol=ATOL)
    ref = scipy_solve_ivp(fun, (0.0, 2.0), [1.0], method="RK45", rtol=RTOL, atol=ATOL)
    assert res.status == ref.status == -1
    assert res.message == ref.message
    assert len(res.t) == len(ref.t)
    assert abs(res.t[-1] - 1.0) < 1e-9


def test_empty_span_rejected():
    with pytest.raises(ValueError):
        solve_ivp(_rhs(P), (1.0, 1.0), [1.0, 0.0])


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


@pytest.mark.parametrize("tol", sorted(BRENTQ_TOLS))
def test_brentq_matches_scipy_on_a_kernel_interpolant(tol):
    # the near-switch event inside the step where the worked example's run stops
    res = solve_ivp(_rhs(P), (WORKED[0], 2.0), WORKED[1], rtol=RTOL, atol=ATOL, events=ALL_EVENTS)
    piece, t_new = res.sol.pieces[-1], res.t[-1]
    f = lambda s: ev_near(s, _interpolate(piece, s))
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

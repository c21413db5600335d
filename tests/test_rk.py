"""The Dormand-Prince 5(4) kernel against scipy's RK45 as the oracle."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from p3prime import EquationParams, RootAnchor, SignSwitch
from p3prime._rk import _interpolate, solve_ivp
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

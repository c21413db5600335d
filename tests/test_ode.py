"""Numerical verifier: integration, root crossing, scans, symmetry."""

import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares as scipy_least_squares

from p3prime import DomainError, EquationParams, RootAnchor, SignSwitch, _rk, acceptance, mu_from_lambda, ode
from p3prime.ode import (
    IntegrationError,
    compare_series,
    find_roots,
    integrate,
    integrate_hamiltonian,
    lam3_at_root,
    least_squares,
    linspace,
    residual_scan,
    root_slope,
    symmetry_check,
)
from p3prime.series import assemble_lambda, mu_at_root, run_scheme, series_eval, series_eval_derivative, taylor_at_root

P = EquationParams(-0.811597, -0.0550042)
KNOWN_ROOTS = (0.0159082, 0.0427774, 0.0901638, 0.242530, 0.511115, 1.38175)


def anchored_solution(a, p, span, order=5, launch=0.01, **kw):
    lam = assemble_lambda(a, run_scheme(a, p, order)[0], p)
    dt = launch * abs(a.t0)
    return (
        integrate(p, a.t0 + dt, series_eval(lam, dt), series_eval_derivative(lam, dt), span, **kw),
        lam,
    )


def test_input_validation():
    with pytest.raises(DomainError):
        integrate(P, 1.0, 1.0, 0.0, (-1.0, 2.0))  # span contains 0
    with pytest.raises(DomainError, match="must be nonzero"):
        integrate(P, 1.0, 0.0, 1.0, (0.5, 2.0))  # launch on a root
    with pytest.raises(DomainError):
        integrate(P, 0.1, 1.0, 0.0, (0.5, 2.0))  # t_init outside span
    # beyond the pole cap the nu chart's cap event could not fire
    with pytest.raises(DomainError, match="pole cap"):
        integrate(P, 1.0, -2e6, 1.0, (0.5, 2.0))
    # an empty span left no segment to read t_min from
    with pytest.raises(DomainError, match="span must have positive length"):
        integrate(P, 1.0, 0.5, 0.0, (1.0, 1.0))


_TOLERANCE_RUNS = {
    "integrate": lambda **tol: integrate(P, 1.0, 0.5, 0.0, (0.5, 2.0), **tol),
    "integrate_hamiltonian": lambda **tol: integrate_hamiltonian(P, SignSwitch(1), 0.5, 0.3, (1.0, 2.0), **tol),
}
_TOLERANCE_CASES = [(solver, name) for solver in _TOLERANCE_RUNS for name in ("rel_tol", "abs_tol")]


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
@pytest.mark.parametrize(
    "solver, name",
    _TOLERANCE_CASES,
    # integrate's cases keep the ids they had before integrate_hamiltonian joined
    ids=[name if solver == "integrate" else f"{solver}-{name}" for solver, name in _TOLERANCE_CASES],
)
def test_tolerances_must_be_finite_and_positive(monkeypatch, solver, name, tol):
    # a NaN tolerance made the first step size NaN and the kernel loop
    # forever, 0 divided by zero and inf took any step; the stub turns a
    # check that no longer runs before the stepping into a failure, not a hang
    monkeypatch.setattr(ode, "solve_ivp", lambda *args, **kwargs: pytest.fail("stepped with a bad tolerance"))
    with pytest.raises(DomainError, match="rel_tol and abs_tol must be finite and positive"):
        _TOLERANCE_RUNS[solver](**{name: tol})


_STATE_RUNS = {
    "integrate": lambda lam0, lamdot0: integrate(P, 1.0, lam0, lamdot0, (0.5, 2.0)),
    "integrate_hamiltonian": lambda lam0, mu0: integrate_hamiltonian(P, SignSwitch(1), lam0, mu0, (1.0, 2.0)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("component", [0, 1])
@pytest.mark.parametrize("solver", list(_STATE_RUNS))
def test_initial_data_must_be_finite(monkeypatch, solver, component, value):
    # a NaN or infinite initial state made the first step size NaN and the
    # kernel loop forever, as a NaN tolerance did; the stub turns stepping
    # from such a state into a failure, not a hang
    monkeypatch.setattr(ode, "solve_ivp", lambda *args, **kwargs: pytest.fail("stepped from non-finite data"))
    state = [0.5, 0.3]
    state[component] = value
    with pytest.raises(DomainError, match="initial data must be finite"):
        _STATE_RUNS[solver](*state)


def test_appendix_roots_match(appendix_solution, appendix_roots):
    roots = appendix_roots
    assert len(roots) == 6
    for r, ref in zip(roots, KNOWN_ROOTS):
        assert abs(r.t0 - ref) <= 1e-3
    assert [r.s for r in roots[-2:]] == [1, -1]
    assert appendix_solution.pole_markers == []


def test_roots_are_simple_with_unit_slope(appendix_solution, appendix_roots):
    for r in appendix_roots:
        slope = root_slope(appendix_solution, r.t0)
        assert abs(abs(slope) - 1.0) <= 1e-3
        assert np.sign(slope) == r.s
        # sign change across the root
        d = 5e-4 * abs(r.t0)
        assert appendix_solution.lam(r.t0 - d) * appendix_solution.lam(r.t0 + d) < 0


def test_root_values_are_tiny_after_refinement(appendix_solution, appendix_roots):
    for r in appendix_roots:
        assert abs(appendix_solution.lam(r.t0)) <= 1e-12


def test_lam3_extraction_at_both_families(appendix_solution, appendix_roots):
    l1 = lam3_at_root(appendix_solution, appendix_roots[4], P)
    l2 = lam3_at_root(appendix_solution, appendix_roots[5], P)
    assert abs(l1 + 9.01149) / 9.01149 <= 0.01
    assert abs(l2 - 1.24246) / 1.24246 <= 0.01


def test_lam3_recovered_from_series_launched_solution():
    a = RootAnchor(0.7, SignSwitch(1), 2.0)
    p = EquationParams(0.5, -0.4)
    sol, _ = anchored_solution(a, p, (0.45, 1.05), order=6)
    roots = find_roots(sol)
    ours = min(roots, key=lambda r: abs(r.t0 - a.t0))
    got = lam3_at_root(sol, ours, p)
    assert abs(got - a.lam3) / abs(a.lam3) <= 1e-3


def test_integration_stays_on_series():
    a = RootAnchor(0.511115, SignSwitch(1), -9.01149)
    sol, lam = anchored_solution(a, P, (0.45, 0.6))
    for dt in np.linspace(-0.05 * a.t0, 0.05 * a.t0, 21):
        t = a.t0 + dt
        assert abs(sol.lam(float(t)) - series_eval(lam, float(t) - a.t0)) <= 1e-6


def test_forward_backward_reversibility():
    t0, y = 0.7, (0.9, 0.4)
    fwd = integrate(P, t0, y[0], y[1], (t0, 1.25))
    lam_end, lamdot_end = fwd.state(1.25)
    back = integrate(P, 1.25, lam_end, lamdot_end, (t0, 1.25))
    assert abs(back.lam(t0) - y[0]) <= 10 * fwd.rel_tol * max(1.0, abs(y[0]))


def test_crossing_consistency_of_local_coefficients(appendix_solution, appendix_roots):
    # refit the slope and curvature from numerical data 2.2 to 6 % of t0
    # from the root
    sol = appendix_solution
    for r in appendix_roots[-2:]:
        ds = np.linspace(-0.06 * abs(r.t0), 0.06 * abs(r.t0), 49)
        ds = ds[np.abs(ds) > 0.022 * abs(r.t0)]
        vals = np.array([sol.lam_dot(r.t0 + d) for d in ds])
        coeffs = np.polynomial.polynomial.polyfit(ds, vals, 6)
        c1, c2 = coeffs[0], coeffs[1] / 2
        assert abs(c1 - r.s) <= 1e-6
        assert abs(c2 - (r.s - P.chi0) / (2 * r.t0)) <= 1e-6


def test_least_squares_refuses_steps_and_raises_the_damping():
    # Rosenbrock's valley from scipy's classic start: 15 of the 36 proposed
    # steps raise the cost and are refused, each raising mu; without that
    # raise the fit proposes the same step until its calls run out
    costs = []

    def rosenbrock(x):
        r = [10 * (x[1] - x[0] ** 2), 1 - x[0]]
        costs.append(r[0] ** 2 + r[1] ** 2)
        return r

    res = least_squares(rosenbrock, [-1.2, 1.0])
    assert res.success
    ref = scipy_least_squares(lambda x: [10 * (x[1] - x[0] ** 2), 1 - x[0]], [-1.2, 1.0],
                              xtol=1e-15, ftol=1e-15, gtol=1e-15, method="lm")
    assert ref.success and list(ref.x) == pytest.approx([1.0, 1.0], abs=1e-12)
    for mine, theirs in zip(res.x, ref.x):
        assert abs(mine - theirs) <= 1e-12
    # replay the calls: each iteration makes two Jacobian calls, then
    # proposes steps until one lowers the cost
    cost, i, refused, taken = costs[0], 1, 0, 0
    while i + 2 < len(costs):
        i += 2
        for c in costs[i:]:
            i += 1
            if c < cost:
                cost, taken = c, taken + 1
                break
            refused += 1
    assert (refused, taken, res.nfev) == (15, 21, len(costs))


def test_least_squares_that_cannot_converge_reports_failure():
    # the cost exp(-2 x0) + exp(-2 x1) falls forever as x grows: no minimum
    res = least_squares(lambda x: [math.exp(-x[0]), math.exp(-x[1])], [0.0, 1.0])
    assert not res.success
    assert 197 < res.nfev <= 200  # the budget of 200 calls ran out
    assert "maximum number of function evaluations" in res.message


def test_crossings_record_the_roots_the_mu_chart_steps_through(appendix_solution):
    # each root ends a mu-chart run on "root" and starts the next run of the
    # same switch there, from the same (lam, mu); its lam3 is the one whose
    # momentum at the root (series.mu_at_root) is the run's mu there
    sol = appendix_solution
    assert [seg.end for seg in sol.segments].count("root") == len(sol.crossings) == 6
    for c in sol.crossings:
        seg, nxt = sorted((s for s in sol.segments if c.t0 in (s.lo, s.hi)), key=lambda s: s.end != "root")
        assert seg.end == "root" != nxt.end and seg.chart == nxt.chart == "mu"
        assert seg.sol.sol(c.t0) == nxt.sol.sol(c.t0)
        lam, lamdot = sol.state(c.t0)
        assert abs(lam) <= 1e-15 and abs(lamdot - c.s) <= 1e-9
        mu = seg.sol.sol(c.t0)[1]
        assert mu_at_root(c, P) == pytest.approx(mu, rel=1e-14, abs=1e-14)


def _failure_time(exc_info, prefix):
    """The t an IntegrationError names after ``prefix`` (``... near t=T: ...``)."""
    head, rest = str(exc_info.value).split(" near t=", 1)
    assert head == prefix
    return float(rest.split(":", 1)[0])


def test_step_size_underflow_raises(monkeypatch):
    # lam'' = lam'^3 from lam(0.5) = 0.5, lam'(0.5) = 1 gives
    # lam' = 1/sqrt(2 - 2t): it blows up at t = 1 while lam stays below 1.5,
    # inside the lam chart (lam^2 < 4t), so no event stops the run first.
    # The last accepted step may land on either side of the blow-up, within
    # the step size that underflowed (1.0000000000079 here)
    monkeypatch.setattr(ode, "rhs_scalar", lambda t, lam, lamdot, p: lamdot**3)
    with pytest.raises(IntegrationError) as exc_info:
        integrate(P, 0.5, 0.5, 1.0, (0.5, 2.5))
    assert abs(_failure_time(exc_info, "integration failed") - 1.0) < 1e-9


def test_hamiltonian_step_size_underflow_raises(monkeypatch):
    # y' = y^2, y(0) = 1 blows up at t = 1 (the run stops at 1.0000000000119)
    monkeypatch.setattr(ode, "hamilton_field", lambda p, s: lambda t, y: (y[0] ** 2, 0.0))
    with pytest.raises(IntegrationError) as exc_info:
        integrate_hamiltonian(P, SignSwitch(1), 1.0, 0.0, (0.0, 2.0))
    assert abs(_failure_time(exc_info, "Hamiltonian integration failed") - 1.0) < 1e-9


def test_a_run_that_ends_where_it_started_raises(monkeypatch):
    # the kernel counts an event that is exactly 0 at the run's start as a
    # crossing there and returns a run of zero length; recorded, its empty
    # segment would break DenseSolution's bisection.  The stub puts such an
    # event first, where the lam chart's switch into nu sits
    solve = ode.solve_ivp

    def fires_at_start(fun, span, y0, events, **kwargs):
        def at_start(t, y):
            return span[0] - t

        return solve(fun, span, y0, events=[at_start, *events[1:]], **kwargs)

    monkeypatch.setattr(ode, "solve_ivp", fires_at_start)
    with pytest.raises(IntegrationError, match=r"a lam-chart run ended where it started, at t=0\.8$"):
        integrate(P, 0.8, 1.0, 0.5, (0.6, 1.3))


def test_segment_run_record(monkeypatch, seeded_pole_runs):
    p_pole, args_pole, _ = seeded_pole_runs[0]
    # the calls of both right-hand sides the runs step: the scalar one of the
    # lam chart and the Hamilton field of the mu and nu charts (their events
    # and their maps to (lam, lam') evaluate the field too, but do not step
    # it, so the count wraps what each run is handed)
    calls = []
    solve = ode.solve_ivp

    def counted_solve(fun, *args, **kwargs):
        return solve(lambda t, y: calls.append(1) or fun(t, y), *args, **kwargs)

    monkeypatch.setattr(ode, "solve_ivp", counted_solve)
    runs = []
    for p, args, span in ((acceptance.REF_PARAMS, acceptance.REF_CAUCHY, acceptance.REF_SPAN),
                          (p_pole, args_pole, SEEDED_SPAN)):
        calls.clear()
        sol = integrate(p, *args, span)
        # 12 calls per DOP853 step attempt, plus 3 per interpolant formed during integrate
        assert all(seg.steps > 0 and seg.rhs_calls >= 12 * seg.steps for seg in sol.segments)
        assert sum(seg.rhs_calls for seg in sol.segments) == len(calls)
        ends = [seg.end for seg in sol.segments]
        assert ends.count("root") == len(sol.crossings)
        assert ends.count("pole_cap") == len(sol.pole_markers)
        # every root is stepped through in the mu chart, every pole cap reached in nu
        assert [seg.chart for seg in sol.segments if seg.end == "root"] == ["mu"] * len(sol.crossings)
        assert [seg.chart for seg in sol.segments if seg.end == "pole_cap"] == ["nu"] * len(sol.pole_markers)
        runs.append((sol, ends))
    (worked, ends), (pole, pole_ends) = runs
    assert len(worked.crossings) == 6 and not worked.pole_markers
    assert ends.count("span_end") == 2  # one per sweep direction
    assert {seg.chart for seg in worked.segments} == {"lam", "mu"}
    # the left sweep switches to (g, nu) with g = t/lam and stops at a pole
    # cap there; the right one enters mu and steps through a root to the span
    # end
    assert [(seg.chart, seg.end) for seg in pole.segments] == [
        ("nu", "pole_cap"), ("lam", "chart_switch"),
        ("lam", "chart_switch"), ("mu", "root"), ("mu", "span_end"),
    ]
    assert len(pole.crossings) == 1


def test_crossings_match_a_tight_tolerance_run(appendix_solution):
    # at the default tolerances the worked example's roots lie within 2.9e-10
    # (relative) and their lam3 within 4.7e-10 (scaled by max(1, |lam3|)) of
    # a run at rtol = 1e-13.  The same run is no independent reference: the
    # order-40 series check below is
    tight = integrate(acceptance.REF_PARAMS, *acceptance.REF_CAUCHY, acceptance.REF_SPAN, rel_tol=1e-13, abs_tol=1e-15)
    assert len(appendix_solution.crossings) == len(tight.crossings) == 6
    for c, ref in zip(appendix_solution.crossings, tight.crossings):
        assert abs(c.t0 - ref.t0) <= 1e-8 * abs(ref.t0)
        assert abs(c.lam3 - ref.lam3) <= 1e-8 * max(1.0, abs(ref.lam3))


def test_crossings_match_an_independent_root_series(appendix_solution):
    # the order-40 root series at each crossing's recorded (t0, lam3), exact
    # to rounding 2-8 % of t0 from the root, against the solution there: lam
    # and lam' agree to 1.3e-12 to 1.1e-11 per root.  An error in lam3 grows
    # this gap like dt^2; a lam3 fitted with the order-5 series was off by
    # enough to give 2.1e-10 to 6.9e-10
    sol = appendix_solution
    checked = 0
    for c in sol.crossings:  # each a RootAnchor
        lam = assemble_lambda(c, taylor_at_root(c, P, 40), P)
        for f in (0.02, 0.04, 0.06, 0.08):
            for t in (c.t0 * (1 - f), c.t0 * (1 + f)):
                if sol.covers(t):
                    lam_t, lamdot_t = sol.state(t)
                    assert abs(lam_t - series_eval(lam, t - c.t0)) <= 5e-11
                    assert abs(lamdot_t - series_eval_derivative(lam, t - c.t0)) <= 5e-11
                    checked += 1
    assert checked == 8 * len(sol.crossings) == 48


@pytest.mark.parametrize("lam0, lamdot0", [(1e-6, 1.0), (1e-3, 3.0), (1e-3, -3.0)])
def test_launches_next_to_a_root_run(lam0, lamdot0):
    # lam0 = 1e-6 lies a step of 1e-6 from a root; at lam0 = 1e-3 a slope of
    # 3 turns within about 2e-3; mu starts near -9e5, 8e5 and -8e5.  Trial
    # stages there overflow the Hamilton field, which the step controller
    # rejects as an infinite error.  Roots (136 of them for lam0 = 1e-6,
    # where lam3 is near 1e6) and pole markers match a rtol-1e-13 run to
    # 1.2e-12 relative, lam3 to 2.7e-11
    sol = integrate(P, 0.8, lam0, lamdot0, (0.7, 0.9))
    tight = integrate(P, 0.8, lam0, lamdot0, (0.7, 0.9), rel_tol=1e-13, abs_tol=1e-15)
    assert len(sol.crossings) == len(tight.crossings) >= 1
    assert len(sol.pole_markers) == len(tight.pole_markers) == (0 if lam0 == 1e-6 else 2)
    for c, ref in zip(sol.crossings, tight.crossings):
        assert c.sgn == ref.sgn
        assert abs(c.t0 - ref.t0) <= 1e-11 * ref.t0
        assert abs(c.lam3 - ref.lam3) <= 1e-10 * max(1.0, abs(ref.lam3))
    for (t_p, side), (ref, ref_side) in zip(sol.pole_markers, tight.pole_markers):
        assert side == ref_side and abs(t_p - ref) <= 1e-11 * ref


def test_loose_tolerance_runs_stop_at_each_root():
    # at rtol 1e-6 the mu chart's steps are long, but the root event still
    # stops a run at each of the worked example's six roots, where the run's
    # interpolant reads lam = 0 up to rounding (at most 3.9e-17 here); the
    # roots lie within 6.3e-6 of the reference values
    t_init = acceptance.REF_CAUCHY[0]
    sol = integrate(acceptance.REF_PARAMS, *acceptance.REF_CAUCHY, acceptance.REF_SPAN, rel_tol=1e-6, abs_tol=1e-8)
    assert len(sol.crossings) == 6
    stops = [seg for seg in sol.segments if seg.end != "span_end"]
    roots = [seg for seg in stops if seg.end == "root"]
    assert len(roots) == 6 and {seg.end for seg in stops} == {"root", "chart_switch"}
    for seg, c in zip(roots, sol.crossings):
        t_s = seg.hi if seg.lo >= t_init else seg.lo
        assert t_s == c.t0 and abs(seg.sol(t_s)[0]) <= 1e-15
    for c, ref in zip(sol.crossings, acceptance.REF_ROOTS):
        assert abs(c.t0 - ref) <= 1e-3  # criterion 3's tolerance


def test_find_roots_empty_on_rootless_window():
    sol = integrate(P, 0.8, *_state(0.8), (0.6, 1.3))
    assert find_roots(sol) == []


def _state(t):
    from p3prime.acceptance import reference_solution

    return reference_solution().state(t)


def test_residual_scan_small_away_from_roots(appendix_solution, appendix_roots):
    grid = [
        t
        for t in np.linspace(0.3, 1.3, 201)
        if all(abs(t - r.t0) > 0.05 for r in appendix_roots)
    ]
    rows = residual_scan(appendix_solution, grid, fd_step=5e-4)
    assert max(abs(r) for _, r in rows) <= 1e-4


def test_residual_scan_improves_with_tolerance():
    # with the finite-difference step fixed small, interpolation error
    # dominates and a 10x tighter tolerance must shrink the residual >= 5x.
    # At the default pair 1e-9 -> 1e-10 the maximum falls 1.0e-6 -> 8.9e-8
    # (11x).  At the looser pair 1e-8 -> 1e-9 DOP853's error is not
    # proportional to the tolerance: 2.9e-6 -> 1.0e-6, only 2.9x.
    args = (0.7, 0.9, 0.4, (0.6, 1.3))
    loose = integrate(P, *args[:3], args[3], rel_tol=1e-9, abs_tol=1e-11)
    tight = integrate(P, *args[:3], args[3], rel_tol=1e-10, abs_tol=1e-12)
    grid = np.linspace(0.65, 1.25, 101)
    r_loose = max(abs(r) for _, r in residual_scan(loose, grid, fd_step=5e-4))
    r_tight = max(abs(r) for _, r in residual_scan(tight, grid, fd_step=5e-4))
    assert r_loose >= 5 * r_tight


def test_residual_scan_on_series_matches_slope_seven():
    a = RootAnchor(0.511115, SignSwitch(1), -9.01149)
    lam = assemble_lambda(a, run_scheme(a, P, 5)[0], P)
    dts = a.t0 * np.logspace(np.log10(0.05), np.log10(0.3), 9)
    h = 1e-4
    res = []
    for dt in dts:
        t = a.t0 + dt
        fd2 = (
            series_eval(lam, dt + h) - 2 * series_eval(lam, dt) + series_eval(lam, dt - h)
        ) / h**2
        from p3prime.equation import rhs_scalar

        res.append(abs(fd2 - rhs_scalar(t, series_eval(lam, dt), series_eval_derivative(lam, dt), P)))
    slope = np.polyfit(np.log(dts), np.log(res), 1)[0]
    assert slope == pytest.approx(7.0, abs=0.5)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300)
@given(_FINITE, _FINITE, st.one_of(st.sampled_from([41, 401, 601, 801, 1201, 2001, 4001]), st.integers(2, 300)))
@example(0.0, 5e-324, 4)  # the step underflows, and numpy scales the span instead
@example(-1e308, 1e308, 3)  # the span overflows: nan, inf, then the end point
@example(2.0, 0.01, 2001)  # reversed
@example(-0.3, -0.0, 601)
def test_linspace_equals_numpys_bit_for_bit(a, b, n):
    # the CLI's grids come from linspace, so its files stay those numpy's grids gave
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.linspace(a, b, n)
    assert np.array(linspace(a, b, n)).tobytes() == want.tobytes()


def test_compare_series_same_anchor_tight():
    a = RootAnchor(0.511115, SignSwitch(1), -9.01149)
    sol, lam = anchored_solution(a, P, (0.45, 0.6))
    dev = compare_series(sol, lam, (a.t0 - 0.01, a.t0 + 0.01))
    assert dev <= 1e-8


def test_compare_series_overlap_windows(appendix_solution):
    a1 = RootAnchor(0.511115, SignSwitch(1), -9.01149)
    s1 = assemble_lambda(a1, run_scheme(a1, P, 5)[0], P)
    assert compare_series(appendix_solution, s1, (a1.t0, 0.85)) <= 1e-2
    a2 = RootAnchor(1.38175, SignSwitch(-1), 1.24246)
    s2 = assemble_lambda(a2, run_scheme(a2, P, 5)[0], P)
    assert compare_series(appendix_solution, s2, (0.7, a2.t0)) <= 1e-2


def test_momentum_dichotomy_near_root(appendix_solution, appendix_roots):
    sol = appendix_solution
    r = appendix_roots[4]
    lam3 = lam3_at_root(sol, r, P)
    mu0 = (1 + r.s * (1 - P.chi0**2) / (2 * r.t0) + 3 * r.t0 * lam3) / 2
    dts = np.logspace(-4, -3, 9)
    good, bad = [], []
    for dt in dts:
        lam, lamdot = sol.state(r.t0 + dt)
        good.append(mu_from_lambda(r.t0 + dt, lam, lamdot, SignSwitch(r.s), P))
        bad.append(mu_from_lambda(r.t0 + dt, lam, lamdot, SignSwitch(-r.s), P) * dt**2)
    assert max(abs(m) for m in good) <= 10 * abs(mu0)
    assert (max(bad) - min(bad)) / abs(np.mean(bad)) <= 0.05
    assert abs(np.mean(bad)) > 1e-6


def test_hamiltonian_integration_matches_scalar(appendix_solution):
    sol = appendix_solution
    t_a, t_b = 0.6, 1.3
    sgn = SignSwitch(-1)  # slope of the next root to the right
    lam_a, lamdot_a = sol.state(t_a)
    mu_a = mu_from_lambda(t_a, lam_a, lamdot_a, sgn, P)
    ham = integrate_hamiltonian(P, sgn, lam_a, mu_a, (t_a, t_b))
    dev = max(abs(float(ham.sol(t)[0]) - sol.lam(float(t))) for t in np.linspace(t_a, t_b, 61))
    assert dev <= 1e-6


def test_symmetry_check_appendix(appendix_solution):
    dev = symmetry_check(appendix_solution, P, np.linspace(0.62, 1.28, 23))
    assert dev <= 1e-6


def test_symmetry_self_map_when_parameters_equal():
    p = EquationParams(0.6, 0.6)
    sol = integrate(p, 1.0, 1.4, 0.2, (0.8, 1.3))
    dev = symmetry_check(sol, p, np.linspace(0.85, 1.25, 15))
    assert dev <= 1e-6


def test_symmetry_rejects_grid_on_zero(appendix_solution, appendix_roots):
    with pytest.raises(DomainError):
        symmetry_check(appendix_solution, P, [appendix_roots[4].t0])


def _pole_capped_launch():
    """The anchor whose pole expansion gives the simple pole at 0.7, and the
    Cauchy data (t, lam, lam') it gives 0.05 t0 left of the pole."""
    from p3prime.poles import root_to_pole

    a = RootAnchor(0.7, SignSwitch(1), 1.5)
    le = root_to_pole(a, P, 6)
    dt0 = -0.05 * a.t0
    return a, (a.t0 + dt0, le.eval(dt0), le.eval_derivative(dt0))


def _pole_capped_solution(span=(0.55, 0.75)):
    """A run launched just left of the simple pole at 0.7, over span."""
    a, args = _pole_capped_launch()
    return a, integrate(P, *args, span)


def test_pole_marker_on_blowup():
    # heading into a pole stops at the cap and records the side; the launch,
    # at |lam| = 19.5, lies beyond the chart threshold, and g = t/lam there
    # inside |g| < 0.3|t|, so both sweeps step (g, nu)
    a, sol = _pole_capped_solution()
    assert len(sol.pole_markers) == 1
    assert [seg.end for seg in sol.segments] == ["span_end", "pole_cap"]  # left sweep, right sweep
    assert [seg.chart for seg in sol.segments] == ["nu", "nu"]
    t_p, side = sol.pole_markers[0]
    assert side == "right"
    assert abs(t_p - a.t0) < 0.01 * a.t0
    assert abs(sol.lam(t_p)) == pytest.approx(1e6, rel=1e-9)


def test_mirrored_run_at_negative_t():
    # -lam(-t) solves P-III' with chi_inf negated, so the capped launch
    # mirrored to t < 0 must meet the cap at the mirrored point, where
    # g = t/lam has the sign opposite to lam's, and its states must mirror
    a, sol = _pole_capped_solution((0.1, 0.75))
    t_init = a.t0 - 0.05 * a.t0
    lam0, lamdot0 = sol.state(t_init)
    mirror = integrate(EquationParams(P.chi0, -P.chi_inf), -t_init, -lam0, lamdot0, (-0.75, -0.1))
    ((t_p, side),), ((m_p, m_side),) = sol.pole_markers, mirror.pole_markers
    assert (side, m_side) == ("right", "left") and m_p == pytest.approx(-t_p, rel=1e-9)
    assert [seg.chart for seg in mirror.segments] == [seg.chart for seg in reversed(sol.segments)]
    for t in np.linspace(0.1, sol.pole_markers[0][0], 51).tolist():
        lam, lamdot = sol.state(t)
        m_lam, m_lamdot = mirror.state(-t)
        assert abs(m_lam + lam) <= 1e-9 * max(1.0, abs(lam)) and abs(m_lamdot - lamdot) <= 1e-9 * max(1.0, abs(lamdot))


SEEDED_SPAN = (0.05, 3.0)


@pytest.fixture(scope="module")
def seeded_pole_runs():
    """(params, Cauchy data, solution) of the first three launches drawn as
    the benchmark's trajectory inputs are (chi0, chi_inf in U(-1.5, 1.5),
    t_init in U(0.2, 2.5), |lam0| in U(0.2, 1.5), lamdot0 in U(-1.5, 1.5);
    seed 2024) whose runs over SEEDED_SPAN stop at a pole cap."""
    rng = np.random.default_rng(2024)
    runs = []
    while len(runs) < 3:
        chi0, chi_inf, t_init, lam0, lamdot0 = rng.uniform([-1.5, -1.5, 0.2, 0.2, -1.5], [1.5, 1.5, 2.5, 1.5, 1.5])
        p = EquationParams(float(chi0), float(chi_inf))
        args = (float(t_init), float(rng.choice([-1.0, 1.0]) * lam0), float(lamdot0))
        sol = integrate(p, *args, SEEDED_SPAN)
        if sol.pole_markers:
            runs.append((p, args, sol))
    return runs


def _pole_approach(sol, seg):
    """(start, marker) of the sweep into ``seg``'s pole cap: walking back
    across the nu runs that led to ``seg``, the start of the last lam-chart
    run before them, or the launch if there is none."""
    right = (seg.hi, "right") in sol.pole_markers
    near, marker = (seg.lo, seg.hi) if right else (seg.hi, seg.lo)
    while True:
        prev = [s for s in sol.segments if s.end == "chart_switch" and (s.hi if right else s.lo) == near]
        if not prev:
            return near, marker
        (prev,) = prev
        assert prev.chart in ("lam", "nu")
        near = prev.lo if right else prev.hi
        if prev.chart == "lam":
            return near, marker


def _scipy_pole_marker(p, sol, t_a, t_end):
    """Where scipy's DOP853, stepping lam itself from sol's state at t_a
    toward t_end at sol's tolerances, meets |lam| = 1e6 (a terminal event)."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    from p3prime.equation import rhs_scalar

    def cap(t, y):
        return abs(y[0]) - 1e6

    cap.terminal, cap.direction = True, 1
    res = scipy_solve_ivp(lambda t, y: (y[1], rhs_scalar(t, y[0], y[1], p)), (t_a, t_end), sol.state(t_a),
                          method="DOP853", rtol=sol.rel_tol, atol=sol.abs_tol, events=cap)
    assert res.status == 1
    return float(res.t_events[0][0])


def test_pole_markers_match_scipy_in_the_lam_chart(seeded_pole_runs):
    # the approach through nu against scipy stepping lam into the cap
    # from the same state: at most 3.1e-11 relative
    _, capped = _pole_capped_solution()
    runs = [(P, capped, (0.55, 0.75))] + [(p, sol, SEEDED_SPAN) for p, _, sol in seeded_pole_runs]
    checked = 0
    for p, sol, span in runs:
        for seg in sol.segments:
            if seg.end == "pole_cap":
                t_a, t_p = _pole_approach(sol, seg)
                ref = _scipy_pole_marker(p, sol, t_a, span[1] if t_p > t_a else span[0])
                assert abs(t_p - ref) <= 1e-9 * abs(ref)
                checked += 1
    assert checked == len(capped.pole_markers) + sum(len(sol.pole_markers) for *_, sol in seeded_pole_runs) >= 4


def _pole_gaps(a, sol, t_end):
    """Max |g - t/L| and |g' - (t/L)'| over 401 points from t0 - 0.05 t0 to
    t_end, with g = t/lam read from ``sol`` and L = root_to_pole(a, P, 6)."""
    from p3prime.poles import root_to_pole

    le = root_to_pole(a, P, 6)
    gap_g = gap_gdot = 0.0
    for t in np.linspace(a.t0 - 0.05 * a.t0, t_end, 401).tolist():
        lam, lamdot = sol.state(t)
        dt = t - a.t0
        ref, ref_dot = le.eval(dt), le.eval_derivative(dt)
        gap_g = max(gap_g, abs(t / lam - t / ref))
        gap_gdot = max(gap_gdot, abs((lam - t * lamdot) / lam**2 - (ref - t * ref_dot) / ref**2))
    return gap_g, gap_gdot


def test_g_chart_state_matches_the_pole_expansion():
    # through the chart (g, nu) of g = t/lam (here both sweeps step it, the
    # launch lying beyond lam^2 > 4|t|) the solution stays on the Laurent
    # series it was launched from: over t0 - 0.05 t0 .. the marker (7.0e-7
    # left of the pole), g = t/lam within 4.9e-13 and g' within 3.2e-11 (from
    # the Hamilton field), where lam itself has |lam| up to 1e6
    a, sol = _pole_capped_solution()
    assert {seg.chart for seg in sol.segments} == {"nu"}
    gap_g, gap_gdot = _pole_gaps(a, sol, sol.pole_markers[0][0])
    assert gap_g <= 2e-12 and gap_gdot <= 5e-10


def test_nu_chart_takes_over_from_lam_at_the_threshold():
    # relaunched at t = 0.15 from the wide capped run, where lam^2 = 0.17 t,
    # a sweep to the right steps lam until lam^2 rises to 4|t| and hands
    # over to (g, nu), which reaches the cap in 6 steps, where the g and nu
    # runs of a scalar g chart took 5 + 4.  The marker lies within 1.4e-11
    # (relative) of the wide run's
    a, wide = _pole_capped_solution((0.1, 0.75))
    t_a = 0.15
    lam_a, lamdot_a = wide.state(t_a)
    assert 0.3 * t_a < abs(lam_a) and lam_a**2 < 4 * t_a
    sol = integrate(P, t_a, lam_a, lamdot_a, (t_a, 0.75))
    assert [(seg.chart, seg.end) for seg in sol.segments] == [("lam", "chart_switch"), ("nu", "pole_cap")]
    lam_run, nu_run = sol.segments
    t_s = lam_run.hi
    assert sol.lam(t_s) ** 2 == pytest.approx(4 * t_s, rel=1e-9)
    assert nu_run.steps < 9
    ((t_p, side),) = sol.pole_markers
    assert side == "right" and abs(t_p - wide.pole_markers[0][0]) <= 1e-10 * t_p


def test_the_nu_chart_needs_the_swapped_parameters(monkeypatch):
    # g = t/lam solves P-III' with chi0 and chi_inf swapped.  Handing the nu
    # chart's Hamilton field and momentum the unswapped parameters instead
    # takes g off the Laurent series the capped launch starts on, by 2.1e-4
    # before t0 - 0.01 t0, where the correct run stays within 2e-12
    field, momentum = ode.hamilton_field, ode.mu_from_lambda
    swapped = P.swapped()
    assert swapped != P
    monkeypatch.setattr(ode, "hamilton_field", lambda q, s: field(P if q == swapped else q, s))
    monkeypatch.setattr(ode, "mu_from_lambda", lambda t, v, vdot, s, q: momentum(t, v, vdot, s, P if q == swapped else q))
    a, sol = _pole_capped_solution()
    assert {seg.chart for seg in sol.segments} == {"nu"}
    gap_g, _ = _pole_gaps(a, sol, a.t0 - 0.01 * a.t0)
    assert gap_g > 1e-6


@pytest.mark.parametrize("side", [-1, 1])
def test_mu_chart_state_matches_the_root_expansion(side):
    # launched from the order-20 root series 0.15 t0 to one side of the root
    # at 0.511115, where |lam| = 0.14 t lies inside the band |lam| < 0.3|t|,
    # both sweeps step (lam, mu): the one toward the root through it to the
    # span end 0.05 t0 past it.  Over those two runs lam stays within 9.7e-13
    # of the series, lam' within 6.5e-12 and mu within 3.9e-10 of the
    # order-20 momentum series; the root lies within 1.2e-13 and its lam3
    # within 5.3e-11.  test_chart_switch_edges_are_continuous checks where
    # runs enter and leave mu
    a = RootAnchor(0.511115, SignSwitch(1), -9.01149)
    lam = assemble_lambda(a, taylor_at_root(a, P, 20), P)
    mu = run_scheme(a, P, 20)[1]
    dt0 = side * 0.15 * a.t0
    span = tuple(sorted((a.t0 + dt0, a.t0 - side * 0.05 * a.t0)))
    lam0 = series_eval(lam, dt0)
    assert abs(lam0) < 0.3 * (a.t0 + dt0)
    sol = integrate(P, a.t0 + dt0, lam0, series_eval_derivative(lam, dt0), span)
    (c,) = sol.crossings
    ends = [("mu", "root"), ("mu", "span_end")]
    assert [(seg.chart, seg.end) for seg in sol.segments] == (ends if side < 0 else ends[::-1])
    assert abs(c.t0 - a.t0) <= 1e-11 and abs(c.lam3 - a.lam3) <= 5e-9
    for seg in sol.segments:
        for t in np.linspace(seg.lo, seg.hi, 201).tolist():
            lam_t, lamdot_t = sol.state(t)
            assert abs(lam_t - series_eval(lam, t - a.t0)) <= 2e-12
            assert abs(lamdot_t - series_eval_derivative(lam, t - a.t0)) <= 5e-11
            assert abs(seg.sol.sol(t)[1] - series_eval(mu, t - a.t0)) <= 5e-9


def test_lam_turning_back_inside_the_band_leaves_the_mu_chart():
    # the launch lies inside |lam| < 0.3|t|, so both sweeps start in mu.
    # Past the root at 2.0108 the left sweep steps mu with that root's
    # switch sg = -1.  lam then turns back at |lam| = 0.063|t|, inside the
    # band, and heads for a root of slope +1, where the mu of sg = -1 has a
    # double pole.  The run leaves where sg*lam' falls through zero, and the
    # mu chart of sg = +1, its mu recomputed from (lam, lam'), steps on
    # through that root
    p = EquationParams(2.621556470340397, 1.0180671591375097)
    args = (2.2639141512428314, -0.2085128481189048, -0.326870560575625)
    sol = integrate(p, *args, (1.5, 2.3))
    assert [c.s for c in sol.crossings] == [1, -1]
    assert {seg.chart for seg in sol.segments} == {"mu"}
    (seg,) = [s for s in sol.segments if s.end == "chart_switch"]
    t_s = seg.lo  # the left sweep's turn
    lam, lamdot = seg.sol(t_s)
    assert abs(lam) < 0.1 * t_s and abs(lamdot) < 1e-12
    (nxt,) = [s for s in sol.segments if s.hi == t_s]
    assert (nxt.chart, nxt.end) == ("mu", "root")
    nxt_lam, nxt_lamdot = nxt.sol(t_s)
    assert nxt_lam == lam and abs(nxt_lamdot - lamdot) < 1e-12
    assert sol.t_min == 1.5 and sol.t_max == 2.3
    tight = integrate(p, *args, (1.5, 2.3), rel_tol=1e-13, abs_tol=1e-15)
    for c, ref in zip(sol.crossings, tight.crossings):
        assert abs(c.t0 - ref.t0) <= 1e-8 * ref.t0


@pytest.mark.parametrize("t_init, lam0, lamdot0, chart", [
    (0.5, 0.1, 0.0, "mu"), (0.5, -0.1, 0.0, "mu"), (0.5, -3.0, -6.0, "nu"), (0.5, 0.15, 0.3, "mu"), (0.25, 1.0, 0.5, "nu"),
])
def test_launches_on_a_chart_edge_leave_no_empty_segment(monkeypatch, t_init, lam0, lamdot0, chart):
    # the first three launches start both sweeps in a Hamiltonian chart with
    # v' = 0 (v = lam in mu; v = g = t/lam in nu, where g' = (lam - t lam')/lam^2).
    # Taking sg = -1 there made the left sweep's turn event fire at the
    # launch and record a segment (0.5, 0.5), which unsorted the segments'
    # hi for the first launch, so lookups in (0.5, 0.653] raised DomainError.
    # The last two sit exactly on a threshold of the lam chart (|lam| =
    # 0.3|t|, lam^2 = 4|t|), whose event fired at the launch the same way
    calls = []
    solve = ode.solve_ivp

    def counted_solve(fun, *args, **kwargs):
        return solve(lambda t, y: calls.append(1) or fun(t, y), *args, **kwargs)

    monkeypatch.setattr(ode, "solve_ivp", counted_solve)
    sol = integrate(P, t_init, lam0, lamdot0, (0.1, 1.0))
    assert all(seg.lo < seg.hi for seg in sol.segments)
    assert [seg.chart for seg in sol.segments if t_init in (seg.lo, seg.hi)] == [chart, chart]
    assert sum(seg.rhs_calls for seg in sol.segments) == len(calls)
    for t in np.linspace(sol.t_min, sol.t_max, 901).tolist():
        sol.state(t)


def test_a_launch_inside_the_band_steps_no_lam_chart():
    # over (0.05, 3) the same solution turns back between every pair of its
    # 17 roots at about 0.063|t|, so it never leaves (lam, mu): 283 accepted
    # steps.  Stepping lam itself from each turn into the next root takes
    # 28-31 steps a root, about 4 times as many as mu, 621 in all
    p = EquationParams(2.621556470340397, 1.0180671591375097)
    sol = integrate(p, 2.2639141512428314, -0.2085128481189048, -0.326870560575625, SEEDED_SPAN)
    assert {seg.chart for seg in sol.segments} == {"mu"}
    assert len(sol.crossings) == 17
    assert sum(seg.steps for seg in sol.segments) < 400


def _chart_switch_edges(sol, t_init):
    """(t_s, segment ending there, segment starting there, sweep direction)
    per chart switch."""
    out = []
    for seg in sol.segments:
        if seg.end == "chart_switch":
            right = seg.lo >= t_init
            t_s = seg.hi if right else seg.lo
            (nxt,) = [s for s in sol.segments if (s.lo if right else s.hi) == t_s and s is not seg]
            assert nxt.chart != seg.chart or seg.chart in ("mu", "nu")  # a turn moves to the other switch's Hamiltonian chart
            out.append((t_s, seg, nxt, 1 if right else -1))
    return out


def test_chart_switch_edges_are_continuous(seeded_pole_runs, appendix_solution):
    # at every switch the run that ends there and the one that starts there
    # give the same (lam, lam'), the second from the first's state mapped to
    # the other chart, so they differ only in the mapping's rounding: at
    # most 1.7e-16 from lam to mu and 5.5e-16 from lam to nu (v' goes
    # through the momentum = (... + (v' - sg) t)/(2 v^2) and back, and into
    # nu through g = t/lam as well); none where a Hamiltonian run hands back
    # to lam, which starts from the state it is handed.  At a turn (mu to
    # mu) lam' is zero up to rounding on both sides, so it is compared
    # absolutely, as test_lam_turning_back_inside_the_band_leaves_the_mu_chart
    # does.  Each switch sits at its event's level: mu is entered where
    # |lam| falls to 0.3|t| and left where it rises to 0.6|t|, nu entered
    # where lam^2 rises to 4|t| and left where g^2 does.  Sweeping back from
    # 3.0 over each seeded run leaves mu going left
    a, wide = _pole_capped_solution((0.1, 0.75))
    runs = [(wide, a.t0 + -0.05 * a.t0), (appendix_solution, acceptance.REF_CAUCHY[0])]
    runs += [(sol, args[0]) for _, args, sol in seeded_pole_runs]
    runs += [(integrate(p, 3.0, *sol.state(3.0), (sol.t_min, 3.0)), 3.0) for p, _, sol in seeded_pole_runs]
    edges = [e for sol, t_init in runs for e in _chart_switch_edges(sol, t_init)]
    kinds = {(seg.chart, nxt.chart, direction) for _, seg, nxt, direction in edges}
    assert {("lam", "mu", 1), ("lam", "mu", -1), ("mu", "lam", 1), ("mu", "lam", -1)} <= kinds
    assert {("lam", "nu", -1), ("nu", "lam", -1)} <= kinds
    assert {(seg, nxt) for seg, nxt, _ in kinds} == {("lam", "nu"), ("nu", "lam"), ("lam", "mu"), ("mu", "lam"), ("mu", "mu")}
    levels = {("lam", "mu"): 0.3, ("mu", "lam"): 0.6}
    for t_s, seg, nxt, _ in edges:
        (lam, lamdot), (nxt_lam, nxt_lamdot) = seg.sol(t_s), nxt.sol(t_s)
        assert abs(lam - nxt_lam) <= 1e-12 * abs(lam)
        if seg.chart == nxt.chart:
            assert abs(lamdot) < 1e-12 and abs(nxt_lamdot) < 1e-12
        else:
            assert abs(lamdot - nxt_lamdot) <= 1e-12 * abs(lamdot)
        v = t_s / lam if seg.chart == "nu" else lam
        if (seg.chart, nxt.chart) in levels:
            assert abs(v) == pytest.approx(levels[seg.chart, nxt.chart] * t_s, rel=1e-9)
        elif seg.chart != nxt.chart:
            assert v * v == pytest.approx(4 * t_s, rel=1e-9)


def _launch_chart(t, lam):
    """The chart a start in the lam chart at (t, lam) steps: nu on or beyond
    lam^2 = 4|t|, mu on or inside |lam| = 0.3|t|, else lam."""
    if lam * lam >= 4 * abs(t):
        return "nu"
    return "mu" if abs(lam) <= 0.3 * abs(t) else "lam"


def _transition_launches():
    """(params, Cauchy data, span) of 40 launches: the worked example, the
    wide capped launch and 38 draws over SEEDED_SPAN with t_init in
    U(0.2, 3), every other one in the g chart (g0 = t/lam0 with
    g0^2 < t/4, g0' in U(-10, 10)), whose runs can hand back past |t| = 2.78."""
    out = [(acceptance.REF_PARAMS, acceptance.REF_CAUCHY, acceptance.REF_SPAN), (P, _pole_capped_launch()[1], (0.1, 0.75))]
    rng = np.random.default_rng(1)
    while len(out) < 40:
        chi0, chi_inf, t_init, lam0, lamdot0 = rng.uniform([-1.5, -1.5, 0.2, 0.2, -1.5], [1.5, 1.5, 3.0, 1.5, 1.5])
        t_init, lam0, lamdot0 = float(t_init), float(rng.choice([-1.0, 1.0]) * lam0), float(lamdot0)
        if len(out) % 2:
            g0, g0dot = lam0 / 3 * t_init**0.5, lamdot0 * 20 / 3
            lam0, lamdot0 = t_init / g0, (g0 - t_init * g0dot) / g0**2
        out.append((EquationParams(float(chi0), float(chi_inf)), (t_init, lam0, lamdot0), SEEDED_SPAN))
    return out


def test_each_sweep_steps_its_charts_by_the_transition_rules():
    # each sweep's segments, walked outward from the launch, in the order
    # they were stepped: the first in the launch rule's chart, each starting
    # where the one before ended, and only the last ending on span_end or a
    # pole cap.  A root ends one mu run and starts the next; a Hamiltonian
    # run that leaves with its variable v at the leave level (|lam| = 0.6|t|
    # in mu, g^2 = 4|t| in nu) hands back, and the next run steps the chart
    # the launch rule picks there: lam, but mu past |t| = 2.78 after nu,
    # where lam^2 = |t|/4 lies inside the mu band.  Any other Hamiltonian
    # run that leaves is a turn, v' = 0, and the next run steps the same chart
    seen = set()
    for p, (t_init, lam0, lamdot0), span in _transition_launches():
        sol = integrate(p, t_init, lam0, lamdot0, span)
        right = [s for s in sol.segments if s.lo >= t_init]
        left = [s for s in reversed(sol.segments) if s.hi <= t_init]
        assert len(right) + len(left) == len(sol.segments)
        for sweep, direction in ((right, 1), (left, -1)):
            if sweep:
                assert sweep[0].chart == _launch_chart(t_init, lam0)
            edge = t_init  # where the next run starts: the launch, then where the run before ended
            for seg, nxt in zip(sweep, sweep[1:] + [None]):
                start, t_s = (seg.lo, seg.hi) if direction > 0 else (seg.hi, seg.lo)
                assert start == edge
                edge = t_s
                assert (seg.end in ("span_end", "pole_cap")) == (nxt is None)
                if nxt is None:
                    seen.add(seg.end)
                    assert seg.end == "pole_cap" or t_s == span[direction > 0]
                    continue
                lam, lamdot = seg.sol(t_s)
                v, vdot = (lam, lamdot) if seg.chart != "nu" else ode._reciprocal(t_s, (lam, lamdot))
                if seg.end == "root":
                    kind, expected = "root", "mu"
                    assert seg.chart == "mu"
                elif seg.chart == "lam":
                    kind, expected = "switch", nxt.chart
                    assert nxt.chart in ("mu", "nu")
                elif abs(v) == pytest.approx(0.6 * t_s if seg.chart == "mu" else 2 * t_s**0.5, rel=1e-9):
                    kind, expected = "hand-back", _launch_chart(t_s, lam)
                else:
                    kind, expected = "turn", seg.chart
                    assert abs(vdot) < 1e-12
                assert nxt.chart == expected
                seen.add((kind, seg.chart, nxt.chart))
    assert seen >= {
        "span_end", "pole_cap", ("root", "mu", "mu"), ("turn", "mu", "mu"), ("turn", "nu", "nu"),
        ("hand-back", "mu", "lam"), ("hand-back", "nu", "lam"), ("hand-back", "nu", "mu"),
    }


def test_launch_beyond_the_chart_threshold_starts_in_nu():
    # lam0^2 = 379 > 4 t_init: both sweeps start in (g, nu) with g = t/lam.
    # Going left, g rises and the run hands back to lam where g^2 = 4|t|,
    # that is lam^2 = t/4, the other end of the factor-16 hysteresis
    from p3prime.poles import root_to_pole

    a, sol = _pole_capped_solution((0.1, 0.75))
    dt0 = -0.05 * a.t0
    t_init = a.t0 + dt0  # the launch point of _pole_capped_solution
    le = root_to_pole(a, P, 6)
    lam0, lamdot0 = le.eval(dt0), le.eval_derivative(dt0)
    assert lam0**2 > 4 * t_init
    charts_and_ends = [(seg.chart, seg.end) for seg in sol.segments]
    assert charts_and_ends == [("lam", "span_end"), ("nu", "chart_switch"), ("nu", "pole_cap")]
    t_s = sol.segments[0].hi
    lam_s = sol.state(t_s)[0]
    assert lam_s**2 == pytest.approx(t_s / 4, rel=1e-9)
    assert sol.state(t_init) == pytest.approx((lam0, lamdot0), rel=4 * _rk.EPS)


def test_third_derivative_curve_readback(appendix_solution):
    # build the third-derivative curve the same way the reproduction
    # pipeline does, then read it back at the launch abscissa
    sol = appendix_solution
    t_c = 0.833651
    grid = np.array([t for t in np.linspace(0.5, 1.2, 701) if abs(sol.lam(float(t))) > 1e-3])
    from p3prime.equation import third_derivative

    curve = np.array([third_derivative(float(t), *sol.state(float(t)), P) for t in grid])
    read = float(np.interp(t_c, grid, curve))
    direct = third_derivative(t_c, *sol.state(t_c), P)
    assert read == pytest.approx(direct, rel=1e-3)


def _lam3_reads(sol, r, monkeypatch):
    """lam3_at_root's value and the points at which it read the solution."""
    read = []
    state = sol.state
    monkeypatch.setattr(sol, "state", lambda t: read.append(t) or state(t))
    lam3 = lam3_at_root(sol, r, P)
    monkeypatch.undo()
    return lam3, read


def test_lam3_window_is_the_nodes_within_a_tenth_of_t0(appendix_solution, appendix_roots, monkeypatch):
    # the nodes of a 41-point grid over |t - t0| <= t0 / 10, those covered,
    # whatever the solver's mesh is there
    sol = appendix_solution
    for r in appendix_roots:
        _, read = _lam3_reads(sol, r, monkeypatch)
        w = 0.1 * abs(r.t0)
        grid = np.linspace(r.t0 - w, r.t0 + w, 41).tolist()
        assert read == [t for t in grid if _linear_scan_covers(sol, t)] == grid


def test_lam3_at_a_root_next_to_the_span_edge(appendix_solution, appendix_roots, monkeypatch):
    # the span ends 4.4e-5 past the root at 1.38176, so only the grid points
    # up to the root are covered
    sol = integrate(acceptance.REF_PARAMS, *acceptance.REF_CAUCHY, (0.3, 1.3818))
    r = find_roots(sol)[-1]
    assert 0 < 1.3818 - r.t0 < 1e-3 * r.t0
    lam3, read = _lam3_reads(sol, r, monkeypatch)
    w = 0.1 * r.t0
    grid = np.linspace(r.t0 - w, r.t0 + w, 41).tolist()
    assert read == [t for t in grid if _linear_scan_covers(sol, t)]
    assert len(read) == 21 and sum(t > r.t0 for t in read) == 0
    assert math.isfinite(lam3)
    # the two-sided estimate on the full span: 9.4e-7 apart
    full = lam3_at_root(appendix_solution, appendix_roots[5], P)
    assert abs(lam3 - full) <= 1e-5 * max(1.0, abs(full))


def _linear_scan_covers(sol, t):
    return any(s.lo <= t <= s.hi for s in sol.segments)


def _linear_scan_locate(sol, t):
    """The lookup rule as a linear scan: the first segment by lo, then the
    nearest segment within 1e-9, else DomainError."""
    best = None
    for seg in sol.segments:
        if seg.lo <= t <= seg.hi:
            return seg.sol
        gap = min(abs(t - seg.lo), abs(t - seg.hi))
        if best is None or gap < best[0]:
            best = (gap, seg.sol)
    if best is not None and best[0] < 1e-9 * max(1.0, abs(t)):
        return best[1]
    raise DomainError(f"t={t} outside the computed span")


def _linear_scan_state(sol, t):
    lam, lamdot = _linear_scan_locate(sol, t)(t)
    return float(lam), float(lamdot)


@pytest.mark.parametrize("case", ["worked_example", "pole_capped"])
def test_indexed_lookup_matches_the_linear_scan(case, appendix_solution):
    if case == "worked_example":
        sol, t_init = appendix_solution, acceptance.REF_CAUCHY[0]
    else:
        a, sol = _pole_capped_solution()
        t_init = a.t0 + -0.05 * a.t0  # the launch point of _pole_capped_solution
        assert sol.pole_markers
    nodes = sorted({t for seg in sol.segments for t in seg.sol.ts})
    probes = list(nodes)
    assert {c.t0 for c in sol.crossings} <= set(nodes)  # each crossed root ends one run and starts the next
    probes += [e for seg in sol.segments for e in (seg.lo, seg.hi)]
    probes += [t_init, sol.t_min - 1e-10, sol.t_max + 1e-10]  # the last two: nearest-segment rule
    assert t_init in nodes  # both sweeps start there
    assert not sol.covers(sol.t_max + 1e-10) and not sol.covers(sol.t_min - 1e-10)
    for t in probes:
        assert sol._locate(t) is _linear_scan_locate(sol, t)
        assert sol.state(t) == _linear_scan_state(sol, t)
        assert sol.covers(t) == _linear_scan_covers(sol, t)
    for t in (sol.t_min - 1e-8, sol.t_max + 1e-8):
        with pytest.raises(DomainError):
            _linear_scan_locate(sol, t)
        with pytest.raises(DomainError):
            sol.state(t)


def test_integrate_logs_each_segment_and_crossing_at_debug(caplog):
    from p3prime.acceptance import REF_CAUCHY, REF_PARAMS, REF_SPAN

    with caplog.at_level(logging.DEBUG, logger="p3prime.ode"):
        sol = integrate(REF_PARAMS, *REF_CAUCHY, REF_SPAN)
    lines = [r.getMessage() for r in caplog.records if r.name == "p3prime.ode"]
    assert len(lines) == len(sol.segments) + len(sol.crossings)
    for line, seg in zip(lines, sol.segments):
        assert line == (f"segment [{seg.lo:.17g}, {seg.hi:.17g}] chart {seg.chart}: {seg.steps} steps, "
                        f"{seg.rhs_calls} rhs calls, end {seg.end}")
    for line, c in zip(lines[len(sol.segments):], sol.crossings):
        assert line == f"crossing t0={c.t0:.17g} lam3={c.lam3:.17g}"


def test_integrate_formats_no_debug_line_below_debug(caplog, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("debug line formatted at INFO")

    monkeypatch.setattr(logging.Logger, "debug", fail)
    with caplog.at_level(logging.INFO, logger="p3prime.ode"):
        integrate(P, 0.8, *_state(0.8), (0.6, 1.3))
    assert not [r for r in caplog.records if r.name == "p3prime.ode"]


def test_integrate_leaves_logging_unimported():
    # a trajectory that never configures logging does not pay for importing it
    code = (
        "import sys; from p3prime import ode; from p3prime.acceptance import REF_CAUCHY, REF_PARAMS; "
        "ode.find_roots(ode.integrate(REF_PARAMS, *REF_CAUCHY, (0.3, 1.3))); "
        "assert 'logging' not in sys.modules, 'logging imported'"
    )
    src = str(Path(ode.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)

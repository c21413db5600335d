"""Pole engine: reciprocal map, closed-form oracle, residual orders."""

from fractions import Fraction as F

import numpy as np
import pytest

from p3prime import (
    DomainError,
    DtSeries,
    EquationParams,
    LaurentExpansion,
    RootAnchor,
    SignSwitch,
    assemble_lambda,
    pole_b5_reference,
    pole_residual_order,
    root_to_pole,
    run_scheme,
    series_reciprocal_times_t,
)
from p3prime import _poly, acceptance
from p3prime.equation import rhs_scalar
from p3prime.ode import integrate

A = RootAnchor(0.7, SignSwitch(1), 1.5)
P = EquationParams(-0.811597, -0.0550042)


def random_cases(n=20, seed=1729):
    rng = np.random.default_rng(seed)
    for i in range(n):
        chi0, chinf = rng.uniform(-3, 3, 2)
        t0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3))
        lam3 = float(rng.uniform(-10, 10))
        sgn = 1 if i % 2 == 0 else -1
        yield RootAnchor(t0, SignSwitch(sgn), lam3), EquationParams(float(chi0), float(chinf))


def test_residue_is_signed_root_location():
    for a, p in random_cases(8):
        le = root_to_pole(a, p, 4)
        assert le.residue == a.s * a.t0  # exact, by construction


def test_b5_reference_leading_coefficients():
    for a, p in random_cases(8):
        ref = pole_b5_reference(a, p)
        assert ref.regular_coeffs[0] == pytest.approx((a.s + p.chi_inf) / 2, rel=1e-15)
        d1 = -(a.s * (1 - p.chi_inf**2) / (4 * a.t0) + a.t0 * a.lam3)
        assert ref.regular_coeffs[1] == pytest.approx(d1, rel=1e-14, abs=1e-15)


def test_b5_degenerate_slope_term():
    for sgn in (1, -1):
        a = RootAnchor(1.3, SignSwitch(sgn), 0.0)
        ref = pole_b5_reference(a, EquationParams(0.4, float(sgn)))
        assert ref.regular_coeffs[1] == pytest.approx(0.0, abs=1e-15)


def test_root_to_pole_matches_b5_reference():
    worst = 0.0
    for a, p in random_cases():
        got = root_to_pole(a, p, 4)
        ref = pole_b5_reference(a, p)
        for g, r in zip([got.residue] + got.trusted(), [ref.residue] + ref.trusted()):
            scale = abs(r) if abs(r) >= 1.0 else 1.0
            worst = max(worst, abs(g - r) / scale)
    assert worst <= 1e-12


def test_reciprocal_of_pure_slope_series():
    lam_root = DtSeries(A, [0.0, 1.0, 0.0], 2)
    le = series_reciprocal_times_t(lam_root)
    assert le.residue == A.t0
    assert le.regular_coeffs[0] == pytest.approx(1.0)


def test_reciprocal_against_exact_long_division():
    # exact rational long division of (t0 + dt) by the series
    t0 = F(3, 4)
    coeffs = [F(0), F(1), F(2, 5), F(-1, 3), F(1, 7), F(2, 9)]
    n = 3
    u = coeffs[1:]
    inv_u = _poly.precip(u, n + 1)
    e = _poly.padd(_poly.pscale(inv_u, t0), [0] + inv_u)
    lam_root = DtSeries(RootAnchor(0.75, SignSwitch(1), 0.0), [float(c) for c in coeffs], 5)
    le = series_reciprocal_times_t(lam_root)
    assert le.residue == pytest.approx(float(e[0]), rel=1e-15)
    for k in range(le.valid_order + 1):
        assert le.regular_coeffs[k] == pytest.approx(float(e[k + 1]), rel=1e-13)
    # d0 = 1 - a*t0 for lam_root = dt + a*dt^2
    lam2 = DtSeries(RootAnchor(0.75, SignSwitch(1), 0.0), [0.0, 1.0, 0.4, 0.0], 3)
    le2 = series_reciprocal_times_t(lam2)
    assert le2.regular_coeffs[0] == pytest.approx(1 - 0.4 * 0.75, rel=1e-14)


def test_reciprocal_preconditions():
    with pytest.raises(DomainError):
        series_reciprocal_times_t(DtSeries(A, [0.1, 1.0, 0.0], 2))  # c0 != 0
    with pytest.raises(DomainError):
        series_reciprocal_times_t(DtSeries(A, [0.0, 0.5, 0.0], 2))  # |c1| != 1
    with pytest.raises(DomainError):
        series_reciprocal_times_t(DtSeries(A, [0.0, 1.0], 1))  # validity too small


def test_involution_recovers_root_expansion():
    for a, p in random_cases(6):
        lam3, _ = run_scheme(a, p.swapped(), 5)
        lam_root = assemble_lambda(a, lam3, p.swapped())
        le = series_reciprocal_times_t(lam_root)
        # inverse map: (t0 + dt)/laurent = dt*(t0 + dt)/v with v = residue + dt*regular
        n = le.valid_order + 1
        inv_v = _poly.precip([le.residue] + le.trusted(), n)
        back = [0] + _poly.padd(_poly.pscale(inv_v, le.t0), [0] + inv_v)
        for k in range(n):
            assert back[k] == pytest.approx(lam_root.coeffs[k], rel=1e-12, abs=1e-12)


def test_free_parameter_sweeps_regular_slope_only():
    # varying the cubic coefficient moves d1 over the reals while residue
    # and d0 stay fixed
    p = EquationParams(0.3, -1.2)
    d1s = []
    for L in (-20.0, -2.0, 0.0, 2.0, 20.0):
        a = RootAnchor(0.9, SignSwitch(1), L)
        le = root_to_pole(a, p, 3)
        assert le.residue == 0.9
        assert le.regular_coeffs[0] == pytest.approx((1 + p.chi_inf) / 2, rel=1e-13)
        d1s.append(le.regular_coeffs[1])
    diffs = np.diff(d1s)
    assert np.all(diffs < 0)  # linear in -t0*L
    assert d1s[0] - d1s[-1] == pytest.approx(0.9 * 40.0, rel=1e-12)


def test_swapped_residual_identity():
    # lam = t/g: lam'' - F(lam) = -(t/g^2) (g'' - F_swapped(g)) pointwise,
    # the identity pole_residual_order measures a pole's residual through
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(2000):
        t = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3))
        g = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3))
        g1, g2, chi0, chi_inf = (float(x) for x in rng.uniform(-3, 3, 4))
        p = EquationParams(chi0, chi_inf)
        lam, lam1 = t / g, (g - t * g1) / g**2
        lam2 = -t * g2 / g**2 - 2 * g1 * (g - t * g1) / g**3
        f = rhs_scalar(t, lam, lam1, p)
        swapped = -(t / g**2) * (g2 - rhs_scalar(t, g, g1, p.swapped()))
        worst = max(worst, abs(lam2 - f - swapped) / max(abs(lam2), abs(f)))
    assert worst <= 1e-13


GRID = np.logspace(-3, -1, 25)


def test_pole_residual_orders():
    grid = [A.t0 * x for x in GRID]
    s4 = pole_residual_order(pole_b5_reference(A, P), P, grid)
    assert s4 >= 2.5
    s6 = pole_residual_order(root_to_pole(A, P, 6), P, grid)
    assert s6 >= 4.5
    bare = LaurentExpansion(A.t0, A.t0, (0.0,), 0)
    assert pole_residual_order(bare, P, grid) <= -0.5


@pytest.mark.parametrize("a, p", acceptance._draws(1729, 20))
def test_pole_residual_orders_over_draws(a, p):
    # criterion 7's bounds, on each of its draws; the slopes expected are 3
    # and 5, and a power of dt lost in the swapped residual moves them by 1
    grid = [a.t0 * x for x in GRID]
    assert 2.5 <= pole_residual_order(pole_b5_reference(a, p), p, grid) <= 3.5
    assert 4.5 <= pole_residual_order(root_to_pole(a, p, 6), p, grid) <= 5.5


def test_pole_residual_needs_residue_plus_minus_t0():
    grid = [A.t0 * x for x in GRID]
    for residue in (0.5 * A.t0, -2.0 * A.t0, A.t0 * (1 + 1e-15)):
        with pytest.raises(DomainError, match="residue"):
            pole_residual_order(LaurentExpansion(A.t0, residue, (0.0, 1.0), 1), P, grid)
    assert pole_residual_order(LaurentExpansion(A.t0, -A.t0, (0.0, 1.0), 1), P, grid) <= -0.5


def test_laurent_eval_and_derivative():
    le = LaurentExpansion(2.0, -2.0, (1.0, 0.5), 1)
    dt = 0.25
    assert le.eval(dt) == pytest.approx(-2.0 / dt + 1.0 + 0.5 * dt)
    assert le.eval_derivative(dt) == pytest.approx(2.0 / dt**2 + 0.5)
    assert le.eval_derivative(dt, order=2) == pytest.approx(-4.0 / dt**3)
    with pytest.raises(DomainError):
        le.eval(0.0)


def test_numerical_solution_approaching_pole_matches_laurent():
    # launch from Laurent data, integrate into the cap, estimate the pole
    # location from a quadratic fit of 1/lam on 9 points over the last 0.2 %
    # of t0 before the marker (2.6e-9 off here), a grid that does not depend
    # on how densely the solver stepped, and compare against the expansion
    le = root_to_pole(A, P, 6)
    dt0 = -0.12 * A.t0
    sol = integrate(P, A.t0 + dt0, le.eval(dt0), le.eval_derivative(dt0), (0.55, 0.75))
    ((t_p, side),) = sol.pole_markers
    assert side == "right"
    grid = np.linspace(t_p - 2e-3 * A.t0, t_p, 9)
    inv = [1 / sol.lam(float(t)) for t in grid]
    coef = np.polynomial.polynomial.polyfit(grid - t_p, inv, 2)
    roots = np.roots(coef[::-1])
    t_hat = float(min(roots, key=lambda r: abs(r)).real + t_p)
    assert abs(t_hat - A.t0) <= 1e-5 * A.t0
    dev = 0.0
    for dt in np.linspace(-0.1 * A.t0, -0.01 * A.t0, 41):
        want = le.eval(float(dt))
        got = sol.lam(A.t0 + float(dt))
        dev = max(dev, abs(got - want) / max(1.0, abs(want)))
    assert dev <= 1e-3

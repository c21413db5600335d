"""Pointwise equation forms: exact-rational oracles and trivial identities."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from p3prime import (
    DomainError,
    EquationParams,
    InvalidParametersError,
    P3FormParams,
    PhasePoint,
    RootAnchor,
    SignSwitch,
    convert_p3_to_p3prime,
    hamiltonian,
    mu_from_lambda,
    rhs_scalar,
    third_derivative,
)
from p3prime.equation import hamilton_field, invert_p3prime_params
from p3prime.series import assemble_lambda, run_scheme, series_eval, series_eval_derivative


def w_lambda(dt, t, uplam, mu, a, p):
    """Right-hand side of t * d(uplam)/dt for the cubic-coefficient function
    uplam near a root, coupled to the momentum mu: the oracle that the
    series solve the coupled system.

    ``uplam`` and ``mu`` are the scalar values of the two unknown functions
    at the evaluation point t = t0 + dt.  The dt**-1 term is explicit, hence
    dt = 0 is excluded; on solutions its numerator vanishes at the root.
    """
    if dt == 0:
        raise DomainError("dt = 0: the explicit 1/dt term is undefined")
    sg, t0, chi0 = a.s, a.t0, p.chi0
    lead = (sg * (chi0**2 - 1) / (2 * t0) - 1 + 2 * mu - 3 * t0 * uplam) / dt
    mid = (1 - sg * chi0) * (2 * mu - 1) / t0 - (2 + sg * chi0) * uplam
    tail = dt * (2 * mu - 1) * (2 * sg * uplam + ((sg - chi0) / (2 * t0) + dt * uplam) ** 2)
    return lead + mid + tail


def w_mu(dt, t, uplam, mu, a, p):
    """Right-hand side of t * d(mu)/dt for the conjugate momentum, the
    other half of ``w_lambda``'s coupled system."""
    sg, t0 = a.s, a.t0
    return (
        -0.5 * (p.chi_inf + sg * p.chi0 - 1)
        - (1 - sg * p.chi0) * mu
        - 2 * dt * (mu - 1) * mu * (sg + dt * (sg - p.chi0) / (2 * t0) + dt**2 * uplam)
    )


def rhs_exact(t, lam, lamdot, chi0, chinf):
    t, lam, lamdot, chi0, chinf = map(F, (t, lam, lamdot, chi0, chinf))
    return (
        lamdot**2 / lam - lamdot / t - chinf * lam**2 / t**2 + lam**3 / t**2 + chi0 / t - 1 / lam
    )


def test_rhs_scalar_trivial_zero_cases():
    assert rhs_scalar(1.0, 1.0, 0.0, EquationParams(0.0, 0.0)) == 0.0
    assert rhs_scalar(1.0, 1.0, 1.0, EquationParams(1.0, 1.0)) == 0.0


def test_rhs_scalar_matches_exact_rational():
    p = EquationParams(-0.811597, -0.0550042)
    got = rhs_scalar(2.0, 0.5, 1.0, p)
    want = float(rhs_exact(2, F(1, 2), 1, F(-811597, 10**6), F(-550042, 10**7)))
    assert got == pytest.approx(want, rel=1e-14)


@given(
    t=st.floats(0.3, 3.0),
    lam=st.floats(0.1, 2.0),
    lamdot=st.floats(-2.0, 2.0),
    chi0=st.floats(-3.0, 3.0),
    chinf=st.floats(-3.0, 3.0),
)
def test_rhs_scalar_exact_rational_property(t, lam, lamdot, chi0, chinf):
    got = rhs_scalar(t, lam, lamdot, EquationParams(chi0, chinf))
    want = float(rhs_exact(t, lam, lamdot, chi0, chinf))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_rhs_scalar_domain_errors():
    p = EquationParams(0.0, 0.0)
    with pytest.raises(DomainError):
        rhs_scalar(0.0, 1.0, 0.0, p)
    with pytest.raises(DomainError):
        rhs_scalar(1.0, 0.0, 0.0, p)


def test_third_derivative_matches_series_derivative():
    # independent oracle: exact third derivative of the local expansion
    p = EquationParams(-0.811597, -0.0550042)
    a = RootAnchor(0.511115, SignSwitch(1), -9.01149)
    lam = assemble_lambda(a, run_scheme(a, p, 7)[0], p)
    for f in (0.02, 0.04, -0.03):
        dt = f * a.t0
        t = a.t0 + dt
        got = third_derivative(t, series_eval(lam, dt), series_eval_derivative(lam, dt), p)
        want = series_eval_derivative(lam, dt, order=3)
        assert got == pytest.approx(want, rel=2e-6)


def test_third_derivative_matches_finite_differences(appendix_solution):
    # Richardson-extrapolated second difference of the interpolated lam'
    sol = appendix_solution
    for t in (0.65, 0.9, 1.1):
        lam, lamdot = sol.state(t)
        got = third_derivative(t, lam, lamdot, sol.params)

        def second_diff(h):
            return (sol.lam_dot(t + h) - 2 * sol.lam_dot(t) + sol.lam_dot(t - h)) / h**2

        d1, d2 = second_diff(0.04), second_diff(0.02)
        want = (4 * d2 - d1) / 3
        assert got == pytest.approx(want, rel=1e-5)


def test_hamiltonian_trivial_values():
    s = SignSwitch(1)
    assert hamiltonian(PhasePoint(1.0, 0.0, 0.0), EquationParams(0.3, -2.0), s) == 0.0
    got = hamiltonian(PhasePoint(1.0, 1.0, 0.0), EquationParams(1.0, 1.0), s)
    assert got == pytest.approx(0.5, abs=1e-15)


@given(
    t=st.floats(0.3, 3.0),
    lam=st.floats(-2.0, 2.0),
    mu=st.floats(-2.0, 2.0),
    chi0=st.floats(-3.0, 3.0),
    chinf=st.floats(-3.0, 3.0),
    sgn=st.sampled_from([-1, 1]),
)
def test_hamiltonian_exact_rational_property(t, lam, mu, chi0, chinf, sgn):
    got = hamiltonian(PhasePoint(t, lam, mu), EquationParams(chi0, chinf), SignSwitch(sgn))
    ft, fl, fm, f0, fi = map(F, (t, lam, mu, chi0, chinf))
    want = (
        fl**2 * fm**2
        - (fl**2 - fl + sgn * (f0 * fl - ft)) * fm
        + F(1, 2) * (fi + sgn * f0 - 1) * fl
    ) / ft
    assert got == pytest.approx(float(want), rel=1e-12, abs=1e-12)


def test_hamilton_rhs_trivial_point():
    # the Hamilton equations' right-hand side, as the integrators step it
    p = EquationParams(0.7, -1.3)
    ld, md = hamilton_field(p, SignSwitch(1))(1.0, [0.0, 0.0])
    assert ld == pytest.approx(1.0)
    assert md == pytest.approx(-0.5 * (p.chi_inf + p.chi0 - 1))


def test_hamilton_rhs_is_hamiltonian_gradient():
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(100):
        pt = PhasePoint(
            float(rng.choice([-1, 1]) * rng.uniform(0.3, 3)),
            float(rng.uniform(-2, 2)),
            float(rng.uniform(-2, 2)),
        )
        p = EquationParams(*rng.uniform(-3, 3, 2))
        s = SignSwitch(int(rng.choice([-1, 1])))
        ld, md = hamilton_field(p, s)(pt.t, [pt.lam, pt.mu])
        dmu = (
            hamiltonian(PhasePoint(pt.t, pt.lam, pt.mu + h), p, s)
            - hamiltonian(PhasePoint(pt.t, pt.lam, pt.mu - h), p, s)
        ) / (2 * h)
        dlam = (
            hamiltonian(PhasePoint(pt.t, pt.lam + h, pt.mu), p, s)
            - hamiltonian(PhasePoint(pt.t, pt.lam - h, pt.mu), p, s)
        ) / (2 * h)
        assert ld == pytest.approx(dmu, rel=1e-7, abs=1e-7)
        assert md == pytest.approx(-dlam, rel=1e-7, abs=1e-7)


def test_scalar_equation_equals_eliminated_hamiltonian_form():
    # substitute the eliminated momentum, differentiate the first Hamilton
    # equation along the flow, compare with the scalar right-hand side
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(50):
        t = float(rng.choice([-1, 1]) * rng.uniform(0.5, 2.5))
        lam = float(rng.choice([-1, 1]) * rng.uniform(0.3, 1.8))
        lamdot = float(rng.uniform(-1.5, 1.5))
        p = EquationParams(*rng.uniform(-2, 2, 2))
        s = SignSwitch(int(rng.choice([-1, 1])))
        mu = mu_from_lambda(t, lam, lamdot, s, p)
        field = hamilton_field(p, s)

        def lam_dot_of(tt, ll, mm):
            return field(tt, [ll, mm])[0]

        mu_dot = field(t, [lam, mu])[1]
        d_t = (lam_dot_of(t + h, lam, mu) - lam_dot_of(t - h, lam, mu)) / (2 * h)
        d_lam = (lam_dot_of(t, lam + h, mu) - lam_dot_of(t, lam - h, mu)) / (2 * h)
        d_mu = (lam_dot_of(t, lam, mu + h) - lam_dot_of(t, lam, mu - h)) / (2 * h)
        lam_ddot = d_t + d_lam * lamdot + d_mu * mu_dot
        want = rhs_scalar(t, lam, lamdot, p)
        assert lam_ddot == pytest.approx(want, rel=1e-8, abs=1e-8)


def test_mu_from_lambda_trivial():
    p = EquationParams(0.9, 0.0)
    for sgn in (-1, 1):
        got = mu_from_lambda(2.7, 1.0, float(sgn), SignSwitch(sgn), p)
        assert got == pytest.approx(sgn * p.chi0 / 2, abs=1e-15)
    with pytest.raises(DomainError):
        mu_from_lambda(1.0, 0.0, 1.0, SignSwitch(1), p)


def test_w_lambda_constraint_satisfied_numerator():
    # with the root constraint satisfied the 1/dt term carries a zero
    # numerator, so the value stays finite and tends to the regular part
    a = RootAnchor(1.0, SignSwitch(1), 0.0)
    p = EquationParams(0.0, 0.5)
    uplam, mu = 0.0, 0.75
    limit = (1 - a.s * p.chi0) * (2 * mu - 1) / a.t0 - (2 + a.s * p.chi0) * uplam
    assert w_lambda(1e-8, 1.0, uplam, mu, a, p) == pytest.approx(limit, abs=1e-6)
    assert w_lambda(1e-6, 1.0, uplam, mu, a, p) == pytest.approx(limit, abs=1e-4)
    # numerator of the 1/dt term vanishes identically for these inputs
    assert a.s * (p.chi0**2 - 1) / (2 * a.t0) - 1 + 2 * mu - 3 * a.t0 * uplam == 0.0


def test_w_functions_match_exact_rational():
    a = RootAnchor(0.75, SignSwitch(-1), 2.0)
    p = EquationParams(1.25, -0.5)
    dt, t, uplam, mu = 0.125, 0.875, 0.5, -1.5
    sg, t0, chi0, chinf = F(-1), F(3, 4), F(5, 4), F(-1, 2)
    fdt, fu, fm = F(1, 8), F(1, 2), F(-3, 2)
    lead = (sg * (chi0**2 - 1) / (2 * t0) - 1 + 2 * fm - 3 * t0 * fu) / fdt
    mid = (1 - sg * chi0) * (2 * fm - 1) / t0 - (2 + sg * chi0) * fu
    tail = fdt * (2 * fm - 1) * (2 * sg * fu + ((sg - chi0) / (2 * t0) + fdt * fu) ** 2)
    assert w_lambda(dt, t, uplam, mu, a, p) == pytest.approx(float(lead + mid + tail), rel=1e-14)
    wm = (
        -F(1, 2) * (chinf + sg * chi0 - 1)
        - (1 - sg * chi0) * fm
        - 2 * fdt * (fm - 1) * fm * (sg + fdt * (sg - chi0) / (2 * t0) + fdt**2 * fu)
    )
    assert w_mu(dt, t, uplam, mu, a, p) == pytest.approx(float(wm), rel=1e-14)


def test_w_mu_trivial_slices():
    a = RootAnchor(2.0, SignSwitch(1), 0.0)
    p = EquationParams(0.3, 1.1)
    base = -0.5 * (p.chi_inf + p.chi0 - 1)
    assert w_mu(0.0, 2.0, 5.0, 0.0, a, p) == pytest.approx(base, abs=1e-15)
    got = w_mu(0.0, 2.0, 5.0, 0.7, a, p)
    assert got == pytest.approx(base - (1 - p.chi0) * 0.7, abs=1e-15)


def test_w_lambda_requires_nonzero_dt():
    a = RootAnchor(1.0, SignSwitch(1), 0.0)
    with pytest.raises(DomainError):
        w_lambda(0.0, 1.0, 0.0, 0.0, a, EquationParams(0.0, 0.0))


def test_w_functions_reproduce_series_derivatives():
    # on the exact series pair, t * d/dt of each series equals the
    # corresponding coupled right-hand side up to the validity order
    p = EquationParams(0.4, -1.1)
    a = RootAnchor(0.9, SignSwitch(1), 1.3)
    lam3, mu = run_scheme(a, p, 8)
    for f in (0.01, 0.02):
        dt = f * a.t0
        t = a.t0 + dt
        lv, mv = series_eval(lam3, dt), series_eval(mu, dt)
        lhs_l = t * series_eval_derivative(lam3, dt)
        lhs_m = t * series_eval_derivative(mu, dt)
        assert lhs_l == pytest.approx(w_lambda(dt, t, lv, mv, a, p), rel=1e-8, abs=1e-8)
        assert lhs_m == pytest.approx(w_mu(dt, t, lv, mv, a, p), rel=1e-8, abs=1e-8)


@given(sgn=st.integers(-5, 5))
def test_sign_switch_enforced(sgn):
    if sgn in (-1, 1):
        assert SignSwitch(sgn).sgn == sgn
    else:
        with pytest.raises(InvalidParametersError):
            SignSwitch(sgn)


def test_root_anchor_rejects_zero_location():
    with pytest.raises(InvalidParametersError):
        RootAnchor(0.0, SignSwitch(1), 1.0)


def test_convert_trivial_values():
    p, vmap = convert_p3_to_p3prime(P3FormParams(0.0, 0.0, 1.0, -1.0))
    assert (p.chi0, p.chi_inf) == (0.0, 0.0)
    assert vmap.function_scale == pytest.approx(1.0)
    assert vmap.variable_scale == pytest.approx(2.0)
    p, _ = convert_p3_to_p3prime(P3FormParams(2.0, -2.0, 1.0, -1.0))
    assert p.chi0 == pytest.approx(1.0)
    assert p.chi_inf == pytest.approx(1.0)


def test_convert_rejects_bad_sign_regimes():
    with pytest.raises(InvalidParametersError):
        convert_p3_to_p3prime(P3FormParams(1.0, 1.0, -1.0, -1.0))  # gamma*delta > 0
    with pytest.raises(InvalidParametersError):
        convert_p3_to_p3prime(P3FormParams(1.0, 1.0, -1.0, 1.0))  # delta > 0
    with pytest.raises(InvalidParametersError):
        convert_p3_to_p3prime(P3FormParams(1.0, 1.0, 0.0, -1.0))  # gamma = 0


@given(
    alpha=st.floats(-4.0, 4.0),
    beta=st.floats(-4.0, 4.0),
    gamma=st.floats(0.2, 3.0),
    delta=st.floats(-3.0, -0.2),
)
def test_convert_round_trip(alpha, beta, gamma, delta):
    p, _ = convert_p3_to_p3prime(P3FormParams(alpha, beta, gamma, delta))
    back = invert_p3prime_params(p, gamma, delta)
    assert back.alpha == pytest.approx(alpha, abs=1e-14, rel=1e-14)
    assert back.beta == pytest.approx(beta, abs=1e-14, rel=1e-14)


def test_third_derivative_large_lambda_asymptote():
    # for large lam the result is dominated by the cubic term's derivative:
    # lam''' -> -3*lam^3/t^3 + (3*chi_inf/t^3 + 5*lam'/t^2)*lam^2
    p = EquationParams(-0.9, 1.7)
    t, lamdot = 2.0, 0.7
    errs = []
    for lam in (1e3, 2e3, 4e3):
        asym = -3 * lam**3 / t**3 + (3 * p.chi_inf / t**3 + 5 * lamdot / t**2) * lam**2
        errs.append(abs(third_derivative(t, lam, lamdot, p) - asym) / abs(asym))
    assert errs[0] <= 2e-2
    assert errs[2] < errs[1] < errs[0]  # O(1/lam) convergence

"""Decay certificates: majorant domination, monotonicity, measured decay."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from p3prime import (
    DomainError,
    EquationParams,
    RootAnchor,
    SignSwitch,
    run_scheme,
    series_eval,
)
from p3prime.bounds import (
    _poly_sup_abs,
    algorithm_increments,
    convergence_bounds,
    d_omega_mu_lambda,
    d_omega_mu_mu,
    d_omega_xi_lambda,
    d_omega_xi_mu,
)
from p3prime.series import _kernel_mu, _kernel_xi

A = RootAnchor(0.511115, SignSwitch(1), -9.01149)
P = EquationParams(-0.811597, -0.0550042)


def _sup_with_numpy_polynomial(coeffs, h):
    p = np.asarray(coeffs, dtype=float)
    candidates = [-h, 0.0, h]
    dp = np.polynomial.polynomial.polyder(p)
    if dp.size > 1 or (dp.size == 1 and dp[0] != 0):
        for r in np.polynomial.polynomial.polyroots(dp):
            if abs(r.imag) < 1e-12 and -h <= r.real <= h:
                candidates.append(float(r.real))
    return float(np.max(np.abs(np.polynomial.polynomial.polyval(np.array(candidates), p))))


@given(
    st.lists(st.one_of(st.just(0.0), st.floats(-1e3, 1e3)), min_size=1, max_size=7),
    st.floats(1e-3, 10.0),
)
def test_poly_sup_abs_is_numpy_polynomials_bit_for_bit(coeffs, h):
    # the formula convergence_bounds used on numpy.polynomial, kept as the reference
    assert _poly_sup_abs(coeffs, h).hex() == _sup_with_numpy_polynomial(coeffs, h).hex()


def test_boundset_invariants():
    for alpha in (0.2, 0.5, 0.8):
        bs = convergence_bounds(A, P, alpha)
        assert bs.beta >= bs.Q1 and bs.beta >= bs.Q2
        assert bs.alpha_tilde * bs.beta <= 0.5 + 1e-15
        assert 0 < bs.alpha_tilde < 1
        for name in ("M_lambda", "M_mu", "B_mu_lambda", "B_mu_mu", "B_xi_lambda", "B_xi_mu", "Q1", "Q2"):
            assert getattr(bs, name) >= 1.0


def test_alpha_validation():
    with pytest.raises(DomainError):
        convergence_bounds(A, P, 0.0)
    with pytest.raises(DomainError):
        convergence_bounds(A, P, 1.0)


def test_majorants_dominate_sampled_kernels():
    bs = convergence_bounds(A, P, 0.5)
    rng = np.random.default_rng(99)
    h = 0.5 * abs(A.t0)
    n = 10_000
    eta = rng.uniform(-h, h, n)
    lam_hat = rng.uniform(-bs.M_lambda, bs.M_lambda, n)
    mu_hat = rng.uniform(-bs.M_mu, bs.M_mu, n)
    d_lam = rng.uniform(-2 * bs.M_lambda, 2 * bs.M_lambda, n)
    d_mu = rng.uniform(-2 * bs.M_mu, 2 * bs.M_mu, n)
    # the kernels algorithm_increments iterates, evaluated on all samples at once
    assert np.all(np.abs(d_omega_mu_lambda(eta, mu_hat, d_mu)) <= bs.B_mu_lambda)
    assert np.all(np.abs(d_omega_mu_mu(eta, lam_hat, mu_hat, A, P)) <= bs.B_mu_mu)
    assert np.all(np.abs(d_omega_xi_lambda(eta, lam_hat, mu_hat, d_mu, A, P)) <= bs.B_xi_lambda)
    assert np.all(np.abs(d_omega_xi_mu(eta, lam_hat, mu_hat, d_lam, A, P)) <= bs.B_xi_mu)


@pytest.mark.parametrize(
    "anchor,params",
    [(A, P), (RootAnchor(-1.2, SignSwitch(-1), 2.5), EquationParams(1.3, -0.7))],
)
def test_increment_kernels_give_the_exact_kernel_difference(anchor, params):
    # the iteration's increment is the difference of run_scheme's kernels
    # between successive iterates; with midpoint arguments the four d_omega
    # kernels give that difference exactly, including their terms quadratic
    # in the increments, which are O(eta^3 d^2) and so hardly move the
    # partial sums at samples within alpha_tilde |t0|.  Here the increments
    # are O(1), and such a term off by a tenth moves the identity by ~1e-2
    rng = np.random.default_rng(7)
    eta, lam0, mu0, d_lam, d_mu = rng.uniform(-1, 1, (5, 200))
    lam_h, mu_h = lam0 + d_lam / 2, mu0 + d_mu / 2
    for kernel, by_increments in (
        (_kernel_mu, d_mu * d_omega_mu_mu(eta, lam_h, mu_h, anchor, params)
         + d_lam * d_omega_mu_lambda(eta, mu_h, d_mu)),
        (_kernel_xi, d_mu * d_omega_xi_mu(eta, lam_h, mu_h, d_lam, anchor, params)
         + d_lam * d_omega_xi_lambda(eta, lam_h, mu_h, d_mu, anchor, params)),
    ):
        # the series module's kernels themselves, evaluated on all samples at once
        difference = kernel(eta, lam0 + d_lam, mu0 + d_mu, anchor, params) - kernel(eta, lam0, mu0, anchor, params)
        assert np.max(np.abs(difference - by_increments)) <= 1e-12


def test_bounds_nonincreasing_in_shrinking_alpha():
    big = convergence_bounds(A, P, 0.5)
    small = convergence_bounds(A, P, 0.25)
    for name in ("M_lambda", "M_mu", "B_mu_lambda", "B_mu_mu", "B_xi_lambda", "B_xi_mu"):
        assert getattr(small, name) <= getattr(big, name)


def test_first_increment_within_half_m():
    bs = convergence_bounds(A, P, 0.5)
    h = bs.alpha_tilde * abs(A.t0)
    samples = [A.t0 + f * h for f in (-0.9, 0.3, 0.9)]
    rep = algorithm_increments(A, P, 1, samples, bounds=bs)
    assert np.all(rep.d_lam_abs[0] <= 0.5 * bs.M_lambda)
    assert np.all(rep.d_mu_abs[0] <= 0.5 * bs.M_mu)


@pytest.mark.parametrize(
    "anchor,params",
    [
        (A, P),
        (RootAnchor(-1.2, SignSwitch(-1), 2.5), EquationParams(1.3, -0.7)),
        (RootAnchor(0.8, SignSwitch(1), -0.3), EquationParams(0.2, 2.1)),
    ],
)
def test_increments_decay_and_partial_sums(anchor, params):
    bs = convergence_bounds(anchor, params, 0.5)
    h = bs.alpha_tilde * abs(anchor.t0)
    samples = [anchor.t0 + f * h for f in (-0.9, -0.45, 0.1, 0.5, 0.9)]
    rep = algorithm_increments(anchor, params, 40, samples, bounds=bs)
    assert rep.within_majorant(15)
    lam3, mu = run_scheme(anchor, params, 40)
    lam_ref = np.array([series_eval(lam3, t - anchor.t0) for t in samples])
    mu_ref = np.array([series_eval(mu, t - anchor.t0) for t in samples])
    assert np.max(np.abs(rep.lam_total - lam_ref)) <= 1e-10
    assert np.max(np.abs(rep.mu_total - mu_ref)) <= 1e-10


def test_sample_outside_domain_rejected():
    bs = convergence_bounds(A, P, 0.5)
    bad = A.t0 + 2 * bs.alpha_tilde * abs(A.t0)
    with pytest.raises(DomainError):
        algorithm_increments(A, P, 3, [bad], bounds=bs)

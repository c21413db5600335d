"""Convergence bounds for the iteration and the per-step increment algorithm.

The iteration's increments obey a geometric majorant

    |d_lam_n(t)|, |d_mu_n(t)|  <  (M/2) * (beta*|dt|/|t0|)**(n-1)

on the disc |dt| < alpha_tilde*|t0|, where M, beta, alpha_tilde are built
from suprema of the starting polynomials and rigorous majorants of the four
increment kernels.  ``convergence_bounds`` computes such a certificate;
``algorithm_increments`` actually runs the five-substep increment iteration
on polynomial representatives and reports the measured decay against the
majorant, plus the accumulated partial sums.

Each increment kernel ``d_omega_*`` is written once, as plain arithmetic in
(eta, lam_hat, mu_hat, d_lam, d_mu).  The same formula gives pointwise values
on floats or numpy arrays and eta-polynomials on ``_EtaPoly`` arguments, so
the sampled majorant check and the iteration run the same definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from . import _poly
from .equation import DomainError, EquationParams, RootAnchor
from .series import init_pair


@dataclass(frozen=True)
class BoundSet:
    """Certificate constants for the geometric decay of the increments."""

    M_lambda: float
    M_mu: float
    B_mu_lambda: float
    B_mu_mu: float
    B_xi_lambda: float
    B_xi_mu: float
    Q1: float
    Q2: float
    beta: float
    alpha: float
    alpha_tilde: float

    def __post_init__(self):
        if not (0 < self.alpha < 1):
            raise ValueError("alpha must lie in (0, 1)")
        if self.beta < max(self.Q1, self.Q2):
            raise ValueError("beta must dominate Q1 and Q2")
        if self.alpha_tilde > min(self.alpha, 1 / (2 * self.beta)):
            raise ValueError("alpha_tilde must not exceed min(alpha, 1/(2*beta))")


def _poly_sup_abs(coeffs, h: float) -> float:
    """sup |p(x)| over the closed interval [-h, h]: endpoints plus interior
    critical points (real roots of p').

    The roots are the eigenvalues of the companion matrix of p' (trailing
    zeros trimmed) that ``np.polynomial.polynomial.polyroots`` forms, and p
    is evaluated by Horner's rule, as ``polyval`` does, so the result is
    theirs bit for bit without loading ``numpy.polynomial``, which nothing
    else on the ``convergence_bounds`` path needs."""
    dp = _poly.pder(list(coeffs))
    while len(dp) > 1 and dp[-1] == 0:
        dp.pop()
    n = len(dp) - 1
    if n == 0:
        roots = []
    elif n == 1:
        roots = [-dp[0] / dp[1]]
    else:
        m = np.zeros((n, n))
        m.reshape(-1)[n :: n + 1] = 1
        m[:, -1] -= np.array(dp[:-1], dtype=float) / dp[-1]
        roots = np.linalg.eigvals(m[::-1, ::-1])
    real = [float(r.real) for r in roots if abs(r.imag) < 1e-12 and -h <= r.real <= h]
    return max(abs(_poly.peval(coeffs, x)) for x in [-h, 0.0, h, *real])


def convergence_bounds(a: RootAnchor, p: EquationParams, alpha: float = 0.5) -> BoundSet:
    """Build a decay certificate on |dt| < alpha*|t0|.

    M constants double the exact suprema of the two starting polynomials
    (floored at 1).  B constants are triangle-inequality majorants of the
    four increment kernels over |eta| <= alpha*|t0|, |lam| <= M_lambda,
    |mu| <= M_mu, |d_lam| <= 2*M_lambda, |d_mu| <= 2*M_mu, also floored at
    1; they are nondecreasing in alpha by construction.
    """
    if not (0 < alpha < 1):
        raise DomainError("alpha must lie in (0, 1)")
    sg, t0, chi0 = a.s, a.t0, p.chi0
    h = alpha * abs(t0)
    at0 = abs(t0)
    k0_abs = abs(chi0 - sg) / (2 * at0)

    lam1, mu1 = init_pair(a, p)
    M_lambda = max(1.0, 2 * _poly_sup_abs(lam1.coeffs, h))
    M_mu = max(1.0, 2 * _poly_sup_abs(mu1.coeffs, h))

    # inner factor |sgn - eta*(chi0-sgn)/(2 t0) + eta^2*lam|
    inner = 1 + h * k0_abs + h**2 * M_lambda
    B_mu_lambda = max(1.0, 0.5 * h**3 * ((2 * M_mu + 1) ** 2 + 1 + (2 * M_mu) ** 2))
    B_mu_mu = max(1.0, abs(chi0) + 2 * h * (2 * M_mu + 1) * inner)
    B_xi_lambda = max(
        1.0,
        3 * at0 * abs(chi0 - 2 * sg)
        + 6 * at0 * h * (2 * M_mu + 1) * inner
        + 4 * h**3 * (M_mu * (M_mu + 1) + M_mu**2),
    )
    B_xi_mu = max(
        1.0,
        8 * abs(chi0)
        + 3 * h * (chi0 - sg) ** 2 / (2 * at0)
        + 4 * h * (2 * M_mu + 1 + 3 * at0 * M_lambda) * inner
        + 6 * h**3 * at0 * 2 * M_lambda**2,
    )

    Q1 = 1 + B_mu_mu + B_mu_lambda * M_lambda / M_mu
    Q2 = (
        1
        + (2 * B_mu_lambda + B_xi_lambda / math.sqrt(7)) / (3 * at0)
        + (2 * B_mu_mu / math.sqrt(3) + B_xi_mu / 3) * M_mu / (6 * at0 * M_lambda)
    )
    beta = max(Q1, Q2)
    alpha_tilde = min(alpha, 1 / (2 * beta))
    return BoundSet(
        M_lambda, M_mu, B_mu_lambda, B_mu_mu, B_xi_lambda, B_xi_mu, Q1, Q2, beta, alpha, alpha_tilde
    )


# increment kernels; arguments are values at the shifted point tau = t0 + eta,
# either pointwise or as _EtaPoly eta-polynomials (module docstring)


def d_omega_mu_lambda(eta, mu_hat, d_mu):
    """Coefficient of d_lam in the mu-kernel difference."""
    return -0.5 * eta**3 * ((2 * mu_hat - 1) ** 2 - 1 + d_mu**2)


def d_omega_mu_mu(eta, lam_hat, mu_hat, a: RootAnchor, p: EquationParams):
    """Coefficient of d_mu in the mu-kernel difference."""
    sg, t0 = a.s, a.t0
    return sg * p.chi0 - 2 * eta * (2 * mu_hat - 1) * (
        sg - eta * (p.chi0 - sg) / (2 * t0) + eta**2 * lam_hat
    )


def d_omega_xi_lambda(eta, lam_hat, mu_hat, d_mu, a: RootAnchor, p: EquationParams):
    """Coefficient of d_lam in the xi-kernel difference."""
    sg, t0 = a.s, a.t0
    return (
        -3 * sg * t0 * (p.chi0 - 2 * sg)
        + 6 * t0 * eta * (2 * mu_hat - 1) * (sg - eta * (p.chi0 - sg) / (2 * t0) + eta**2 * lam_hat)
        + 4 * eta**3 * (mu_hat * (mu_hat - 1) + d_mu**2 / 4)
    )


def d_omega_xi_mu(eta, lam_hat, mu_hat, d_lam, a: RootAnchor, p: EquationParams):
    """Coefficient of d_mu in the xi-kernel difference."""
    sg, t0 = a.s, a.t0
    return (
        -8 * sg * p.chi0
        + 3 * eta * (p.chi0 - sg) ** 2 / (2 * t0)
        + 4 * eta * (2 * mu_hat - 1 + 3 * t0 * lam_hat) * (
            sg - eta * (p.chi0 - sg) / (2 * t0) + eta**2 * lam_hat
        )
        - 6 * eta**3 * t0 * (lam_hat**2 - d_lam**2 / 4)
    )


class _EtaPoly(_poly.TruncPoly):
    """``TruncPoly`` on a numpy float array: the sum pads and adds, the
    scale is elementwise and the product is ``np.convolve``."""

    __slots__ = ()
    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __init__(self, c, cap: int):
        self.c = np.asarray(c, dtype=float)[: cap + 1]
        self.cap = cap

    @staticmethod
    def _sum(a, b):
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        out[: len(b)] += b
        return out

    @staticmethod
    def _scale(a, c, op=mul):
        return op(a, c)

    @staticmethod
    def _prod(a, b, cap):
        return np.convolve(a, b)[: cap + 1]


@dataclass(frozen=True)
class IncrementReport:
    """Measured increment decay: arrays indexed [n-1, sample]."""

    t_samples: tuple
    d_lam_abs: np.ndarray
    d_mu_abs: np.ndarray
    majorant_lam: np.ndarray
    majorant_mu: np.ndarray
    lam_total: np.ndarray
    mu_total: np.ndarray
    bounds: BoundSet

    def within_majorant(self, n_upto: int | None = None) -> bool:
        sl = slice(None, n_upto)
        return bool(
            np.all(self.d_lam_abs[sl] <= self.majorant_lam[sl])
            and np.all(self.d_mu_abs[sl] <= self.majorant_mu[sl])
        )


def algorithm_increments(
    a: RootAnchor,
    p: EquationParams,
    n_max: int,
    t_samples,
    bounds: BoundSet | None = None,
) -> IncrementReport:
    """Run the five-substep increment iteration for n = 1..n_max and report
    |d_lam_n|, |d_mu_n| at the samples next to the geometric majorant.

    The iteration operates on polynomial representatives, truncated after
    degree max(64, n_max + 24), well beyond the decay horizon; every sample
    must satisfy |t - t0| < alpha_tilde*|t0|.
    """
    if bounds is None:
        bounds = convergence_bounds(a, p)
    t0 = a.t0
    ts = [float(t) for t in t_samples]
    for t in ts:
        if abs(t - t0) >= bounds.alpha_tilde * abs(t0):
            raise DomainError(f"sample t={t} outside the certified domain")
    dts = np.array([t - t0 for t in ts])
    cap = max(64, n_max + 24)
    eta = _EtaPoly([0.0, 1.0], cap)

    lam1, mu1 = init_pair(a, p)
    lam_prev = mu_prev = _EtaPoly([0.0], cap)
    d_lam = _EtaPoly(lam1.coeffs, cap)
    d_mu = _EtaPoly(mu1.coeffs, cap)

    d_lam_abs = np.zeros((n_max, len(ts)))
    d_mu_abs = np.zeros((n_max, len(ts)))
    lam_tot = np.zeros(len(ts))
    mu_tot = np.zeros(len(ts))

    for n in range(1, n_max + 1):
        d_lam_val = np.polynomial.polynomial.polyval(dts, d_lam.c)
        d_mu_val = np.polynomial.polynomial.polyval(dts, d_mu.c)
        d_lam_abs[n - 1] = np.abs(d_lam_val)
        d_mu_abs[n - 1] = np.abs(d_mu_val)
        lam_tot += d_lam_val
        mu_tot += d_mu_val
        if n == n_max:
            break
        lam_n = lam_prev + d_lam
        mu_n = mu_prev + d_mu
        lam_half = lam_prev + 0.5 * d_lam
        mu_half = mu_prev + 0.5 * d_mu
        # increments live one dt-order up per step; kernels take eta-polynomials
        integ_mu = (
            d_mu * d_omega_mu_mu(eta, lam_half, mu_half, a, p)
            + d_lam * d_omega_mu_lambda(eta, mu_half, d_mu)
        )
        d_mu_next = (1 / t0) * (eta * (-d_mu + integ_mu.sigma_avg()))
        mu_half2 = mu_n + 0.5 * d_mu_next
        integ_a = (
            d_mu_next * d_omega_mu_mu(eta, lam_half, mu_half2, a, p)
            + d_lam * d_omega_mu_lambda(eta, mu_half2, d_mu_next)
        )
        integ_b = (
            d_mu_next * d_omega_xi_mu(eta, lam_half, mu_half2, d_lam, a, p)
            + d_lam * d_omega_xi_lambda(eta, lam_half, mu_half2, d_mu_next, a, p)
        )
        # sign: the refined update carries -(dt/t0)*(... - (3 t0)^-1 * integral),
        # so the kernel-difference integrals enter the increment with a plus
        d_lam_next = (1 / t0) * (
            eta * (-d_lam + (2 / (3 * t0)) * integ_a.sigma_avg() + (1 / (3 * t0)) * integ_b.sigma_avg(3))
        )
        lam_prev, mu_prev = lam_n, mu_n
        d_lam, d_mu = d_lam_next, d_mu_next

    ratio = bounds.beta * np.abs(dts) / abs(t0)
    n_idx = np.arange(n_max).reshape(-1, 1)
    majorant_lam = 0.5 * bounds.M_lambda * ratio.reshape(1, -1) ** n_idx
    majorant_mu = 0.5 * bounds.M_mu * ratio.reshape(1, -1) ** n_idx
    return IncrementReport(
        tuple(ts), d_lam_abs, d_mu_abs, majorant_lam, majorant_mu, lam_tot, mu_tot, bounds
    )

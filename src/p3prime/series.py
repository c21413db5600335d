"""Truncated power series in dt = t - t0 and the iterative integral scheme.

A solution vanishing at t0 is written as

    lam(t) = dt*sgn + dt^2*(sgn - chi0)/(2*t0) + dt^3 * L(t)

and the scheme constructs the cubic-factor series L (called ``lam3`` here,
its value at t0 is lam'''(t0)/6) together with the momentum series mu, by
alternating two integral-transform updates whose kernels are polynomial in
eta = sigma*dt.  Each series carries a validity order: the highest dt power
whose coefficient is trusted.  One update gains one order for mu per step as
long as the lam input is at most three orders behind, and one order for lam
per step as long as the mu input is not behind.  A coefficient at or below
an input's validity comes out of a step as it went in, in exact arithmetic,
so ``run_scheme`` evaluates the scheme online: it forms each new coefficient
of mu and then of lam once, from final ones, in O(N^2) operations for order
N (lazy series evaluation; van der Hoeven 2002, "Relax, but don't be too
lazy").

The scheme uses only field arithmetic, so its coefficients have the type of
the anchor and parameters: doubles in every command, exact ``Fraction``s in
the tests' oracles.  The closed-form degree-5 reference ``lam6_reference``
provides an independent oracle for the scheme.  ``taylor_at_root`` computes
the same cubic-factor series from the direct Painleve-test recurrence, also
in O(N^2) operations but with fewer of them; on ``Fraction`` inputs the two
agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _poly
from .equation import DomainError, EquationParams, RootAnchor


class AnchorMismatchError(ValueError):
    """Two series built on different anchors were combined."""


@dataclass(frozen=True)
class DtSeries:
    """Truncated power series in dt = t - t0 with a tracked validity order.

    ``coeffs`` holds c0..cD; coefficients with index above ``valid_order``
    exist but are not trusted and every consumer in this module ignores them.
    """

    anchor: RootAnchor
    coeffs: tuple
    valid_order: int

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if self.valid_order < 0:
            raise ValueError("valid_order must be >= 0")
        if len(self.coeffs) < self.valid_order + 1:
            raise ValueError("coeffs must reach at least valid_order")

    def trusted(self) -> list:
        return list(self.coeffs[: self.valid_order + 1])

    def truncated(self, v: int) -> "DtSeries":
        if v > self.valid_order:
            raise ValueError("cannot extend validity by truncation")
        return DtSeries(self.anchor, self.coeffs[: v + 1], v)


def _require_same_anchor(lam: DtSeries, mu: DtSeries) -> None:
    if lam.anchor != mu.anchor:
        raise AnchorMismatchError("lambda and mu series anchored at different roots")


def series_eval(s: DtSeries, dt: float) -> float:
    """Horner evaluation of the trusted coefficients 0..valid_order."""
    return _poly.peval(s.trusted(), dt)


def series_eval_derivative(s: DtSeries, dt: float, order: int = 1) -> float:
    """Evaluate an exact derivative of the trusted part of the series."""
    c = s.trusted()
    for _ in range(order):
        c = _poly.pder(c)
    return _poly.peval(c, dt)


def mu_at_root(a: RootAnchor, p: EquationParams) -> float:
    """Momentum value forced at the root: (1 + sgn(1-chi0^2)/(2 t0) + 3 t0 lam3)/2."""
    return (1 + a.s * (1 - p.chi0**2) / (2 * a.t0) + 3 * a.t0 * a.lam3) / 2


def lam3_from_mu(t0: float, sg: int, mu: float, p: EquationParams) -> float:
    """The cubic coefficient a root at t0 with switch sg has when the
    momentum there is mu: ``mu_at_root`` inverted."""
    return (2 * mu - 1 - sg * (1 - p.chi0 * p.chi0) / (2 * t0)) / (3 * t0)


def init_pair(a: RootAnchor, p: EquationParams) -> tuple[DtSeries, DtSeries]:
    """Starting data of the iteration: the explicit degree-5 lam polynomial
    and degree-1 mu polynomial produced by one pass of the refined updates on
    identically-zero input.  Both carry validity order 0; the higher terms
    are retained but untrusted.
    """
    sg, t0, L = a.s, a.t0, a.lam3
    chi0, chinf = p.chi0, p.chi_inf
    c = chinf + sg * chi0 - 1
    A = sg * (chi0**2 - 1) / (2 * t0) - 3 * t0 * L
    mu_c = [mu_at_root(a, p), -c / (2 * t0)]
    # lam1 in powers of the normalized deviation (t - t0)/t0, then rescaled
    q = [
        L,
        -chinf / (4 * t0),
        sg * (1 - (sg * chi0 * (chi0 - sg) / t0 - 3 * t0 * L) * A) / 10 + c * sg * chi0 / (10 * t0),
        -c * ((chi0 - sg) ** 2 / (4 * t0) + (chi0**2 - 1) / (3 * t0) - 2 * sg * t0 * L) / 6
        + (chi0 - sg) * (A**2 - 1) / 36,
        c * (chi0 - sg) * A / 28 - c**2 * sg / 28,
        c**2 * (chi0 - sg) / 80,
    ]
    lam_c = [q[k] / t0**k for k in range(6)]
    return DtSeries(a, lam_c, 0), DtSeries(a, mu_c, 0)


# The kernels take the series at the shifted argument tau = t0 + sigma*dt.
# A series sum_k c_k dt^k there is sum_k c_k eta^k with eta = sigma*dt, so the
# coefficient lists go in unchanged, as _poly.LazySeries eta-series, and each
# kernel is one formula that also evaluates pointwise on numbers.  The
# grouping of each formula fixes the order of its floating-point operations.


def _kernel_mu(eta, lam, mu, a: RootAnchor, p: EquationParams):
    """mu-update kernel."""
    sg, chi0 = a.s, p.chi0
    k0 = (chi0 - sg) / (2 * a.t0)
    return mu * (sg * chi0 + 2 * eta * (1 - mu) * (sg - eta * k0 + eta**2 * lam))


def _kernel_lambda(eta, lam, mu, a: RootAnchor, p: EquationParams):
    """lam-update kernel."""
    sg, t0, chi0 = a.s, a.t0, p.chi0
    k0 = (chi0 - sg) / (2 * t0)
    return (
        sg * (chi0**2 - 1) / (2 * t0) - 1 + 2 * mu
        - sg * eta * ((chi0 - 2 * sg) * lam + (chi0 - sg) / t0 * (2 * mu - 1))
        + eta**2 * (2 * mu - 1) * (2 * sg * lam + (k0 - eta * lam) ** 2)
    )


def _kernel_xi(eta, lam, mu, a: RootAnchor, p: EquationParams):
    """Kernel of the root-ratio function xi.

    ``run_scheme``'s steps do not use it; it is the definition the tests
    hold the bounds' xi increments, and their refined lam step (the oracle
    for ``init_pair``), to."""
    sg, t0, chi0 = a.s, a.t0, p.chi0
    k0 = (chi0 - sg) / (2 * t0)
    return (
        sg * 3 * (chi0 - sg) - 8 * sg * chi0 * mu - 3 * sg * (chi0 - 2 * sg) * t0 * lam
        + 3 * t0 * (eta * (2 * mu - 1) * (2 * sg * lam + (k0 - eta * lam) ** 2))
        + 4 * eta * (mu - 1) * mu * (sg - eta * k0 + eta**2 * lam)
    )


def _mu_update(eta, lam, mu, a: RootAnchor, p: EquationParams):
    """The mu update as an eta-series in the input series lam and mu."""
    om = _kernel_mu(eta, lam, mu, a, p).sigma_avg()
    return mu_at_root(a, p) + 1 / a.t0 * eta * (-(p.chi_inf + a.s * p.chi0 - 1) / 2 - mu + om)


def _lambda_update(eta, lam, mu, a: RootAnchor, p: EquationParams):
    """The lam update as an eta-series in the input series lam and mu."""
    om = _kernel_lambda(eta, lam, mu, a, p).sigma_avg(2)
    return -1 / a.t0 * eta * lam + 1 / a.t0 * om


def _leaves(lam: list, mu: list):
    """eta and lazy leaves reading the coefficient lists lam and mu."""
    return _poly.LazySeries.poly([0, 1]), _poly.LazySeries.leaf(lam), _poly.LazySeries.leaf(mu)


def step_mu(lam_in: DtSeries, mu_in: DtSeries, a: RootAnchor, p: EquationParams) -> DtSeries:
    """One mu update; output validity min(order(mu_in)+1, order(lam_in)+4)."""
    _require_same_anchor(lam_in, mu_in)
    v = min(mu_in.valid_order + 1, lam_in.valid_order + 4)
    out = _mu_update(*_leaves(lam_in.trusted(), mu_in.trusted()), a, p)
    return DtSeries(a, [out[k] for k in range(v + 1)], v)


def step_lambda(lam_in: DtSeries, mu_in: DtSeries, a: RootAnchor, p: EquationParams) -> DtSeries:
    """One lam update; output validity min(order(lam_in)+1, order(mu_in))."""
    _require_same_anchor(lam_in, mu_in)
    v = min(lam_in.valid_order + 1, mu_in.valid_order)
    out = _lambda_update(*_leaves(lam_in.trusted(), mu_in.trusted()), a, p)
    return DtSeries(a, [out[k] for k in range(v + 1)], v)


def run_scheme(a: RootAnchor, p: EquationParams, target_order: int) -> tuple[DtSeries, DtSeries]:
    """Both series valid to ``target_order``, evaluated online: the two
    updates are built once, on leaves reading the growing coefficient lists,
    and for k = 1, 2, ... coefficient k of the mu update is appended to mu,
    then coefficient k of the lam update to lam.  Each coefficient is formed
    once, from coefficients that are already final, so order N costs
    O(N^2).  Deterministic, and a lower order's result is a prefix of a
    higher one's, bit for bit.
    """
    if target_order < 0:
        raise ValueError("target_order must be >= 0")
    lam1, mu1 = init_pair(a, p)
    lam, mu = [lam1.coeffs[0]], [mu1.coeffs[0]]
    leaves = _leaves(lam, mu)
    mu_next, lam_next = _mu_update(*leaves, a, p), _lambda_update(*leaves, a, p)
    for k in range(1, target_order + 1):
        mu.append(mu_next[k])  # uses mu[..k-1] and lam[..k-4]
        lam.append(lam_next[k])  # uses mu[..k] and lam[..k-1]
    return DtSeries(a, lam, target_order), DtSeries(a, mu, target_order)


def taylor_at_root(a: RootAnchor, p: EquationParams, target_order: int) -> DtSeries:
    """Cubic-factor series valid to ``target_order`` from the Painleve-test
    recurrence; the same series as ``run_scheme(a, p, target_order)[0]`` up
    to rounding, of which it accumulates far less.

    Multiplying the equation by t^2*lam gives the polynomial form

        t^2 (lam lam'' - lam'^2) + t lam lam' + chi_inf lam^3 - lam^4 - chi0 t lam + t^2 = 0.

    With lam = sum_k c_k dt^k and t = t0 + dt, its dt^m coefficient is linear
    in c_{m+1} with factor t0^2*sgn*(m+1)(m-2).  The factor vanishes at m = 2,
    which is why lam3 = c_3 is free; for m >= 3 each c_{m+1} follows from the
    lower ones.  The products lam^2, lam lam'' - lam'^2 and lam lam' are
    cached once their coefficients are final, so order N costs O(N^2)
    operations, as ``run_scheme`` does, with fewer products per order.  Only field arithmetic is used, so exact ``Fraction`` anchors
    and parameters give the exact series, equal to ``run_scheme``'s.
    """
    if target_order < 0:
        raise ValueError("target_order must be >= 0")
    sg, t0, chi0, chi_inf = a.s, a.t0, p.chi0, p.chi_inf
    lam = [0, sg, (sg - chi0) / (2 * t0), a.lam3]
    d1 = [k * lam[k] for k in range(1, 4)]  # lam'
    d2 = [k * (k - 1) * lam[k] for k in range(2, 4)]  # lam''
    sq, pp, qq = [], [], []  # lam^2, lam lam'' - lam'^2, lam lam'
    for m in range(target_order + 3):
        # from m = 3 on, c_{m+1} is not appended yet: pp[m] lacks exactly
        # its term factor*c_{m+1}, and every other product is final
        sq.append(_poly.pcoef(lam, lam, m))
        pp.append(_poly.pcoef(lam, d2, m) - _poly.pcoef(d1, d1, m))
        qq.append(_poly.pcoef(lam, d1, m))
        if m < 3:
            continue
        f = t0 * t0 * pp[m] + 2 * t0 * pp[m - 1] + pp[m - 2] + t0 * qq[m] + qq[m - 1]
        f += chi_inf * _poly.pcoef(sq, lam, m) - _poly.pcoef(sq, sq, m)  # lam^3, lam^4
        f -= chi0 * (t0 * lam[m] + lam[m - 1])
        factor = sg * (m + 1) * (m - 2)
        c = -f / (t0 * t0 * factor)
        pp[m] += factor * c
        lam.append(c)
        d1.append((m + 1) * c)
        d2.append((m + 1) * m * c)
    return DtSeries(a, lam[3:], target_order)


def assemble_lambda(a: RootAnchor, lam3: DtSeries, p: EquationParams) -> DtSeries:
    """Full root expansion: dt*sgn + dt^2*(sgn-chi0)/(2 t0) + dt^3 * lam3,
    in the scalar type of the anchor and parameters (exact on ``Fraction``s)."""
    if lam3.anchor != a:
        raise AnchorMismatchError("cubic-factor series anchored elsewhere")
    c = [0, a.s, (a.s - p.chi0) / (2 * a.t0)] + lam3.trusted()
    return DtSeries(a, c, lam3.valid_order + 3)


def lam6_reference(a: RootAnchor, p: EquationParams) -> DtSeries:
    """Closed-form degree-5 cubic-factor polynomial; the independent oracle
    for ``run_scheme`` (hand-transcribed, not produced by the iteration)."""
    sg, t0, L = a.s, a.t0, a.lam3
    chi0, chinf = p.chi0, p.chi_inf
    c0 = L
    c1 = -(chinf + (sg * chi0 + 2) * t0 * L) / (4 * t0**2)
    c2 = sg * (2 + 3 * chinf * (chi0 + sg) / t0 + (5 * chi0 + 7 * sg) * L + 6 * t0**2 * L**2) / (
        20 * t0**2
    )
    c3 = -(
        chinf * ((chi0 + sg) * (9 * chi0 + 46 * sg) / t0 + 90 * sg * t0 * L)
        + 2 * (18 * chi0 + 7 * sg)
        + 9 * sg * (9 * chi0 + 11 * sg) * L
        + 18 * (chi0 + 9 * sg) * t0**2 * L**2
    ) / (360 * t0**3)
    c4 = (
        90 * sg * t0 * chinf**2
        + chinf * ((chi0 + sg) * (91 * chi0 + 284 * sg) + 18 * (18 * chi0 + 53 * sg) * t0**2 * L)
        + 2 * (97 * chi0 + sg * (45 * chi0**2 + 53)) * t0
        + 36 * (11 * t0**2 + 14 * sg * chi0 + 16) * t0 * L
        + 18 * (14 * chi0 + 73 * sg) * t0**3 * L**2
        + 108 * t0**5 * L**3
    ) / (2520 * t0**5)
    c5 = -(
        18 * (33 * chi0 + 65 * sg) * t0 * chinf**2
        + chinf
        * (
            (chi0 + sg) * (830 * chi0 + 2047 * sg)
            + 756 * t0**2
            + 36 * sg * (9 * chi0**2 + 140 * sg * chi0 + 257) * t0**2 * L
            + 2268 * t0**4 * L**2
        )
        + 2 * (45 * chi0**3 + 423 * sg * chi0**2 + 761 * chi0 + 388 * sg) * t0
        + 36 * (100 * sg * chi0 + 110 + 27 * (3 * sg * chi0 + 4) * t0**2) * t0 * L
        + 18 * (157 * chi0 + 620 * sg) * t0**3 * L**2
        + 108 * (sg * chi0 + 20) * t0**5 * L**3
    ) / (20160 * t0**6)
    return DtSeries(a, [c0, c1, c2, c3, c4, c5], 5)


# ---------------------------------------------------------------------------
# residual order measurement


def _residual_terms(lam_coeffs, t0: float, p: EquationParams, work_order: int) -> list:
    """Power-series coefficient lists of the terms of lam'' - RHS for a
    polynomial lam with a simple root (c0 = 0, c1 = +-1) at t0.

    The two 1/lam terms are combined into (lam'^2 - 1)/lam before dividing,
    so the series is regular; the constant of lam'^2 - 1 is exactly zero in
    floating point because c1 is exactly +-1.
    """
    W = work_order
    lam = _poly.ptrim(lam_coeffs, W + 2)
    if lam[0] != 0.0 or abs(lam[1]) != 1.0:
        raise DomainError("residual series needs a simple-root expansion (c0=0, |c1|=1)")
    lam_d = _poly.ptrim(_poly.pder(lam), W + 1)
    lam_dd = _poly.ptrim(_poly.pder(lam_d), W)
    inv_t = _poly.pinv_t(t0, W)
    u = _poly.ptrim(lam[1:], W)  # lam = dt * u, u(0) = +-1
    inv_u = _poly.precip(u, W)
    q = _poly.padd(_poly.pmul(lam_d, lam_d, cap=W + 1), [-1.0])  # lam'^2 - 1, q[0] == 0
    inv_t2 = _poly.pmul(inv_t, inv_t, cap=W)
    lam2 = _poly.pmul(lam, lam, cap=W)
    lam_cubed = _poly.pmul(lam2, lam, cap=W)
    return [
        lam_dd,
        _poly.pscale(_poly.pmul(q[1:], inv_u, cap=W), -1.0),  # -(lam'^2 - 1)/lam
        _poly.pmul(lam_d, inv_t, cap=W),
        _poly.pscale(_poly.pmul(lam2, inv_t2, cap=W), p.chi_inf),
        _poly.pscale(_poly.pmul(lam_cubed, inv_t2, cap=W), -1.0),
        _poly.pscale(inv_t, -p.chi0),
    ]


_DUST_RTOL = 1e-8


def _residual_slope(terms, work_order: int, dt_grid, power_offset: int) -> float:
    """Least-squares slope of log|r| against log|dt| over ``dt_grid``, where
    r = dt**power_offset * sum(terms) and each term is a coefficient list.

    The terms are summed to ``work_order`` together with a per-order
    magnitude scale (sum of term magnitudes).  Leading orders that vanish
    identically in exact arithmetic show up as rounding dust; a coefficient
    counts as genuine only above ``_DUST_RTOL`` times that scale, and
    evaluation starts from the first genuine order so the slope is
    measurable at small dt.
    """
    grid = [float(x) for x in dt_grid]
    if len(grid) < 4 or any(x == 0 for x in grid):
        raise DomainError("degenerate grid: need >= 4 nonzero dt values")
    mags = sorted(abs(x) for x in grid)
    if mags[-1] / mags[0] < 99.0:
        raise DomainError("degenerate grid: must span at least two decades")
    r = [0.0] * (work_order + 1)
    scale = [0.0] * (work_order + 1)
    for t in terms:
        for k, c in enumerate(_poly.ptrim(t, work_order)):
            r[k] += c
            scale[k] += abs(c)
    m = next((k for k, (rk, sk) in enumerate(zip(r, scale)) if abs(rk) > _DUST_RTOL * max(1.0, sk)), None)
    if m is None:
        raise DomainError("residual vanishes to working precision on this series")
    tail = r[m:]
    xs, ys = [], []
    for dt in grid:
        val = _poly.peval(tail, dt) * dt ** (m + power_offset)
        if val != 0.0:
            xs.append(math.log(abs(dt)))
            ys.append(math.log(abs(val)))
    n = len(xs)
    xbar, ybar = sum(xs) / n, sum(ys) / n
    num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    den = sum((x - xbar) ** 2 for x in xs)
    return num / den


def residual_order(lam_series: DtSeries, p: EquationParams, dt_grid) -> float:
    """Log-log slope of the equation residual of an assembled root expansion.

    The residual lam'' - RHS is expanded as a power series (derivatives by
    exact series differentiation, the 1/lam terms by truncated reciprocal)
    and its slope fitted on the genuine tail by ``_residual_slope``.  The
    grid needs at least four nonzero dt values spanning two decades.
    """
    W = max(48, 3 * (lam_series.valid_order + 2))
    terms = _residual_terms(lam_series.trusted(), lam_series.anchor.t0, p, W)
    return _residual_slope(terms, W, dt_grid, 0)

"""Laurent expansions at simple poles via the lam -> t/lam symmetry.

P-III' is invariant under replacing lam(t) by t/lam(t) while swapping chi0
and chi_inf.  A root expansion of the swapped equation therefore maps to a
simple-pole expansion of the original one with residue sgn*t0; the free
parameter of a pole family is kept as the swapped-problem cubic coefficient
lam3, with the regular part's slope d1 derived from it.

``root_to_pole`` builds that swapped root series with the O(N^2)
Painleve-test recurrence ``series.taylor_at_root``, which forms fewer
products per order than the integral-transform ``run_scheme`` (about half
its time at order 80) and loses less to rounding; the hand-transcribed
``pole_b5_reference`` stays the independent oracle.
The map back, to the swapped root expansion of g = t/lam, gives roots and
poles one residual series and one fitter, since lam'' - F(lam) =
-(t/g^2) (g'' - F_swapped(g)) exactly; ``_t_over`` forms both directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _poly
from .equation import DomainError, EquationParams, RootAnchor
from .series import DtSeries, _residual_slope, _residual_terms, assemble_lambda, taylor_at_root


@dataclass(frozen=True)
class LaurentExpansion:
    """Simple-pole local model: residue/dt + sum_k d_k dt^k at t0 != 0."""

    t0: float
    residue: float
    regular_coeffs: tuple
    valid_order: int

    def __post_init__(self):
        object.__setattr__(self, "regular_coeffs", tuple(float(c) for c in self.regular_coeffs))
        if self.t0 == 0:
            raise ValueError("pole location t0 must be nonzero")
        if len(self.regular_coeffs) < self.valid_order + 1:
            raise ValueError("regular_coeffs must reach valid_order")

    def trusted(self) -> list:
        return list(self.regular_coeffs[: self.valid_order + 1])

    def eval(self, dt: float) -> float:
        if dt == 0:
            raise DomainError("dt = 0 is the pole itself")
        return self.residue / dt + _poly.peval(self.trusted(), dt)

    def eval_derivative(self, dt: float, order: int = 1) -> float:
        if dt == 0:
            raise DomainError("dt = 0 is the pole itself")
        c = self.trusted()
        for _ in range(order):
            c = _poly.pder(c)
        sign = -1 if order % 2 else 1
        return sign * math.factorial(order) * self.residue / dt ** (order + 1) + _poly.peval(c, dt)


def _t_over(t0, v, n: int) -> list:
    """First n+1 coefficients of (t0 + dt)/v for a coefficient list v with
    v(0) != 0.  v is divided by v(0) before the truncated reciprocal is
    taken, so a quotient whose constant t0/v(0) is +-1 comes out exactly +-1."""
    v0 = v[0]
    inv = _poly.precip([c / v0 for c in v], n)
    return [t0 * inv[0] / v0] + [(t0 * inv[k] + inv[k - 1]) / v0 for k in range(1, n + 1)]


def series_reciprocal_times_t(lam_root: DtSeries) -> LaurentExpansion:
    """Exact truncated (t0 + dt)/lam_root for a simple-root series.

    Writes lam_root = dt*u with u(0) = +-1 and forms (t0 + dt)/u as a
    truncated series; the simple-root validity V yields regular part
    validity V - 2.
    """
    c = lam_root.trusted()
    if len(c) < 2 or c[0] != 0.0 or abs(c[1]) != 1.0:
        raise DomainError("not a simple-root series: need c0 = 0 and |c1| = 1")
    if lam_root.valid_order < 2:
        raise DomainError("need validity >= 2 to form the regular part")
    t0, n = lam_root.anchor.t0, lam_root.valid_order - 1
    e = _t_over(t0, c[1:], n)
    return LaurentExpansion(t0, e[0], e[1:], n - 1)


def root_to_pole(a: RootAnchor, p: EquationParams, order: int) -> LaurentExpansion:
    """Pole expansion of the (chi0, chi_inf) equation from the swapped-parameter
    root expansion anchored at ``a`` (a.lam3 is the swapped-problem value)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    lam3 = taylor_at_root(a, p.swapped(), max(order - 1, 0))
    lam_root = assemble_lambda(a, lam3, p.swapped())
    le = series_reciprocal_times_t(lam_root)
    return LaurentExpansion(le.t0, le.residue, _poly.ptrim(le.trusted(), order), min(le.valid_order, order))


def pole_b5_reference(a: RootAnchor, p: EquationParams) -> LaurentExpansion:
    """Hand-transcribed closed-form pole expansion through dt^4 (the
    independent oracle for ``root_to_pole``); a.lam3 is the swapped-problem
    cubic coefficient."""
    sg, t0, L = a.s, a.t0, a.lam3
    chi0, chinf = p.chi0, p.chi_inf
    d0 = (sg + chinf) / 2
    d1 = -(sg * (1 - chinf**2) / (4 * t0) + t0 * L)
    d2 = ((sg - chinf) * (1 - chinf**2) / (2 * t0) + chi0 + (2 - 3 * sg * chinf) * t0 * L) / (4 * t0)
    d3 = -(
        sg
        + (3 - 2 * sg * chinf) / (2 * t0) * chi0
        + 5 * (sg * (1 + chinf**2) - 2 * chinf) * (1 - chinf**2) / (8 * t0**2)
        + (1 - 5 * (3 * sg - 2 * chinf) * chinf / 2) * L
        - 7 * sg * t0**2 * L**2
    ) / (10 * t0)
    d4 = (
        7 * sg / 9
        + 5 * (1 - chinf**2) * (sg * (1 + 3 * chinf**2) - (3 + chinf**2) * chinf) / (8 * t0**2)
        + (47 + 45 * chinf**2 - 88 * sg * chinf) * chi0 / (36 * t0)
        - ((2 - 15 * chinf**2) + 5 * sg * (7 + 5 * chinf**2) * chinf / 4 + 5 * sg * t0 * chi0) * L
        - 3 * (7 * sg - 5 * chinf) * t0**2 * L**2
    ) / (20 * t0**2)
    return LaurentExpansion(t0, sg * t0, (d0, d1, d2, d3, d4), 4)


# ---------------------------------------------------------------------------
# residual order at a pole


def pole_residual_order(le: LaurentExpansion, p: EquationParams, dt_grid) -> float:
    """Log-log slope of the equation residual of a truncated pole expansion.

    For lam = f/dt, g = t/lam = dt*u with u = (t0 + dt)/f has a simple root
    at t0 in the swapped equation: each term of its ``_residual_terms`` times
    -(t0 + dt)/u^2 is a term of lam'' - F(lam) times dt^2, fitted by
    ``_residual_slope`` as in ``residual_order``.  The residue must be
    exactly +-t0, as at every P-III' pole, so that u(0) is exactly +-1."""
    if abs(le.residue) != abs(le.t0):
        raise DomainError("pole residual needs residue +-t0, as every P-III' pole has")
    W = max(43, 3 * le.valid_order + 12)
    u = _t_over(le.t0, [le.residue] + le.trusted(), W + 1)
    factor = _poly.pscale(_t_over(le.t0, _poly.pmul(u, u, cap=W), W), -1.0)  # -(t0 + dt)/u^2
    terms = _residual_terms([0.0] + u, le.t0, p.swapped(), W)
    return _residual_slope([_poly.pmul(factor, term, cap=W) for term in terms], W, dt_grid, -2)

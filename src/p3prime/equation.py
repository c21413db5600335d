"""Equation forms of P-III' and the P-III <-> P-III' parameter conversion.

P-III' is the second-order ODE

    lam'' = lam'^2/lam - lam'/t - chi_inf*lam^2/t^2 + lam^3/t^2 + chi0/t - 1/lam

for a scalar function lam(t) with two real parameters (chi0, chi_inf).  The
same dynamics also arises from a pair of Hamiltonians distinguished by a
binary sign switch; the conjugate momentum mu is regular at a root of lam
exactly when the switch matches the slope there.  This module holds the
pointwise forms: the scalar right-hand side, the frozen third-derivative
formula, the Hamiltonian and its vector field, and the momentum elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class DomainError(ValueError):
    """An input lies outside an operation's mathematical domain."""


class InvalidParametersError(ValueError):
    """Parameter values violate a precondition (e.g. wrong sign regime)."""


@dataclass(frozen=True)
class EquationParams:
    """The constant pair (chi0, chi_inf) fixing one instance of P-III'."""

    chi0: float
    chi_inf: float

    def __post_init__(self):
        if not (math.isfinite(self.chi0) and math.isfinite(self.chi_inf)):
            raise InvalidParametersError("chi0 and chi_inf must be finite")

    def swapped(self) -> "EquationParams":
        """Parameters of the image equation under lam -> t/lam."""
        return EquationParams(self.chi_inf, self.chi0)


@dataclass(frozen=True)
class SignSwitch:
    """The binary switch selecting one of the two Hamiltonians; sgn**2 = 1."""

    sgn: int

    def __post_init__(self):
        if self.sgn not in (-1, 1):
            raise InvalidParametersError(f"sgn must be -1 or +1, got {self.sgn!r}")


@dataclass(frozen=True)
class RootAnchor:
    """A prescribed root: location t0 != 0, slope switch, and the free
    cubic coefficient lam3 = lam'''(t0)/6 identifying one solution."""

    t0: float
    sgn: SignSwitch
    lam3: float

    def __post_init__(self):
        if isinstance(self.sgn, int):
            object.__setattr__(self, "sgn", SignSwitch(self.sgn))
        if self.t0 == 0 or not math.isfinite(self.t0):
            raise InvalidParametersError("root location t0 must be nonzero and finite")
        if not math.isfinite(self.lam3):
            raise InvalidParametersError("cubic coefficient lam3 must be finite")

    @property
    def s(self) -> int:
        return self.sgn.sgn


@dataclass(frozen=True)
class P3FormParams:
    """The four constants (alpha, beta, gamma, delta) of the classical
    four-parameter form of the third Painleve equation."""

    alpha: float
    beta: float
    gamma: float
    delta: float


@dataclass(frozen=True)
class PhasePoint:
    """A point (t, lambda, mu) of the Hamiltonian phase space."""

    t: float
    lam: float
    mu: float


@dataclass(frozen=True)
class VariableMap:
    """Rescaling linking P-III' variables (t, lam) to four-parameter-form
    variables (t_bar, lam_bar):

        lam_bar(t_bar) = function_scale * t**(-1/2) * lam(t)
        t_bar          = variable_scale * t**(1/2)

    Inverting: t = (t_bar/variable_scale)**2 and
    lam(t) = lam_bar * t**(1/2) / function_scale.
    """

    function_scale: float
    variable_scale: float


def rhs_scalar(t: float, lam: float, lam_dot: float, p: EquationParams) -> float:
    """Right-hand side of P-III', i.e. lam'' as a function of (t, lam, lam')."""
    if t == 0:
        raise DomainError("t = 0 is outside the equation domain")
    if lam == 0:
        raise DomainError("lambda = 0 makes the right-hand side indeterminate")
    return (
        lam_dot**2 / lam
        - lam_dot / t
        - p.chi_inf * lam**2 / t**2
        + lam**3 / t**2
        + p.chi0 / t
        - 1 / lam
    )


def third_derivative(t: float, lam: float, lam_dot: float, p: EquationParams) -> float:
    """lam''' along a solution, as a rational function of (t, lam, lam').

    Obtained once by differentiating the equation in t and substituting
    lam'' back from it; frozen here as explicit partial derivatives.
    """
    if t == 0:
        raise DomainError("t = 0 is outside the equation domain")
    if lam == 0:
        raise DomainError("lambda = 0 makes the third derivative indeterminate")
    f = rhs_scalar(t, lam, lam_dot, p)
    df_dt = lam_dot / t**2 + 2 * p.chi_inf * lam**2 / t**3 - 2 * lam**3 / t**3 - p.chi0 / t**2
    df_dlam = -(lam_dot**2) / lam**2 - 2 * p.chi_inf * lam / t**2 + 3 * lam**2 / t**2 + 1 / lam**2
    df_dlamdot = 2 * lam_dot / lam - 1 / t
    return df_dt + df_dlam * lam_dot + df_dlamdot * f


def hamiltonian(pt: PhasePoint, p: EquationParams, s: SignSwitch) -> float:
    """Value of the (sign-switched) Hamiltonian at a phase point."""
    if pt.t == 0:
        raise DomainError("t = 0 is outside the Hamiltonian domain")
    sg = s.sgn
    lam, mu, t = pt.lam, pt.mu, pt.t
    return (
        lam**2 * mu**2
        - (lam**2 - lam + sg * (p.chi0 * lam - t)) * mu
        + 0.5 * (p.chi_inf + sg * p.chi0 - 1) * lam
    ) / t


def hamilton_field(p: EquationParams, s: SignSwitch):
    """The Hamilton equations (lam', mu') = (dH/dmu, -dH/dlam) in explicit
    form, as a first-order right-hand side f(t, [lam, mu]) for the
    integrators, with the constants of (p, s) formed once; t != 0 is the
    caller's to ensure.  Squares are products, not ``**``, so a trial
    stage that overflows gives inf, which the step controller rejects,
    instead of raising OverflowError."""
    sg = s.sgn
    a = sg * p.chi0 - 1
    c = -0.5 * (p.chi_inf + sg * p.chi0 - 1)

    def field(t, y):
        lam, mu = y
        return (
            (sg * t - a * lam + (2 * mu - 1) * (lam * lam)) / t,
            (c + (a + 2 * lam) * mu - 2 * lam * (mu * mu)) / t,
        )

    return field


def mu_from_lambda(t: float, lam: float, lam_dot: float, s: SignSwitch, p: EquationParams) -> float:
    """Conjugate momentum eliminated from the first Hamilton equation.

    Near a root the result stays bounded only for the slope-matching switch
    s = sign(lam'(t0)); the opposite choice produces a double pole.
    """
    if lam == 0:
        raise DomainError("lambda = 0 makes the momentum formula indeterminate")
    sg = s.sgn
    return ((sg * p.chi0 - 1) * lam + lam**2 + (lam_dot - sg) * t) / (2 * lam**2)


def convert_p3_to_p3prime(q: P3FormParams) -> tuple[EquationParams, VariableMap]:
    """Map four-parameter-form constants to (chi0, chi_inf) plus the variable
    rescaling, real branch only.

    Requires delta < 0 and gamma*delta < 0 so that the quarter powers are
    real; other regimes need a branch convention this library does not take.
    """
    if q.gamma == 0 or q.delta == 0:
        raise InvalidParametersError("gamma and delta must be nonzero for the conversion")
    if q.delta >= 0 or q.gamma * q.delta >= 0:
        raise InvalidParametersError(
            "real-valued conversion requires delta < 0 and gamma*delta < 0"
        )
    mgd = -q.gamma * q.delta  # > 0
    md = -q.delta  # > 0
    chi_inf = q.alpha / (2 * md ** -0.5 * mgd**0.5)
    chi0 = -q.beta / (2 * md**0.5)
    vmap = VariableMap(
        function_scale=mgd**-0.25 * md**0.5,
        variable_scale=2 * mgd**-0.25,
    )
    return EquationParams(chi0, chi_inf), vmap


def invert_p3prime_params(p: EquationParams, gamma: float, delta: float) -> P3FormParams:
    """Recover (alpha, beta) for given (gamma, delta) from (chi0, chi_inf)."""
    if delta >= 0 or gamma * delta >= 0:
        raise InvalidParametersError(
            "real-valued conversion requires delta < 0 and gamma*delta < 0"
        )
    md = -delta
    mgd = -gamma * delta
    alpha = 2 * md**-0.5 * mgd**0.5 * p.chi_inf
    beta = -2 * md**0.5 * p.chi0
    return P3FormParams(alpha, beta, gamma, delta)

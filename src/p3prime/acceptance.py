"""The acceptance suite: nine measurable criteria with pinned tolerances.

Each criterion is a function returning a CriterionResult; ``run_all`` runs
them in order.  The reference configuration is the worked example
(``worked_example``, whose constants this module re-exports): equation
constants (-0.811597, -0.0550042), Cauchy data (0.833651, 0.288298,
0.374531), integration span (0.01, 2), six roots, and the two anchored
expansions at the largest roots.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .bounds import algorithm_increments, convergence_bounds
from .equation import (
    EquationParams,
    P3FormParams,
    PhasePoint,
    RootAnchor,
    SignSwitch,
    convert_p3_to_p3prime,
    hamilton_field,
    hamiltonian,
    invert_p3prime_params,
    mu_from_lambda,
)
from .ode import compare_series, integrate, integrate_hamiltonian, root_slope, symmetry_check
from .poles import pole_b5_reference, pole_residual_order, root_to_pole
from .series import assemble_lambda, lam6_reference, mu_at_root, residual_order, run_scheme, series_eval
from .worked_example import DEFAULT_SEED, REF_CAUCHY, REF_LAM3, REF_PARAMS, REF_ROOTS, REF_SPAN


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name} ({self.seconds:.2f}s): {self.detail}"


def _draws(seed: int, n: int = 20):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        chi0, chinf = rng.uniform(-3, 3, 2)
        t0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3))
        lam3 = float(rng.uniform(-10, 10))
        sgn = 1 if i % 2 == 0 else -1
        out.append((RootAnchor(t0, SignSwitch(sgn), lam3), EquationParams(float(chi0), float(chinf))))
    return out


@lru_cache(maxsize=1)
def reference_solution():
    t_c, lam_c, lamdot_c = REF_CAUCHY
    return integrate(REF_PARAMS, t_c, lam_c, lamdot_c, REF_SPAN)


def _criterion(name: str, seconds: float):
    """Make a check returning ``(passed, detail)`` into a criterion: time it
    and build its CriterionResult, which passes only within ``seconds``."""

    def wrap(check):
        @wraps(check)
        def criterion(*args, **kwargs) -> CriterionResult:
            start = time.perf_counter()
            passed, detail = check(*args, **kwargs)
            dt = time.perf_counter() - start
            return CriterionResult(name, passed and dt < seconds, detail, dt)

        return criterion

    return wrap


def _scaled_error(got, ref) -> float:
    """Largest |g - r| / max(|r|, 1) over paired values."""
    return max((abs(g - r) / max(abs(r), 1.0) for g, r in zip(got, ref)), default=0.0)


@_criterion("1 closed-form oracle equivalence", 1.0)
def criterion_1(seed: int = DEFAULT_SEED):
    """Closed-form oracle: run_scheme(5) coefficients vs the transcribed
    degree-5 reference, 20 seeded draws, relative error <= 1e-12."""
    pairs = ((run_scheme(a, p, 5)[0], lam6_reference(a, p)) for a, p in _draws(seed))
    worst = max(_scaled_error(g.trusted(), r.trusted()) for g, r in pairs)
    return worst <= 1e-12, f"worst coefficient error {worst:.2e} (tol 1e-12)"


@_criterion("2 residual order at a root", 1.0)
def criterion_2():
    """Residual order at a root: slope >= 6.5 at full validity, and k+2
    within 0.3 for truncations k = 0..4, over dt/t0 in [1e-3, 1e-1]."""
    a = RootAnchor(REF_ROOTS[4], SignSwitch(1), REF_LAM3[0])
    lam3, _ = run_scheme(a, REF_PARAMS, 5)
    grid = [a.t0 * x for x in np.logspace(-3, -1, 25)]
    slopes = []
    ok = True
    for k in range(6):
        lam = assemble_lambda(a, lam3.truncated(k), REF_PARAMS)
        s = residual_order(lam, REF_PARAMS, grid)
        slopes.append(s)
        if k == 5:
            ok &= s >= 6.5
        else:
            ok &= abs(s - (k + 2)) <= 0.3
    return ok, "slopes " + ", ".join(f"{s:.2f}" for s in slopes)


@_criterion("3 worked-example reproduction", 10.0)
def criterion_3():
    """Worked-example reproduction: six roots to 1e-3, unit slopes to 1e-3,
    cubic coefficients at the two largest roots within 1%."""
    sol = reference_solution()
    roots = sol.crossings
    if len(roots) != len(REF_ROOTS):
        return False, f"expected {len(REF_ROOTS)} roots, found {len(roots)}"
    root_err = max(abs(r.t0 - ref) for r, ref in zip(roots, REF_ROOTS))
    slope_err = max(abs(abs(root_slope(sol, r.t0)) - 1.0) for r in roots)
    l1, l2 = roots[4].lam3, roots[5].lam3
    lam3_err = max(abs(l1 - REF_LAM3[0]) / abs(REF_LAM3[0]), abs(l2 - REF_LAM3[1]) / abs(REF_LAM3[1]))
    ok = root_err <= 1e-3 and slope_err <= 1e-3 and lam3_err <= 0.01
    return ok, (
        f"root err {root_err:.2e}, slope err {slope_err:.2e}, lam3 rel err {lam3_err:.2e}"
    )


@_criterion("4 series/solution overlap", 5.0)
def criterion_4():
    """Series/solution overlap: deviation <= 1e-2 on [0.511115, 0.85] for
    the rising-slope series and on [0.7, 1.38175] for the falling one."""
    sol = reference_solution()
    a1 = RootAnchor(REF_ROOTS[4], SignSwitch(1), REF_LAM3[0])
    a2 = RootAnchor(REF_ROOTS[5], SignSwitch(-1), REF_LAM3[1])
    dev1 = compare_series(
        sol, assemble_lambda(a1, run_scheme(a1, REF_PARAMS, 5)[0], REF_PARAMS), (a1.t0, 0.85)
    )
    dev2 = compare_series(
        sol, assemble_lambda(a2, run_scheme(a2, REF_PARAMS, 5)[0], REF_PARAMS), (0.7, a2.t0)
    )
    return max(dev1, dev2) <= 1e-2, f"deviations {dev1:.2e}, {dev2:.2e} (tol 1e-2)"


@_criterion("5 increment decay certificate", 5.0)
def criterion_5():
    """Geometric decay of the increments under the alpha=0.5 certificate for
    n <= 15, and partial sums matching run_scheme to 1e-10 at n = 40."""
    a = RootAnchor(REF_ROOTS[4], SignSwitch(1), REF_LAM3[0])
    bs = convergence_bounds(a, REF_PARAMS, 0.5)
    h = bs.alpha_tilde * abs(a.t0)
    samples = [a.t0 + f * h for f in (-0.9, -0.45, 0.1, 0.5, 0.9)]
    rep = algorithm_increments(a, REF_PARAMS, 40, samples, bounds=bs)
    ok_major = rep.within_majorant(15)
    lam3, mu = run_scheme(a, REF_PARAMS, 40)
    lam_ref = np.array([series_eval(lam3, t - a.t0) for t in samples])
    mu_ref = np.array([series_eval(mu, t - a.t0) for t in samples])
    err = max(np.max(np.abs(rep.lam_total - lam_ref)), np.max(np.abs(rep.mu_total - mu_ref)))
    return ok_major and err <= 1e-10, (
        f"majorant holds n<=15: {ok_major}, partial-sum err {err:.2e} (tol 1e-10)"
    )


@_criterion("6 momentum dichotomy", 2.0)
def criterion_6():
    """Momentum dichotomy at the rising root: bounded mu for the matching
    switch, finite nonzero limit of mu*dt^2 for the opposite one."""
    sol = reference_solution()
    a = sol.crossings[4]
    mu0 = mu_at_root(a, REF_PARAMS)
    dts = np.logspace(-4, -3, 9)
    mus_good, prod_bad = [], []
    for dt in dts:
        t = a.t0 + dt
        lam, lamdot = sol.state(t)
        mus_good.append(mu_from_lambda(t, lam, lamdot, a.sgn, REF_PARAMS))
        mu_bad = mu_from_lambda(t, lam, lamdot, SignSwitch(-a.s), REF_PARAMS)
        prod_bad.append(mu_bad * dt**2)
    bounded = max(abs(m) for m in mus_good) <= 10 * abs(mu0)
    variation = (max(prod_bad) - min(prod_bad)) / abs(np.mean(prod_bad))
    nonzero = abs(np.mean(prod_bad)) > 1e-6
    return bounded and variation <= 0.05 and nonzero, (
        f"max|mu|={max(abs(m) for m in mus_good):.3f} vs bound {10 * abs(mu0):.3f}, "
        f"mu*dt^2 variation {variation:.2%}"
    )


@_criterion("7 pole expansion", 2.0)
def criterion_7(seed: int = DEFAULT_SEED):
    """Pole expansions: reciprocal-map output vs the transcribed closed form
    to 1e-12 over 20 draws; residual slopes >= 2.5 (short) and >= 4.5
    (order 6)."""
    pairs = ((root_to_pole(a, p, 4), pole_b5_reference(a, p)) for a, p in _draws(seed))
    worst = max(_scaled_error([g.residue, *g.trusted()], [r.residue, *r.trusted()]) for g, r in pairs)
    a = RootAnchor(0.7, SignSwitch(1), 1.5)
    grid = [a.t0 * x for x in np.logspace(-3, -1, 25)]
    s4 = pole_residual_order(pole_b5_reference(a, REF_PARAMS), REF_PARAMS, grid)
    s6 = pole_residual_order(root_to_pole(a, REF_PARAMS, 6), REF_PARAMS, grid)
    ok = worst <= 1e-12 and s4 >= 2.5 and s6 >= 4.5
    return ok, f"worst coeff err {worst:.2e}, slopes {s4:.2f} / {s6:.2f}"


@_criterion("8 symmetry", 5.0)
def criterion_8(seed: int = DEFAULT_SEED):
    """Symmetry: swapped-parameter check <= 1e-6 on (0.6, 1.3); parameter
    conversion round-trip <= 1e-14."""
    sol = reference_solution()
    grid = np.linspace(0.62, 1.28, 23)
    dev = symmetry_check(sol, REF_PARAMS, grid)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        alpha, beta = rng.uniform(-4, 4, 2)
        gamma = float(rng.uniform(0.2, 3))
        delta = float(-rng.uniform(0.2, 3))
        q = P3FormParams(float(alpha), float(beta), gamma, delta)
        p, _ = convert_p3_to_p3prime(q)
        back = invert_p3prime_params(p, gamma, delta)
        worst = max(worst, abs(back.alpha - alpha), abs(back.beta - beta))
    return dev <= 1e-6 and worst <= 1e-14, (
        f"symmetry deviation {dev:.2e} (tol 1e-6), round-trip err {worst:.2e}"
    )


@_criterion("9 cross-formulation consistency", 5.0)
def criterion_9(seed: int = DEFAULT_SEED):
    """Cross-formulation consistency: Hamiltonian vs scalar integration to
    1e-6 between consecutive roots; the vector field the integrators step
    (``hamilton_field``) vs finite-difference gradients of the Hamiltonian
    to 1e-7 at 100 random points.

    The reference solution is not scalar over the whole window: it steps the
    stretch around each root in the (lam, mu) chart, so on the worked
    example [0.6, 0.7157] and [0.9865, 1.3] of [0.6, 1.3] are themselves
    Hamiltonian runs (sg = +1 and -1, entered from lam-chart data at
    |lam| = 0.3 t).  Only on [0.7157, 0.9865] are the two formulations
    independent."""
    sol = reference_solution()
    t_a, t_b = 0.6, 1.3
    sgn = SignSwitch(-1)  # slope at the upcoming root 1.38175
    lam_a, lamdot_a = sol.state(t_a)
    mu_a = mu_from_lambda(t_a, lam_a, lamdot_a, sgn, REF_PARAMS)
    ham = integrate_hamiltonian(REF_PARAMS, sgn, lam_a, mu_a, (t_a, t_b))
    dev = 0.0
    for t in np.linspace(t_a, t_b, 141):
        dev = max(dev, abs(float(ham.sol(t)[0]) - sol.lam(float(t))))
    rng = np.random.default_rng(seed)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        t = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3))
        lam = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2))
        mu = float(rng.uniform(-2, 2))
        p = EquationParams(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        s = SignSwitch(1 if rng.random() < 0.5 else -1)
        ld, md = hamilton_field(p, s)(t, [lam, mu])
        dd_mu = (
            hamiltonian(PhasePoint(t, lam, mu + h), p, s)
            - hamiltonian(PhasePoint(t, lam, mu - h), p, s)
        ) / (2 * h)
        dd_lam = (
            hamiltonian(PhasePoint(t, lam + h, mu), p, s)
            - hamiltonian(PhasePoint(t, lam - h, mu), p, s)
        ) / (2 * h)
        worst = max(
            worst,
            abs(ld - dd_mu) / max(1.0, abs(ld)),
            abs(md + dd_lam) / max(1.0, abs(md)),
        )
    return dev <= 1e-6 and worst <= 1e-7, (
        f"scalar/Hamiltonian deviation {dev:.2e} (tol 1e-6), gradient err {worst:.2e}"
    )


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    return [
        criterion_1(seed),
        criterion_2(),
        criterion_3(),
        criterion_4(),
        criterion_5(),
        criterion_6(),
        criterion_7(seed),
        criterion_8(seed),
        criterion_9(seed),
    ]

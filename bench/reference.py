"""Extended-precision cubic-factor coefficients, independent of p3prime.series.

Multiplying P-III' by t^2 * lam gives the polynomial form

    t^2 lam lam'' - t^2 lam'^2 + t lam lam' + chi_inf lam^3 - lam^4 - chi0 t lam + t^2 = 0.

With lam = sum_k a_k dt^k, t = t0 + dt and the root data a_0 = 0, a_1 = sgn,
a_2 = (sgn - chi0)/(2 t0), a_3 = lam3, the dt^m coefficient of the left-hand
side is linear in a_{m+1} with factor t0^2 * sgn * (m+1)(m-2).  The factor
vanishes at m = 2, which is why lam3 is free; for m >= 3 each a_{m+1} follows
from the lower ones (the Painleve-test recurrence).  The cubic-factor
coefficient k is a_{k+3}.  Product coefficients are cached once every a_k
they use is final, so a series of order N costs O(N^2) mpmath operations.
"""

from __future__ import annotations

import mpmath
from mpmath import mpf

DPS = 50


def cubic_factor_coeffs(t0, sgn, lam3, chi0, chi_inf, order, dps=DPS) -> list[float]:
    """Cubic-factor coefficients 0..order of the root expansion, computed at
    ``dps`` decimal digits and rounded to doubles."""
    if order < 0:
        raise ValueError("order must be >= 0")
    with mpmath.workdps(dps):
        t0, chi0, chi_inf = mpf(t0), mpf(chi0), mpf(chi_inf)
        a = [mpf(0), mpf(sgn), (sgn - chi0) / (2 * t0), mpf(lam3)]
        d1 = lambda i: (i + 1) * a[i + 1] if i + 1 < len(a) else 0  # lam'
        d2 = lambda i: (i + 2) * (i + 1) * a[i + 2] if i + 2 < len(a) else 0  # lam''
        sq = []  # lam^2, final once a_k is known
        final = []  # [lam lam'' - lam'^2, lam lam'] at dt^j, final once a_{j+1} is known

        def conv(f, g, j):
            return mpmath.fsum(f(i) * g(j - i) for i in range(j + 1))

        def at(i):
            return a[i]

        def pair(j):
            return (conv(at, d2, j) - conv(d1, d1, j), conv(at, d1, j))

        for m in range(3, order + 3):
            while len(sq) <= m:
                sq.append(conv(at, at, len(sq)))
            while len(final) < m:
                final.append(pair(len(final)))
            a.append(mpf(0))  # a_{m+1}: enters the dt^m coefficient only through the factor below
            p_m = pair(m)
            q = lambda j: p_m if j == m else final[j]
            f = t0 * t0 * q(m)[0] + 2 * t0 * q(m - 1)[0] + q(m - 2)[0]
            f += t0 * (q(m)[1] - chi0 * a[m]) + q(m - 1)[1] - chi0 * a[m - 1]
            f += chi_inf * mpmath.fsum(sq[i] * a[m - i] for i in range(m + 1))
            f -= mpmath.fsum(sq[i] * sq[m - i] for i in range(m + 1))
            a[m + 1] = -f / (t0 * t0 * a[1] * (m + 1) * (m - 2))
        return [float(x) for x in a[3 : order + 4]]


def coeff_error(got, ref) -> float:
    """Largest |got - ref| / max(1, |ref|) over paired coefficients (the
    scaling of acceptance criterion 1)."""
    return max(abs(g - r) / max(1.0, abs(r)) for g, r in zip(got, ref, strict=True))


def self_check(tol: float = 1e-13) -> float:
    """Compare the recurrence with the closed-form degree-5 ``lam6_reference``
    on the acceptance draws; raises if they disagree beyond ``tol``."""
    from p3prime.acceptance import DEFAULT_SEED, _draws
    from p3prime.series import lam6_reference

    worst = 0.0
    for a, p in _draws(DEFAULT_SEED, 6):
        got = cubic_factor_coeffs(a.t0, a.s, a.lam3, p.chi0, p.chi_inf, 5)
        worst = max(worst, coeff_error(got, lam6_reference(a, p).trusted()))
    if not worst <= tol:
        raise RuntimeError(f"reference recurrence disagrees with lam6_reference by {worst:.1e}")
    return worst

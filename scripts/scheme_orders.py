#!/usr/bin/env python3
"""Time the integral-transform scheme and the Painleve-test recurrence over
the validity order, and measure the scheme's rounding error.

Usage: scheme_orders.py [n_draws] [err_order]

At the worked-example root (criterion 5's anchor) it prints the best of
three wall times of ``run_scheme`` and ``taylor_at_root`` at orders 5 to 160,
and the growth exponent of each: the least-squares slope of log(ms) against
log(order) over orders 20 to 160.  Then, on the first n_draws (default 4) of
criterion 1's seeded draws, it prints each construction's worst coefficient
error at err_order (default 40) against the same recurrence run on exact
Fractions of the draw, scaled as |c_k - e_k| r^k / max(1, |e_k| r^k) at the
radii r = |t0| and r = 0.2|t0|.
"""

import math
import statistics
import sys
import time
from fractions import Fraction as F

from p3prime import EquationParams, RootAnchor, SignSwitch
from p3prime.acceptance import DEFAULT_SEED, REF_LAM3, REF_PARAMS, REF_ROOTS, _draws
from p3prime.series import run_scheme, taylor_at_root

ORDERS = (5, 20, 40, 80, 160)
RADII = (1.0, 0.2)  # fractions of |t0|
CONSTRUCTIONS = (("run_scheme", lambda a, p, n: run_scheme(a, p, n)[0]), ("taylor_at_root", taylor_at_root))


def best_ms(fn, repeats: int = 3) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def growth_exponent(ms: dict) -> float:
    xs = [math.log(n) for n in ms if n >= 20]
    ys = [math.log(ms[n]) for n in ms if n >= 20]
    xbar, ybar = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum((x - xbar) ** 2 for x in xs)


def scaled_error(got, exact, r: float) -> float:
    return max(float(abs(F(g) - e)) * r**k / max(1.0, float(abs(e)) * r**k) for k, (g, e) in enumerate(zip(got, exact)))


def main() -> int:
    n_draws = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    err_order = int(sys.argv[2]) if len(sys.argv) > 2 else 40
    a = RootAnchor(REF_ROOTS[4], SignSwitch(1), REF_LAM3[0])
    print(f"ms at the worked-example root t0 = {a.t0}")
    print(f"{'order':>16}" + "".join(f"{n:>9}" for n in ORDERS) + f"{'growth':>9}")
    for name, build in CONSTRUCTIONS:
        ms = {n: best_ms(lambda: build(a, REF_PARAMS, n)) for n in ORDERS}
        print(f"{name:>16}" + "".join(f"{ms[n]:9.3f}" for n in ORDERS) + f"{growth_exponent(ms):9.2f}")
    print(f"worst scaled error at order {err_order} against the exact recurrence")
    print(f"{'t0':>10}" + "".join(f"{f'{name} r={r}|t0|':>25}" for name, _ in CONSTRUCTIONS for r in RADII))
    for a, p in _draws(DEFAULT_SEED, n_draws):
        exact_anchor = RootAnchor(F(a.t0), a.sgn, F(a.lam3))
        exact = taylor_at_root(exact_anchor, EquationParams(F(p.chi0), F(p.chi_inf)), err_order).coeffs
        row = f"{a.t0:10.4f}"
        for _, build in CONSTRUCTIONS:
            got = build(a, p, err_order).coeffs
            row += "".join(f"{scaled_error(got, exact, r * abs(a.t0)):25.2e}" for r in RADII)
        print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Tabulate equation-residual orders of truncated expansions.

For the worked-example root anchor: the residual of the assembled expansion
truncated at cubic-factor validity k scales like dt^(k+2); the pole
expansions show dt^3 (short form) and dt^5 (order-6 form).
"""

import numpy as np

from p3prime import RootAnchor, SignSwitch
from p3prime.acceptance import REF_LAM3, REF_PARAMS as PARAMS, REF_ROOTS
from p3prime.poles import pole_b5_reference, pole_residual_order, root_to_pole
from p3prime.series import assemble_lambda, residual_order, run_scheme


def main() -> int:
    a = RootAnchor(REF_ROOTS[4], SignSwitch(1), REF_LAM3[0])
    lam3, _ = run_scheme(a, PARAMS, 5)
    grid = [a.t0 * x for x in np.logspace(-3, -1, 25)]
    print("root expansion:")
    for k in range(6):
        lam = assemble_lambda(a, lam3.truncated(k), PARAMS)
        print(f"  validity {k}: slope {residual_order(lam, PARAMS, grid):6.3f}  (expect {k + 2})")
    b = RootAnchor(0.7, SignSwitch(1), 1.5)
    grid = [b.t0 * x for x in np.logspace(-3, -1, 25)]
    print("pole expansion:")
    print(f"  short form : slope {pole_residual_order(pole_b5_reference(b, PARAMS), PARAMS, grid):6.3f}  (expect 3)")
    print(f"  order 6    : slope {pole_residual_order(root_to_pole(b, PARAMS, 6), PARAMS, grid):6.3f}  (expect 5)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

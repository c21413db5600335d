#!/usr/bin/env python3
"""Print the measured increment decay against the geometric majorant.

Usage: decay_experiment.py [n_max]

Runs the five-substep increment iteration at the worked-example anchor and
tabulates max_t |d_lam_n(t)|, max_t |d_mu_n(t)| and the certificate bound
(M/2)*(beta*|dt|/|t0|)^(n-1) over five samples in the certified domain.
"""

import sys

from p3prime import RootAnchor, SignSwitch
from p3prime.acceptance import REF_LAM3, REF_PARAMS as PARAMS, REF_ROOTS
from p3prime.bounds import algorithm_increments, convergence_bounds

ANCHOR = RootAnchor(REF_ROOTS[4], SignSwitch(1), REF_LAM3[0])


def main() -> int:
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    bs = convergence_bounds(ANCHOR, PARAMS, 0.5)
    h = bs.alpha_tilde * abs(ANCHOR.t0)
    samples = [ANCHOR.t0 + f * h for f in (-0.9, -0.45, 0.1, 0.5, 0.9)]
    rep = algorithm_increments(ANCHOR, PARAMS, n_max, samples, bounds=bs)
    print(f"beta={bs.beta:.3f}  alpha_tilde={bs.alpha_tilde:.5f}  "
          f"M_lambda={bs.M_lambda:.3f}  M_mu={bs.M_mu:.3f}")
    print(f"{'n':>3} {'max|d_lam|':>12} {'bound':>12} {'max|d_mu|':>12} {'bound':>12}")
    for n in range(n_max):
        print(
            f"{n + 1:>3} {rep.d_lam_abs[n].max():12.3e} {rep.majorant_lam[n].max():12.3e} "
            f"{rep.d_mu_abs[n].max():12.3e} {rep.majorant_mu[n].max():12.3e}"
        )
    ok = rep.within_majorant()
    print("within majorant:", ok)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""File formats: series/Laurent JSON schemas and CSV emission.

All floats are written with 17 significant digits so files round-trip to the
exact double and identical runs produce byte-identical output.
"""

from __future__ import annotations

import json

from .equation import EquationParams
from .poles import LaurentExpansion
from .series import DtSeries


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def series_to_json(s: DtSeries, p: EquationParams) -> str:
    a = s.anchor
    obj = {
        "t0": float(a.t0),
        "sgn": a.s,
        "lam3": float(a.lam3),
        "chi0": float(p.chi0),
        "chi_inf": float(p.chi_inf),
        "valid_order": s.valid_order,
        "coeffs": [float(c) for c in s.trusted()],
    }
    return json.dumps(obj, indent=2) + "\n"


def laurent_to_json(le: LaurentExpansion, p: EquationParams, sgn: int, lam3_swapped: float) -> str:
    obj = {
        "t0": float(le.t0),
        "sgn": int(sgn),
        "residue": float(le.residue),
        "chi0": float(p.chi0),
        "chi_inf": float(p.chi_inf),
        "lam3_swapped": float(lam3_swapped),
        "valid_order": le.valid_order,
        "regular_coeffs": [float(c) for c in le.trusted()],
    }
    return json.dumps(obj, indent=2) + "\n"


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(x) for x in row) + "\n")


def roots_to_json(roots) -> str:
    out = [{"t0": float(r.t0), "sgn": r.s, "lam3": float(r.lam3)} for r in roots]
    return json.dumps(out, indent=2) + "\n"


def dense_solution_to_csv(sol, grid, path) -> None:
    """Export (t, lambda, lambda') at a caller-specified grid."""
    write_csv(path, ["t", "lambda", "lambda_dot"], ((t, *sol.state(float(t))) for t in grid))

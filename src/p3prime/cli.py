"""Command-line interface.

Subcommands: expand-root, expand-pole, integrate, find-roots, lam3,
residual, symmetry, verify, bounds, reproduce-appendix.  Flags may also be
given in a key=value config file (--config PATH); explicit flags override
file values.  P3_LOG in {error, info, debug} controls diagnostics on
standard error.  Exit codes: 0 success, 1 computation failure, 2 invalid
flags, 3 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys

from . import io
from .equation import DomainError, EquationParams, InvalidParametersError, RootAnchor, SignSwitch, third_derivative
from .ode import IntegrationError, find_roots, integrate, linspace, residual_scan, symmetry_check
from .poles import root_to_pole
from .series import assemble_lambda, run_scheme, series_eval, series_eval_derivative
from .worked_example import DEFAULT_SEED, REF_CAUCHY, REF_PARAMS, REF_SPAN

# numpy is loaded only by verify (through acceptance) and bounds, each of
# which imports its module when it runs

log = logging.getLogger("p3prime")


class UsageError(Exception):
    pass


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("P3_LOG", "error"), logging.ERROR
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="p3prime: %(message)s")


def _read_config(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            values[key.strip().replace("_", "-")] = val.strip()
    return values


def _build_parser(**kwargs) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="p3prime", description=__doc__, **kwargs)
    ap.add_argument("command", choices=_COMMANDS)
    ap.add_argument("--config", default=None, help="key=value file; flags override it")
    ap.add_argument("--chi0", type=float, default=None)
    ap.add_argument("--chiinf", type=float, default=None)
    ap.add_argument("--t0", type=float, default=None)
    ap.add_argument("--sgn", type=str, default=None, help="+1 or -1")
    ap.add_argument("--lam3", type=float, default=None)
    ap.add_argument("--order", type=int, default=5)
    ap.add_argument("--span", type=str, default=None, help="A:B")
    ap.add_argument("--cauchy", type=str, default=None, help="T:LAM:LAMDOT initial data")
    ap.add_argument("--rel-tol", type=float, default=1e-10)
    ap.add_argument("--abs-tol", type=float, default=1e-12)
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--out", type=str, default="p3prime_out")
    ap.add_argument("--format", dest="fmt", choices=("csv", "json"), default="json")
    return ap


def _parse_args(argv) -> argparse.Namespace:
    """Flags, over values from the --config file, over the defaults.  File
    values pass through the same parser as flags, so they get its types and
    choices; they become its defaults, and the flags are parsed again."""
    ap = _build_parser()
    args = ap.parse_args(argv)
    if args.config is None:
        return args
    # a file key must be a whole flag name, and a bad value raises, not exits
    file_ap = _build_parser(allow_abbrev=False, exit_on_error=False)
    try:
        file_args, unknown = file_ap.parse_known_args(
            [args.command, *(f"--{key}={val}" for key, val in _read_config(args.config).items())]
        )
    except argparse.ArgumentError as exc:
        raise UsageError(f"config {args.config}: {exc}") from exc
    if unknown:
        keys = ", ".join(tok[2:].partition("=")[0] for tok in unknown)
        raise UsageError(f"config {args.config}: unknown key(s) {keys}")
    ap.set_defaults(**vars(file_args))
    return ap.parse_args(argv)


# how _validate names each input a command can require
_INPUTS = {
    "params": "--chi0 and --chiinf",
    "anchor": "--t0, --sgn and --lam3",
    "lam3": "--lam3",
    "span": "--span A:B",
    "cauchy": "--cauchy T:LAM:LAMDOT (or an anchor)",
}


def _validate(args: argparse.Namespace) -> None:
    """Check every flag, whatever the command, and leave ``params``,
    ``anchor``, ``cauchy`` and ``span`` on ``args`` as parsed values (None
    when not given); then check the inputs the command requires, in the
    order its ``_COMMANDS`` entry lists them.  An anchor stands in for
    missing initial data."""
    args.params = None
    if args.chi0 is not None or args.chiinf is not None:
        if args.chi0 is None or args.chiinf is None:
            raise UsageError("--chi0 and --chiinf must be given together")
        args.params = EquationParams(args.chi0, args.chiinf)
    args.anchor = None
    if args.t0 is not None or args.sgn is not None or args.lam3 is not None:
        if args.t0 is None or args.sgn is None:
            raise UsageError("--t0 and --sgn must be given together")
        if args.t0 == 0:
            raise UsageError("--t0 must be nonzero")
        try:
            sgn = int(args.sgn)
        except ValueError as exc:
            raise UsageError(f"--sgn must be +1 or -1, got {args.sgn!r}") from exc
        if sgn not in (-1, 1):
            raise UsageError(f"--sgn must be +1 or -1, got {sgn}")
        args.anchor = RootAnchor(args.t0, SignSwitch(sgn), args.lam3 if args.lam3 is not None else 0.0)
    if args.cauchy is not None:
        parts = args.cauchy.split(":")
        if len(parts) != 3:
            raise UsageError("--cauchy expects T:LAM:LAMDOT")
        try:
            args.cauchy = tuple(float(x) for x in parts)
        except ValueError as exc:
            raise UsageError("--cauchy expects T:LAM:LAMDOT") from exc
    if args.span is not None:
        try:
            a, b = args.span.split(":")
            args.span = (float(a), float(b))
        except ValueError as exc:
            raise UsageError(f"--span expects A:B, got {args.span!r}") from exc
    if args.order < 0:
        raise UsageError("--order must be >= 0")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    for need in _COMMANDS[args.command][1]:
        given = args.anchor if need == "cauchy" and args.cauchy is None else getattr(args, need)
        if given is None:
            raise UsageError(f"{args.command} requires {_INPUTS[need]}")


def _solve(args):
    if args.cauchy is not None:
        t_i, lam_i, lamdot_i = args.cauchy
    else:
        # launch just off the anchored root using the local expansion
        a = args.anchor
        lam3s, _ = run_scheme(a, args.params, max(args.order, 3))
        lam = assemble_lambda(a, lam3s, args.params)
        dt = 0.01 * abs(a.t0)
        t_i = a.t0 + dt
        lam_i = series_eval(lam, dt)
        lamdot_i = series_eval_derivative(lam, dt)
    return integrate(args.params, t_i, lam_i, lamdot_i, args.span, args.rel_tol, args.abs_tol)


def _off_roots(lo: float, hi: float, n: int, roots, gap: float) -> list:
    """``linspace(lo, hi, n)`` less the points within ``gap`` of a root."""
    return [t for t in linspace(lo, hi, n) if all(abs(t - r.t0) > gap for r in roots)]


def _expand_root(args) -> int:
    """Write the series JSON and its curve CSV."""
    a, p = args.anchor, args.params
    lam3s, _ = run_scheme(a, p, args.order)
    lam = assemble_lambda(a, lam3s, p)
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        fh.write(io.series_to_json(lam3s, p))
    dts = linspace(-0.3 * abs(a.t0), 0.3 * abs(a.t0), 601)
    io.write_csv(
        args.out + ".csv",
        ["t", "lambda"],
        ((a.t0 + dt, series_eval(lam, dt)) for dt in dts),
    )
    log.info("wrote %s.json and %s.csv", args.out, args.out)
    return 0


def _expand_pole(args) -> int:
    """Write the Laurent expansion JSON and its curve CSV."""
    a, p = args.anchor, args.params
    le = root_to_pole(a, p, args.order)
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        fh.write(io.laurent_to_json(le, p, a.s, a.lam3))
    mags = linspace(0.02 * abs(a.t0), 0.3 * abs(a.t0), 300)
    dts = [-m for m in reversed(mags)] + mags
    io.write_csv(
        args.out + ".csv",
        ["t", "lambda"],
        ((a.t0 + dt, le.eval(dt)) for dt in dts),
    )
    log.info("wrote %s.json and %s.csv", args.out, args.out)
    return 0


def _integrate(args) -> int:
    sol = _solve(args)
    grid = linspace(sol.t_min, sol.t_max, 2001)
    io.dense_solution_to_csv(sol, grid, args.out + ".csv")
    log.info("wrote %s.csv", args.out)
    return 0


def _roots(args) -> int:
    """find-roots / lam3: the crossing record (t0, sgn, lam3) of each root the run crossed."""
    roots = find_roots(_solve(args))
    if args.fmt == "csv":
        io.write_csv(args.out + ".csv", ["t0", "sgn", "lam3"], ((r.t0, r.s, r.lam3) for r in roots))
    else:
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            fh.write(io.roots_to_json(roots))
    print(io.roots_to_json(roots), end="")
    return 0


def _residual(args) -> int:
    sol = _solve(args)
    lo = sol.t_min + 0.02 * (sol.t_max - sol.t_min)
    hi = sol.t_max - 0.02 * (sol.t_max - sol.t_min)
    grid = _off_roots(lo, hi, 401, find_roots(sol), 0.02 * (hi - lo))
    # the five-point stencil reaches 2 fd_step past each grid point, so it
    # shrinks with the span and stays inside the 2 % margins
    rows = residual_scan(sol, grid, fd_step=min(0.005, 0.01 * (sol.t_max - sol.t_min)))
    io.write_csv(args.out + ".csv", ["t", "residual"], rows)
    print(f"max |residual| = {max(abs(r) for _, r in rows):.3e}")
    return 0


def _symmetry(args) -> int:
    sol = _solve(args)
    roots = find_roots(sol)
    lo, hi = sol.t_min, sol.t_max
    pad = 0.05 * (hi - lo)
    grid = _off_roots(lo + pad, hi - pad, 41, roots, 0.05 * (hi - lo))
    # t/lam has a pole at every root of lam, where the swapped run stops,
    # so keep the stretch between the two roots around the middle point
    mid = grid[len(grid) // 2]
    left = max((r.t0 for r in roots if r.t0 < mid), default=-math.inf)
    right = min((r.t0 for r in roots if r.t0 > mid), default=math.inf)
    dev = symmetry_check(sol, args.params, [t for t in grid if left < t < right])
    print(f"max |t/lambda - lambda_swapped| = {dev:.3e}")
    return 0


def _bounds(args) -> int:
    from .bounds import convergence_bounds

    bs = convergence_bounds(args.anchor, args.params, args.alpha)
    print(json.dumps(dataclasses.asdict(bs), indent=2))
    return 0


def _verify(args) -> int:
    from . import acceptance

    results = acceptance.run_all(args.seed)
    for r in results:
        print(r.line())
    failures = [r for r in results if not r.passed]
    for r in failures:
        print(f"FAILED: {r.name}: {r.detail}", file=sys.stderr)
    return 3 if failures else 0


def _reproduce_appendix(args) -> int:
    """Regenerate the worked example: solution curve, residual scan, third
    derivative curve, overlap curves, and the root/lam3 table."""
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    p = REF_PARAMS
    t_c, lam_c, lamdot_c = REF_CAUCHY
    sol = integrate(p, t_c, lam_c, lamdot_c, REF_SPAN, args.rel_tol, args.abs_tol)
    roots = find_roots(sol)

    grid = linspace(sol.t_min, sol.t_max, 4001)
    io.write_csv(
        os.path.join(outdir, "fig1.csv"), ["t", "lambda"], ((t, sol.lam(t)) for t in grid)
    )

    rows = residual_scan(sol, _off_roots(0.02, 1.99, 801, roots, 0.01), fd_step=0.002)
    io.write_csv(os.path.join(outdir, "fig2.csv"), ["t", "residual"], rows)

    tgrid = [t for t in linspace(0.3, 1.9, 801) if abs(sol.lam(t)) > 1e-3]
    io.write_csv(
        os.path.join(outdir, "fig3.csv"),
        ["t", "lambda_dddot"],
        ((t, third_derivative(t, *sol.state(t), p)) for t in tgrid),
    )

    a1, a2 = roots[4], roots[5]
    s1 = assemble_lambda(a1, run_scheme(a1, p, 5)[0], p)
    s2 = assemble_lambda(a2, run_scheme(a2, p, 5)[0], p)
    ogrid = linspace(0.4, 1.6, 1201)
    io.write_csv(
        os.path.join(outdir, "fig4.csv"),
        ["t", "series_at_root5", "series_at_root6", "solution"],
        (
            (t, series_eval(s1, t - a1.t0), series_eval(s2, t - a2.t0), sol.lam(t))
            for t in ogrid
        ),
    )
    with open(os.path.join(outdir, "roots.json"), "w", encoding="utf-8") as fh:
        fh.write(io.roots_to_json(roots))
    print(f"wrote fig1.csv fig2.csv fig3.csv fig4.csv roots.json in {outdir}")
    return 0


_ANALYSIS = ("params", "span", "cauchy")  # what the commands that integrate need
# per command, its handler and the inputs it requires (keys of _INPUTS), in
# the order _validate checks them
_COMMANDS = {
    "expand-root": (_expand_root, ("params", "anchor", "lam3")),
    "expand-pole": (_expand_pole, ("params", "anchor", "lam3")),
    "integrate": (_integrate, _ANALYSIS),
    "find-roots": (_roots, _ANALYSIS),
    "lam3": (_roots, _ANALYSIS),
    "residual": (_residual, _ANALYSIS),
    "symmetry": (_symmetry, _ANALYSIS),
    "verify": (_verify, ()),
    "bounds": (_bounds, ("params", "anchor")),
    "reproduce-appendix": (_reproduce_appendix, ()),
}


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = _parse_args(argv)
        _validate(args)
        return _COMMANDS[args.command][0](args)
    except (UsageError, InvalidParametersError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, IntegrationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # a double overflowed, or underflowed to a zero divisor, on extreme input
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Layer tracer: timing wrappers installed at p3prime's module attributes.

A wrapper replaces every attribute of the p3prime modules that refers to a
traced function, so calls from one layer into another (``ode`` into
``series.run_scheme``, ``cli`` into ``io.write_csv``, ...) and the calls the
benchmark's own ops make through the module objects all pass through it.
Spans (name, start, end, parent span, op id) and counts are kept in memory;
the caller writes them out when the run ends.  The two equation functions are
called hundreds of thousands of times per trajectory, so they are leaves:
they add a count and their time to the enclosing span's child time instead
of recording a span each.  A span's self time is its duration minus the time
covered by its child spans and leaves.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

MODULES = ("series", "poles", "bounds", "ode", "acceptance", "io", "cli")

# span name: (defining module, attribute)
SPANS = {
    "series.run_scheme": ("p3prime.series", "run_scheme"),
    "series.residual_order": ("p3prime.series", "residual_order"),
    "poles.root_to_pole": ("p3prime.poles", "root_to_pole"),
    "bounds.convergence_bounds": ("p3prime.bounds", "convergence_bounds"),
    "bounds.algorithm_increments": ("p3prime.bounds", "algorithm_increments"),
    "ode.integrate": ("p3prime.ode", "integrate"),
    "ode.find_roots": ("p3prime.ode", "find_roots"),
    "ode.lam3_at_root": ("p3prime.ode", "lam3_at_root"),
    "ode.solve_ivp": ("p3prime.ode", "solve_ivp"),
    "ode.least_squares": ("p3prime.ode", "least_squares"),
    "ode.brentq": ("p3prime.ode", "brentq"),
    "acceptance.run_all": ("p3prime.acceptance", "run_all"),
    "io.write_csv": ("p3prime.io", "write_csv"),
    "io.series_to_json": ("p3prime.io", "series_to_json"),
    "io.laurent_to_json": ("p3prime.io", "laurent_to_json"),
    "io.roots_to_json": ("p3prime.io", "roots_to_json"),
    "io.dense_solution_to_csv": ("p3prime.io", "dense_solution_to_csv"),
}
# leaves are wrapped only where another layer calls them, not inside equation
LEAVES = {
    "equation.rhs_scalar": ("p3prime.equation", "rhs_scalar"),
    "equation.third_derivative": ("p3prime.equation", "third_derivative"),
}

NAME, START, END, PARENT, OP, CHILD = range(6)


def _on_solve_ivp(tr, res):
    tr.counts["ode.steps"] += len(res.t) - 1


def _on_least_squares(tr, res):
    tr.counts["ode.crossing_fit_nfev"] += int(res.nfev)
    tr.counts["ode.crossing_fit_unsuccessful"] += int(not res.success)


def _on_integrate(tr, sol):
    tr.counts["ode.crossings"] += len(sol.crossings)
    tr.counts["ode.pole_stops"] += len(sol.pole_markers)


def _on_run_all(tr, results):
    tr.criteria.append([r.seconds for r in results])


ON_RESULT = {
    "ode.solve_ivp": _on_solve_ivp,
    "ode.least_squares": _on_least_squares,
    "ode.integrate": _on_integrate,
    "acceptance.run_all": _on_run_all,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id, child seconds]
        self.counts = defaultdict(int)
        self.leaf_s = defaultdict(float)
        self.criteria = []  # CriterionResult.seconds of each acceptance.run_all call
        self.op = None
        self._stack = []

    def _span_wrapper(self, name, fn):
        on_result = ON_RESULT.get(name)

        def wrapper(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.op, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD] += rec[END] - rec[START]

    def _call(self, name, fn, args, kwargs):
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def _leaf_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                self.counts[name + "_calls"] += 1
                self.leaf_s[name] += dt
                if self._stack:
                    self.spans[self._stack[-1]][CHILD] += dt

        return wrapper

    @contextlib.contextmanager
    def op_span(self, name, op_id):
        """Enclose one benchmark op in a span; every span inside carries ``op_id``."""
        self.op = op_id
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)
            self.op = None

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        patched = []
        modules = [importlib.import_module("p3prime." + m) for m in MODULES]
        try:
            for table, make, skip_home in ((SPANS, self._span_wrapper, False), (LEAVES, self._leaf_wrapper, True)):
                for name, (home, attr) in table.items():
                    original = getattr(importlib.import_module(home), attr)
                    wrapper = make(name, original)
                    for mod in modules:
                        if skip_home and mod.__name__ == home:
                            continue
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                patched.append((mod, key, value))
                                setattr(mod, key, wrapper)
            yield self
        finally:
            for mod, key, value in reversed(patched):
                setattr(mod, key, value)

    def totals(self) -> dict:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        out = {}
        for rec in self.spans:
            calls, total, self_s = out.get(rec[NAME], (0, 0.0, 0.0))
            dur = rec[END] - rec[START]
            out[rec[NAME]] = (calls + 1, total + dur, self_s + dur - rec[CHILD])
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have an ``ancestor`` span above them."""
        n = 0
        for rec in self.spans:
            if rec[NAME] != name:
                continue
            p = rec[PARENT]
            while p >= 0 and self.spans[p][NAME] != ancestor:
                p = self.spans[p][PARENT]
            n += p >= 0
        return n

    def summary(self) -> dict:
        return {
            "spans": {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in self.totals().items()},
            "leaves": {k: {"calls": self.counts[k + "_calls"], "total_s": v} for k, v in self.leaf_s.items()},
            "counts": dict(self.counts),
            "criteria_s": self.criteria,
        }


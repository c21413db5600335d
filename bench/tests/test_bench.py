"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from reference import cubic_factor_coeffs, self_check  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Shrink the fixed parts of a run so a test run takes seconds."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(layers, "LAYER_SERIES_OPS", 3)
    monkeypatch.setattr(layers, "LAYER_TRAJECTORY_OPS", 2)
    monkeypatch.setattr(layers, "SWEEP_REPEATS", {n: 1 for n in layers.SWEEP_REPEATS})


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == metrics.WORKLOADS
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in metrics.PER_LAYER.items()
    }


REPORTED = {  # per-workload figures of each untraced run's report line
    "series_highorder": {"failed_frac", "coeff_err_max", "op_p90_samples_beyond"},
    "trajectory": {"failed_frac", "span_covered_frac", "op_p90_samples_beyond"},
    "cli": {"failed_frac", "expand_root_s", "lam3_s", "verify_s", "appendix_s", "op_p90_samples_beyond"},
}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_emits_every_end_to_end_metric(workload, small, capsys):
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0.01", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {k: v[0] for k, v in metrics.END_TO_END.items()}
    assert all(v["value"] > 0 for v in out["metrics"].values())
    report = json.loads(next(x for x in lines if x.startswith("  report:"))[len("  report:"):])
    assert REPORTED[workload] <= set(report)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_emits_every_per_layer_metric(workload, small, capsys):
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0.01", "--trace", "1"]) == 0
    out = _last_json(capsys)
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {k: v[0] for k, v in metrics.PER_LAYER.items()}
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    assert out["metrics"]["series.run_scheme_calls"]["value"] > 0
    assert out["metrics"]["equation.rhs_scalar_calls"]["value"] > 0
    assert out["metrics"]["acceptance.criterion_3_s"]["value"] > 0
    assert out["metrics"]["cli.import_scipy_s"]["value"] > 0


@pytest.mark.parametrize("gen", [wl.series_inputs, wl.trajectory_inputs, wl.cli_inputs])
def test_inputs_follow_the_seed(gen):
    def take(seed, stream=wl.TIMED):
        return list(itertools.islice(gen(seed, stream), 12))

    assert take(3) == take(3)
    assert take(3) != take(4)
    if gen is not wl.cli_inputs:  # in-process inputs never repeat within a run
        drawn = take(3) + take(3, wl.WARMUP) + take(3, wl.TRACED) + take(3, wl.LAYER)
        assert len(set(drawn)) == len(drawn)


def test_reference_self_check_and_high_order_agreement():
    assert self_check() <= 1e-13
    # an anchor where run_scheme stays accurate: the two agree far past order 5
    from p3prime.equation import EquationParams, RootAnchor
    from p3prime.series import run_scheme

    a, p = RootAnchor(0.7, 1, 1.5), EquationParams(-0.8, 0.2)
    got, _ = run_scheme(a, p, 40)
    ref = cubic_factor_coeffs(a.t0, a.s, a.lam3, p.chi0, p.chi_inf, 40)
    assert max(abs(g - r) / max(1.0, abs(r)) for g, r in zip(got.trusted(), ref)) < 1e-12


def test_failing_output_check_raises_failed_frac(monkeypatch, small, capsys):
    from p3prime import series

    real = series.run_scheme

    def corrupted(a, p, n):
        lam3s, mu = real(a, p, n)
        return series.DtSeries(a, [c * (1 + 1e-9) for c in lam3s.coeffs], lam3s.valid_order), mu

    monkeypatch.setattr(series, "run_scheme", corrupted)
    assert run.main(["--workload", "series_highorder", "--seed", "5", "--seconds", "0.01", "--trace", "0"]) == 0
    text = capsys.readouterr().out
    out = json.loads(text.strip().splitlines()[-1])
    assert out["correct"] is False and out["failed"] == out["attempted"] == 3
    assert '"failed_frac": 1.0' in text


def test_residual_at_working_precision_is_an_outcome_not_a_failure():
    # residual_order raises its documented DomainError on this order-40 series
    x = wl.SeriesInput(1.961219540636958, 1, -0.16860261182155334, -0.8694860014717625, -0.4233590155708047, 40)
    res = wl.run_ops(wl.series_op, wl.series_check, iter([x]), 1, count=1)
    assert (res.failed, len(res.done), res.stats["residual_at_precision"]) == (0, 1, 1)


def test_lam3_gap_is_scaled_like_criterion_1():
    # a root at t0 = 2.83 with lam3 = 1.2e-4: the mesh estimate is 4 % off in
    # relative terms, 5e-6 in absolute terms
    x = wl.TrajectoryInput(1.3334075521648194, 0.9841980630081784, 1.8655445513775355, -1.092684247011286,
                           1.4938473505000682)
    res = wl.run_ops(wl.trajectory_op, wl.trajectory_check, iter([x]), 1, count=1)
    assert res.failed == 0 and res.stats["lam3_gap_max"] > wl.LAM3_GAP_TOL


def test_raising_op_fails_without_marking_output_wrong():
    def op(x):
        raise ValueError("boom")

    res = wl.run_ops(op, wl.series_check, wl.series_inputs(0, wl.TIMED), 3, count=3)
    assert (res.attempted, res.failed, res.wrong, res.done) == (3, 3, 0, [])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

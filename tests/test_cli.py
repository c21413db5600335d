"""CLI surface: flag validation, determinism, config file, round-trips."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import p3prime
from p3prime import EquationParams, LaurentExpansion, RootAnchor, SignSwitch, acceptance
from p3prime.cli import main
from p3prime.io import (
    laurent_from_json,
    laurent_to_json,
    series_from_json,
    series_to_json,
)
from p3prime.series import run_scheme

APX = [
    "--chi0", "-0.811597", "--chiinf", "-0.0550042",
    "--t0", "0.511115", "--sgn", "+1", "--lam3", "-9.01149",
]
# the worked example's flags, as the README gives them for integrate
WORKED = [
    "--chi0", "-0.811597", "--chiinf", "-0.0550042",
    "--cauchy", "0.833651:0.288298:0.374531", "--span", "0.01:2",
]


def run(args):
    return main(args)


def test_missing_flags_exit_2(tmp_path, capsys):
    assert run(["expand-root", "--t0", "0.5", "--sgn", "1", "--chi0", "0", "--chiinf", "0"]) == 2
    assert run(["expand-root"]) == 2
    assert run(["find-roots", "--chi0", "0.1", "--chiinf", "0.2"]) == 2
    capsys.readouterr()


def test_bad_sgn_and_span_exit_2(tmp_path, capsys):
    base = str(tmp_path / "x")
    assert run(["expand-root", "--t0", "1", "--sgn", "2", "--lam3", "0", "--chi0", "0", "--chiinf", "0", "--out", base]) == 2
    assert run(["expand-root", "--t0", "0", "--sgn", "1", "--lam3", "0", "--chi0", "0", "--chiinf", "0", "--out", base]) == 2
    assert run(["integrate", "--chi0", "0", "--chiinf", "0", "--span", "nope", "--cauchy", "1:1:0", "--out", base]) == 2
    capsys.readouterr()


def test_expand_root_order_zero(tmp_path):
    base = str(tmp_path / "e0")
    code = run(["expand-root", *APX, "--order", "0", "--out", base])
    assert code == 0
    obj = json.loads(open(base + ".json").read())
    assert obj["coeffs"] == [-9.01149]
    assert obj["valid_order"] == 0


def test_expand_outputs_are_deterministic(tmp_path):
    b1, b2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(["expand-root", *APX, "--order", "5", "--out", b1]) == 0
    assert run(["expand-root", *APX, "--order", "5", "--out", b2]) == 0
    assert open(b1 + ".json", "rb").read() == open(b2 + ".json", "rb").read()
    assert open(b1 + ".csv", "rb").read() == open(b2 + ".csv", "rb").read()


def test_expand_pole_d0(tmp_path):
    base = str(tmp_path / "p")
    code = run([
        "expand-pole", "--t0", "0.7", "--sgn", "1", "--lam3", "1.5",
        "--chi0", "-0.8", "--chiinf", "0.2", "--order", "4", "--out", base,
    ])
    assert code == 0
    obj = json.loads(open(base + ".json").read())
    assert obj["regular_coeffs"][0] == pytest.approx((1 + 0.2) / 2)
    assert obj["residue"] == pytest.approx(0.7)


def test_find_roots_empty_window(tmp_path, capsys):
    base = str(tmp_path / "r")
    code = run([
        "find-roots", "--chi0", "-0.811597", "--chiinf", "-0.0550042",
        "--cauchy", "0.833651:0.288298:0.374531", "--span", "0.6:1.3", "--out", base,
    ])
    assert code == 0
    assert json.loads(open(base + ".json").read()) == []
    capsys.readouterr()


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "chi0 = -0.811597\nchiinf = -0.0550042\nt0 = 0.511115\nsgn = +1\n"
        "lam3 = -9.01149\norder = 3\n# comment\n"
    )
    base = str(tmp_path / "c")
    code = run(["expand-root", "--config", str(cfgfile), "--order", "5", "--out", base])
    assert code == 0
    obj = json.loads(open(base + ".json").read())
    assert obj["valid_order"] == 5  # flag wins over file
    assert obj["chi0"] == -0.811597


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("nonsense = 1\n")
    assert run(["expand-root", "--config", str(cfgfile)]) == 2
    capsys.readouterr()


def test_config_value_outside_the_choices_exit_2(tmp_path, capsys):
    # file values pass through the flags' parser, so --format's choices hold
    cfgfile = tmp_path / "fmt.cfg"
    cfgfile.write_text("format = xml\n")
    base = tmp_path / "roots"
    args = ["find-roots", *WORKED, "--config", str(cfgfile), "--out", str(base)]
    assert run(args) == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    assert not list(tmp_path.glob("roots.*"))


def test_series_json_round_trip():
    a = RootAnchor(0.9, SignSwitch(-1), 2.25)
    p = EquationParams(0.125, -1.5)
    lam3, _ = run_scheme(a, p, 4)
    text = series_to_json(lam3, p)
    back, pback = series_from_json(text)
    assert pback == p
    assert back.anchor == a
    assert back.valid_order == lam3.valid_order
    assert list(back.coeffs) == lam3.trusted() == list(lam3.coeffs)


def test_laurent_json_round_trip():
    le = LaurentExpansion(0.7, -0.7, (0.5, -0.25, 1.125), 2)
    p = EquationParams(0.5, -0.25)
    text = laurent_to_json(le, p, -1, 3.5)
    back, pback, sgn, lam3s = laurent_from_json(text)
    assert (pback, sgn, lam3s) == (p, -1, 3.5)
    assert back.residue == le.residue
    assert back.regular_coeffs == le.regular_coeffs


def test_verify_exit_zero(capsys):
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 9


def test_analysis_commands_run(tmp_path, capsys):
    base = str(tmp_path / "an")
    common = [
        "--chi0", "-0.811597", "--chiinf", "-0.0550042",
        "--cauchy", "0.8:1.0:0.5", "--span", "0.6:1.3", "--out", base,
    ]
    assert run(["integrate", *common]) == 0
    header = open(base + ".csv").readline().strip()
    assert header == "t,lambda,lambda_dot"
    assert run(["lam3", *common]) == 0
    assert run(["residual", *common]) == 0
    assert run(["symmetry", *common]) == 0
    out = capsys.readouterr().out
    assert "max |t/lambda - lambda_swapped|" in out


def test_symmetry_over_the_worked_example_span(capsys):
    # t/lam has a pole at each of the six roots in (0.01, 2); the grid stays
    # between the two roots around its middle point, where the swapped run is
    assert run(["symmetry", *WORKED]) == 0
    out = capsys.readouterr().out
    dev = float(out.rsplit("=", 1)[1])
    assert 0 < dev <= 1e-8  # 7.4e-10


def test_reproduce_appendix_files_and_determinism(tmp_path, capsys):
    names = ["fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv", "roots.json"]
    first, second = tmp_path / "a", tmp_path / "b"
    assert run(["reproduce-appendix", "--out", str(first)]) == 0
    assert run(["reproduce-appendix", "--out", str(second)]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(first)) == names
    roots = json.loads((first / "roots.json").read_text())
    assert len(roots) == len(acceptance.REF_ROOTS) == 6
    for r, ref in zip(roots, acceptance.REF_ROOTS):
        assert abs(r["t0"] - ref) <= 1e-3
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_bounds_prints_the_certificate(capsys):
    assert run(["bounds", *APX, "--alpha", "0.5"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert sorted(obj) == sorted([
        "M_lambda", "M_mu", "B_mu_lambda", "B_mu_mu", "B_xi_lambda", "B_xi_mu",
        "Q1", "Q2", "beta", "alpha", "alpha_tilde",
    ])
    assert obj["alpha"] == 0.5 and 0 < obj["alpha_tilde"] <= 0.5


def test_find_roots_launched_from_the_anchor(tmp_path, capsys):
    # no --cauchy: the run starts 0.01 |t0| past the anchor, on its series
    base = str(tmp_path / "anchored")
    assert run(["find-roots", *APX, "--span", "0.3:0.9", "--out", base]) == 0
    capsys.readouterr()
    roots = json.loads(open(base + ".json").read())
    assert [r["sgn"] for r in roots] == [1]
    assert abs(roots[0]["t0"] - 0.511115) <= 1e-8


def test_computation_failure_exit_1(tmp_path, capsys):
    base = str(tmp_path / "fail")
    args = ["integrate", "--chi0", "-0.811597", "--chiinf", "-0.0550042", "--span", "0.6:1.3", "--out", base]
    assert run([*args, "--cauchy", "0.8:0:1"]) == 1  # launch on a root
    assert "must be nonzero" in capsys.readouterr().err
    assert not os.path.exists(base + ".csv")


def test_debug_log_leaves_integrate_files_unchanged(tmp_path, caplog):
    common = ["--chi0", "-0.811597", "--chiinf", "-0.0550042", "--cauchy", "0.8:1.0:0.5", "--span", "0.6:1.3"]
    assert run(["integrate", *common, "--out", str(tmp_path / "quiet")]) == 0
    with caplog.at_level(logging.DEBUG, logger="p3prime"):
        assert run(["integrate", *common, "--out", str(tmp_path / "debug")]) == 0
    messages = [r.getMessage() for r in caplog.records if r.name == "p3prime.ode"]
    assert messages and all(m.startswith("segment [") for m in messages)  # no root in (0.6, 1.3)
    assert (tmp_path / "debug.csv").read_bytes() == (tmp_path / "quiet.csv").read_bytes()


def test_roots_csv_format(tmp_path):
    base = str(tmp_path / "fmt")
    code = run([
        "find-roots", "--chi0", "-0.811597", "--chiinf", "-0.0550042",
        "--cauchy", "0.8:1.0:0.5", "--span", "0.6:1.3",
        "--format", "csv", "--out", base,
    ])
    assert code == 0
    assert open(base + ".csv").readline().strip() == "t0,sgn,lam3"


def test_cli_import_loads_no_scipy():
    # the RK kernel and brentq are pure Python
    src = str(Path(p3prime.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import p3prime.cli"],
        capture_output=True, text=True, env=env, check=True,
    )
    modules = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "p3prime.cli" in modules
    assert not [m for m in modules if m == "scipy" or m.startswith("scipy.")]

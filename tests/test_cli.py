"""CLI surface: flag validation, determinism, config file, round-trips."""

import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import p3prime
from p3prime import EquationParams, LaurentExpansion, RootAnchor, SignSwitch, acceptance
from p3prime import cli
from p3prime.cli import main
from p3prime.io import laurent_to_json, roots_to_json, series_to_json
from p3prime.ode import integrate
from p3prime.series import DtSeries, run_scheme

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
    assert run(["integrate", "--chi0", "0", "--chiinf", "0", "--cauchy", "1:x:0", "--span", "1:2", "--out", base]) == 2
    assert "--cauchy expects T:LAM:LAMDOT" in capsys.readouterr().err


PARAMS = ["--chi0", "-0.811597", "--chiinf", "-0.0550042"]
ANCHOR = ["--t0", "0.511115", "--sgn", "+1"]
CAUCHY = ["--cauchy", "0.8:1.0:0.5"]
SPAN = ["--span", "0.6:1.3"]


def _requirement_cases():
    """(command, flags, the error it exits 2 with, or None where it runs),
    each case one required input short, in the order the inputs are checked."""
    for cmd in ("expand-root", "expand-pole"):
        yield pytest.param(cmd, [*ANCHOR, "--lam3", "1"], f"{cmd} requires --chi0 and --chiinf", id=f"{cmd}-params")
        yield pytest.param(cmd, PARAMS, f"{cmd} requires --t0, --sgn and --lam3", id=f"{cmd}-anchor")
        yield pytest.param(cmd, [*PARAMS, *ANCHOR], f"{cmd} requires --lam3", id=f"{cmd}-lam3")
    for cmd in ("integrate", "find-roots", "lam3", "residual", "symmetry"):
        yield pytest.param(cmd, [*CAUCHY, *SPAN], f"{cmd} requires --chi0 and --chiinf", id=f"{cmd}-params")
        yield pytest.param(cmd, [*PARAMS, *CAUCHY], f"{cmd} requires --span A:B", id=f"{cmd}-span")
        yield pytest.param(
            cmd, [*PARAMS, *SPAN], f"{cmd} requires --cauchy T:LAM:LAMDOT (or an anchor)", id=f"{cmd}-initial"
        )
    yield pytest.param("bounds", ANCHOR, "bounds requires --chi0 and --chiinf", id="bounds-params")
    yield pytest.param("bounds", PARAMS, "bounds requires --t0, --sgn and --lam3", id="bounds-anchor")
    # the anchor's lam3 defaults to 0, and the certificate needs no more
    yield pytest.param("bounds", [*PARAMS, *ANCHOR], None, id="bounds-no-lam3")
    # every flag is checked, whatever the command
    yield pytest.param("verify", ["--sgn", "2"], "--t0 and --sgn must be given together", id="verify-sgn-alone")
    yield pytest.param("verify", ["--t0", "1", "--sgn", "2"], "--sgn must be +1 or -1, got 2", id="verify-sgn-2")
    # numpy's generator rejected a negative seed with a traceback
    yield pytest.param("verify", ["--seed", "-1"], "--seed must be >= 0", id="verify-seed-negative")
    yield pytest.param("reproduce-appendix", [], None, id="reproduce-appendix")


REQUIREMENTS = list(_requirement_cases())


def test_requirement_cases_cover_every_command():
    assert {case.values[0] for case in REQUIREMENTS} == set(cli._COMMANDS)


@pytest.mark.parametrize("command, flags, error", REQUIREMENTS)
def test_command_input_requirements(command, flags, error, tmp_path, capsys):
    code = run([command, *flags, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if error is None:
        assert (code, err) == (0, "")
    else:
        assert (code, err) == (2, f"error: {error}\n")
        assert not list(tmp_path.iterdir())


def test_docstring_and_readme_name_the_commands():
    doc = cli.__doc__.split("Subcommands:", 1)[1].split(".", 1)[0]
    assert [name.strip() for name in doc.split(",")] == list(cli._COMMANDS)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    named = [line.split()[1] for line in block.splitlines() if line.startswith("p3prime ")]
    assert sorted(named) == sorted(cli._COMMANDS)


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


def series_from_json(text):
    """The series and parameters of a ``series_to_json`` file."""
    obj = json.loads(text)
    a = RootAnchor(obj["t0"], SignSwitch(int(obj["sgn"])), obj["lam3"])
    p = EquationParams(obj["chi0"], obj["chi_inf"])
    return DtSeries(a, obj["coeffs"], int(obj["valid_order"])), p


def laurent_from_json(text):
    """The expansion, parameters, switch and swapped lam3 of a
    ``laurent_to_json`` file."""
    obj = json.loads(text)
    le = LaurentExpansion(obj["t0"], obj["residue"], obj["regular_coeffs"], int(obj["valid_order"]))
    p = EquationParams(obj["chi0"], obj["chi_inf"])
    return le, p, int(obj["sgn"]), float(obj["lam3_swapped"])


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


def test_residual_on_a_span_shorter_than_the_default_stencil(tmp_path, capsys):
    # a 0.006-wide span: the stencil step shrinks to 1 % of the span, so the
    # five-point stencil stays inside it (at 0.005 it left the run)
    base = str(tmp_path / "short")
    assert run(["residual", *APX, "--span", "0.5115:0.5175", "--out", base]) == 0
    dev = float(capsys.readouterr().out.rsplit("=", 1)[1])
    assert dev <= 1e-7  # 1.3e-9


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
    # the table is the run's crossing records as they are
    assert (first / "roots.json").read_text() == roots_to_json(acceptance.reference_solution().crossings)


def test_lam3_matches_a_tight_tolerance_run(tmp_path, capsys):
    # lam3 reports each crossing's lam3, read off mu(t0): on the worked
    # example it errs by 1.5e-11 to 4.7e-10 (scaled by max(1, |lam3|)) where
    # the degree-4 grid fit erred by 3.0e-7 to 2.7e-5
    base = str(tmp_path / "l3")
    assert run(["lam3", *WORKED, "--out", base]) == 0
    capsys.readouterr()
    roots = json.loads(open(base + ".json").read())
    tight = integrate(acceptance.REF_PARAMS, *acceptance.REF_CAUCHY, acceptance.REF_SPAN, rel_tol=1e-13, abs_tol=1e-15)
    assert len(roots) == len(tight.crossings) == 6
    for r, ref in zip(roots, tight.crossings):
        assert r["sgn"] == ref.s
        assert abs(r["lam3"] - ref.lam3) <= 1e-8 * max(1.0, abs(ref.lam3))


def test_find_roots_reports_finite_lam3(tmp_path, capsys):
    base = str(tmp_path / "fr")
    assert run(["find-roots", *WORKED, "--out", base]) == 0
    assert run(["find-roots", *WORKED, "--format", "csv", "--out", base]) == 0
    capsys.readouterr()
    lam3s = [r["lam3"] for r in json.loads(open(base + ".json").read())]  # null reads as None, NaN as nan
    assert len(lam3s) == 6 and all(isinstance(x, float) and math.isfinite(x) for x in lam3s)
    rows = open(base + ".csv").read().splitlines()[1:]
    assert [float(row.split(",")[2]) for row in rows] == lam3s  # a nan equals nothing


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


def _cli_env():
    """The environment with this package's source first on PYTHONPATH, for a
    CLI run in a fresh interpreter."""
    src = str(Path(p3prime.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("flag, value", [("--rel-tol", "nan"), ("--abs-tol", "nan"), ("--abs-tol", "0"), ("--abs-tol", "inf")])
def test_tolerance_not_finite_and_positive_exits_1(flag, value, tmp_path):
    # in a fresh interpreter with a timeout, because a NaN tolerance used to
    # hang the run; 0 ended in a ZeroDivisionError traceback and inf wrote
    # an unchecked curve
    args = ["integrate", *PARAMS, "--cauchy", "1:0.5:0", "--span", "0.5:2", flag, value, "--out", str(tmp_path / "tol")]
    proc = subprocess.run([sys.executable, "-m", "p3prime.cli", *args], capture_output=True, text=True,
                          env=_cli_env(), timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: rel_tol and abs_tol must be finite and positive"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("lamdot", ["nan", "inf"])
def test_non_finite_cauchy_data_exits_1(lamdot, tmp_path):
    # in a fresh interpreter with a timeout, because such data used to hang the run
    args = ["integrate", "--chi0", "-0.8", "--chiinf", "0.2", "--cauchy", f"1:1:{lamdot}", "--span", "0.5:2",
            "--out", str(tmp_path / "x")]
    proc = subprocess.run([sys.executable, "-m", "p3prime.cli", *args], capture_output=True, text=True,
                          env=_cli_env(), timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == ["error: initial data must be finite"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, t0, error",
    [
        ("expand-root", "1e-200", "OverflowError"),
        ("expand-root", "1e-320", "ZeroDivisionError"),
        ("expand-pole", "1e-200", "ZeroDivisionError"),
        ("bounds", "1e300", "OverflowError"),
    ],
)
def test_extreme_t0_exits_1(command, t0, error, tmp_path, capsys):
    # each ended in a traceback of its arithmetic error
    args = [command, "--t0", t0, "--sgn", "1", "--lam3", "1.5", "--chi0", "-0.8", "--chiinf", "0.2"]
    assert run([*args, "--out", str(tmp_path / "x")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {error}: ") and len(err.splitlines()) == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["integrate", "find-roots"])
def test_empty_span_exits_1(command, tmp_path, capsys):
    # integrate used to end in a traceback and find-roots to print []
    assert run([command, *PARAMS, "--cauchy", "1:0.5:0", "--span", "1:1", "--out", str(tmp_path / "empty")]) == 1
    assert capsys.readouterr() == ("", "error: span must have positive length\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, lam3", [("expand-root", "nan"), ("expand-pole", "inf"), ("bounds", "nan")])
def test_non_finite_lam3_exits_2_and_writes_nothing(command, lam3, tmp_path, capsys):
    # the expansions used to write NaN or Infinity tokens, which are not
    # JSON, and bounds ended in a LinAlgError traceback
    args = [command, *PARAMS, "--t0", "0.5", "--sgn", "1", "--lam3", lam3, "--out", str(tmp_path / "x")]
    assert run(args) == 2
    assert capsys.readouterr() == ("", "error: cubic coefficient lam3 must be finite\n")
    assert not list(tmp_path.iterdir())


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
    # the RK kernel and brentq are pure Python, and only verify and bounds
    # import the modules that need numpy, when they run
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import p3prime.cli"],
        capture_output=True, text=True, env=_cli_env(), check=True,
    )
    modules = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "p3prime.cli" in modules
    assert not [m for m in modules if m.split(".")[0] in ("scipy", "numpy")]


def test_commands_other_than_verify_and_bounds_leave_numpy_unimported(tmp_path):
    # importing numpy took about half of a short command's time in a fresh interpreter
    small = [*PARAMS, *CAUCHY, *SPAN]
    runs = [
        ["expand-root", *APX], ["expand-pole", *APX],
        *([command, *small] for command in ("integrate", "find-roots", "lam3", "residual", "symmetry")),
        ["reproduce-appendix"],
    ]
    runs = [[*argv, "--out", str(tmp_path / argv[0])] for argv in runs]
    code = (
        "import sys; from p3prime import cli; "
        f"assert [cli.main(argv) for argv in {runs!r}] == {[0] * len(runs)!r}; "
        "assert 'numpy' not in sys.modules, 'numpy imported'"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=_cli_env(), stdout=subprocess.DEVNULL)

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weiljet
from weiljet.cli import main
from weiljet.errors import int_digit_limit
from weiljet.expression import MAX_NESTING

GOLDEN_TAYLOR = """\
mode: box
arity: 2
orders: (2,1)
(0,0)  2
(1,0)  4
(2,0)  4
(0,1)  1
(1,1)  2
(2,1)  2
"""


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_taylor_worked_example_golden(capsys):
    code, out, err = run_cli(
        ["taylor", "--expr", "x0^2*x1", "--at", "1,2", "--orders", "2,1"], capsys
    )
    assert code == 0
    assert out == GOLDEN_TAYLOR
    assert err == ""


def test_taylor_arity_zero(capsys):
    code, out, _ = run_cli(["taylor", "--expr", "3", "--at", "", "--orders", ""], capsys)
    assert code == 0
    assert "()  3" in out


def test_taylor_simplex_mode(capsys):
    code, out, _ = run_cli(
        [
            "taylor", "--expr", "x0*x1", "--at", "0,0", "--orders", "1,1",
            "--mode", "simplex", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["mode"] == "simplex"
    entries = {tuple(e["alpha"]): e["value"] for e in doc["result"]["entries"]}
    assert entries[(1, 1)] == {"num": "1", "den": "1"}
    assert entries[(2, 0)] == {"num": "0", "den": "1"}


def test_taylor_pole_is_an_evaluation_error(capsys):
    code, out, err = run_cli(
        ["taylor", "--expr", "1/(x0-1)", "--at", "1", "--orders", "2"], capsys
    )
    assert code == 2
    assert out == ""
    assert "error" in err


def test_taylor_flag_mismatch_is_usage_error(capsys):
    code, _, err = run_cli(
        ["taylor", "--expr", "x0", "--at", "1,2", "--orders", "1"], capsys
    )
    assert code == 64
    assert "usage error" in err


def test_bad_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 64


def test_bad_flag_value_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["taylor", "--expr", "x0", "--at", "1", "--orders", "1", "--mode", "weird"])
    assert info.value.code == 64


def test_derive_examples(capsys):
    code, out, _ = run_cli(["derive", "--expr", "x0^3", "--at", "2", "--alpha", "1"], capsys)
    assert code == 0 and out.strip() == "12"

    code, out, _ = run_cli(["derive", "--expr", "x0^3", "--at", "2", "--alpha", "0"], capsys)
    assert code == 0 and out.strip() == "8"

    code, out, _ = run_cli(
        ["derive", "--expr", "x0*x1", "--at", "1,1", "--alpha", "1,1"], capsys
    )
    assert code == 0 and out.strip() == "1"


def test_derive_rational_output(capsys):
    code, out, _ = run_cli(["derive", "--expr", "1/x0", "--at", "2", "--alpha", "1"], capsys)
    assert code == 0 and out.strip() == "-1/4"
    code, out, _ = run_cli(
        ["derive", "--expr", "1/x0", "--at", "2", "--alpha", "1", "--format", "json"],
        capsys,
    )
    doc = json.loads(out)
    assert doc["result"]["value"] == {"num": "-1", "den": "4"}


def test_check_single_suite(capsys):
    code, out, _ = run_cli(["check", "--suite", "lemma-3.1.8", "--instances", "50"], capsys)
    assert code == 0
    assert "lemma-3.1.8  50/50  pass" in out
    assert "overall: pass" in out


def test_check_unknown_suite(capsys):
    code, _, err = run_cli(["check", "--suite", "lemma-0.0.0"], capsys)
    assert code == 64
    assert "unknown suite" in err


def test_check_json_reports_every_suite(capsys):
    code, out, _ = run_cli(
        ["check", "--suite", "all", "--instances", "5", "--seed", "7", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "check"
    assert doc["seed"] == 7
    assert doc["result"]["all_passed"] is True
    assert len(doc["result"]["suites"]) == 18


def test_check_is_deterministic(capsys):
    argv = ["check", "--suite", "all", "--instances", "5", "--seed", "7", "--format", "json"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_seed_comes_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("WEILJET_SEED", "42")
    code, out, _ = run_cli(
        ["check", "--suite", "lemma-3.1.2", "--instances", "3", "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out)["seed"] == 42
    monkeypatch.setenv("WEILJET_SEED", "not-a-number")
    code, _, err = run_cli(["check", "--suite", "lemma-3.1.2", "--instances", "3"], capsys)
    assert code == 64


def test_explicit_seed_overrides_environment(capsys, monkeypatch):
    monkeypatch.setenv("WEILJET_SEED", "42")
    code, out, _ = run_cli(
        ["check", "--suite", "lemma-3.1.2", "--instances", "3", "--seed", "9", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["seed"] == 9


def test_fd_check_pass(capsys):
    code, out, _ = run_cli(["fd-check", "--expr", "x0^3", "--at", "2", "--wrt", "0"], capsys)
    assert code == 0
    assert "exact: 12" in out
    assert "yes" in out


def test_fd_check_affine_is_tight(capsys):
    code, out, _ = run_cli(["fd-check", "--expr", "x0", "--at", "100", "--wrt", "0"], capsys)
    assert code == 0


def test_fd_check_near_pole_fails(capsys):
    code, _, _ = run_cli(["fd-check", "--expr", "1/x0", "--at", "1e-9", "--wrt", "0"], capsys)
    assert code == 2


def test_fd_check_json_payload(capsys):
    code, out, _ = run_cli(
        ["fd-check", "--expr", "x0^3", "--at", "2", "--wrt", "0", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["within_tolerance"] is True
    assert doc["result"]["exact"] == {"num": "12", "den": "1"}
    assert abs(doc["result"]["finite_difference"] - 12.0) < 1e-6


def test_parse_error_reports_position(capsys):
    code, _, err = run_cli(["derive", "--expr", "x0^", "--at", "1", "--alpha", "1"], capsys)
    assert code == 2
    assert "column" in err


@pytest.mark.parametrize("h", ["0", "-1e-3", "-0.0", "nan", "inf", "-inf"])
def test_fd_check_rejects_a_bad_step(capsys, h):
    code, out, err = run_cli(["fd-check", "--expr", "x0^3", "--at", "2", "--wrt", "0", f"--h={h}"], capsys)
    assert code == 64
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "--h" in err


@pytest.mark.parametrize("rtol", ["nan", "inf", "-1"])
def test_fd_check_rejects_a_bad_tolerance(capsys, rtol):
    code, out, err = run_cli(["fd-check", "--expr", "x0^3", "--at", "2", "--wrt", "0", f"--rtol={rtol}"], capsys)
    assert code == 64
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "--rtol" in err


@pytest.mark.parametrize("at", ["nan", "inf", "-inf", "1,nan"])
def test_fd_check_rejects_a_non_finite_point(capsys, at):
    code, out, err = run_cli(["fd-check", "--expr", "x0*x1", f"--at={at}", "--wrt", "0"], capsys)
    assert code == 64
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "--at" in err


def test_check_rejects_negative_instances(capsys):
    code, out, err = run_cli(["check", "--suite", "lemma-3.1.2", "--instances", "-3"], capsys)
    assert code == 64
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "--instances" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "simplex", "--expr", "x0*x1*x2*x3*x4*x5*x6*x7", "--at", "1,1,1,1,1,1,1,1", "--orders", "1,1,1,1,1,1,1,1"],
        ["--expr", "x0*x1*x2", "--at", "1,2,3", "--orders", "2000,2000,2000"],
    ],
)
def test_taylor_over_the_slot_budget_fails_cleanly(capsys, argv):
    code, out, err = run_cli(["taylor", *argv], capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "over the budget" in err


def test_fd_check_overflow_fails_cleanly(capsys):
    code, out, err = run_cli(["fd-check", "--expr", "x0^2000", "--at", "10", "--wrt", "0"], capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("weiljet: error:") and "overflows binary64" in err


# x0*x0*x0 overflows to inf without raising, and its finite difference
# comes out nan; neither may reach the table or the JSON.
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_fd_check_overflow_to_inf_fails_cleanly(capsys, fmt):
    argv = ["fd-check", "--expr", "x0*x0*x0", "--at", "1e120", "--wrt", "0", "--format", fmt]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("weiljet: error:") and "overflows binary64" in err


@pytest.mark.parametrize("orders", ["\u00b2", "1,\u00b2"])
def test_a_non_decimal_digit_in_a_natural_list_is_a_usage_error(capsys, orders):
    # str.isdigit accepts superscripts, which int() refuses.
    at = ",".join("1" * len(orders.split(",")))
    code, out, err = run_cli(["taylor", "--expr", "x0", "--at", at, "--orders", orders], capsys)
    assert code == 64
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "is not a natural number" in err


DEEP = MAX_NESTING + 1000


@pytest.mark.parametrize(
    "expr, column",
    [
        ("(" * DEEP + "x0" + ")" * DEEP, MAX_NESTING + 1),
        ("-" * DEEP + "x0", MAX_NESTING + 1),
        ("-(" * DEEP + "x0" + ")" * DEEP, MAX_NESTING + 1),
        ("x0 + " + "(" * (MAX_NESTING + 1) + "x0" + ")" * (MAX_NESTING + 1), 5 + MAX_NESTING + 1),
    ],
    ids=["parentheses", "minus-signs", "both", "after-a-term"],
)
def test_nesting_past_the_limit_is_a_parse_error(capsys, expr, column):
    code, out, err = run_cli(["derive", f"--expr={expr}", "--at", "2", "--alpha", "1"], capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("weiljet: error:") and f"line 1, column {column}" in err
    assert f"more than {MAX_NESTING}" in err


@pytest.mark.parametrize(
    "expr, value",
    [
        ("(" * MAX_NESTING + "x0^2" + ")" * MAX_NESTING, "4"),
        ("-" * MAX_NESTING + "x0^2", "4"),
        ("-" * (MAX_NESTING - 1) + "x0^2", "-4"),
        ("-(" * (MAX_NESTING // 2) + "x0^2" + ")" * (MAX_NESTING // 2), "4"),
        ("(" * MAX_NESTING + "x0" + ")" * MAX_NESTING + " * " + "-" * MAX_NESTING + "x0", "4"),
    ],
    ids=["parentheses", "minus-signs", "odd-minus-signs", "both", "side-by-side"],
)
def test_nesting_at_the_limit_still_parses(capsys, expr, value):
    code, out, err = run_cli(["derive", f"--expr={expr}", "--at", "2", "--alpha", "1"], capsys)
    assert (code, out, err) == (0, value + "\n", "")


# One past the interpreter's int/str digit cap by 700: 5000 at the default cap.
OVER_DIGIT_LIMIT = int_digit_limit() + 700
needs_digit_limit = pytest.mark.skipif(not int_digit_limit(), reason="this interpreter has no int/str digit cap")


@needs_digit_limit
@pytest.mark.parametrize(
    "argv",
    [
        ["derive", "--expr", f"x0^{OVER_DIGIT_LIMIT}", "--at", "10", "--alpha", "1"],
        ["taylor", "--expr", f"x0^{OVER_DIGIT_LIMIT}", "--at", "10", "--orders", "1", "--format", "json"],
    ],
)
def test_a_result_over_the_digit_limit_fails_cleanly(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("weiljet: error:") and f"{int_digit_limit()} digits" in err


@needs_digit_limit
def test_a_literal_over_the_digit_limit_is_a_parse_error(capsys):
    expr = "x0 + " + "7" * OVER_DIGIT_LIMIT
    code, out, err = run_cli(["derive", "--expr", expr, "--at", "1", "--alpha", "1"], capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("weiljet: error:") and f"{int_digit_limit()} digits" in err
    assert "line 1, column 6" in err


# stdout of each command, byte for byte, as the package printed it before
# coefficients were stored fraction-free (the fd-check cases: before fd-check
# refused non-finite values); every command exits 0.
GOLDEN = Path(__file__).resolve().parent / "golden"
QUOTIENT = "(x0*x1 - 3/2*x2)^3/(1 + x0^2 + x1*x2) + x0^4*x2"
TAYLOR = ["taylor", "--expr", QUOTIENT, "--at", "1,2,1", "--orders", "3,3,3"]
FD_CHECK = ["fd-check", "--expr", "x0^3", "--at", "2", "--wrt", "0", "--h", "1e-4", "--rtol", "1e-6"]
GOLDEN_CASES = {
    "taylor_box.txt": TAYLOR,
    "taylor_box.json": TAYLOR + ["--format", "json"],
    "taylor_simplex.txt": TAYLOR + ["--mode", "simplex"],
    "taylor_simplex.json": TAYLOR + ["--mode", "simplex", "--format", "json"],
    "derive.txt": ["derive", "--expr", "1/(1+x0^2)", "--at", "1/3", "--alpha", "4"],
    "check_all_seed7.json": ["check", "--suite", "all", "--seed", "7", "--format", "json"],
    "fd_check.txt": FD_CHECK,
    "fd_check.json": FD_CHECK + ["--format", "json"],
    "fd_check_quotient.txt": ["fd-check", "--expr", "x0*x1^2 - 1/(2+x0)", "--at", "0.25,1.5", "--wrt", "0"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_cli_stdout_matches_the_golden_bytes(name):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "weiljet.cli", *GOLDEN_CASES[name]], capture_output=True, env=env
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout == (GOLDEN / name).read_bytes()


# A fresh process runs main and then reports which of these modules it has
# loaded; -S keeps site-packages start-up hooks (.pth files), which may import
# random themselves, out of the count.
FOOTPRINT_CHILD = """\
import sys
import weiljet.cli
code = weiljet.cli.main(sys.argv[1:])
print(code, *[m for m in ("weiljet.suites", "weiljet.oracle", "random") if m in sys.modules], file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["derive", "--expr", "1/(1+x0^2)", "--at", "1/3", "--alpha", "2"], []),
        (["taylor", "--expr", "x0^2*x1", "--at", "1,2", "--orders", "2,1", "--mode", "simplex"], []),
        (["fd-check", "--expr", "x0^3", "--at", "2", "--wrt", "0"], ["weiljet.oracle"]),
        (["check", "--suite", "lemma-3.1.2", "--instances", "2"], ["weiljet.suites", "weiljet.oracle", "random"]),
    ],
)
def test_a_fresh_process_imports_only_what_its_subcommand_runs(argv, loaded):
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", FOOTPRINT_CHILD, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stderr.split() == ["0", *loaded]


def test_every_public_name_is_the_object_its_module_holds():
    for name in weiljet.__all__:
        owner = weiljet._OWNER.get(name)
        if owner is None:
            assert getattr(weiljet, name) is importlib.import_module(f"weiljet.{name}")
        else:
            assert getattr(weiljet, name) is getattr(importlib.import_module(f"weiljet.{owner}"), name)
    assert weiljet.taylor_box is weiljet.calculus.taylor_box


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from weiljet import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(weiljet.__all__)
    assert set(weiljet.__all__) <= set(dir(weiljet))


def test_an_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'weiljet' has no attribute 'nope'"):
        weiljet.nope
    assert not hasattr(weiljet, "nope")

import json

import pytest

from weiljet.cli import main

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

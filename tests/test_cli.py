import importlib
import json
import math
import os
import runpy
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import weiljet
from weiljet import cli
from weiljet.calculus import mixed_derivative
from weiljet.cli import main
from weiljet.errors import int_digit_limit
from weiljet.expression import MAX_NESTING, MAX_SOURCE, parse

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
    """main's exit code, stdout and stderr, argparse's own exits included."""
    try:
        code = main(argv)
    except SystemExit as exit:
        code = exit.code
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


def test_a_failing_suite_reports_its_first_counterexample(capsys, monkeypatch):
    # thm-5.1.3 asks the oracle once per instance; a wrong answer at
    # instances 2 and 4 of 6 must fail the suite, the check and both outputs.
    import weiljet.suites as suites

    real, calls = suites.oracle_mixed, []

    def wrong_at_2_and_4(f, alpha, x):
        calls.append(alpha)
        return real(f, alpha, x) + ((len(calls) - 1) % 6 in (2, 4))

    monkeypatch.setattr(suites, "oracle_mixed", wrong_at_2_and_4)
    result = suites.run_suite("thm-5.1.3", suites.SuiteConfig(instances=6, seed=0))
    assert (result.passes, result.passed) == (4, False)
    assert result.first_counterexample.startswith("instance 2: partial ")

    code, out, err = run_cli(["check", "--suite", "thm-5.1.3", "--instances", "6", "--seed", "0"], capsys)
    assert (code, err) == (2, "")
    assert out.splitlines() == [
        "thm-5.1.3  4/6  FAIL",
        f"  counterexample: {result.first_counterexample}",
        "overall: FAIL",
    ]

    argv = ["check", "--suite", "thm-5.1.3", "--instances", "6", "--seed", "0", "--format", "json"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (2, "")
    doc = json.loads(out)["result"]
    assert doc["all_passed"] is False
    assert doc["suites"] == [result.to_json()]


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


def test_check_refuses_more_instances_than_its_bound(capsys, monkeypatch):
    code, out, err = run_cli(["check", "--instances", str(cli.MAX_INSTANCES + 1)], capsys)
    assert (code, out) == (64, "")
    assert err == f"weiljet: usage error: --instances must be at most 10000, got {cli.MAX_INSTANCES + 1}\n"
    monkeypatch.setattr(cli, "MAX_INSTANCES", 3)
    assert run_cli(["check", "--suite", "lemma-3.1.2", "--instances", "3"], capsys)[0] == 0
    assert run_cli(["check", "--suite", "lemma-3.1.2", "--instances", "4"], capsys)[0] == 64


def _child(argv, stdout):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "weiljet.cli", *argv]
    return subprocess.Popen(argv, stdout=stdout, stderr=subprocess.PIPE, env=env)


_WIDE = ["taylor", "--expr", "1/(1+x0*x1*x2*x3*x4*x5*x6*x7*x8*x9)", "--at", ",".join("1" * 10)]
_WIDE += ["--orders", ",".join("1" * 10), "--format", "json"]


@pytest.mark.parametrize("when", ["before-any-output", "after-ten-bytes"])
def test_closing_stdout_early_is_one_line_and_exit_2(when):
    # The reader goes away before the child writes, or after reading 10 of
    # the wide table's bytes, more than a pipe holds: either way the next
    # write fails, which once ended in a BrokenPipeError traceback.
    if when == "before-any-output":
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = _child(["derive", "--expr", "x0^2", "--at", "3", "--alpha", "1"], write_end)
        os.close(write_end)
    else:
        proc = _child(_WIDE, subprocess.PIPE)
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == "weiljet: error: standard output was closed before all output was written\n"


class _ClosedStdout:
    # A standard output whose reader has gone: every write fails, and its
    # descriptor is a temporary file's, so main's devnull dup2 lands there.
    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def _lowest_free_fd():
    fd = os.dup(2)
    os.close(fd)
    return fd


def test_closing_stdout_early_in_process_points_it_at_devnull(capsys, monkeypatch, tmp_path):
    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr(sys, "stdout", _ClosedStdout(target.fileno()))
        free = _lowest_free_fd()
        code = main(["derive", "--expr", "x0^2", "--at", "3", "--alpha", "1"])
        assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
        assert _lowest_free_fd() == free  # the devnull descriptor was closed, not leaked
    assert code == 2
    assert capsys.readouterr().err == "weiljet: error: standard output was closed before all output was written\n"
    assert (tmp_path / "stdout").read_text() == ""


@pytest.mark.filterwarnings("ignore:'weiljet.cli' found in sys.modules:RuntimeWarning")
def test_running_the_module_exits_with_mains_code(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["weiljet", "derive", "--expr", "x0^2", "--at", "3", "--alpha", "1"])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("weiljet.cli", run_name="__main__")
    assert info.value.code == 0
    assert capsys.readouterr() == ("6\n", "")


def test_a_value_error_other_than_the_digit_cap_propagates(capsys, monkeypatch):
    # Only a result over the digit cap is a known ValueError; any other is a
    # fault in the program, which must not pass as a failed request.
    def fault(args):
        raise ValueError("a fault")

    monkeypatch.setattr(cli, "_cmd_derive", fault)
    with pytest.raises(ValueError, match="^a fault$"):
        main(["derive", "--expr", "x0", "--at", "1", "--alpha", "1"])
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["derive", "--expr", "x0", "--at", "one", "--alpha", "1"], "--at: 'one' is not a rational"),
        (["derive", "--expr", "x0", "--at", "1", "--alpha", "1,1"], "--alpha has 2 entries but --at only 1"),
        (["derive", "--expr", "x0*x1", "--at", "1", "--alpha", "1"], "expression needs 2 coordinates, got 1"),
        (["taylor", "--expr", "x0*x1", "--at", "1", "--orders", "1"], "expression needs 2 coordinates, got 1"),
        (["fd-check", "--expr", "x0", "--at", "one", "--wrt", "0"], "--at: 'one' is not a float"),
        (["fd-check", "--expr", "x0", "--at", "1", "--wrt", "1"], "--wrt 1 out of range for point of length 1"),
        (["fd-check", "--expr", "x0*x1", "--at", "1", "--wrt", "0"], "expression needs 2 coordinates, got 1"),
    ],
    ids=["derive-at", "derive-alpha", "derive-arity", "taylor-arity", "fd-check-at", "fd-check-wrt", "fd-check-arity"],
)
def test_a_bad_flag_value_is_one_usage_line(capsys, argv, message):
    assert run_cli(argv, capsys) == (64, "", f"weiljet: usage error: {message}\n")


DASH_FLAGS = {
    "taylor": {"--expr": "x0", "--at": "1", "--orders": "1", "--mode": "box", "--format": "table"},
    "derive": {"--expr": "x0", "--at": "1", "--alpha": "1", "--format": "table"},
    "check": {"--suite": "lemma-3.1.2", "--instances": "1", "--seed": "0", "--format": "json"},
    "fd-check": {"--expr": "x0", "--at": "1", "--wrt": "0", "--h": "1e-4", "--rtol": "1e-6", "--format": "table"},
}


@pytest.mark.parametrize("command, flag", [(command, flag) for command, flags in DASH_FLAGS.items() for flag in flags])
def test_a_flag_given_dash_dash_takes_it_as_its_value(capsys, command, flag):
    # Before Python 3.13 argparse dropped the "--" of "--seed=--" and gave the
    # handler [], unconverted and unchecked: tracebacks, or "seed": [] at exit 0.
    argv = [command] + [f"{name}={'--' if name == flag else value}" for name, value in DASH_FLAGS[command].items()]
    code, _, err = run_cli(argv, capsys)
    last = err.splitlines()[-1]
    if flag == "--expr":
        assert (code, last) == (2, "weiljet: error: unexpected end of input at line 1, column 3 "
                                   "(expected number or variable or '(' or '-')")
    else:
        assert code == 64 and last.startswith("weiljet") and "'--'" in last


# A value for each flag that begins with one "-" and is no plain negative
# number, which argparse alone would take for an unknown option.
DASH_LED = {"--expr": "-x0^2", "--at": "-1/2", "--orders": "-1,2", "--alpha": "-1,0", "--mode": "-box",
            "--format": "-json", "--suite": "-all", "--instances": "-1e3", "--seed": "-7/2", "--wrt": "-0x1",
            "--h": "-1e-4", "--rtol": "-1e-6"}


@pytest.mark.parametrize("command, flag", [(command, flag) for command, flags in DASH_FLAGS.items() for flag in flags])
def test_a_dash_led_value_reads_as_its_equals_form(capsys, command, flag):
    flags = {**DASH_FLAGS[command], flag: DASH_LED[flag]}
    spaced = run_cli([command] + [word for pair in flags.items() for word in pair], capsys)
    assert spaced == run_cli([command] + [f"{name}={value}" for name, value in flags.items()], capsys)
    assert "expected one argument" not in spaced[2]


@pytest.mark.parametrize(
    "argv, out",
    [
        (["derive", "--expr", "-x0^2", "--at", "-1/2", "--alpha", "1"], "1\n"),
        (["taylor", "--expr", "x0*x1", "--at", "-1,2", "--orders", "1,0"],
         "mode: box\narity: 2\norders: (1,0)\n(0,0)  -2\n(1,0)  2\n"),
        (["fd-check", "--expr", "-x0", "--at", "-5e-1", "--wrt", "0", "--format", "json"], None),
    ],
    ids=["derive", "taylor", "fd-check"],
)
def test_dash_led_values_run(capsys, argv, out):
    code, printed, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    if out is None:
        assert json.loads(printed)["result"]["exact"] == {"num": "-1", "den": "1"}
    else:
        assert printed == out


def test_only_a_word_that_begins_an_option_is_taken_for_one(capsys):
    parser = cli._Parser(prog="weiljet")
    for word in ("-h", "-hx", "--help", "--expr", "--expr=-x0", "--nope"):
        assert parser._parse_optional(word) is not None
    for word in ("-1/2", "-x0^2", "-1,2", "-1", "-", "x0", ""):
        assert parser._parse_optional(word) is None
    code, out, _ = run_cli(["derive", "-h"], capsys)
    assert code == 0 and out.startswith("usage: weiljet derive")


@pytest.mark.parametrize("command", DASH_FLAGS)
def test_a_bad_seed_in_the_environment_is_refused_before_any_work(capsys, monkeypatch, command):
    # main reads the seed before it calls the handler, which here fails the
    # test if it runs: taylor, derive and fd-check read it only after computing.
    monkeypatch.setenv("WEILJET_SEED", " x7 ")
    monkeypatch.setattr(cli, f"_cmd_{command.replace('-', '_')}", lambda args: pytest.fail("the handler ran"))
    argv = [command] + [word for pair in DASH_FLAGS[command].items() for word in pair if pair[0] != "--seed"]
    assert run_cli(argv, capsys) == (64, "", "weiljet: usage error: WEILJET_SEED='x7' is not a natural number\n")


@pytest.mark.parametrize("name", ["taylor_box.json", "taylor_simplex.json", "fd_check.json"])
def test_main_forms_the_golden_json_report_in_process(capsys, monkeypatch, name):
    monkeypatch.delenv("WEILJET_SEED", raising=False)
    assert run_cli(GOLDEN_CASES[name], capsys) == (0, (GOLDEN / name).read_text(encoding="utf-8"), "")
    monkeypatch.setenv("WEILJET_SEED", "31")
    report = json.loads(run_cli(GOLDEN_CASES[name], capsys)[1])
    assert list(report) == ["command", "inputs", "seed", "result"] and report["seed"] == 31
    assert report["command"] == GOLDEN_CASES[name][0]


@pytest.mark.parametrize("at", ["1e9999999", "1e-9999999", "1E99999999"])
def test_a_point_past_the_bit_budget_is_refused_at_once(capsys, at, within):
    # Fraction builds 10^exponent exactly: derive at 1e9999999 ran for 12.6 s
    # and at 1e99999999 for minutes.
    requests = [
        ["derive", "--expr", "x0", "--at", at, "--alpha", "1"],
        ["taylor", "--expr", "x0+x1", "--at", f"{at},1", "--orders", "1,1"],
    ]
    for argv in requests:
        with within(1.0):
            result = run_cli(argv, capsys)
        assert result == (64, "", f"weiljet: usage error: --at: {at!r} is not a rational of at most 65536 bits\n")


def test_a_point_with_an_exponent_still_parses():
    assert cli._rational("1e5") == 100_000
    assert cli._rational("2.5e-3") == Fraction(1, 400)
    assert cli._rational("1E3") == 1000
    assert cli._rational("1e19000") == 10**19000  # 63,117 bits, under the budget


@pytest.mark.parametrize(
    "argv",
    [
        # Shape.simplex(12, 12): 2,704,156 live monomials.
        ["--mode", "simplex", "--expr", "x0*x11", "--at", ",".join(["1"] * 12), "--orders", ",".join(["1"] * 12)],
        ["--expr", "x0*x1*x2", "--at", "1,2,3", "--orders", "2000,2000,2000"],
    ],
)
def test_taylor_over_the_slot_budget_fails_cleanly(capsys, argv):
    code, out, err = run_cli(["taylor", *argv], capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "over the budget" in err


def _reciprocal_of_the_product(n, mode):
    # taylor of 1/(1+x0*...*x{n-1}) at the point and orders all 1.
    ones = ",".join(["1"] * n)
    expr = "1/(1+" + "*".join(f"x{i}" for i in range(n)) + ")"
    return ["taylor", "--expr", expr, "--at", ones, "--orders", ones, "--mode", mode]


@pytest.mark.parametrize("n, mode", [(18, "box"), (10, "simplex")])
def test_taylor_over_the_pair_budget_fails_fast(capsys, n, mode, within):
    # 3^18 = 387,420,489 and C(30, 10) = 30,045,015 plan pairs: counted, not built.
    with within(0.5):
        code, out, err = run_cli(_reciprocal_of_the_product(n, mode), capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "product pairs, over the budget" in err


def test_taylor_simplex_in_eight_variables_runs(capsys):
    # Shape.simplex(8, 8): 12,870 live monomials of 43,046,721 dense slots.
    code, out, err = run_cli(_reciprocal_of_the_product(8, "simplex"), capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 3 + 12870 and lines[3] == "(0,0,0,0,0,0,0,0)  1/2"
    # The all-ones entry, against the box algebra (1,)*8 of mixed_derivative.
    ones = "(" + ",".join(["1"] * 8) + ")"
    value = mixed_derivative(parse("1/(1+x0*x1*x2*x3*x4*x5*x6*x7)"), (1,) * 8, (1,) * 8)
    assert f"{ones}  {value}" in lines


def test_taylor_simplex_in_seven_variables_stays_small(capsys):
    # Elements holding all 8^7 = 2,097,152 dense slots peaked at 234 MB
    # traced; holding the 3,432 live monomials must take under a tenth.
    tracemalloc.start()
    try:
        code, out, err = run_cli(_reciprocal_of_the_product(7, "simplex"), capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and len(out.splitlines()) == 3 + 3432
    assert peak < (234 << 20) // 10


def test_a_univariate_jet_of_high_order_stays_small(capsys):
    # A plan of one position list per row held all 8,386,560 pairs of this
    # 4,095-slot jet and peaked at 294 MB traced; one range per row holds
    # none, and the request peaks near 2 MB.
    tracemalloc.start()
    try:
        code, out, err = run_cli(["derive", "--expr", "x0^3+x0", "--at", "1", "--alpha", "4094"], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (0, "0\n", "")
    assert peak < 16 << 20


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


def test_right_operands_nested_to_the_limit_evaluate(capsys):
    # Each parenthesis opens three levels of evaluation's recursion: a
    # product's right operand, a power's base and the difference inside it.
    expr = "x0-x0*(" * MAX_NESTING + "x0" + ")^1" * MAX_NESTING
    value, slope = 2, 1  # f = x0 and its derivative at 2, then x0 - x0*f
    for _ in range(MAX_NESTING):
        value, slope = 2 - 2 * value, 1 - value - 2 * slope
    code, out, err = run_cli(["derive", f"--expr={expr}", "--at", "2", "--alpha", "1"], capsys)
    assert (code, out, err) == (0, f"{slope}\n", "")


def _chain(op, terms):
    return op.join(["x0"] * terms)


# How many x0 a chain spells in exactly MAX_SOURCE characters: 3n - 1 of them.
_LONGEST = (MAX_SOURCE + 1) // 3
_DEEP_SUM = "(" + _chain("+", _LONGEST - 1) + ")"


# The tree's height has no limit of its own: a tree h levels deep spells at
# least 2h + 1 characters, so MAX_SOURCE bounds it. Each case, once a tree
# past an 800-level limit, is now that shape grown past MAX_SOURCE, refused
# at the first character past it before it is tokenized. A sum of 70,000
# terms is what a shell cannot pass as one argument.
@pytest.mark.parametrize(
    "expr",
    [
        _chain("+", _LONGEST + 1),
        _chain("+", 70000),
        _chain("*", _LONGEST + 1),
        _chain("/", _LONGEST + 1),
        _DEEP_SUM + "^2",
        _DEEP_SUM + "*x0",
        "x0-" + _DEEP_SUM,
        "-" * 10 + "(" + _chain("+", _LONGEST - 3) + ")",
    ],
    ids=["sum", "long-sum", "product", "quotient", "power", "right-factor", "right-term", "minus-signs"],
)
def test_a_tree_past_the_depth_budget_is_a_parse_error(capsys, expr, within):
    assert len(expr) > MAX_SOURCE
    with within(1.0):
        code, out, err = run_cli(["derive", f"--expr={expr}", "--at", "2", "--alpha", "1"], capsys)
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1
    assert err == (
        f"weiljet: error: source of {len(expr)} characters is over the limit of {MAX_SOURCE} "
        f"at line 1, column {MAX_SOURCE + 1}\n"
    )


# Trees of the most levels a source of MAX_SOURCE characters spells, over 50
# times the former limit of 800, on every command that takes an expression.
_NEGATED = "-" * (MAX_NESTING - 1) + "(" + _chain("*", (MAX_SOURCE - MAX_NESTING) // 3) + ")"


@pytest.mark.parametrize(
    "argv, value",
    [
        (["derive", "--expr", _chain("+", _LONGEST), "--at", "2", "--alpha", "1"], str(_LONGEST)),
        (["derive", "--expr=" + _NEGATED, "--at", "1", "--alpha", "1"], str(-((MAX_SOURCE - MAX_NESTING) // 3))),
        (["taylor", "--expr", _chain("-", _LONGEST), "--at", "2", "--orders", "1", "--format", "json"], None),
        (["fd-check", "--expr", _chain("+", _LONGEST), "--at", "2", "--wrt", "0"], None),
    ],
    ids=["sum", "negated-product", "taylor-json", "fd-check"],
)
def test_a_tree_at_the_depth_budget_still_runs(capsys, argv, value):
    assert [len(arg.removeprefix("--expr=")) for arg in argv if "x0" in arg] == [MAX_SOURCE]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    if value is not None:
        assert out == value + "\n"
    if argv[0] == "taylor":
        assert json.loads(out)["result"]["entries"][-1]["value"] == {"num": str(2 - _LONGEST), "den": "1"}


def test_the_ten_thousand_term_polynomial_derives_in_under_a_second(capsys, within):
    expr = "+".join(f"{k}*x0^{k % 7}" for k in range(1, 10001))
    x = Fraction(1, 2)
    expected = sum(k * e * (e - 1) * (e - 2) * x ** (e - 3) for k in range(1, 10001) if (e := k % 7) >= 3)
    with within(1.0):
        code, out, err = run_cli(["derive", "--expr", expr, "--at", "1/2", "--alpha", "3"], capsys)
    assert (code, out, err) == (0, f"{expected}\n", "")


def test_a_huge_power_fails_at_the_bit_budget(capsys, within):
    # x0^100000000 at 10 ran past a 10 s timeout squaring ever larger
    # integers; at 1 every square stays small.
    with within(1.0):
        code, out, err = run_cli(["derive", "--expr", "x0^100000000", "--at", "10", "--alpha", "1"], capsys)
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1 and "bit coefficients, over the budget" in err
    code, out, err = run_cli(["derive", "--expr", "x0^100000000", "--at", "1", "--alpha", "1"], capsys)
    assert (code, out, err) == (0, "100000000\n", "")


def test_a_sparse_divisor_derives_within_the_bit_budget(capsys, within):
    # N + x0^10 at 0 over order 100 scales by N^11, not N^101; with a
    # 210-digit N the latter is 70,499 bits and was refused.
    n = 10**210 - 1
    with within(1.0):
        result = run_cli(["derive", "--expr", f"1/({n}+x0^10)", "--at", "0", "--alpha", "100"], capsys)
    assert result == (0, f"{Fraction(math.factorial(100), n**11)}\n", "")
    code, out, err = run_cli(["derive", "--expr", "x0^30000/x0^29999", "--at", "10", "--alpha", "1"], capsys)
    assert (code, out) == (2, "") and "scale to 298980-bit coefficients" in err


def test_a_long_digit_quotient_fails_at_the_bit_budget(capsys, within):
    # At a 1,000-digit point to order 800 the solve scaled by |b0|^801, 2.7 M
    # bits, and took 16 s and 288 MB before the output digit cap ended it; it
    # now checks that size first. At 1 the same order still runs.
    with within(1.0):
        code, out, err = run_cli(["derive", "--expr", "1/(1+x0)", "--at", "7" * 1000, "--alpha", "800"], capsys)
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1 and "bit coefficients, over the budget of 65536 bits" in err
    code, out, err = run_cli(["derive", "--expr", "1/(1+x0)", "--at", "1", "--alpha", "800"], capsys)
    assert (code, out, err) == (0, f"{Fraction(math.factorial(800), 2**801)}\n", "")


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

import json
import random
from pathlib import Path

import pytest

from weiljet.calculus import (
    DerivTable,
    IdentityViolationError,
    RuleVerdict,
    check_rule,
    derivative,
    evaluate_perturbed,
    expand_sum_of_D,
    jet_evaluate,
    mixed_derivative,
    taylor_simplex,
)
from weiljet.cli import main
from weiljet.expression import Add, Const, Var, evaluate
from weiljet.oracle import oracle_mixed
from weiljet.suites import (
    SuiteConfig,
    UnknownSuiteError,
    run_suite,
    run_suites,
    random_square_zero,
    random_shape,
    suite_names,
)
from weiljet.weil import WeilElement, generator, one

EXPECTED_SUITES = {
    "lemma-3.1.2",
    "lemma-3.1.3",
    "lemma-3.1.4",
    "lemma-3.1.5",
    "lemma-3.1.6",
    "lemma-3.1.7",
    "lemma-3.1.8",
    "thm-4.1.4",
    "lemma-4.1.5",
    "lemma-4.1.6",
    "prop-4.2.1",
    "prop-4.2.2",
    "thm-4.2.3",
    "thm-5.1.3",
    "prop-5.1.4",
    "thm-5.2.1",
    "prop-5.2.3",
    "thm-5.2.4",
}


def test_registry_contains_every_suite():
    assert set(suite_names()) == EXPECTED_SUITES


def test_every_suite_passes_on_a_small_run():
    config = SuiteConfig(instances=30, seed=3)
    for result in run_suites(suite_names(), config):
        assert result.passed, result.first_counterexample
        assert result.first_counterexample is None


def test_unknown_suite_raises():
    with pytest.raises(UnknownSuiteError):
        run_suite("lemma-9.9.9")


def test_runs_are_deterministic_per_seed():
    config = SuiteConfig(instances=12, seed=11)
    first = run_suites(suite_names(), config)
    second = run_suites(suite_names(), config)
    assert first == second


def test_different_seeds_draw_different_instances():
    # Same suite, different seeds: results agree (all pass) but the RNG
    # streams differ, which we can see through the generator helper.
    rng_a = random.Random("0:probe:0")
    rng_b = random.Random("1:probe:0")
    assert rng_a.random() != rng_b.random()


def test_random_square_zero_really_squares_to_zero():
    rng = random.Random("suites:squarezero")
    for _ in range(200):
        shape = random_shape(rng)
        x = random_square_zero(rng, shape)
        assert (x * x).is_zero()


def test_suite_result_json_shape():
    result = run_suite("lemma-3.1.5", SuiteConfig(instances=5, seed=0))
    doc = result.to_json()
    assert doc == {
        "name": "lemma-3.1.5",
        "instances": 5,
        "passes": 5,
        "passed": True,
        "first_counterexample": None,
    }


# -- Every failure branch, forced -----------------------------------------------
#
# One fault per way a suite can fail, each a monkeypatched name that sends one
# comparison wrong and leaves the ones before it right. The golden file holds
# the first counterexample each fault makes, byte for byte, as recorded before
# the checks stated their comparisons through one helper.

COUNTEREXAMPLES = Path(__file__).resolve().parent / "golden" / "counterexamples.json"


def _off(fn):
    """fn with one added to its result (a rational or a jet)."""

    def wrong(*args, **kwargs):
        out = fn(*args, **kwargs)
        return out + (one(out.shape) if isinstance(out, WeilElement) else 1)

    return wrong


def _fails(*rules):
    """check_rule with every verdict on one of ``rules`` (all if none) failed."""

    def wrong(rule, **params):
        verdict = check_rule(rule, **params)
        if rules and rule not in rules:
            return verdict
        return RuleVerdict(verdict.rule, False, verdict.instance, verdict.lhs, verdict.rhs)

    return wrong


def _simplex_off(*args):
    table = taylor_simplex(*args)
    return DerivTable(table.mode, table.arity, table.orders, {a: v + 1 for a, v in table.entries.items()})


def _slope_of_var_off(f, x):
    return derivative(f, x) + (1 if isinstance(f, Var) else 0)


def _always_zero(a):
    return 0


# case -> (suite, {dotted name under weiljet: replacement}), replacements
# built lazily so that each wraps the function it replaces.
FAULTS = {
    "lemma-3.1.2 zero nilpotent": ("lemma-3.1.2", {"weil.WeilElement.is_in_Dm": lambda: lambda a, m: False}),
    "lemma-3.1.3 product nilpotent": ("lemma-3.1.3", {"suites._minimal_nilpotency": lambda: _always_zero}),
    "lemma-3.1.4 monotone": ("lemma-3.1.4", {"suites._minimal_nilpotency": lambda: _always_zero}),
    "lemma-3.1.5 square of sum": ("lemma-3.1.5", {"suites.random_square_zero": lambda: _off(random_square_zero)}),
    "lemma-3.1.6 binomial": ("lemma-3.1.6", {"suites.generator": lambda: _off(generator)}),
    "lemma-3.1.7 power vanishes": ("lemma-3.1.7", {"suites.generator": lambda: _off(generator)}),
    "lemma-3.1.8 factorial": ("lemma-3.1.8", {"suites.one": lambda: _off(one)}),
    "thm-4.1.4 expansion": ("thm-4.1.4", {"suites.jet_evaluate": lambda: _off(jet_evaluate)}),
    "thm-4.1.4 oracle": ("thm-4.1.4", {"suites.oracle_mixed": lambda: _off(oracle_mixed)}),
    "thm-4.1.4 rules": ("thm-4.1.4", {"suites.check_rule": _fails}),
    "lemma-4.1.5 constant": ("lemma-4.1.5", {"suites.derivative": lambda: _off(derivative)}),
    "lemma-4.1.5 identity": ("lemma-4.1.5", {"suites.derivative": lambda: _slope_of_var_off}),
    "lemma-4.1.5 chain and power": ("lemma-4.1.5", {"suites.check_rule": _fails}),
    "lemma-4.1.5 reciprocal": ("lemma-4.1.5", {"suites.check_rule": lambda: _fails("reciprocal")}),
    "lemma-4.1.5 inverse affine": ("lemma-4.1.5", {"suites.check_rule": lambda: _fails("inverse_affine")}),
    "lemma-4.1.6 expansion": ("lemma-4.1.6", {"suites.evaluate_perturbed": lambda: _off(evaluate_perturbed)}),
    "prop-4.2.1 expansion": ("prop-4.2.1", {"suites.jet_evaluate": lambda: _off(jet_evaluate)}),
    "prop-4.2.2 oracle": ("prop-4.2.2", {"suites.oracle_mixed": lambda: _off(oracle_mixed)}),
    "thm-4.2.3 expansion": ("thm-4.2.3", {"suites.jet_evaluate": lambda: _off(jet_evaluate)}),
    "thm-5.1.3 value": ("thm-5.1.3", {"suites.evaluate": lambda: _off(evaluate)}),
    "thm-5.1.3 partial": ("thm-5.1.3", {"suites.oracle_mixed": lambda: _off(oracle_mixed)}),
    "prop-5.1.4 symmetry": ("prop-5.1.4", {"suites.check_rule": _fails}),
    "prop-5.1.4 oracle": ("prop-5.1.4", {"suites.oracle_mixed": lambda: _off(oracle_mixed)}),
    "thm-5.2.1 entry": ("thm-5.2.1", {"suites.oracle_mixed": lambda: _off(oracle_mixed)}),
    "thm-5.2.1 reconstruction": ("thm-5.2.1", {"suites.jet_evaluate": lambda: _off(jet_evaluate)}),
    "prop-5.2.3 extraction": ("prop-5.2.3", {"suites.mixed_derivative": lambda: _off(mixed_derivative)}),
    "prop-5.2.3 expansion": ("prop-5.2.3", {"suites.jet_evaluate": lambda: _off(jet_evaluate)}),
    "thm-5.2.4 simplex and box": ("thm-5.2.4", {"suites.taylor_simplex": lambda: _simplex_off}),
    "thm-5.2.4 expansion": ("thm-5.2.4", {"suites.jet_evaluate": lambda: _off(jet_evaluate)}),
}


def _first_counterexample(case: str) -> str | None:
    suite, patches = FAULTS[case]
    with pytest.MonkeyPatch.context() as mp:
        for name, replacement in patches.items():
            mp.setattr(f"weiljet.{name}", replacement())
        return run_suite(suite, SuiteConfig(instances=4, seed=0)).first_counterexample


@pytest.mark.parametrize("case", sorted(FAULTS))
def test_each_failure_branch_gives_its_golden_counterexample(case):
    golden = json.loads(COUNTEREXAMPLES.read_text(encoding="utf-8"))
    assert golden.keys() == FAULTS.keys()
    assert golden[case] is not None
    assert _first_counterexample(case) == golden[case]


# -- Faults and fallbacks ---------------------------------------------------------


def test_a_fault_inside_a_suite_is_its_counterexample(monkeypatch, capsys):
    # No element is ever nilpotent, so the minimal order cannot be found.
    monkeypatch.setattr(WeilElement, "is_in_Dm", lambda a, m: False)
    assert main(["check", "--suite", "lemma-3.1.4", "--instances", "3"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "lemma-3.1.4  0/3  FAIL"
    assert out[1].startswith("  counterexample: instance 0: element with zero constant term not nilpotent: ")
    assert out[-1] == "overall: FAIL"
    assert main(["check", "--instances", "2"]) == 2
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith(("  ", "overall"))]
    assert [row.split()[0] for row in rows] == list(suite_names())


def _raises(error):
    def fault(*args):
        raise error

    return fault


@pytest.mark.parametrize(
    "suite, method, error, text",
    [
        ("lemma-3.1.5", "__pow__", ZeroDivisionError("division by zero"), "ZeroDivisionError: division by zero"),
        ("lemma-3.1.3", "__mul__", KeyError(2), "KeyError: 2"),
    ],
    ids=["zero-division", "key-error"],
)
def test_an_exception_from_the_kernel_is_an_internal_fault_of_its_instance(
    monkeypatch, capsys, suite, method, error, text
):
    # A bug in the code under test, not a failed comparison: check still
    # prints its table, names the fault and exits 2. A caller of the kernel
    # still sees the exception itself.
    monkeypatch.setattr(WeilElement, method, _raises(error))
    assert main(["check", "--suite", suite, "--instances", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"{suite}  0/2  FAIL",
        f"  counterexample: instance 0: internal fault: {text}",
        "overall: FAIL",
    ]
    assert captured.err == ""
    x = generator(random_shape(random.Random(0)), 0)
    with pytest.raises(type(error)):
        getattr(x, method)(x if method == "__mul__" else 2)


def test_an_identity_violation_inside_a_suite_is_its_counterexample(monkeypatch, capsys):
    monkeypatch.setattr(WeilElement, "__ne__", lambda a, b: True, raising=False)
    with pytest.raises(IdentityViolationError):
        expand_sum_of_D(Var(0), 1, 2)
    assert main(["check", "--instances", "2", "--format", "json"]) == 2
    results = {r["name"]: r for r in json.loads(capsys.readouterr().out)["result"]["suites"]}
    assert list(results) == list(suite_names())
    assert not results["prop-4.2.2"]["passed"]
    assert results["prop-4.2.2"]["first_counterexample"].startswith("instance 0: square-free expansion mismatch")
    assert results["lemma-3.1.2"]["passed"]  # compares no jets


def test_random_square_zero_falls_back_to_the_top_monomial(monkeypatch):
    shape = random_shape(random.Random("suites:fallback"))
    monkeypatch.setattr(WeilElement, "is_zero", lambda a: False)  # no draw squares to zero
    x = random_square_zero(random.Random("suites:fallback:x"), shape)
    monkeypatch.undo()
    assert [alpha for alpha, _ in x._terms()] == [shape.orders]
    assert (x * x).is_zero()


def test_lemma_4_1_5_falls_back_to_a_reciprocal_without_a_pole(monkeypatch):
    reciprocals = []

    def spy(rule, **params):
        if rule == "reciprocal":
            reciprocals.append(params)
        return check_rule(rule, **params)

    monkeypatch.setattr("weiljet.suites.evaluate", lambda h, x: 0)  # every draw vanishes at x
    monkeypatch.setattr("weiljet.suites.check_rule", spy)
    assert run_suite("lemma-4.1.5", SuiteConfig(instances=3, seed=0)).passed
    assert [p["f"] for p in reciprocals] == [Add(Var(0), Const(1 - p["x"])) for p in reciprocals]
    assert len(reciprocals) == 3

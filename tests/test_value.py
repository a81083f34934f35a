"""The value classes behave as the frozen dataclasses they replace, and no
command pays for importing ``dataclasses`` or ``inspect``.

Each class keeps its constructor (positional and keyword, with defaults),
equality, hashing, repr, immutability and pickling, and still answers to
``dataclasses.fields``, ``is_dataclass``, ``replace`` and ``asdict``, which
the bench tracer and the contract tests read.
"""

import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from weiljet import expression
from weiljet.calculus import DerivTable, RuleVerdict
from weiljet.expression import MAX_SOURCE, Add, Compose, Const, Div, Expr, Mul, Neg, Pow, Sub, Var, evaluate
from weiljet.oracle import SparsePoly, oracle_mixed
from weiljet.suites import SuiteConfig, SuiteResult
from weiljet.weil import Shape

SRC = str(Path(__file__).resolve().parent.parent / "src")
REQUIRED = object()
A, B = Var(0), Const(Fraction(-3, 2))

# (class, its constructor's parameters with their defaults, field values of
# one instance)
CLASSES = [
    (Const, {"value": REQUIRED}, (Fraction(1, 3),)),
    (Var, {"index": REQUIRED}, (2,)),
    (Add, {"left": REQUIRED, "right": REQUIRED}, (A, B)),
    (Sub, {"left": REQUIRED, "right": REQUIRED}, (A, B)),
    (Mul, {"left": REQUIRED, "right": REQUIRED}, (A, B)),
    (Div, {"left": REQUIRED, "right": REQUIRED}, (A, B)),
    (Neg, {"operand": REQUIRED}, (A,)),
    (Pow, {"base": REQUIRED, "exponent": REQUIRED}, (A, 3)),
    (Compose, {"outer": REQUIRED, "substitutions": REQUIRED}, (Mul(A, Var(1)), (B, Add(A, A)))),
    (Shape, {"orders": REQUIRED, "degree": None}, ((2, 3), 4)),
    (DerivTable, dict.fromkeys(("mode", "arity", "orders", "entries"), REQUIRED), ("box", 1, (1,), {(0,): 1})),
    (RuleVerdict, dict.fromkeys(("rule", "passed", "instance", "lhs", "rhs"), REQUIRED),
     ("r", True, {"f": 1}, 1, 1)),
    (SuiteConfig, {"instances": 200, "seed": 0}, (7, 3)),
    (SuiteResult, {"name": REQUIRED, "instances": REQUIRED, "passes": REQUIRED, "first_counterexample": None},
     ("s", 4, 3, "x")),
    (SparsePoly, {"arity": REQUIRED, "terms": REQUIRED}, (1, {(1,): Fraction(2)})),
]
IDS = [cls.__name__ for cls, *_ in CLASSES]
# A new value for each class's last field, for ``dataclasses.replace``.
CHANGES = {
    Const: Fraction(2), Var: 3, Add: A, Sub: A, Mul: A, Div: A, Neg: B, Pow: 4, Compose: (B, B), Shape: 3,
    DerivTable: {}, RuleVerdict: 2, SuiteConfig: 4, SuiteResult: None, SparsePoly: {},
}


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, params, values", CLASSES, ids=IDS)
def test_a_value_class_keeps_its_constructor_and_fields(cls, params, values):
    signature = inspect.signature(cls)
    defaults = {
        name: REQUIRED if p.default is inspect.Parameter.empty else p.default
        for name, p in signature.parameters.items()
    }
    assert defaults == params
    names = list(params)
    assert [f.name for f in dataclasses.fields(cls)] == names == list(cls.__match_args__)
    assert dataclasses.is_dataclass(cls) and not dataclasses.is_dataclass(Expr)
    value = cls(*values)
    assert cls(**dict(zip(names, values))) == value
    assert tuple(getattr(value, name) for name in names) == values
    assert list(dataclasses.asdict(value)) == names
    changed = dataclasses.replace(value, **{names[-1]: CHANGES[cls]})
    assert type(changed) is cls and changed != value and getattr(changed, names[-1]) == CHANGES[cls]
    assert tuple(getattr(changed, name) for name in names[:-1]) == values[:-1]


@pytest.mark.parametrize("cls, params, values", CLASSES, ids=IDS)
def test_a_value_compares_hashes_prints_and_pickles_by_its_fields(cls, params, values):
    value, twin = cls(*values), cls(*values)
    assert value == twin and not value != twin and value is not twin
    assert repr(value) == f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(params, values)) + ")"
    assert pickle.loads(pickle.dumps(value)) == value
    if _hashable(values):
        assert hash(value) == hash(twin)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


@pytest.mark.parametrize("cls, params, values", CLASSES, ids=IDS)
def test_a_value_is_unequal_to_a_foreign_operand(cls, params, values):
    value, other = cls(*values), object()
    assert value.__eq__(other) is NotImplemented and value != other


@pytest.mark.parametrize("cls, params, values", CLASSES, ids=IDS)
def test_a_frozen_value_refuses_assignment_and_the_report_takes_it(cls, params, values):
    value = cls(*values)
    name = next(iter(params))
    with pytest.raises(AttributeError, match="frozen"):
        setattr(value, name, values[0])
    with pytest.raises(AttributeError, match="frozen"):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_asdict_turns_nested_values_into_dicts():
    assert dataclasses.asdict(Add(A, B)) == {"left": {"index": 0}, "right": {"value": Fraction(-3, 2)}}
    assert dataclasses.asdict(Shape((2, 3), 4)) == {"orders": (2, 3), "degree": 4}
    assert dataclasses.astuple(SuiteResult("s", 2, 2)) == ("s", 2, 2, None)


def test_value_defaults_are_fresh_and_normalised():
    assert SuiteConfig() == SuiteConfig(200, 0)
    assert Shape((2, 2), 9) == Shape((2, 2)) and Shape((5,), 2).orders == (2,)
    assert Const(3).value == Fraction(3) and type(Const(3).value) is Fraction
    assert Compose(A, [B]).substitutions == (B,)
    with pytest.raises(ValueError):
        Var(-1)
    with pytest.raises(ValueError):
        Pow(A, -1)


def test_nodes_of_different_kinds_are_unequal():
    assert Add(A, B) != Sub(A, B) and Add(A, B) != Add(B, A)
    assert Neg(Add(A, B)) != Neg(Add(A, Const(1))) and Neg(A) != A
    assert Pow(A, 2) != Pow(A, 3) and Const(0) != Var(0)
    assert Compose(A, (B,)) != Compose(A, (A,))


def _left_deep_sum(height):
    e = Var(0)
    for _ in range(height):
        e = Add(e, Var(0))
    return e


@pytest.mark.parametrize("height", [800, 8000])
def test_deep_trees_compare_hash_and_print_without_recursion(height):
    e, twin = _left_deep_sum(height), _left_deep_sum(height)
    assert e == twin and hash(e) == hash(twin)
    assert e != _left_deep_sum(height - 1) and e != Add(_left_deep_sum(height - 1), Var(1))
    text = repr(e)
    assert text.startswith("Add(left=" * height + "Var(index=0), right=Var(index=0))")
    assert text.count("Var(index=0)") == height + 1 and text.endswith(")")


def test_the_oracle_takes_a_tree_at_the_depth_budget():
    # oracle_mixed expands the tree on every call.
    # "x0+x0+...+x0" in MAX_SOURCE characters is the deepest sum a source spells.
    height = (MAX_SOURCE - 2) // 3
    e = _left_deep_sum(height)
    assert oracle_mixed(e, (1,), (2,)) == height + 1
    assert oracle_mixed(_left_deep_sum(height), (0,), (2,)) == 2 * (height + 1)


def test_a_composition_keeps_its_variables_for_evaluation(monkeypatch):
    c = Compose(Mul(A, Var(2)), (Const(3), B, Add(A, Var(1))))
    assert c._used == frozenset({0, 2}) and dataclasses.fields(c)[-1].name == "substitutions"

    def no_walk(e):
        raise AssertionError("evaluate walked the outer expression of a composition")

    monkeypatch.setattr(expression, "variables", no_walk)
    assert evaluate(c, (Fraction(1), Fraction(2))) == 9


# A fresh process runs main and then reports which of these modules it has
# loaded; -S keeps site-packages start-up hooks out of the count.
FOOTPRINT_CHILD = """\
import sys
import weiljet.cli
code = weiljet.cli.main(sys.argv[1:])
print(code, *[m for m in ("dataclasses", "inspect", "typing") if m in sys.modules], file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["derive", "--expr", "1/(1+x0^2)", "--at", "1/3", "--alpha", "2"],
        ["taylor", "--expr", "x0^2*x1", "--at", "1,2", "--orders", "2,1", "--format", "json"],
        ["fd-check", "--expr", "x0^3", "--at", "2", "--wrt", "0"],
        ["check", "--suite", "all", "--instances", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_subcommand_imports_dataclasses_inspect_or_typing(argv):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", FOOTPRINT_CHILD, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.stderr.split() == ["0"]


def test_importing_the_expression_module_alone_stays_light():
    code = "import sys, weiljet.expression; print(*[m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC)
    )
    assert (proc.returncode, proc.stdout.strip(), proc.stderr) == (0, "", "")

"""The public surface and the AST node contract, pinned to recorded values.

The bench tracer counts nodes through ``dataclasses.fields`` and product
pairs through the dense layout of ``WeilElement.coeffs``, JSON and ``repr``
are read by users, ``weiljet.__all__`` is the package's API, and every size
limit is assigned in ``weiljet.errors`` alone.
"""

import ast
import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import weiljet
from weiljet import cli, errors, expression, weil
from weiljet.expression import (
    Add,
    Compose,
    Const,
    Div,
    Expr,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    expr_from_json,
    expr_to_json,
)
from weiljet.weil import Shape, constant, element_to_json, generator

GOLDEN = Path(__file__).resolve().parent / "golden"
LIMITS = {
    "SLOT_BUDGET": 2**21,
    "PAIR_BUDGET": 2**23,
    "COEFF_BIT_BUDGET": 2**16,
    "MAX_SOURCE": 2**17,
    "MAX_NESTING": 200,
    "MAX_INSTANCES": 10_000,
}

A, B = Var(0), Const(Fraction(-3, 2))
NODES = (
    B,
    A,
    Add(A, B),
    Sub(A, B),
    Neg(A),
    Mul(A, B),
    Div(A, B),
    Pow(A, 3),
    Compose(Mul(A, Var(1)), (B, Add(A, A))),
)
BINARY = (Add, Sub, Mul, Div)


def _record(node):
    return {
        "repr": repr(node),
        "fields": [f.name for f in dataclasses.fields(node)],
        "json": expr_to_json(node),
    }


def test_public_names_are_unchanged():
    recorded = json.loads((GOLDEN / "public_names.json").read_text(encoding="utf-8"))
    assert sorted(weiljet.__all__) == recorded


def test_each_node_kind_keeps_its_repr_fields_and_json():
    recorded = json.loads((GOLDEN / "ast_nodes.json").read_text(encoding="utf-8"))
    assert {type(node).__name__: _record(node) for node in NODES} == recorded
    for node in NODES:
        assert expr_from_json(expr_to_json(node)) == node


def test_binary_nodes_compare_by_kind_and_hash_by_value():
    for kind in BINARY:
        assert issubclass(kind, Expr) and dataclasses.is_dataclass(kind)
        assert kind(A, B) == kind(A, B) and hash(kind(A, B)) == hash(kind(Var(0), B))
        assert kind(A, B) != kind(B, A)
        for other in BINARY:
            if other is not kind:
                assert kind(A, B) != other(A, B)


def test_a_capped_element_views_its_coefficients_in_the_dense_layout():
    # Mixed-radix, first index fastest, every slot of the box listed and zero
    # above the cap: the bench's pair count reads positions this way.
    shape = Shape((3, 3, 3), 3)
    a = (constant(shape, 2) + generator(shape, 0) - generator(shape, 2) * Fraction(1, 2)) ** 3
    assert len(a.coeffs) == len(a.nums) == shape.size() == 64
    for p, alpha in enumerate(shape.box()):
        assert p == alpha[0] + 4 * alpha[1] + 16 * alpha[2] == shape.index(alpha)
        if sum(alpha) > 3:
            assert a.coeffs[p] == 0 and a.nums[p] == 0
        else:
            assert a.coeffs[p] == a.coefficient(alpha) == Fraction(a.nums[p], a.den)
    assert sum(1 for c in a.coeffs if c) == len(element_to_json(a)["coeffs"]) == 10


def test_every_size_limit_is_assigned_in_errors_alone():
    assert {name: getattr(errors, name) for name in LIMITS} == LIMITS
    checkers = {
        weil: ("SLOT_BUDGET", "PAIR_BUDGET", "COEFF_BIT_BUDGET"),
        expression: ("MAX_SOURCE", "MAX_NESTING", "COEFF_BIT_BUDGET"),
        cli: ("MAX_INSTANCES", "COEFF_BIT_BUDGET"),
    }
    for module, names in checkers.items():
        for name in names:
            assert getattr(module, name) is getattr(errors, name), (module.__name__, name)
    assigners = {
        (path.name, node.id)
        for path in Path(errors.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id in LIMITS
    }
    assert assigners == {("errors.py", name) for name in LIMITS}

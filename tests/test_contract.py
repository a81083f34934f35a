"""The public surface and the AST node contract, pinned to recorded values.

The bench tracer counts nodes through ``dataclasses.fields``, JSON and
``repr`` are read by users, and ``weiljet.__all__`` is the package's API.
"""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import weiljet
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

GOLDEN = Path(__file__).resolve().parent / "golden"

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

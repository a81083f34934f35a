import copy
import json
import pickle
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiljet.expression import (
    MAX_NESTING,
    MAX_SOURCE,
    Add,
    Compose,
    Const,
    Div,
    EvaluationError,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sub,
    Var,
    arity,
    evaluate,
    expr_from_json,
    expr_to_json,
    parse,
    pretty_print,
    substitute,
    variables,
)
from weiljet.errors import int_digit_limit
from weiljet.multiindex import ArityMismatchError
from weiljet.oracle import to_poly
from weiljet.weil import Shape, constant, generator, one

# ASTs reachable from the grammar: nonnegative constants, no composition.
printable_exprs = st.recursive(
    st.one_of(
        st.fractions(min_value=0, max_value=9, max_denominator=6).map(Const),
        st.integers(0, 3).map(Var),
    ),
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda t: Add(*t)),
        st.tuples(sub, sub).map(lambda t: Sub(*t)),
        st.tuples(sub, sub).map(lambda t: Mul(*t)),
        st.tuples(sub, sub).map(lambda t: Div(*t)),
        sub.map(Neg),
        st.tuples(sub, st.integers(0, 4)).map(lambda t: Pow(*t)),
    ),
    max_leaves=30,
)

division_free_exprs = st.recursive(
    st.one_of(
        st.fractions(min_value=-5, max_value=5, max_denominator=4).map(Const),
        st.integers(0, 2).map(Var),
    ),
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda t: Add(*t)),
        st.tuples(sub, sub).map(lambda t: Sub(*t)),
        st.tuples(sub, sub).map(lambda t: Mul(*t)),
        sub.map(Neg),
        st.tuples(sub, st.integers(0, 3)).map(lambda t: Pow(*t)),
    ),
    max_leaves=16,
)

points = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=3, max_size=3
).map(tuple)


def test_parse_examples():
    assert parse("x0^2*x1 + 3*x0") == Add(
        Mul(Pow(Var(0), 2), Var(1)), Mul(Const(3), Var(0))
    )
    assert parse("1/(1+x0)") == Div(Const(1), Add(Const(1), Var(0)))
    with pytest.raises(ParseError):
        parse("x0^(-1)")


def test_parse_rational_literals():
    assert parse("1/2") == Const(Fraction(1, 2))
    assert parse("1 / 2") == Div(Const(1), Const(2))
    assert parse("6/3") == Const(2)
    assert parse("1.5") == Const(Fraction(3, 2))
    assert parse("0.1") == Const(Fraction(1, 10))
    assert parse("6/3.5") == Div(Const(6), Const(Fraction(7, 2)))


def test_parse_precedence():
    assert parse("2*x0+1") == Add(Mul(Const(2), Var(0)), Const(1))
    assert parse("-x0^2") == Neg(Pow(Var(0), 2))
    assert parse("2+x0*x1") == Add(Const(2), Mul(Var(0), Var(1)))
    assert parse("x0-x1-x2") == Sub(Sub(Var(0), Var(1)), Var(2))


def test_power_is_non_associative():
    with pytest.raises(ParseError):
        parse("x0^2^3")
    assert parse("(x0^2)^3") == Pow(Pow(Var(0), 2), 3)


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse("x0 +\n* 2")
    assert info.value.line == 2
    assert info.value.column == 1
    assert info.value.expected

    with pytest.raises(ParseError) as info:
        parse("x0 + y")
    assert info.value.column == 6

    with pytest.raises(ParseError):
        parse("1/0")
    with pytest.raises(ParseError):
        parse("(x0")
    with pytest.raises(ParseError):
        parse("")


# Inputs paired with what the recursive-descent parser gave for them before its
# tokenizer was rewritten: the canonical print of the AST, or the ParseError's
# message, line, column and expected kinds. Entries tagged "digit_cap" hold a
# literal one digit over that cap and apply only where the interpreter has it.
PARSE_CORPUS = Path(__file__).resolve().parent / "golden" / "parse_corpus.json"


def _chain(op, var, budget):
    # The longest chain of var joined by op that fits in budget characters.
    return op.join([var] * ((budget + len(op)) // (len(var) + len(op))))


# The deepest trees of four shapes a source of MAX_SOURCE characters spells,
# padded with trailing spaces to exactly that length, and each with one level
# more: a sum; a product under MAX_NESTING - 1 minus signs; a power of a
# difference; a sum continued by MAX_NESTING parenthesized three-operator
# chains, each the first operand of the next.
_NESTED = "+" + "(" * MAX_NESTING + "x0" + ")*x1-x0+2" * MAX_NESTING
_DEEPEST = {
    "sum": (_chain("+", "x0", MAX_SOURCE), "{}+x1"),
    "negated-product": ("-" * (MAX_NESTING - 1) + "(" + _chain("*", "x1", MAX_SOURCE - MAX_NESTING - 1) + ")", "x0*{}"),
    "power": ("(" + _chain("-", "x0", MAX_SOURCE - 4) + ")^2", "-{}"),
    "parenthesized": (_chain("+", "x1", MAX_SOURCE - len(_NESTED)) + _NESTED, "{}-x1"),
}
_DEEPEST = {name: (source.ljust(MAX_SOURCE), deeper) for name, (source, deeper) in _DEEPEST.items()}


def _height(e) -> int:
    # Iterative, so it measures trees the recursive walks could not.
    height, stack = 0, [(e, 0)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        children = [getattr(node, name) for name in ("left", "right", "operand", "base") if hasattr(node, name)]
        stack.extend((child, level + 1) for child in children)
    return height


@pytest.mark.parametrize("source", [source for source, _ in _DEEPEST.values()], ids=_DEEPEST)
def test_the_deepest_accepted_tree_passes_every_walk(source):
    e = parse(source)
    assert len(source) == MAX_SOURCE and _height(e) > MAX_SOURCE // 4
    assert variables(e) <= {0, 1}
    x = [Fraction(3, 2), Fraction(-1)]
    value = evaluate(e, x)
    shape = Shape((1, 1))
    jets = [constant(shape, c) + generator(shape, i) for i, c in enumerate(x)]
    assert evaluate(e, jets, lift=partial(constant, shape)).constant_term() == value
    assert evaluate(substitute(e, [Var(1), Var(0)]), x[::-1]) == value
    assert pretty_print(e).count("(") >= _height(e)
    assert expr_to_json(e)["op"] in {"add", "sub", "mul", "neg", "pow"}
    assert to_poly(e).arity == arity(e)


def _left_deep_sum(height):
    # ((x0 + x0) + x0) ...: the tree, its printed text, its repr and its
    # polynomial's terms.
    e, text, rep = Var(0), "x0", "Var(index=0)"
    for _ in range(height):
        e, text, rep = Add(e, Var(0)), f"({text} + x0)", f"Add(left={rep}, right=Var(index=0))"
    return e, text, rep, {(1, 0): height + 1}


def _right_deep_product(height):
    e, text, rep = Var(1), "x1", "Var(index=1)"
    for _ in range(height):
        e, text, rep = Mul(Var(1), e), f"(x1 * {text})", f"Mul(left=Var(index=1), right={rep})"
    return e, text, rep, {(0, height + 1): 1}


def _negated_power_chain(height):
    # Neg, Pow(., 1) and Sub(., x1) in turn: s * x0 + c * x1 throughout.
    e, text, rep, s, c = Var(0), "x0", "Var(index=0)", 1, 0
    for level in range(height):
        if level % 3 == 0:
            e, text, rep, s, c = Neg(e), f"(-{text})", f"Neg(operand={rep})", -s, -c
        elif level % 3 == 1:
            e, text, rep = Pow(e, 1), f"({text} ^ 1)", f"Pow(base={rep}, exponent=1)"
        else:
            e, text, rep, c = Sub(e, Var(1)), f"({text} - x1)", f"Sub(left={rep}, right=Var(index=1))", c - 1
    return e, text, rep, {k: v for k, v in {(1, 0): s, (0, 1): c}.items() if v}


_SHAPES = {"left-deep-sum": _left_deep_sum, "right-deep-product": _right_deep_product, "neg-pow-sub": _negated_power_chain}


@pytest.mark.parametrize("height", [800, 8000])
@pytest.mark.parametrize("build", _SHAPES.values(), ids=_SHAPES)
def test_every_walk_but_evaluation_takes_any_height(build, height):
    e, text, rep, terms = build(height)
    twin = build(height)[0]
    assert _height(e) == height
    assert e == twin and hash(e) == hash(twin) and e is not twin
    assert e != build(height - 1)[0] and e != substitute(e, [Var(2), Var(3)])
    assert repr(e) == rep
    assert pretty_print(e) == text
    used = variables(e)
    assert used <= {0, 1} and arity(e) == max(used) + 1
    swapped = substitute(e, [Var(1), Var(0)])
    assert variables(swapped) == {1 - i for i in used}
    assert substitute(swapped, [Var(1), Var(0)]) == e
    assert expr_from_json(expr_to_json(e)) == e
    assert to_poly(e, 2).terms == terms
    assert pickle.loads(pickle.dumps(e)) == e
    assert copy.deepcopy(e) is e and copy.copy(e) is e


@pytest.mark.parametrize("source, deeper", _DEEPEST.values(), ids=_DEEPEST)
def test_one_level_more_is_a_parse_error(source, deeper):
    with pytest.raises(ParseError, match=f"over the limit of {MAX_SOURCE} at line 1, column {MAX_SOURCE + 1}$"):
        parse(deeper.format(source))


def test_parse_matches_the_golden_corpus():
    cases = json.loads(PARSE_CORPUS.read_text(encoding="utf-8"))
    assert len(cases) >= 40
    for case in cases:
        if case.get("digit_cap", int_digit_limit()) != int_digit_limit():
            continue
        source = case["source"]
        if "pretty" in case:
            assert pretty_print(parse(source)) == case["pretty"], source
            continue
        with pytest.raises(ParseError) as info:
            parse(source)
        got = (str(info.value), info.value.line, info.value.column, list(info.value.expected))
        assert got == (case["error"], case["line"], case["column"], case["expected"]), source


def test_non_decimal_digits_are_bad_characters():
    # str.isdigit accepts superscripts, but only decimal digits make a number.
    with pytest.raises(ParseError, match="unexpected character '\u00b2'") as info:
        parse("x0 + \u00b2")
    assert (info.value.line, info.value.column) == (1, 6)


def test_pretty_print_examples():
    assert pretty_print(Var(0)) == "x0"
    assert pretty_print(Mul(Const(3), Var(0))) == "(3 * x0)"
    assert pretty_print(Pow(Var(1), 0)) == "(x1 ^ 0)"
    assert pretty_print(Const(Fraction(1, 2))) == "1/2"
    assert pretty_print(Const(-3)) == "(-3)"


@settings(max_examples=300)
@given(printable_exprs)
def test_parse_pretty_print_roundtrip(e):
    assert parse(pretty_print(e)) == e


def test_evaluate_examples():
    assert evaluate(parse("x0^2*x1"), [Fraction(3), Fraction(2)]) == 18

    shape = Shape((1,))
    jet = evaluate(
        parse("x0^2"),
        [one(shape) + generator(shape, 0)],
        lift=lambda c: constant(shape, c),
    )
    assert jet == one(shape) + generator(shape, 0) * 2

    with pytest.raises(EvaluationError):
        evaluate(
            parse("1/x0"),
            [generator(shape, 0)],
            lift=lambda c: constant(shape, c),
        )


def test_evaluate_requires_enough_arguments():
    with pytest.raises(ArityMismatchError):
        evaluate(parse("x0 + x1"), [Fraction(1)])


_JET = Shape((2, 1))
_CARRIERS = {
    "fraction": ([Fraction(3)], None),
    "float": ([3.0], float),
    "jet": ([constant(_JET, 3) + generator(_JET, 0)], lambda c: constant(_JET, c)),
}


@pytest.mark.parametrize("carrier", sorted(_CARRIERS))
@pytest.mark.parametrize(
    "source",
    ["x0 + x1", "x1^3 * x0", "x0 / x1", "x0 / (1 + x1^2)", "(x0 - x2)^2 + 1"],
)
def test_a_missing_variable_is_an_arity_error_on_every_carrier(carrier, source):
    # The count is checked when the first missing variable is looked up, so
    # one under a Pow or a Div is found too.
    args, lift = _CARRIERS[carrier]
    with pytest.raises(ArityMismatchError, match=f"arity {arity(parse(source))} but got 1 arguments"):
        evaluate(parse(source), args, lift=lift)


@pytest.mark.parametrize("carrier", sorted(_CARRIERS))
def test_a_missing_variable_inside_a_composition_is_an_arity_error(carrier):
    args, lift = _CARRIERS[carrier]
    composed = Compose(parse("x0 * x1^2"), (parse("x0 + 1"), parse("1 / (x0 - x3)")))
    with pytest.raises(ArityMismatchError, match="arity 4 but got 1 arguments"):
        evaluate(composed, args, lift=lift)
    # A substitution the outer expression does not use is never evaluated.
    unused = Compose(parse("x0^2"), (parse("x0"), parse("x7")))
    assert evaluate(unused, [Fraction(3)]) == 9


def test_an_evaluation_error_before_the_missing_variable_wins():
    # Arity is checked on the first missing variable, not before evaluating.
    with pytest.raises(EvaluationError):
        evaluate(parse("1/(x0 - 3) + x1"), [Fraction(3)])
    with pytest.raises(ArityMismatchError):
        evaluate(parse("x1 + 1/(x0 - 3)"), [Fraction(3)])


def test_const_keeps_the_fraction_it_is_given():
    half = Fraction(1, 2)
    assert Const(half).value is half
    assert Const(2).value == 2 and type(Const(2).value) is Fraction


def test_evaluation_error_carries_location():
    with pytest.raises(EvaluationError) as info:
        evaluate(parse("1 + 1/(x0-2)"), [Fraction(2)])
    assert info.value.path == (1,)
    assert "x0" in pretty_print(info.value.subexpr)


_POLE = parse("1/(x0 - 2)")


# Each case: an expression with one division by zero at x0 = 2 and that
# division's path. Evaluation walks a chain of left operands in a loop, so
# these are failures on such a chain, at its top, inside a right operand,
# and in a composition's substitution and outer expression.
_FAILURES = {
    "left-chain": (parse("1/(x0 - 2) + x0 + 3"), (0, 0)),
    "top": (_POLE, ()),
    "under-a-power": (parse("-(1/(x0 - 2))^2 * x0 + 5"), (0, 0, 0, 0)),
    "right-operand": (parse("x0 + x0*(x0 - 1/(x0 - 2))"), (1, 1, 1)),
    "substitution": (Add(Const(1), Compose(parse("x0 + x1"), (Var(0), Add(Const(3), _POLE)))), (1, 2, 1)),
    "outer": (Mul(Compose(parse("x0 + 1/(x1 - 2)"), (Const(5), Var(0))), Var(0)), (0, 0, 1)),
}


@pytest.mark.parametrize("e, path", _FAILURES.values(), ids=_FAILURES)
@pytest.mark.parametrize("carrier", ["fraction", "jet"])
def test_an_evaluation_error_names_the_path_of_the_failed_division(e, path, carrier):
    shape = Shape((2,))
    args, lift = ([Fraction(2)], None) if carrier == "fraction" else ([constant(shape, 2)], partial(constant, shape))
    with pytest.raises(EvaluationError) as info:
        evaluate(e, args, lift)
    sub = e
    for step in path:
        fields = (sub.outer, *sub.substitutions) if isinstance(sub, Compose) else sub._values
        sub = fields[step]
    assert info.value.path == path and info.value.subexpr == sub and isinstance(sub, Div)
    assert str(info.value) == (
        f"division by a non-invertible value in sub-expression '{pretty_print(sub)}' at path {path}"
    )
    assert info.value.__cause__ is None and info.value.__suppress_context__


def test_evaluation_takes_any_height_down_left_operands():
    # A left-deep chain of 99,999 operators, and right operands nested as
    # deep as the parser accepts: three levels of recursion per parenthesis.
    e = Var(0)
    for k in range(99_999):
        e = (Add, Sub, Mul)[k % 3](e, Const(1) if k % 3 == 2 else Var(0))
    assert evaluate(e, [Fraction(1)]) == 1
    right = parse("x0-x0*(" * MAX_NESTING + "x0" + ")^1" * MAX_NESTING)
    shape = Shape((1,))
    x = Fraction(1, 2)
    jet = evaluate(right, [constant(shape, x) + generator(shape, 0)], partial(constant, shape))
    value = x
    for _ in range(MAX_NESTING):
        value = x - x * value
    assert jet.constant_term() == evaluate(right, [x]) == value


def test_printing_takes_time_linear_in_the_tree():
    # Joining text at every node copied a 40,000-term sum's text once per
    # level: its repr took 17 s and its printed form 0.3 s.
    e = parse("+".join(["x0"] * 40_000))
    start = time.perf_counter()
    text = repr(e)
    assert time.perf_counter() - start < 1.0
    assert text == "Add(left=" * 39_999 + "Var(index=0)" + ", right=Var(index=0))" * 39_999
    start = time.perf_counter()
    text = pretty_print(e)
    assert time.perf_counter() - start < 1.0
    assert text == "(" * 39_999 + "x0" + " + x0)" * 39_999


def test_the_printed_form_parses_back_up_to_the_nesting_limit():
    # A left-deep sum of h operators prints with h parentheses open at once.
    deepest = parse("+".join(["x0"] * (MAX_NESTING + 1)))
    assert parse(pretty_print(deepest)) == deepest
    with pytest.raises(ParseError, match=f"more than {MAX_NESTING} parentheses"):
        parse(pretty_print(Add(deepest, Var(0))))


def test_substitute_examples():
    assert substitute(parse("x0^2"), [parse("x0+1")]) == parse("(x0+1)^2")
    assert substitute(parse("x0*x1"), [parse("x1"), parse("x0")]) == parse("x1*x0")
    assert substitute(parse("3"), [parse("x0^5")]) == parse("3")


def test_substitute_needs_enough_substitutions():
    with pytest.raises(ArityMismatchError):
        substitute(parse("x0*x1"), [parse("x0")])


def test_substitute_skips_the_substitutions_a_composition_does_not_use():
    # As evaluation does: x5 sits in a substitution the outer x0 never reads,
    # and substituting into it indexed past the one substitution given.
    assert substitute(Compose(Var(0), (Var(0), Var(5))), [Var(1)]) == Var(1)


def test_arity_and_variables():
    assert arity(parse("3")) == 0
    assert arity(parse("x2")) == 3
    assert variables(parse("x0*x2")) == frozenset({0, 2})
    # Only substitutions for variables the outer expression uses count.
    composed = Compose(Var(1), (Var(0), Var(5)))
    assert arity(composed) == 6
    assert variables(composed) == frozenset({5})


def test_compose_evaluates_like_substitution():
    f = parse("x0^2 + x0")
    g = parse("2*x0 - 1")
    composed = Compose(f, (g,))
    for x in (Fraction(0), Fraction(3), Fraction(-1, 2)):
        assert evaluate(composed, [x]) == evaluate(substitute(f, [g]), [x])
    assert pretty_print(composed) == pretty_print(substitute(f, [g]))
    assert parse(pretty_print(composed)) == substitute(f, [g])


def test_compose_requires_enough_substitutions():
    with pytest.raises(ArityMismatchError):
        Compose(parse("x0*x1"), (parse("x0"),))


@settings(max_examples=150)
@given(division_free_exprs, points)
def test_rational_evaluation_embeds_into_jets(e, x):
    # Evaluating over rationals then embedding equals evaluating over jets
    # with constant-embedded arguments.
    plain = evaluate(e, x)
    shape = Shape((1, 1))
    lifted = evaluate(
        e, [constant(shape, v) for v in x], lift=lambda c: constant(shape, c)
    )
    assert lifted == constant(shape, plain)


@settings(max_examples=150)
@given(
    division_free_exprs,
    st.lists(division_free_exprs, min_size=3, max_size=3).map(tuple),
    points,
)
def test_substitute_commutes_with_evaluation(e, subs, x):
    outer_of_values = evaluate(e, [evaluate(s, x) for s in subs])
    substituted = evaluate(substitute(e, subs), x)
    assert substituted == outer_of_values


@given(printable_exprs)
def test_expr_json_roundtrip(e):
    assert expr_from_json(expr_to_json(e)) == e


def test_expr_json_roundtrip_compose():
    composed = Compose(parse("x0^2"), (parse("x0+1"),))
    assert expr_from_json(expr_to_json(composed)) == composed
    doc = expr_to_json(parse("x0 + 2"))
    assert doc == {
        "op": "add",
        "args": [{"op": "var", "index": 0}, {"op": "const", "num": "2", "den": "1"}],
    }

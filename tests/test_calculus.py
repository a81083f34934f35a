import itertools
import json
import random
import time
from fractions import Fraction
from math import comb, prod
from pathlib import Path

import pytest

from weiljet.calculus import (
    DerivTable,
    InstanceRejectedError,
    check_rule,
    derivative,
    derivtable_to_json,
    expand_sum_of_D,
    iterated_partial,
    jet_evaluate,
    kl_decompose,
    mixed_derivative,
    nth_derivative,
    partial_derivative,
    taylor_box,
    taylor_simplex,
    taylor_squarefree,
    taylor_sum,
)
from weiljet.expression import Add, Const, Div, EvaluationError, Mul, Pow, Var, parse, pretty_print
from weiljet.multiindex import ArityMismatchError, enumerate_box, enumerate_simplex, factorial, norm
from weiljet.oracle import oracle_mixed, poly_eval, poly_partial, to_poly
from weiljet.suites import random_expr, random_point, random_rational
from weiljet.weil import Shape, constant, from_coefficients, generator


def test_kl_decompose_examples():
    assert kl_decompose(parse("(1+x0)^2"), 1) == (1, [2])
    assert kl_decompose(parse("5"), 3) == (5, [0, 0, 0])
    assert kl_decompose(parse("x0^2"), 2) == (0, [0, 1])


def test_kl_decompose_weights_are_unique():
    g = parse("(1+x0)^3")
    order = 3
    g0, weights = kl_decompose(g, order)
    shape = Shape((order,))
    entries = {(0,): g0}
    entries.update({(i + 1,): w for i, w in enumerate(weights)})
    reconstructed = from_coefficients(shape, entries)
    assert reconstructed == jet_evaluate(g, (Fraction(0),), shape)
    # Perturbing any single weight breaks the reconstruction.
    for i in range(order):
        tampered = dict(entries)
        tampered[(i + 1,)] = weights[i] + 1
        assert from_coefficients(shape, tampered) != reconstructed


def test_derivative_examples():
    assert derivative(parse("x0^3"), 2) == 12
    assert derivative(parse("x0"), 7) == 1
    assert derivative(parse("1/x0"), 2) == Fraction(-1, 4)


def test_derivative_error_at_pole():
    with pytest.raises(EvaluationError):
        derivative(parse("1/x0"), 0)


def test_nth_derivative_examples():
    assert nth_derivative(parse("x0^3"), 2, 1) == 6
    assert nth_derivative(parse("x0^2"), 3, 5) == 0
    assert nth_derivative(parse("x0^4"), 4, 0) == 24
    assert nth_derivative(parse("x0^2 - 7"), 0, 3) == 2


def test_partial_derivative_examples():
    f = parse("x0^2*x1")
    assert partial_derivative(f, 0, (1, 2)) == 4
    assert partial_derivative(f, 1, (1, 2)) == 1
    assert partial_derivative(parse("x1"), 0, (9, 9)) == 0
    with pytest.raises(ArityMismatchError):
        partial_derivative(f, 2, (1, 2))


def test_mixed_derivative_examples():
    f = parse("x0^2*x1")
    assert mixed_derivative(f, (2, 1), (1, 2)) == 2
    assert mixed_derivative(f, (1, 1), (1, 2)) == 2
    assert mixed_derivative(f, (), (1, 2)) == 2  # empty index gives f(x)
    assert mixed_derivative(parse("3"), (), ()) == 3
    with pytest.raises(ArityMismatchError):
        mixed_derivative(f, (1, 1, 1), (1, 2))


def test_taylor_box_example():
    table = taylor_box(parse("x0^2*x1"), (1, 2), (2, 1))
    assert table.mode == "box"
    assert table.entries == {
        (0, 0): 2,
        (1, 0): 4,
        (2, 0): 4,
        (0, 1): 1,
        (1, 1): 2,
        (2, 1): 2,
    }


def test_taylor_box_constant_and_empty():
    table = taylor_box(parse("5"), (3, 1), (1, 2))
    assert table.entries[(0, 0)] == 5
    assert all(v == 0 for alpha, v in table.entries.items() if any(alpha))

    trivial = taylor_box(parse("3"), (), ())
    assert trivial.entries == {(): 3}
    assert trivial.arity == 0


def test_taylor_simplex_examples():
    table = taylor_simplex(parse("x0*x1"), (0, 0), (1, 1))
    assert table.mode == "simplex"
    assert table.entries == {
        (0, 0): 0,
        (1, 0): 0,
        (0, 1): 0,
        (2, 0): 0,
        (1, 1): 1,
        (0, 2): 0,
    }

    table = taylor_simplex(parse("x0^2"), (1,), (1,))
    assert table.entries == {(0,): 1, (1,): 2}

    table = taylor_simplex(parse("x0+x1"), (4, 5), (0, 0))
    assert table.entries == {(0, 0): 9}


def test_taylor_simplex_reports_out_of_box_entries():
    # Order (1,) but total degree allows (2,): the quadratic coefficient is
    # computed at an enlarged shape even though d^2 vanishes on the original.
    table = taylor_simplex(parse("x0^2"), (3,), (1,))
    assert table.entries == {(0,): 9, (1,): 6}
    wider = taylor_simplex(parse("x0^2"), (3,), (2,))
    assert wider.entries[(2,)] == 2


def test_taylor_sum_reconstructs_the_jet():
    f = parse("x0^3*x1 + x0*x1 - 2")
    x = (Fraction(1, 2), Fraction(-2))
    k = (2, 1)
    shape = Shape(k)
    for table in (taylor_box(f, x, k), taylor_simplex(f, x, k)):
        assert taylor_sum(table, shape) == jet_evaluate(f, x, shape)


def test_taylor_sum_of_the_seven_variable_simplex_is_one_pass():
    # 3,432 entries; one monomial, product and sum per entry took 2.5 s.
    f = parse("1/(1+x0*x1*x2*x3*x4*x5*x6)")
    x, k = (1,) * 7, (1,) * 7
    shape = Shape.simplex(7, 7)
    table = taylor_simplex(f, x, k)
    start = time.perf_counter()
    rebuilt = taylor_sum(table, shape)
    assert time.perf_counter() - start < 1.0
    assert rebuilt == jet_evaluate(f, x, shape)


def test_taylor_sum_refuses_what_it_refused():
    table = taylor_box(parse("x0*x1 + 1"), (2, 3), (1, 1))
    with pytest.raises(ArityMismatchError):
        taylor_sum(table, Shape((1, 1, 1)))
    # Only nonzero entries are placed, so an all-zero table of the wrong
    # length, or entries off the shape, add nothing.
    zeros = DerivTable("box", 2, (1, 1), dict.fromkeys(table.entries, Fraction(0)))
    assert taylor_sum(zeros, Shape((1, 1, 1))).is_zero()
    assert taylor_sum(table, Shape((1, 0))) == from_coefficients(Shape((1, 0)), {(0, 0): 7, (1, 0): 3})
    missing = DerivTable("box", 2, (1, 1), {alpha: v for alpha, v in table.entries.items() if alpha != (1, 1)})
    with pytest.raises(KeyError):
        taylor_sum(missing, Shape((1, 1)))


def test_expand_sum_of_D_examples():
    assert expand_sum_of_D(parse("x0^2"), 1, 2) == (1, 2, 2)
    assert expand_sum_of_D(parse("x0"), 5, 3) == (5, 1, 0, 0)
    assert expand_sum_of_D(parse("x0^3"), 0, 3) == (0, 0, 0, 6)


def test_taylor_squarefree_examples():
    out = taylor_squarefree(parse("x0*x1"), (1, 1))
    assert out == {
        frozenset(): 1,
        frozenset({0}): 1,
        frozenset({1}): 1,
        frozenset({0, 1}): 1,
    }

    out = taylor_squarefree(parse("x0+x1"), (2, 3))
    assert out == {
        frozenset(): 5,
        frozenset({0}): 1,
        frozenset({1}): 1,
        frozenset({0, 1}): 0,
    }

    assert taylor_squarefree(parse("3"), ()) == {frozenset(): 3}


def test_derivtable_json_schema():
    table = taylor_box(parse("x0^2*x1"), (1, 2), (2, 1))
    doc = derivtable_to_json(table)
    assert doc["mode"] == "box"
    assert doc["arity"] == 2
    assert doc["orders"] == [2, 1]
    assert doc["entries"][0] == {"alpha": [0, 0], "value": {"num": "2", "den": "1"}}
    assert [entry["alpha"] for entry in doc["entries"]] == [
        [0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1],
    ]


def test_derivtable_getitem():
    table = DerivTable("box", 1, (1,), {(0,): Fraction(3), (1,): Fraction(5)})
    assert table[(1,)] == 5


# -- check_rule -----------------------------------------------------------------


def test_check_rule_examples():
    verdict = check_rule("leibniz", f=parse("x0^2"), g=parse("x0+1"), x=3)
    assert verdict.passed and verdict.lhs == verdict.rhs == 33

    verdict = check_rule("power", n=0, x=5)
    assert verdict.passed and verdict.lhs == 0 and verdict.rhs == 0

    verdict = check_rule("inverse_affine", a=2, b=1, x=7)
    assert verdict.passed and verdict.lhs == Fraction(1, 2)


def test_check_rule_preconditions():
    with pytest.raises(InstanceRejectedError):
        check_rule("reciprocal", f=parse("x0"), x=0)
    with pytest.raises(InstanceRejectedError):
        check_rule("inverse_affine", a=0, b=1, x=2)
    with pytest.raises(InstanceRejectedError):
        check_rule("mixed_symmetry", f=parse("x0*x1"), i=0, j=5, x=(1, 2))
    with pytest.raises(InstanceRejectedError):
        check_rule("chain", f=parse("1/x0"), g=parse("x0"), x=0)
    with pytest.raises(ValueError):
        check_rule("no-such-rule", x=1)


def test_check_rule_cancellation():
    assert check_rule("cancellation", b1=3, b2=3).passed
    assert check_rule("cancellation", b1=3, b2=Fraction(3, 1)).passed
    assert check_rule("cancellation", b1=3, b2=4).passed  # distinct scalars, distinct jets


def test_check_rule_detects_a_false_identity():
    # The engine must be able to fail: feed mixed_symmetry a doctored verdict
    # by checking an asymmetric quantity instead.
    verdict = check_rule("leibniz", f=parse("x0^2"), g=parse("x0+1"), x=3)
    assert verdict.passed
    broken = verdict.__class__(verdict.rule, False, verdict.instance, 1, 2)
    assert not broken.passed and "fail" in broken.describe()


# -- invariants -------------------------------------------------------------------


def test_iterated_partial_matches_single_extraction():
    rng = random.Random("calculus:iterated")
    for _ in range(40):
        n = rng.randint(1, 3)
        f = random_expr(rng, n, 4)
        x = random_point(rng, n)
        alpha = tuple(rng.randint(0, 2) for _ in range(n))
        applications = [i for i in range(n) for _ in range(alpha[i])]
        flat = mixed_derivative(f, alpha, x)
        for _ in range(3):
            rng.shuffle(applications)
            assert iterated_partial(f, applications, x) == flat


def test_nth_derivative_matches_repeated_first_derivative():
    rng = random.Random("calculus:repeated")
    for _ in range(30):
        f = random_expr(rng, 1, 5)
        x = random_rational(rng)
        for n in range(5):
            assert nth_derivative(f, n, x) == iterated_partial(f, (0,) * n, (x,))


def test_second_order_neighborhood_expansion():
    rng = random.Random("calculus:d2")
    shape = Shape((2,))
    delta = generator(shape, 0)
    for _ in range(40):
        f = random_expr(rng, 1, 5)
        x = random_rational(rng)
        lhs = jet_evaluate(f, (x,), shape)
        rhs = (
            constant(shape, mixed_derivative(f, (), (x,)))
            + delta * derivative(f, x)
            + delta * delta * (nth_derivative(f, 2, x) / 2)
        )
        assert lhs == rhs


def test_box_identity_against_independent_extractions():
    rng = random.Random("calculus:box")
    for _ in range(25):
        n = rng.randint(0, 3)
        f = random_expr(rng, n, 4)
        x = random_point(rng, n)
        k = tuple(rng.randint(0, 2) for _ in range(n))
        shape = Shape(k)
        jet = jet_evaluate(f, x, shape)
        table = taylor_box(f, x, k)
        for alpha in shape.box():
            assert table.entries[alpha] == mixed_derivative(f, alpha, x)
        assert taylor_sum(table, shape) == jet


def test_simplex_identity_restricted_to_neighborhood():
    rng = random.Random("calculus:simplex")
    for _ in range(25):
        n = rng.randint(1, 3)
        f = random_expr(rng, n, 4)
        x = random_point(rng, n)
        k = tuple(rng.randint(0, 2) for _ in range(n))
        shape = Shape(k)
        table = taylor_simplex(f, x, k)
        assert taylor_sum(table, shape) == jet_evaluate(f, x, shape)


def test_taylor_simplex_equals_per_alpha_mixed_derivatives():
    # The simplex table is one evaluation in the total-degree algebra; its
    # definition is one mixed derivative per alpha, each at its own box shape.
    rng = random.Random("calculus:simplex-definition")
    for trial in range(40):
        n = trial % 5
        p = random_expr(rng, n, 3 if n > 2 else 4)
        if n:
            # A cube of all the variables keeps mixed entries up to degree 3 live.
            total = Var(0)
            for i in range(1, n):
                total = Add(total, Var(i))
            p = Add(p, Mul(Const(random_rational(rng)), Pow(total, 3)))
        quotient = trial % 3 == 0
        f = Div(p, Add(Const(Fraction(1)), Pow(random_expr(rng, n, 2), 2))) if quotient else p
        x = random_point(rng, n)
        k = tuple(rng.randint(0, 1 if n > 2 else 2) for _ in range(n))
        table = taylor_simplex(f, x, k)
        alphas = enumerate_simplex(n, norm(k))
        assert tuple(table.entries) == alphas
        for alpha in alphas:
            assert table.entries[alpha] == mixed_derivative(f, alpha, x)
            if not quotient:
                assert table.entries[alpha] == oracle_mixed(f, alpha, x)


def test_taylor_tables_are_alpha_factorial_times_the_jet_coefficients():
    # The tables read their entries straight off the jet's numerators; the
    # reference asks WeilElement.coefficient, one alpha at a time.
    rng = random.Random("calculus:read-out")
    for trial in range(40):
        n = trial % 5
        p = random_expr(rng, n, 3)
        f = Div(p, Add(Const(Fraction(1)), Pow(random_expr(rng, n, 2), 2))) if trial % 3 == 0 else p
        x = random_point(rng, n)
        k = tuple(rng.randint(0, 1 if n > 2 else 2) for _ in range(n))
        for table, shape, alphas in (
            (taylor_box(f, x, k), Shape(k), enumerate_box(k)),
            (taylor_simplex(f, x, k), Shape.simplex(n, norm(k)), enumerate_simplex(n, norm(k))),
        ):
            jet = jet_evaluate(f, x, shape)
            assert tuple(table.entries) == alphas
            assert list(table.entries.values()) == [factorial(a) * jet.coefficient(a) for a in alphas]


def test_expand_sum_of_D_matches_nth_derivative():
    rng = random.Random("calculus:sum-of-D")
    for _ in range(20):
        f = random_expr(rng, 1, 4)
        x = random_rational(rng)
        m = rng.randint(0, 4)
        assert expand_sum_of_D(f, x, m) == tuple(nth_derivative(f, n, x) for n in range(m + 1))


def test_jet_derivatives_agree_with_symbolic_oracle():
    rng = random.Random("calculus:oracle")
    for _ in range(40):
        n = rng.randint(1, 3)
        f = random_expr(rng, n, 4)
        x = random_point(rng, n)
        alpha = tuple(rng.randint(0, 2) for _ in range(n))
        assert mixed_derivative(f, alpha, x) == oracle_mixed(f, alpha, x)


def _oracle_partials(poly, x):
    """beta -> d^beta poly at x, by the oracle's termwise power rule alone."""
    polys = {(0,) * poly.arity: poly}

    def poly_at(beta):
        if beta not in polys:
            i = next(i for i, b in enumerate(beta) if b)
            polys[beta] = poly_partial(poly_at(beta[:i] + (beta[i] - 1,) + beta[i + 1 :]), i)
        return polys[beta]

    return lambda beta: poly_eval(poly_at(beta), x)


def _assert_quotient_leibniz(p, q, x, values):
    # T = p/q means p = q*T, so sum over beta <= alpha of
    # C(alpha, beta) * d^beta q(x) * T[alpha - beta] equals d^alpha p(x). With
    # q(x) != 0 this triangular system fixes every T[alpha], and the
    # derivatives of p and q share no code with the jet path.
    dp, dq = _oracle_partials(to_poly(p, len(x)), x), _oracle_partials(to_poly(q, len(x)), x)
    for alpha, value in values.items():
        total = 0
        for beta in itertools.product(*(range(a + 1) for a in alpha)):
            rest = tuple(a - b for a, b in zip(alpha, beta))
            total += prod(map(comb, alpha, beta)) * dq(beta) * values[rest]
        assert total == dp(alpha), (pretty_print(p), pretty_print(q), x, alpha, value)


def _orders_of_total(rng, n, total):
    k = [0] * n
    for _ in range(total):
        k[rng.randrange(n)] += 1
    return tuple(k)


def test_quotient_derivatives_satisfy_leibniz_against_the_oracle():
    rng = random.Random("calculus:quotient-oracle")
    instances = 0
    while instances < 48:
        n = rng.randint(1, 3)
        p, q = random_expr(rng, n, 3), random_expr(rng, n, 3)
        x = random_point(rng, n)
        if poly_eval(to_poly(q, n), x) == 0:
            continue  # a pole of p/q
        f = Div(p, q)
        for table in (taylor_box, taylor_simplex):
            _assert_quotient_leibniz(p, q, x, table(f, x, _orders_of_total(rng, n, rng.randint(0, 4))).entries)
        if instances % 4 == 0:
            alpha = _orders_of_total(rng, n, rng.randint(1, 4))
            lower = list(itertools.product(*(range(a + 1) for a in alpha)))
            _assert_quotient_leibniz(p, q, x, {gamma: mixed_derivative(f, gamma, x) for gamma in lower})
            values = {}
            for gamma in lower:
                applications = [i for i, g in enumerate(gamma) for _ in range(g)]
                values[gamma] = iterated_partial(f, rng.sample(applications, len(applications)), x)
            _assert_quotient_leibniz(p, q, x, values)
        instances += 1


def test_mixed_derivative_agrees_with_every_application_order():
    f = parse("x0^2*x1^2 + x0*x1")
    x = (Fraction(2), Fraction(-1))
    alpha = (2, 1)
    flat = mixed_derivative(f, alpha, x)
    for order in set(itertools.permutations((0, 0, 1))):
        assert iterated_partial(f, order, x) == flat


# Seeded cases with each operator's exact values, recorded before the
# operators were routed through one derivative read-out: polynomials and
# quotients p/(1+g^2), arity 0 to 4, zero orders among them.
OPERATORS = Path(__file__).resolve().parent / "golden" / "operators.json"


def _operator_value(case):
    f = parse(case["expr"])
    x = case.get("x", [])
    x = [Fraction(v) for v in x] if isinstance(x, list) else Fraction(x)
    op = case["op"]
    if op == "derivative":
        return str(derivative(f, x))
    if op == "nth_derivative":
        return str(nth_derivative(f, case["n"], x))
    if op == "partial_derivative":
        return str(partial_derivative(f, case["i"], x))
    if op == "mixed_derivative":
        return str(mixed_derivative(f, case["alpha"], x))
    if op == "iterated_partial":
        return str(iterated_partial(f, case["applications"], x))
    if op == "taylor_squarefree":
        return [[sorted(h), str(v)] for h, v in taylor_squarefree(f, x).items()]
    if op == "expand_sum_of_D":
        return [str(v) for v in expand_sum_of_D(f, x, case["m"])]
    if op == "kl_decompose":
        g0, b = kl_decompose(f, case["order"])
        return [str(g0), [str(v) for v in b]]
    table = {"taylor_box": taylor_box, "taylor_simplex": taylor_simplex}[op](f, x, case["k"])
    return [[list(alpha), str(table.entries[alpha])] for alpha in table.enumeration()]


def test_operators_match_the_golden_values():
    cases = json.loads(OPERATORS.read_text(encoding="utf-8"))
    assert len(cases) >= 40
    for case in cases:
        assert _operator_value(case) == case["value"], case

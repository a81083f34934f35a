from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiljet.calculus import partial_derivative
from weiljet.expression import MAX_NESTING, MAX_SOURCE, Add, Compose, Const, Mul, Neg, Pow, Sub, Var, parse, substitute
from weiljet.oracle import (
    NotPolynomialError,
    SparsePoly,
    finite_difference,
    oracle_mixed,
    poly_eval,
    poly_partial,
    to_poly,
)
from weiljet.suites import FD_CORPUS

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
    max_leaves=14,
)


def test_to_poly_examples():
    assert to_poly(parse("x0^2*x1 + 3*x0")) == SparsePoly.make(
        2, {(2, 1): 1, (1, 0): 3}
    )
    assert to_poly(parse("(x0+1)^2")) == SparsePoly.make(1, {(2,): 1, (1,): 2, (0,): 1})
    with pytest.raises(NotPolynomialError):
        to_poly(parse("1/x0"))


def test_poly_partial_examples():
    assert poly_partial(SparsePoly.make(2, {(2, 1): 1}), 0) == SparsePoly.make(
        2, {(1, 1): 2}
    )
    assert poly_partial(SparsePoly.make(2, {(0, 3): 5}), 0) == SparsePoly.make(2, {})
    assert poly_partial(SparsePoly.make(1, {(1,): 1}), 0) == SparsePoly.make(1, {(0,): 1})


def test_poly_eval_examples():
    assert poly_eval(SparsePoly.make(2, {(2, 1): 1}), (3, 2)) == 18
    assert poly_eval(SparsePoly.make(2, {}), (7, 7)) == 0
    assert poly_eval(SparsePoly.make(0, {(): 7}), ()) == 7


def test_an_argument_out_of_range_is_refused():
    p = SparsePoly.make(2, {(2, 1): 1})
    with pytest.raises(ValueError, match="wrong length"):
        SparsePoly.make(2, {(1,): 1})
    with pytest.raises(ValueError, match="out of range"):
        poly_partial(p, 2)
    with pytest.raises(ValueError, match="need 2 coordinates"):
        poly_eval(p, (1,))
    with pytest.raises(ValueError, match="out of range"):
        finite_difference(parse("x0"), 1, (1.0,))


def test_a_sum_of_polynomials_of_different_arities_is_refused():
    # It mixed exponent tuples of lengths 1 and 2 in one polynomial.
    a, b = SparsePoly.make(1, {(1,): 1}), SparsePoly.make(2, {(1, 1): 1})
    with pytest.raises(ValueError, match="arities 1 and 2 do not combine"):
        a + b
    with pytest.raises(ValueError, match="arities 2 and 1 do not combine"):
        b - a


def test_a_product_of_polynomials_of_different_arities_is_refused():
    # x0 * (x0 x1) came out as x0^2 at arity 1: x1 was dropped.
    a, b = SparsePoly.make(1, {(1,): 1}), SparsePoly.make(2, {(1, 1): 1})
    with pytest.raises(ValueError, match="arities 1 and 2 do not combine"):
        a * b


def test_a_negative_power_of_a_polynomial_is_refused():
    # (2 x0) ** -1 came out as the constant 1.
    p = SparsePoly.make(1, {(1,): 2})
    with pytest.raises(ValueError, match="no negative powers"):
        p ** -1
    assert p**0 == SparsePoly.make(1, {(0,): 1}) and p**2 == SparsePoly.make(1, {(2,): 4})


def test_oracle_mixed_examples():
    assert oracle_mixed(parse("x0^2*x1"), (2, 1), (1, 2)) == 2
    assert oracle_mixed(parse("x0^2*x1"), (0, 0), (3, 2)) == 18
    assert oracle_mixed(parse("x0^2"), (5,), (1,)) == 0


def test_oracle_mixed_pads_short_indices():
    assert oracle_mixed(parse("x0^2*x1"), (1,), (1, 2)) == 4


def _iterated_reference(e, alpha, x):
    # D^alpha by repeated poly_partial, then poly_eval: one expansion per call.
    n = max(len(alpha), len(x))
    p = to_poly(e, n)
    for i, times in enumerate(alpha):
        for _ in range(times):
            p = poly_partial(p, i)
    return poly_eval(p, tuple(x) + (0,) * (n - len(x)))


@settings(max_examples=150)
@given(
    division_free_exprs,
    st.lists(st.integers(0, 5), max_size=5),
    st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=3),
        min_size=3,
        max_size=4,
    ),
)
def test_oracle_mixed_matches_the_iterated_power_rule(e, alpha, x):
    # alpha may run past the arity (3 at most here) and past the degree.
    assert oracle_mixed(to_poly(e), alpha, x) == oracle_mixed(e, alpha, x) == _iterated_reference(e, alpha, x)


def test_oracle_mixed_interleaved_expressions_match_fresh_values():
    f = parse("x0^3*x1 - 2*x1^2 + 1/2")
    g = parse("(x0 + x1 + x2)^4")
    x = (Fraction(2, 3), -3, Fraction(5, 7))
    for alpha in ((0, 0, 0), (1, 0), (2, 1), (0, 2, 1), (3, 1, 0, 0)):
        for e in (f, g, f, g, g, f):
            assert oracle_mixed(e, alpha, x) == _iterated_reference(e, alpha, x)


def test_oracle_mixed_refuses_division_on_every_call():
    quotient = parse("x0 / (1 + x1)")
    for _ in range(3):
        with pytest.raises(NotPolynomialError):
            oracle_mixed(quotient, (1, 0), (1, 2))
        assert oracle_mixed(parse("x0*x1"), (1, 1), (1, 2)) == 1


def test_oracle_mixed_checks_the_point_after_a_cached_call():
    f = parse("x0*x2 + x1")
    assert oracle_mixed(f, (1, 0, 1), (1, 2, 3, 4)) == 1
    with pytest.raises(ValueError):
        oracle_mixed(f, (1, 0, 1), (1, 2))
    assert oracle_mixed(f, (0, 0, 1), (1, 2, 3)) == 1


def test_mutating_a_to_poly_result_leaves_the_oracle_unchanged():
    f = parse("x0^2*x1 + 3*x0")
    assert oracle_mixed(f, (1, 0), (1, 2)) == 7
    p = to_poly(f)
    p.terms.clear()
    p.terms[(0, 0)] = Fraction(99)
    assert oracle_mixed(f, (1, 0), (1, 2)) == 7
    assert oracle_mixed(f, (0, 0), (1, 2)) == 5


def test_a_long_sum_after_nested_chains_expands_in_linear_time(within):
    # Each + once copied the partial sum's terms, so the 400 terms of the
    # chains ahead of a 43,023-term sum made to_poly take 2.8 s.
    chains = "(" * MAX_NESTING + "x0" + ")*x1-x0+2" * MAX_NESTING
    count = (MAX_SOURCE - len(chains)) // 3
    e = parse(chains + "+" + "+".join(["x1"] * count))
    with within(1.0):
        p = to_poly(e)
    expected = {(1, MAX_NESTING): 1}
    for j in range(MAX_NESTING):
        expected[(1, j)], expected[(0, j)] = -1, 2
    expected[(0, 1)] += count
    assert p == SparsePoly.make(2, expected)


def test_a_substitution_used_twice_in_a_sum_is_expanded_once(within):
    # Each level doubles the one below, x0 + x0 with x0 standing for it:
    # adding a shared sum up again at every use took 2^40 steps.
    e = Var(0)
    for _ in range(40):
        e = Compose(Add(Var(0), Var(0)), (e,))
    with within(1.0):
        assert to_poly(e) == SparsePoly.make(1, {(1,): 2**40})
        assert oracle_mixed(e, (1,), (3,)) == 2**40


def test_a_substitution_expands_the_same_at_every_use():
    # The sum x0 + 1 stands for each of the outer expression's three x0.
    e = Compose(parse("x0 + x0*x0 - x0 + (x0 + 2)"), (parse("x0 + 1"),))
    assert to_poly(e) == to_poly(substitute(e, [Var(0)])) == SparsePoly.make(1, {(2,): 1, (1,): 3, (0,): 4})


def test_to_poly_walks_once_and_a_repeated_oracle_call_not_at_all(monkeypatch):
    import weiljet.expression as expression
    import weiljet.oracle as oracle

    walks, walk = [], expression.walk

    def counted(e, substituting=False):
        walks.append(e)
        return walk(e, substituting)

    for module in (expression, oracle):
        monkeypatch.setattr(module, "walk", counted)
    f = parse("(x0 + x2)^3 * x1 - 2")
    assert to_poly(f, 4).arity == 4
    assert len(walks) == 1
    p = to_poly(f)
    assert len(walks) == 2
    for alpha in ((1, 1, 1), (0, 0, 0), (2, 0, 1), (0, 1)):
        assert oracle_mixed(p, alpha, (1, 2, 3)) == oracle_mixed(f, alpha, (1, 2, 3))
    assert oracle_mixed(p, (1, 1, 1), (1, 2, 3)) == 24  # 6 * (x0 + x2)
    assert len(walks) == 2 + 4  # each call on the tree expands it; none on p walks


@given(division_free_exprs, division_free_exprs)
def test_to_poly_is_a_ring_homomorphism(a, b):
    pa = to_poly(a, 3)
    pb = to_poly(b, 3)
    assert to_poly(Add(a, b), 3) == pa + pb
    assert to_poly(Mul(a, b), 3) == pa * pb
    assert to_poly(Sub(a, b), 3) == pa - pb


@settings(max_examples=60)
@given(division_free_exprs, st.integers(0, 2), st.integers(0, 2))
def test_poly_partials_commute(e, i, j):
    p = to_poly(e, 3)
    assert poly_partial(poly_partial(p, i), j) == poly_partial(poly_partial(p, j), i)


@given(
    division_free_exprs,
    st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=3),
        min_size=3,
        max_size=3,
    ),
)
def test_poly_eval_matches_structural_evaluation(e, x):
    from weiljet.expression import evaluate

    assert poly_eval(to_poly(e, 3), x) == evaluate(e, x)


def test_finite_difference_examples():
    assert abs(finite_difference(parse("x0^3"), 0, (2.0,)) - 12.0) < 1e-6
    assert abs(finite_difference(parse("x0"), 0, (137.0,), 1e-3) - 1.0) < 1e-9
    assert abs(finite_difference(parse("5"), 0, (0.3,), 1e-3)) < 1e-9


def test_finite_difference_agreement_on_corpus():
    for text, point, wrt in FD_CORPUS:
        expr = parse(text)
        exact = float(partial_derivative(expr, wrt, [Fraction(v) for v in point]))
        fd = finite_difference(expr, wrt, point, 1e-4)
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact)), (text, fd, exact)


def test_finite_difference_is_second_order():
    # Halving h cuts the error by about 4 wherever the truncation term
    # (third derivative) dominates; skip directions where it vanishes.
    h = 1e-3
    checked = 0
    for text, point, wrt in FD_CORPUS:
        expr = parse(text)
        rational_point = [Fraction(v) for v in point]
        third = [0] * len(point)
        third[wrt] = 3
        if oracle_free_third_derivative(expr, tuple(third), rational_point) == 0:
            continue
        exact = float(partial_derivative(expr, wrt, rational_point))
        err_h = abs(finite_difference(expr, wrt, point, h) - exact)
        err_half = abs(finite_difference(expr, wrt, point, h / 2) - exact)
        ratio = err_h / err_half
        assert 3.0 <= ratio <= 5.0, (text, ratio)
        checked += 1
    assert checked >= 5


def oracle_free_third_derivative(expr, alpha, point):
    # Rational functions have no polynomial form; fall back to the jet value.
    try:
        return oracle_mixed(expr, alpha, point)
    except NotPolynomialError:
        from weiljet.calculus import mixed_derivative

        return mixed_derivative(expr, alpha, point)

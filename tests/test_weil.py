import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiljet.multiindex import ArityMismatchError, enumerate_box
from weiljet.weil import (
    SLOT_BUDGET,
    CoefficientBudgetError,
    CoefficientIndexError,
    DegenerateGeneratorError,
    NonInvertibleError,
    Shape,
    ShapeMismatchError,
    WeilElement,
    _mul_plan,
    constant,
    element_from_json,
    element_to_json,
    from_coefficients,
    generator,
    monomial,
    one,
    slice_coefficient,
    zero,
)

SHAPES = [Shape((1,)), Shape((2,)), Shape((3,)), Shape((1, 1)), Shape((2, 1)), Shape((1, 1, 1)), Shape(())]

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def elements(draw, shape=None):
    if shape is None:
        shape = draw(st.sampled_from(SHAPES))
    coeffs = draw(
        st.lists(rationals, min_size=shape.size(), max_size=shape.size()).map(tuple)
    )
    return WeilElement(shape, coeffs)


@st.composite
def element_triples(draw):
    shape = draw(st.sampled_from(SHAPES))
    return (
        draw(elements(shape=shape)),
        draw(elements(shape=shape)),
        draw(elements(shape=shape)),
    )


def test_constant_examples():
    a = constant(Shape((1,)), 7)
    assert a.coefficient((0,)) == 7 and a.coefficient((1,)) == 0
    assert constant(Shape(()), 3).coeffs == (Fraction(3),)
    assert constant(Shape((2, 1)), 0).is_zero()


def test_generator_examples():
    d0 = generator(Shape((1, 1)), 0)
    assert d0.coefficient((1, 0)) == 1 and d0.coefficient((0, 1)) == 0
    d = generator(Shape((3,)), 0)
    assert (d**4).is_zero() and not (d**3).is_zero()
    with pytest.raises(DegenerateGeneratorError):
        generator(Shape((1, 0)), 1)
    with pytest.raises(ArityMismatchError):
        generator(Shape((1,)), 3)


def test_mul_examples():
    s = Shape((1,))
    d = generator(s, 0)
    assert (one(s) + d * 2) * (constant(s, 3) + d * 4) == constant(s, 3) + d * 10

    s2 = Shape((1, 1))
    total = generator(s2, 0) + generator(s2, 1)
    assert total**2 == generator(s2, 0) * generator(s2, 1) * 2

    s3 = Shape((2,))
    d = generator(s3, 0)
    assert (one(s3) + d) * (one(s3) - d) == one(s3) - d * d


def test_pow_examples():
    d = generator(Shape((1,)), 0)
    assert (d**2).is_zero()
    assert (d**0) == one(Shape((1,)))

    s = Shape((1, 1))
    assert ((generator(s, 0) + generator(s, 1)) ** 3).is_zero()

    s3 = Shape((1, 1, 1))
    gens = [generator(s3, i) for i in range(3)]
    assert (gens[0] + gens[1] + gens[2]) ** 3 == gens[0] * gens[1] * gens[2] * 6


def test_invert_examples():
    s = Shape((3,))
    d = generator(s, 0)
    inv = (one(s) + d).invert()
    assert inv == one(s) - d + d * d - d * d * d
    assert (one(s) + d) * inv == one(s)

    assert constant(Shape((1,)), 2).invert() == constant(Shape((1,)), Fraction(1, 2))

    with pytest.raises(NonInvertibleError):
        generator(Shape((1,)), 0).invert()


def test_is_in_Dm_examples():
    d = generator(Shape((1,)), 0)
    assert d.is_in_Dm(1)

    s = Shape((1, 1))
    total = generator(s, 0) + generator(s, 1)
    assert not total.is_in_Dm(1)
    assert total.is_in_Dm(2)

    assert zero(Shape((2, 1))).is_in_Dm(0)


def test_coefficient_examples():
    s = Shape((1,))
    a = constant(s, 3) + generator(s, 0) * 10
    assert a.coefficient((1,)) == 10

    s2 = Shape((1, 1))
    sq = (generator(s2, 0) + generator(s2, 1)) ** 2
    assert sq.coefficient((1, 1)) == 2

    s3 = Shape((2,))
    assert ((one(s3) + generator(s3, 0)) ** 2).coefficient((2,)) == 1

    with pytest.raises(CoefficientIndexError):
        a.coefficient((2,))
    with pytest.raises(CoefficientIndexError):
        a.coefficient((0, 0))


def test_shape_mismatch_is_an_error():
    a = one(Shape((1,)))
    b = one(Shape((2,)))
    with pytest.raises(ShapeMismatchError):
        a + b
    with pytest.raises(ShapeMismatchError):
        a * b


def test_monomial_outside_box_is_zero():
    s = Shape((1, 2))
    assert monomial(s, (1, 2)).coefficient((1, 2)) == 1
    assert monomial(s, (2, 0)).is_zero()


def test_slice_coefficient_peels_one_generator():
    s = Shape((1, 2))
    a = from_coefficients(s, {(0, 0): 5, (1, 0): 7, (1, 2): 3, (0, 1): 2})
    linear = slice_coefficient(a, 0, 1)
    assert linear.shape == Shape((2,))
    assert linear.coefficient((0,)) == 7
    assert linear.coefficient((2,)) == 3
    rest = slice_coefficient(a, 0, 0)
    assert rest.coefficient((1,)) == 2


@given(element_triples())
def test_ring_laws(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero(a.shape) == a
    assert a * one(a.shape) == a
    assert a + (-a) == zero(a.shape)


@given(elements())
def test_zero_constant_term_forces_nilpotency(a):
    a = a - constant(a.shape, a.constant_term())
    bound = a.shape.nilpotency_bound()
    assert a.is_in_Dm(bound)


@given(elements())
def test_invert_roundtrip(a):
    if a.constant_term() == 0:
        with pytest.raises(NonInvertibleError):
            a.invert()
    else:
        assert a * a.invert() == one(a.shape)


def _full_poly_product(a: WeilElement, b: WeilElement) -> dict:
    # Untruncated polynomial product, as a plain exponent -> coefficient map.
    out: dict = {}
    box = a.shape.box()
    for alpha, ca in zip(box, a.coeffs):
        if not ca:
            continue
        for beta, cb in zip(box, b.coeffs):
            if not cb:
                continue
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            out[gamma] = out.get(gamma, Fraction(0)) + ca * cb
    return out


@settings(max_examples=60)
@given(st.sampled_from(SHAPES[:6]).flatmap(lambda s: st.tuples(elements(shape=s), elements(shape=s))))
def test_mul_matches_untruncated_product_inside_box(pair):
    a, b = pair
    product = a * b
    full = _full_poly_product(a, b)
    for gamma in enumerate_box(a.shape.orders):
        assert product.coefficient(gamma) == full.get(gamma, Fraction(0))


@given(elements())
def test_json_roundtrip(a):
    assert element_from_json(element_to_json(a)) == a


def test_json_omits_zeros_and_keeps_box_order():
    s = Shape((2, 1))
    a = from_coefficients(s, {(0, 0): 1, (2, 1): Fraction(-3, 2)})
    doc = element_to_json(a)
    assert doc["orders"] == [2, 1]
    assert doc["coeffs"] == [
        {"alpha": [0, 0], "num": "1", "den": "1"},
        {"alpha": [2, 1], "num": "-3", "den": "2"},
    ]


def test_scalar_module_structure():
    s = Shape((2,))
    d = generator(s, 0)
    assert d * 3 == 3 * d
    assert (d * 3) / 3 == d
    assert d * Fraction(1, 2) + d * Fraction(1, 2) == d


def test_exhaustive_nilpotency_ladder_small_shapes():
    # 0 is m-nilpotent for every m; membership is upward closed.
    for orders in itertools.product(range(3), repeat=2):
        shape = Shape(orders)
        z = zero(shape)
        for m in range(4):
            assert z.is_in_Dm(m)
        d_total = sum((generator(shape, i) for i in range(2) if orders[i]), zero(shape))
        levels = [m for m in range(6) if d_total.is_in_Dm(m)]
        if levels:
            first = levels[0]
            assert levels == list(range(first, 6))


# -- Total-degree caps ----------------------------------------------------------


def _random_capped_shape(rng: random.Random) -> Shape:
    orders = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 4)))
    if rng.random() < 0.3:
        return Shape(orders)
    return Shape(orders, rng.randint(0, sum(orders)))


def _live_positions(shape: Shape) -> list:
    return [p for p, alpha in enumerate(shape.box()) if shape.contains(alpha)]


def _random_element(rng: random.Random, shape: Shape, constant_term=None) -> WeilElement:
    coeffs = [Fraction(0)] * shape.size()
    for p in _live_positions(shape):
        if rng.random() < 0.7:
            coeffs[p] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    if constant_term is not None:
        coeffs[0] = Fraction(constant_term)
    return WeilElement(shape, tuple(coeffs))


def _drop_above_cap(a: WeilElement, capped: Shape) -> WeilElement:
    # Same dense layout; zero every slot whose monomial exceeds the cap.
    live = set(_live_positions(capped))
    return WeilElement(capped, tuple(c if p in live else Fraction(0) for p, c in enumerate(a.coeffs)))


def test_shape_cap_normalises():
    assert Shape((2, 1), 3) == Shape((2, 1))
    assert Shape((2, 1), 7).degree is None
    assert Shape.simplex(1, 4) == Shape((4,))
    assert Shape.simplex(0, 3) == Shape(())
    assert Shape.simplex(3, 0) == Shape((0, 0, 0))
    assert Shape((5, 1), 2) == Shape((2, 1), 2)
    s = Shape.simplex(3, 2)
    assert s.orders == (2, 2, 2) and s.degree == 2
    assert s.size() == 27 and len(s.monomials()) == 10
    assert s.nilpotency_bound() == 2
    assert str(s) == "(2,2,2) deg<=2"
    assert str(Shape((2, 1))) == "(2,1)"
    with pytest.raises(ValueError):
        Shape((1, 1), -1)


def test_capped_shape_respects_the_cap():
    s = Shape.simplex(2, 2)
    assert monomial(s, (1, 1)).coefficient((1, 1)) == 1
    assert monomial(s, (2, 1)).is_zero()
    with pytest.raises(CoefficientIndexError):
        one(s).coefficient((2, 1))
    with pytest.raises(CoefficientIndexError):
        from_coefficients(s, {(1, 2): 1})
    d0, d1 = generator(s, 0), generator(s, 1)
    assert (d0 * d1 * d0).is_zero() and not (d0 * d0).is_zero()
    assert (d0 + d1).is_in_Dm(2) and not (d0 + d1).is_in_Dm(1)
    assert str((one(s) + d0 + d1) ** 2) == "1 + 2*d0 + d0^2 + 2*d1 + 2*d0*d1 + d1^2"


def test_mul_plan_matches_brute_force_pairs():
    rng = random.Random("weil:plan")
    for _ in range(150):
        shape = _random_capped_shape(rng)
        cap = sum(shape.orders) if shape.degree is None else shape.degree
        box = shape.box()
        pos = {alpha: r for r, alpha in enumerate(box)}
        live = [p for p, alpha in enumerate(box) if sum(alpha) <= cap]
        expected = {}
        for p in live:
            pairs = expected[p] = set()
            for q, beta in enumerate(box):
                gamma = tuple(a + b for a, b in zip(box[p], beta))
                if gamma in pos and sum(gamma) <= cap:
                    pairs.add((q, pos[gamma]))
        plan = _mul_plan(shape.orders, shape.degree)
        assert [p for p, _ in plan] == live
        assert {p: set(pairs) for p, pairs in plan} == expected


def test_capped_ops_equal_box_ops_then_truncation():
    rng = random.Random("weil:capped-ops")
    for _ in range(120):
        orders = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4)))
        if sum(orders) < 2:
            continue
        capped = Shape(orders, rng.randint(1, sum(orders) - 1))
        box = Shape(capped.orders)
        a = _random_element(rng, capped, constant_term=rng.choice((0, 1, Fraction(-3, 2))))
        b = _random_element(rng, capped)
        a_box, b_box = WeilElement(box, a.coeffs), WeilElement(box, b.coeffs)
        assert a * b == _drop_above_cap(a_box * b_box, capped)
        assert a + b == _drop_above_cap(a_box + b_box, capped)
        assert a - b * 3 == _drop_above_cap(a_box - b_box * 3, capped)
        e = rng.randint(0, 4)
        assert a**e == _drop_above_cap(a_box**e, capped)
        if a.constant_term():
            assert a.invert() == _drop_above_cap(a_box.invert(), capped)
            assert a * a.invert() == one(capped)
        eps = a - constant(capped, a.constant_term())
        for m in range(capped.nilpotency_bound() + 1):
            assert eps.is_in_Dm(m) == _drop_above_cap(WeilElement(box, eps.coeffs) ** (m + 1), capped).is_zero()
        assert eps.is_in_Dm(capped.nilpotency_bound())


def test_capped_json_roundtrip():
    rng = random.Random("weil:capped-json")
    for _ in range(60):
        shape = _random_capped_shape(rng)
        a = _random_element(rng, shape)
        doc = element_to_json(a)
        assert ("degree" in doc) == (shape.degree is not None)
        assert element_from_json(doc) == a
    doc = element_to_json(generator(Shape.simplex(2, 1), 1))
    assert doc == {"orders": [1, 1], "degree": 1, "coeffs": [{"alpha": [0, 1], "num": "1", "den": "1"}]}


def test_slice_coefficient_lowers_the_cap():
    s = Shape.simplex(3, 3)
    a = (one(s) + generator(s, 0) + generator(s, 1) * 2 + generator(s, 2)) ** 3
    linear = slice_coefficient(a, 1, 1)
    assert linear.shape == Shape.simplex(2, 2)
    uncapped = slice_coefficient(WeilElement(Shape(s.orders), a.coeffs), 1, 1)
    for beta in linear.shape.monomials():
        assert linear.coefficient(beta) == uncapped.coefficient(beta)
    assert linear.coefficient((0, 0)) == 6 and linear.coefficient((1, 1)) == 12
    assert slice_coefficient(a, 0, 3).shape == Shape((0, 0))


def test_shapes_over_the_slot_budget_are_refused_before_allocating():
    assert Shape((1,) * 21).size() == SLOT_BUDGET
    assert Shape.simplex(7, 7).size() == SLOT_BUDGET
    tracemalloc.start()
    try:
        for make in (lambda: Shape((1,) * 22), lambda: Shape.simplex(8, 8), lambda: Shape((2000, 2000, 2000))):
            with pytest.raises(CoefficientBudgetError, match="over the budget"):
                make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

import itertools
import math
import operator
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiljet.expression import EvaluationError, evaluate, parse, pretty_print
from weiljet.multiindex import ArityMismatchError, enumerate_box, enumerate_simplex
from weiljet.weil import (
    COEFF_BIT_BUDGET,
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
    seeded,
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


@pytest.mark.parametrize("shape", [Shape((2, 1, 3)), Shape.simplex(3, 2), Shape((1,)), Shape(())])
@pytest.mark.parametrize("c", [Fraction(-7, 6), 0, 5, Fraction(1, 3)])
def test_seeded_is_the_constant_plus_its_generators(shape, c):
    coordinates = range(shape.arity)
    for ts in [ts for r in range(shape.arity + 1) for ts in itertools.combinations(coordinates, r)]:
        total = constant(shape, c)
        for t in ts:
            total = total + generator(shape, t)
        got = seeded(shape, c, ts)
        assert got == total and (got.nums, got.den) == (total.nums, total.den)
    with pytest.raises(ArityMismatchError):
        seeded(shape, c, (shape.arity,))
    with pytest.raises(DegenerateGeneratorError):
        seeded(Shape((1, 0)), c, (0, 1))


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


def test_a_foreign_operand_is_left_to_python():
    # Each operator returns NotImplemented, so Python tries the other operand,
    # then raises TypeError; == falls back to identity.
    s = Shape((1,))
    a = constant(s, 2) + generator(s, 0)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(a, "x")
    with pytest.raises(TypeError):
        "x" * a
    assert a.__eq__(2) is NotImplemented and a != 2


def test_repr_spells_the_constructor_call():
    a = constant(Shape((1,)), 2) + generator(Shape((1,)), 0)
    text = "WeilElement(Shape(orders=(1,), degree=None), (Fraction(2, 1), Fraction(1, 1)))"
    assert repr(a) == text
    assert eval(text, {"WeilElement": WeilElement, "Shape": Shape, "Fraction": Fraction}) == a


def test_an_argument_out_of_range_is_refused():
    s = Shape((1,))
    with pytest.raises(ZeroDivisionError, match="scalar zero"):
        generator(s, 0) / 0
    with pytest.raises(ValueError):
        generator(s, 0).is_in_Dm(-1)
    with pytest.raises(ArityMismatchError):
        monomial(s, (1, 0))


def test_a_scalar_of_another_type_embeds_as_its_fraction():
    s = Shape((1,))
    assert constant(s, "1/3") == constant(s, Fraction(1, 3))
    assert seeded(s, 0.5, (0,)) == constant(s, Fraction(1, 2)) + generator(s, 0)


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


def test_monomials_are_the_live_slots_in_layout_order():
    rng = random.Random("weil:monomials")
    for _ in range(60):
        shape = _random_capped_shape(rng)
        assert shape.monomials() == tuple(alpha for alpha in shape.box() if shape.contains(alpha))
    s = Shape.simplex(7, 7)
    tracemalloc.start()
    try:
        monomials = s.monomials()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Filtering the dense 8^7 box would peak near 235 MB.
    assert peak < 4 << 20
    assert len(monomials) == 3432 and set(monomials) == set(enumerate_simplex(7, 7))
    positions = [s.index(alpha) for alpha in monomials]
    assert positions == sorted(set(positions))


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
    # Rows over element slots: slot i times slot j lands in slot t, for
    # (j, t) in zip(js, ts) of a capped row (i, js, ts) and t = i + j on a box.
    rng = random.Random("weil:plan")
    for _ in range(150):
        shape = _random_capped_shape(rng)
        cap = sum(shape.orders) if shape.degree is None else shape.degree
        box = shape.box()
        pos = {alpha: r for r, alpha in enumerate(box)}
        live = [p for p, alpha in enumerate(box) if sum(alpha) <= cap]
        slot = {p: i for i, p in enumerate(live)}
        expected = []
        for p in live:
            pairs = []
            for q, beta in enumerate(box):
                gamma = tuple(a + b for a, b in zip(box[p], beta))
                if gamma in pos and sum(gamma) <= cap:
                    pairs.append((slot[q], slot[pos[gamma]]))
            expected.append((slot[p], sorted(pairs)))
        plan = _mul_plan(shape.orders, shape.degree)
        if shape.degree is None:
            plan = [(p, qs, [p + q for q in qs]) for p, qs in plan]
        assert [(i, sorted(zip(js, ts))) for i, js, ts in plan] == expected


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


def test_printing_a_capped_element_walks_only_live_monomials():
    s = Shape.simplex(6, 6)
    a = one(s) + generator(s, 0)
    tracemalloc.start()
    try:
        doc, text = element_to_json(a), str(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Walking the dense 7^6 box filled the enumerate_box cache with 11.7 MB.
    assert peak < 2 << 20
    coeffs = [{"alpha": alpha, "num": "1", "den": "1"} for alpha in ([0] * 6, [1] + [0] * 5)]
    assert doc == {"orders": [6] * 6, "degree": 6, "coeffs": coeffs}
    assert text == "1 + d0"


def test_shapes_over_the_slot_budget_are_refused_before_allocating():
    assert Shape((1,) * 21).size() == SLOT_BUDGET
    assert Shape.simplex(7, 7).size() == SLOT_BUDGET
    assert Shape((2**20 - 1, 1), 2**20 - 1)._length == SLOT_BUDGET - 1  # live monomials, just in budget
    tracemalloc.start()
    try:
        for make in (
            lambda: Shape((1,) * 22),
            lambda: Shape.simplex(12, 12),
            lambda: Shape.simplex(2, 2**21 - 2),
            lambda: Shape((2000, 2000, 2000)),
        ):
            with pytest.raises(CoefficientBudgetError, match="over the budget"):
                make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_box_plan_holds_one_int_per_position():
    # Each entry q + b * s of a set in two or more coordinates was its own
    # int: the (60, 60) plan held 124 MB, with 3,085,325 distinct ints.
    tracemalloc.start()
    try:
        plan = _mul_plan.__wrapped__((60, 60))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 40 << 20
    assert len({id(q) for _, qs in plan for q in qs}) <= 61 * 61
    assert sum(map(len, (qs for _, qs in plan))) == Shape((60, 60)).plan_pairs() == 3_575_881


def test_the_constructor_refuses_a_coefficient_above_the_cap():
    shape = Shape.simplex(2, 1)
    with pytest.raises(CoefficientIndexError, match="above its cap"):
        WeilElement(shape, (1, 0, 0, 5))
    a = WeilElement(shape, (1, 2, Fraction(1, 3), 0))
    assert a == one(shape) + generator(shape, 0) * 2 + generator(shape, 1) * Fraction(1, 3)
    assert a + a == a * constant(shape, 2) and hash(a + a) == hash(a * constant(shape, 2))


def test_live_and_pair_counts_match_the_listed_sets():
    rng = random.Random("weil:counts")
    for _ in range(150):
        shape = _random_capped_shape(rng)
        assert shape._length == len(shape.monomials())
        assert shape.plan_pairs() == sum(len(row[1]) for row in _mul_plan(shape.orders, shape.degree))
    assert Shape.simplex(8, 8).plan_pairs() == math.comb(24, 16) == 735471
    assert Shape.simplex(9, 9).plan_pairs() == math.comb(27, 18) == 4686825
    assert Shape((1,) * 14).plan_pairs() == 3**14
    for shape in (Shape((1,) * 15), Shape.simplex(10, 10), Shape((19, 19, 19))):
        with pytest.raises(CoefficientBudgetError, match="product pairs, over the budget"):
            shape.plan_pairs()


def test_a_dense_view_over_the_slot_budget_is_refused():
    shape = Shape.simplex(9, 9)
    a = one(shape) + generator(shape, 8)
    assert str(a) == "1 + d8" and a.coefficient((0,) * 8 + (1,)) == 1
    assert repr(a) == "<WeilElement over (9,9,9,9,9,9,9,9,9) deg<=9: 1 + d8>"
    for view in (lambda: a.coeffs, lambda: a.nums, shape.box):
        with pytest.raises(CoefficientBudgetError, match="dense view"):
            view()


# -- Fraction-free storage and powering -------------------------------------------

# Denominators for random coefficients: none, small primes, and large coprime
# ones (two primes and a Mersenne prime), so common denominators grow big.
_DENOMINATORS = ((1,), (2, 3, 5, 7), (10007, 65537, 2**61 - 1), (1, 4, 9, 10**18 + 9))


def _kernel_element(rng: random.Random, shape: Shape) -> WeilElement:
    # Zero about one time in eight; otherwise signed numerators up to 10^12.
    coeffs = [Fraction(0)] * shape.size()
    if rng.random() < 0.125:
        return WeilElement(shape, tuple(coeffs))
    dens = rng.choice(_DENOMINATORS)
    for p in _live_positions(shape):
        if rng.random() < 0.7:
            coeffs[p] = Fraction(rng.randint(-10**12, 10**12), rng.choice(dens))
    return WeilElement(shape, tuple(coeffs))


def _ref_mul(shape: Shape, a, b) -> tuple:
    # Truncated product of two Fraction vectors by a loop over all slot pairs.
    box = shape.box()
    pos = {alpha: p for p, alpha in enumerate(box)}
    out = [Fraction(0)] * len(box)
    for alpha, ca in zip(box, a):
        for beta, cb in zip(box, b):
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            if shape.contains(gamma):
                out[pos[gamma]] += ca * cb
    return tuple(out)


def _assert_canonical(a: WeilElement) -> None:
    assert a.den > 0 and math.gcd(a.den, *a.nums) == 1
    assert all(type(n) is int for n in a.nums) and type(a.den) is int
    assert a.coeffs == tuple(Fraction(n, a.den) for n in a.nums)


# Constant terms of the chosen denominators: signs, fractions, sizes past 2^61.
_DIVISOR_CONSTANTS = (1, -1, 3, Fraction(-7, 2), 2**61 - 1, -(2**64 + 13), Fraction(2**62 + 3, -5))


def test_kernel_ops_equal_a_fraction_reference():
    rng = random.Random("weil:fraction-free")
    for i in range(80):
        shape = _random_capped_shape(rng)
        a, b = _kernel_element(rng, shape), _kernel_element(rng, shape)
        c = Fraction(rng.randint(-10**6, 10**6), rng.choice((1, 3, 10007, 2**61 - 1)))
        one_coeffs = one(shape).coeffs
        results = {
            "+": (a + b, tuple(x + y for x, y in zip(a.coeffs, b.coeffs))),
            "-": (a - b, tuple(x - y for x, y in zip(a.coeffs, b.coeffs))),
            "neg": (-a, tuple(-x for x in a.coeffs)),
            "*": (a * b, _ref_mul(shape, a.coeffs, b.coeffs)),
            "scalar *": (a * c, tuple(x * c for x in a.coeffs)),
            "int *": (7 * a, tuple(7 * x for x in a.coeffs)),
        }
        if c:
            results["scalar /"] = (a / c, tuple(x / c for x in a.coeffs))
        for op, (got, expected) in results.items():
            assert got.coeffs == expected, op
            _assert_canonical(got)
        if b.constant_term():
            inverse = b.invert()
            _assert_canonical(inverse)
            assert _ref_mul(shape, b.coeffs, inverse.coeffs) == one_coeffs
        else:
            with pytest.raises(NonInvertibleError):
                b.invert()
        # Besides b: a constant, a sparse b0 + c*g^2 and a linear b0 + g.
        b0 = _DIVISOR_CONSTANTS[i % len(_DIVISOR_CONSTANTS)]
        axes = [j for j, k in enumerate(shape.orders) if k]
        g = sum((generator(shape, j) * rng.randint(-3, 3) for j in axes), zero(shape))
        by_constant = constant(shape, b0)
        assert a / by_constant == a / b0
        for d in (b, by_constant, by_constant + c * g * g, by_constant + g):
            if d.constant_term():
                quotient = a / d
                _assert_canonical(quotient)
                assert _ref_mul(shape, quotient.coeffs, d.coeffs) == a.coeffs


# -- Division -------------------------------------------------------------------


def test_division_by_a_non_unit_raises_directly():
    for shape in (Shape((2, 1)), Shape.simplex(3, 2), Shape(())):
        a = one(shape) + (generator(shape, 0) if shape.arity else zero(shape))
        for b in (zero(shape), *(generator(shape, i) * 3 for i in range(shape.arity))):
            with pytest.raises(NonInvertibleError):
                a / b
            with pytest.raises(NonInvertibleError):
                b.invert()
    with pytest.raises(ShapeMismatchError):
        one(Shape((1,))) / one(Shape((2,)))


def test_division_by_a_constant_jet_is_scaling_by_the_reciprocal():
    rng = random.Random("weil:constant-denominator")
    shapes = (Shape((4, 4, 4)), Shape((2, 1)), Shape(()), Shape.simplex(3, 2), Shape((3, 2, 2), 4))
    for shape in shapes:
        for a in (_kernel_element(rng, shape), _kernel_element(rng, shape), zero(shape)):
            for c in (*_DIVISOR_CONSTANTS, 5, Fraction(2, 9)):
                c = Fraction(c)
                quotient = a / constant(shape, c)
                _assert_canonical(quotient)
                assert quotient == a * (1 / c)
                assert constant(shape, c).invert() == constant(shape, 1 / c)


def test_evaluate_reports_a_jet_pole_with_its_path():
    s = Shape((2, 1))
    x = (constant(s, 2) + generator(s, 0), constant(s, 1) + generator(s, 1))
    with pytest.raises(EvaluationError) as info:
        evaluate(parse("x1 + x0*(1 + 1/(x0 - 2))"), x, lambda c: constant(s, c))
    assert info.value.path == (1, 1, 1)
    assert pretty_print(info.value.subexpr) == "(1 / (x0 - 2))"
    assert evaluate(parse("x1 / (x0 - 1)"), x, lambda c: constant(s, c)) == x[1] / (x[0] - one(s))


def test_equal_values_are_equal_elements_however_built():
    rng = random.Random("weil:canonical")
    for _ in range(40):
        shape = _random_capped_shape(rng)
        a = _kernel_element(rng, shape)
        c = Fraction(rng.randint(1, 10**6), rng.choice((1, 7, 10007)))
        twins = [
            WeilElement(shape, a.coeffs),
            WeilElement(shape, list(a.coeffs)),
            element_from_json(element_to_json(a)),
            a * c / c,
            (a + a) * Fraction(1, 2),
            -(-a),
            a - zero(shape),
            a * one(shape),
            a ** 1,
        ]
        for twin in twins:
            _assert_canonical(twin)
            assert twin == a and hash(twin) == hash(a)
        gone = a - a
        assert gone == zero(shape) and hash(gone) == hash(zero(shape)) and gone.den == 1
    s = Shape((2, 1))
    half = Fraction(3, 2)
    ways = [
        constant(s, half),
        WeilElement(s, (half,) + (0,) * (s.size() - 1)),
        from_coefficients(s, {(0, 0): Fraction(6, 4)}),
        one(s) * half,
        constant(s, 3) / 2,
        constant(s, 1) + constant(s, Fraction(1, 2)),
    ]
    assert len(set(ways)) == 1 and all(w == ways[0] for w in ways)
    assert generator(s, 1) == monomial(s, (0, 1)) == from_coefficients(s, {(0, 1): 1})


def test_constructor_round_trips_its_coefficients():
    rng = random.Random("weil:constructor")
    for _ in range(40):
        shape = _random_capped_shape(rng)
        coeffs = _kernel_element(rng, shape).coeffs
        a = WeilElement(shape, coeffs)
        assert a.coeffs == coeffs
        _assert_canonical(a)
    ints = WeilElement(Shape((2,)), (4, -6, 0))
    assert ints.coeffs == (Fraction(4), Fraction(-6), Fraction(0)) and ints.den == 1 and ints.nums == (4, -6, 0)
    with pytest.raises(ValueError):
        WeilElement(Shape((2,)), (1, 2))


def test_pow_equals_repeated_multiplication():
    rng = random.Random("weil:pow")
    for _ in range(40):
        shape = _random_capped_shape(rng)
        a = _kernel_element(rng, shape)
        expected = one(shape)
        for exponent in range(10):
            power = a**exponent
            assert power == expected, exponent
            _assert_canonical(power)
            expected = expected * a
    d = generator(Shape((2,)), 0)
    # Square-and-multiply needs 20 squarings here, not a million products.
    n = 10**6
    assert (one(Shape((2,))) + d) ** n == from_coefficients(Shape((2,)), {(0,): 1, (1,): n, (2,): n * (n - 1) // 2})
    with pytest.raises(ValueError):
        d ** -1


def test_a_power_stops_before_squaring_past_the_bit_budget():
    # (2 + d)^(2^j) = 2^(2^j) + 2^j * 2^(2^j - 1) d, whose largest numerator
    # has 2^j + j bits: 16 squarings stay within the budget, and the square
    # that would take them past it is refused before it is made.
    s = Shape((1,))
    a = constant(s, 2) + generator(s, 0)
    assert COEFF_BIT_BUDGET == 2**16
    top = a ** COEFF_BIT_BUDGET
    assert top.nums == (2**COEFF_BIT_BUDGET, COEFF_BIT_BUDGET * 2 ** (COEFF_BIT_BUDGET - 1))
    with pytest.raises(CoefficientBudgetError, match=f"{COEFF_BIT_BUDGET + 16}-bit coefficients, over the budget"):
        a ** (2 * COEFF_BIT_BUDGET)
    # A denominator counts too; a small running square never grows.
    with pytest.raises(CoefficientBudgetError):
        (constant(s, Fraction(1, 2)) + generator(s, 0)) ** (2 * COEFF_BIT_BUDGET)
    assert (one(s) + generator(s, 0)) ** 10**8 == one(s) + generator(s, 0) * 10**8


@pytest.mark.parametrize("bits, ok", [(4095, True), (4096, False)])
def test_a_division_checks_its_scaled_size_before_it_scales(bits, ok):
    # Over order 15 the solve scales one by |b0|^16: 16 * 4095 + 1 bits fit
    # the budget of 2^16, and 16 * 4096 + 1 do not.
    shape = Shape((15,))
    b = constant(shape, 2 ** (bits - 1)) + generator(shape, 0)
    if ok:
        assert b * b.invert() == one(shape)
    else:
        with pytest.raises(CoefficientBudgetError, match="scale to 65537-bit coefficients, over the budget of 65536"):
            b.invert()
        with pytest.raises(CoefficientBudgetError):
            evaluate(parse(f"1/({2 ** (bits - 1)}+x0)"), [generator(shape, 0)], lift=lambda c: constant(shape, c))


def test_a_sparse_divisor_scales_by_its_least_degree():
    # (b - b0)^(m+1) = 0 for m = L // r, r the least degree of b's nonzero
    # non-constant slots: N + d^10 over order 100 scales by N^11, not N^101,
    # so a 698-bit N fits the budget (11 * 698 bits), where 101 * 698 does not.
    shape, n = Shape((100,)), 10**210 - 1
    b = constant(shape, n) + monomial(shape, (10,))
    y = b.invert()
    assert b * y == one(shape)
    assert y.coefficient((100,)) == Fraction(1, n**11) and y.coefficient((99,)) == 0
    with pytest.raises(CoefficientBudgetError, match="scale to 70499-bit coefficients"):
        (b + generator(shape, 0)).invert()
    # In two variables r is the least total degree present: 4, from d0^3 d1,
    # so a 2,990-bit N over orders (12, 12) scales by N^7, not N^25.
    shape, n = Shape((12, 12)), 10**900 - 1
    b = constant(shape, n) + monomial(shape, (3, 1)) + monomial(shape, (0, 5))
    a = generator(shape, 1) + constant(shape, 3)
    assert b * b.invert(a) == a
    with pytest.raises(CoefficientBudgetError, match="scale to 74752-bit coefficients"):
        (b + generator(shape, 1)).invert(a)

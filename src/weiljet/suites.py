"""Named identity suites: every core statement of the calculus, run as an
exact check over seeded random instances.

Suite names double as CLI tokens (``check --suite <name>``). Instance
generation is deterministic: instance i of a suite under seed s draws from
``random.Random(f"{s}:{name}:{i}")``, so reports are reproducible byte for
byte and instances are independent of execution order.

A check states each comparison as ``_same(lhs, rhs, describe)``. The first
one that fails ends the instance, and its counterexample is ``describe()``
followed by ``: lhs=<lhs>, rhs=<rhs>``; a failed rule check
(``calculus.check_rule``, passed to ``_rules``) gives its verdict's
``describe()`` instead. A ``WeiljetError`` raised inside a check, an internal
fault such as ``IdentityViolationError``, ends the instance the same way,
with its message as the counterexample, so the suite fails and the other
suites still run.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .calculus import (
    IdentityViolationError,
    _taylor_series,
    check_rule,
    derivative,
    evaluate_perturbed,
    expand_sum_of_D,
    jet_evaluate,
    mixed_derivative,
    nth_derivative,
    taylor_box,
    taylor_simplex,
    taylor_squarefree,
    taylor_sum,
)
from .errors import WeiljetError
from .expression import Add, Const, Expr, Mul, Neg, Pow, Sub, Var, evaluate, pretty_print
from .multiindex import factorial, leq
from .oracle import oracle_mixed
from .value import Value, setfields
from .weil import Shape, WeilElement, from_coefficients, generator, one, zero

_ONE = Fraction(1)
_MAX_ARITY = 3
_MAX_ORDER = 3


class UnknownSuiteError(WeiljetError):
    """Requested suite name is not registered."""


class SuiteConfig(Value):
    __slots__ = __match_args__ = ("instances", "seed")

    def __init__(self, instances: int = 200, seed: int = 0):
        setfields(self, instances, seed)


class SuiteResult(Value):
    __slots__ = __match_args__ = ("name", "instances", "passes", "first_counterexample")

    def __init__(self, name: str, instances: int, passes: int, first_counterexample: str | None = None):
        setfields(self, name, instances, passes, first_counterexample)

    @property
    def passed(self) -> bool:
        return self.passes == self.instances

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "passes": self.passes,
            "passed": self.passed,
            "first_counterexample": self.first_counterexample,
        }


# -- Random instances -----------------------------------------------------------


def random_rational(rng: random.Random, span: int = 6, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_expr(rng: random.Random, n_vars: int, depth: int) -> Expr:
    """Random division-free expression over x0..x(n_vars-1)."""
    if depth <= 0 or rng.random() < 0.3:
        if n_vars and rng.random() < 0.75:
            return Var(rng.randrange(n_vars))
        return Const(random_rational(rng))
    roll = rng.random()
    if roll < 0.28:
        return Add(random_expr(rng, n_vars, depth - 1), random_expr(rng, n_vars, depth - 1))
    if roll < 0.5:
        return Sub(random_expr(rng, n_vars, depth - 1), random_expr(rng, n_vars, depth - 1))
    if roll < 0.78:
        return Mul(random_expr(rng, n_vars, depth - 1), random_expr(rng, n_vars, depth - 1))
    if roll < 0.92:
        return Pow(random_expr(rng, n_vars, depth - 2 if depth >= 2 else 0), rng.randint(2, 3))
    return Neg(random_expr(rng, n_vars, depth - 1))


def random_point(rng: random.Random, n: int) -> tuple:
    return tuple(random_rational(rng, span=4, max_den=3) for _ in range(n))


def random_shape(rng: random.Random) -> Shape:
    n = rng.randint(1, _MAX_ARITY)
    orders = [rng.randint(0, _MAX_ORDER) for _ in range(n)]
    if not any(orders):
        orders[rng.randrange(n)] = rng.randint(1, _MAX_ORDER)
    return Shape(tuple(orders))


def random_element(rng: random.Random, shape: Shape, zero_constant: bool = False) -> WeilElement:
    coeffs = []
    for idx in range(shape.size()):
        if idx == 0 and zero_constant:
            coeffs.append(Fraction(0))
        elif rng.random() < 0.55:
            coeffs.append(random_rational(rng))
        else:
            coeffs.append(Fraction(0))
    return WeilElement(shape, tuple(coeffs))


def random_square_zero(rng: random.Random, shape: Shape) -> WeilElement:
    """A random element whose square vanishes (a first-order infinitesimal)."""
    k = shape.orders
    candidates = [
        alpha
        for alpha in shape.box()
        if any(alpha) and not leq(tuple(2 * a for a in alpha), k)
    ]
    for _ in range(20):
        support = rng.sample(candidates, k=min(len(candidates), rng.randint(1, 2)))
        entries = {alpha: random_rational(rng) for alpha in support}
        element = from_coefficients(shape, entries)
        if (element * element).is_zero():
            return element
    return from_coefficients(shape, {k: random_rational(rng)})


class _Counterexample(WeiljetError):
    """The first comparison of an instance that failed; its text is the counterexample."""


def _same(lhs, rhs, describe) -> None:
    """The one comparison of the suites: unless lhs == rhs, stop the instance
    with the counterexample ``describe(): lhs=<lhs>, rhs=<rhs>``. Only then is
    ``describe`` called, so a passing instance formats no text."""
    if lhs != rhs:
        raise _Counterexample(f"{describe()}: lhs={lhs}, rhs={rhs}")


def _rules(*verdicts) -> None:
    """Stop the instance at the first failed rule check, whose verdict
    already compared its two sides; its ``describe()`` is the counterexample."""
    for verdict in verdicts:
        if not verdict.passed:
            raise _Counterexample(verdict.describe())


# -- Suite registry ---------------------------------------------------------------

# Suite name -> its check, which draws one instance from the random.Random
# it is given, states each comparison through ``_same`` or ``_rules`` and
# returns nothing. ``run_suite`` turns the first failed comparison (its
# description and both sides, or a verdict's text) or any WeiljetError raised
# inside the check into the instance's counterexample, and any other
# Exception, MemoryError and RecursionError included, into "internal fault:
# <type>: <message>": the instance's frames are gone once it is caught, so
# the next instance starts clean. KeyboardInterrupt still ends the run.
_SUITE_CHECKS: dict = {}


def _suite(name: str):
    def register(fn):
        _SUITE_CHECKS[name] = fn
        return fn

    return register


def suite_names() -> tuple[str, ...]:
    return tuple(_SUITE_CHECKS)


def run_suite(name: str, config: SuiteConfig = SuiteConfig()) -> SuiteResult:
    try:
        check = _SUITE_CHECKS[name]
    except KeyError:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; known: {', '.join(suite_names())}"
        ) from None
    passes = 0
    first = None
    for idx in range(config.instances):
        try:
            check(random.Random(f"{config.seed}:{name}:{idx}"))
        except WeiljetError as exc:
            first = first or f"instance {idx}: {exc}"
        except Exception as exc:
            first = first or f"instance {idx}: internal fault: {type(exc).__name__}: {exc}"
        else:
            passes += 1
    return SuiteResult(name, config.instances, passes, first)


def run_suites(names, config: SuiteConfig = SuiteConfig()) -> list[SuiteResult]:
    return [run_suite(name, config) for name in names]


# -- Nilpotency basics ------------------------------------------------------------


@_suite("lemma-3.1.2")
def _zero_is_nilpotent(rng: random.Random) -> None:
    shape = random_shape(rng)
    z = zero(shape)
    for m in range(6):
        _same(z.is_in_Dm(m), True, lambda: f"zero not {m}-nilpotent in shape {shape}")


def _minimal_nilpotency(a: WeilElement) -> int:
    for m in range(a.shape.nilpotency_bound() + 1):
        if a.is_in_Dm(m):
            return m
    raise IdentityViolationError(f"element with zero constant term not nilpotent: {a}")


@_suite("lemma-3.1.3")
def _nilpotents_absorb_products(rng: random.Random) -> None:
    shape = random_shape(rng)
    a = random_element(rng, shape, zero_constant=True)
    b = random_element(rng, shape)
    m = _minimal_nilpotency(a)
    _same((a * b).is_in_Dm(m), True, lambda: f"product left {m}-nilpotents: a={a}, b={b}")


@_suite("lemma-3.1.4")
def _nilpotency_is_monotone(rng: random.Random) -> None:
    shape = random_shape(rng)
    a = random_element(rng, shape, zero_constant=True)
    m = _minimal_nilpotency(a)
    for later in range(m, max(m, 5) + 1):
        _same(a.is_in_Dm(later), True, lambda: f"a={a} is {m}-nilpotent but not {later}-nilpotent")


@_suite("lemma-3.1.5")
def _square_of_sum(rng: random.Random) -> None:
    shape = random_shape(rng)
    x = random_square_zero(rng, shape)
    y = random_square_zero(rng, shape)
    _same((x + y) ** 2, (x * y) * 2, lambda: f"(x+y)^2 != 2xy for x={x}, y={y} in {shape}")


@_suite("lemma-3.1.6")
def _binomial_collapse(rng: random.Random) -> None:
    orders = (1,) + tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 2)))
    shape = Shape(orders)
    x = generator(shape, 0)
    y = random_element(rng, shape)
    m = rng.randint(0, 5)
    lhs = (x + y) ** (m + 1)
    rhs = x * (y**m) * (m + 1) + y ** (m + 1)
    _same(lhs, rhs, lambda: f"binomial collapse failed for y={y}, m={m} in {shape}")


@_suite("lemma-3.1.7")
def _sum_power_vanishes(rng: random.Random) -> None:
    k = rng.randint(0, 6)
    shape = Shape((1,) * k)
    total = zero(shape)
    for i in range(k):
        total = total + generator(shape, i)
    _same(total ** (k + 1), zero(shape), lambda: f"(sum of {k} square-zero generators)^{k + 1} != 0")


@_suite("lemma-3.1.8")
def _sum_power_factorial(rng: random.Random) -> None:
    k = rng.randint(0, 6)
    shape = Shape((1,) * k)
    total = zero(shape)
    product = one(shape)
    fact = 1
    for i in range(k):
        total = total + generator(shape, i)
        product = product * generator(shape, i)
        fact *= i + 1
    _same(total**k, product * fact, lambda: f"(sum of {k} generators)^{k} != {k}! * product")


# -- One-variable calculus ---------------------------------------------------------


@_suite("thm-4.1.4")
def _first_order_expansion(rng: random.Random) -> None:
    f = random_expr(rng, 1, 5)
    x = random_rational(rng)
    shape = Shape((1,))
    jet = jet_evaluate(f, (x,), shape)
    fx = evaluate(f, [x])
    slope = derivative(f, x)
    _same(jet, _taylor_series((fx, slope), generator(shape, 0)), lambda: f"f={pretty_print(f)} at x={x}")
    _same(
        slope,
        oracle_mixed(f, (1,), (x,)),
        lambda: f"slope of f={pretty_print(f)} at x={x} disagrees with termwise oracle",
    )
    # Immediate corollaries of the degree-1 expansion: the derivative is
    # linear and satisfies the product rule.
    g = random_expr(rng, 1, 4)
    _rules(
        check_rule("linearity", f=f, g=g, x=x, a=random_rational(rng), b=random_rational(rng)),
        check_rule("leibniz", f=f, g=g, x=x),
    )


@_suite("lemma-4.1.5")
def _differentiation_formulas(rng: random.Random) -> None:
    x = random_rational(rng)
    c = random_rational(rng)
    _same(derivative(Const(c), x), 0, lambda: f"constant {c} has nonzero slope at {x}")
    _same(derivative(Var(0), x), 1, lambda: f"identity has slope != 1 at {x}")
    f = random_expr(rng, 1, 4)
    g = random_expr(rng, 1, 4)
    _rules(check_rule("chain", f=f, g=g, x=x), check_rule("power", n=rng.randint(0, 6), x=x))
    for _ in range(100):
        h = random_expr(rng, 1, 4)
        if evaluate(h, [x]) != 0:
            break
    else:
        h = Add(Var(0), Const(1 - x))
    _rules(check_rule("reciprocal", f=h, x=x))
    slope = random_rational(rng)
    if slope == 0:
        slope = _ONE
    _rules(check_rule("inverse_affine", a=slope, b=random_rational(rng), x=x))


def _second_order(f: Expr, x: Fraction, delta: WeilElement) -> WeilElement:
    # f(x) + delta f'(x) + delta^2 f''(x) / 2, the derivatives taken from jets.
    return _taylor_series((evaluate(f, [x]), derivative(f, x), nth_derivative(f, 2, x)), delta)


@_suite("lemma-4.1.6")
def _two_generator_expansion(rng: random.Random) -> None:
    f = random_expr(rng, 1, 5)
    x = random_rational(rng)
    shape = Shape((1, 1))
    delta = generator(shape, 0) + generator(shape, 1)
    lhs = evaluate_perturbed(f, (x,), shape, ((0, 1),))
    _same(lhs, _second_order(f, x, delta), lambda: f"f={pretty_print(f)} at x={x} over {shape}")


@_suite("prop-4.2.1")
def _second_order_expansion(rng: random.Random) -> None:
    f = random_expr(rng, 1, 5)
    x = random_rational(rng)
    shape = Shape((2,))
    lhs = jet_evaluate(f, (x,), shape)
    _same(lhs, _second_order(f, x, generator(shape, 0)), lambda: f"f={pretty_print(f)} at x={x} over {shape}")


@_suite("prop-4.2.2")
def _sum_of_generators_expansion(rng: random.Random) -> None:
    f = random_expr(rng, 1, 5)
    x = random_rational(rng)
    m = rng.randint(0, 4)
    for n, value in enumerate(expand_sum_of_D(f, x, m)):
        _same(value, oracle_mixed(f, (n,), (x,)), lambda: f"order-{n} value of f={pretty_print(f)} at x={x}")


@_suite("thm-4.2.3")
def _truncated_taylor_one_variable(rng: random.Random) -> None:
    f = random_expr(rng, 1, 5)
    x = random_rational(rng)
    m = rng.randint(0, 4)
    shape = Shape((m,))
    lhs = jet_evaluate(f, (x,), shape)
    delta = generator(shape, 0) if m >= 1 else zero(shape)
    rhs = _taylor_series([oracle_mixed(f, (n,), (x,)) for n in range(m + 1)], delta)
    _same(lhs, rhs, lambda: f"f={pretty_print(f)} at x={x}, order {m}")


# -- Several variables ---------------------------------------------------------------


@_suite("thm-5.1.3")
def _partial_expansion(rng: random.Random) -> None:
    n = rng.randint(1, 3)
    f = random_expr(rng, n, 4)
    x = random_point(rng, n)
    i = rng.randrange(n)
    shape = Shape(tuple(1 if j == i else 0 for j in range(n)))
    jet = jet_evaluate(f, x, shape)
    _same(jet.coefficient((0,) * n), evaluate(f, x), lambda: f"value mismatch for f={pretty_print(f)} at x={x}")
    alpha = tuple(1 if j == i else 0 for j in range(n))
    expected = oracle_mixed(f, alpha, x)
    _same(jet.coefficient(shape.orders), expected, lambda: f"partial {i} of f={pretty_print(f)} at x={x}")


@_suite("prop-5.1.4")
def _mixed_partials_commute(rng: random.Random) -> None:
    n = rng.randint(2, 3)
    f = random_expr(rng, n, 4)
    x = random_point(rng, n)
    i = rng.randrange(n)
    j = rng.randrange(n)
    verdict = check_rule("mixed_symmetry", f=f, i=i, j=j, x=x)
    _rules(verdict)
    alpha = [0] * n
    alpha[i] += 1
    alpha[j] += 1
    _same(
        verdict.lhs,
        oracle_mixed(f, tuple(alpha), x),
        lambda: f"iterated partials ({i},{j}) of f={pretty_print(f)} at x={x} vs oracle",
    )


@_suite("thm-5.2.1")
def _squarefree_expansion(rng: random.Random) -> None:
    n = rng.randint(0, 4)
    f = random_expr(rng, n, 4)
    x = random_point(rng, n)
    table = taylor_squarefree(f, x)
    shape = Shape((1,) * n)
    expected_entries = {}
    for subset, value in table.items():
        alpha = tuple(1 if idx in subset else 0 for idx in range(n))
        expected = expected_entries[alpha] = oracle_mixed(f, alpha, x)
        _same(value, expected, lambda: f"subset {sorted(subset)} entry for f={pretty_print(f)} at x={x}")
    _same(
        jet_evaluate(f, x, shape),
        from_coefficients(shape, expected_entries),
        lambda: f"square-free reconstruction for f={pretty_print(f)} at x={x}",
    )


def _box_instance(rng: random.Random):
    n = 0 if rng.random() < 0.05 else rng.randint(1, 3)
    f = random_expr(rng, n, 4 if n > 1 else 5)
    x = random_point(rng, n)
    k = tuple(rng.randint(0, 3) for _ in range(n))
    return f, x, k


@_suite("prop-5.2.3")
def _box_expansion(rng: random.Random) -> None:
    f, x, k = _box_instance(rng)
    shape = Shape(k)
    jet = jet_evaluate(f, x, shape)
    table = taylor_box(f, x, k)
    values = {alpha: mixed_derivative(f, alpha, x) for alpha in shape.box()}
    for alpha, value in values.items():
        _same(
            value,
            table.entries[alpha],
            lambda: f"independent extraction at {alpha} for f={pretty_print(f)}, x={x}, k={k}",
        )
    recon = from_coefficients(shape, {alpha: value / factorial(alpha) for alpha, value in values.items()})
    _same(jet, recon, lambda: f"box expansion for f={pretty_print(f)}, x={x}, k={k}")


@_suite("thm-5.2.4")
def _simplex_expansion(rng: random.Random) -> None:
    f, x, k = _box_instance(rng)
    shape = Shape(k)
    jet = jet_evaluate(f, x, shape)
    # The two tables come from two algebras: the total-degree-|k| one and the box.
    table = taylor_simplex(f, x, k)
    box_table = taylor_box(f, x, k)
    for alpha in box_table.entries:
        _same(
            table.entries[alpha],
            box_table.entries[alpha],
            lambda: f"simplex/box disagree at {alpha} for f={pretty_print(f)}, x={x}, k={k}",
        )
    _same(jet, taylor_sum(table, shape), lambda: f"simplex expansion for f={pretty_print(f)}, x={x}, k={k}")


# -- Float-safe corpus for finite-difference validation ------------------------------

FD_CORPUS = (
    ("x0^3", (2.0,), 0),
    ("x0^5 - 2*x0^2", (1.2,), 0),
    ("(x0+1)^4", (0.5,), 0),
    ("1/x0", (2.0,), 0),
    ("1/(1+x0^2)", (0.75,), 0),
    ("x0^2*x1 + 3*x0", (1.5, -0.5), 0),
    ("x0^2*x1 + x1^3", (1.5, -0.5), 1),
    ("x0*x1^2 - 1/(2+x0)", (0.25, 1.5), 0),
)

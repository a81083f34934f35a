"""Named identity suites: every core statement of the calculus, run as an
exact check over seeded random instances.

Suite names double as CLI tokens (``check --suite <name>``). Instance
generation is deterministic: instance i of a suite under seed s draws from
``random.Random(f"{s}:{name}:{i}")``, so reports are reproducible byte for
byte and instances are independent of execution order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .calculus import (
    check_rule,
    derivative,
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
from .weil import Shape, WeilElement, constant, from_coefficients, generator, one, zero

_ONE = Fraction(1)


class UnknownSuiteError(WeiljetError):
    """Requested suite name is not registered."""


@dataclass(frozen=True)
class SuiteConfig:
    instances: int = 200
    seed: int = 0


@dataclass(frozen=True)
class SuiteResult:
    name: str
    instances: int
    passes: int
    first_counterexample: Optional[str] = None

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


def random_shape(rng: random.Random, max_arity: int = 3, max_order: int = 3) -> Shape:
    n = rng.randint(1, max_arity)
    orders = [rng.randint(0, max_order) for _ in range(n)]
    if not any(orders):
        orders[rng.randrange(n)] = rng.randint(1, max_order)
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


def _failure(description: str, lhs, rhs) -> str:
    return f"{description}: lhs={lhs}, rhs={rhs}"


# -- Suite registry ---------------------------------------------------------------

CheckFn = Callable[[random.Random], Optional[str]]

_SUITE_CHECKS: dict[str, CheckFn] = {}


def _suite(name: str):
    def register(fn: CheckFn) -> CheckFn:
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
        rng = random.Random(f"{config.seed}:{name}:{idx}")
        detail = check(rng)
        if detail is None:
            passes += 1
        elif first is None:
            first = f"instance {idx}: {detail}"
    return SuiteResult(name, config.instances, passes, first)


def run_suites(names, config: SuiteConfig = SuiteConfig()) -> list[SuiteResult]:
    return [run_suite(name, config) for name in names]


# -- Nilpotency basics ------------------------------------------------------------


@_suite("lemma-3.1.2")
def _zero_is_nilpotent(rng: random.Random) -> Optional[str]:
    shape = random_shape(rng)
    z = zero(shape)
    for m in range(6):
        if not z.is_in_Dm(m):
            return _failure(f"zero not {m}-nilpotent in shape {shape}", False, True)
    return None


def _minimal_nilpotency(a: WeilElement) -> int:
    for m in range(a.shape.nilpotency_bound() + 1):
        if a.is_in_Dm(m):
            return m
    raise AssertionError(f"element with zero constant term not nilpotent: {a}")


@_suite("lemma-3.1.3")
def _nilpotents_absorb_products(rng: random.Random) -> Optional[str]:
    shape = random_shape(rng)
    a = random_element(rng, shape, zero_constant=True)
    b = random_element(rng, shape)
    m = _minimal_nilpotency(a)
    if not (a * b).is_in_Dm(m):
        return _failure(f"product left {m}-nilpotents: a={a}, b={b}", False, True)
    return None


@_suite("lemma-3.1.4")
def _nilpotency_is_monotone(rng: random.Random) -> Optional[str]:
    shape = random_shape(rng)
    a = random_element(rng, shape, zero_constant=True)
    m = _minimal_nilpotency(a)
    for later in range(m, max(m, 5) + 1):
        if not a.is_in_Dm(later):
            return _failure(f"a={a} is {m}-nilpotent but not {later}-nilpotent", False, True)
    return None


@_suite("lemma-3.1.5")
def _square_of_sum(rng: random.Random) -> Optional[str]:
    shape = random_shape(rng)
    x = random_square_zero(rng, shape)
    y = random_square_zero(rng, shape)
    lhs = (x + y) ** 2
    rhs = (x * y) * 2
    if lhs != rhs:
        return _failure(f"(x+y)^2 != 2xy for x={x}, y={y} in {shape}", lhs, rhs)
    return None


@_suite("lemma-3.1.6")
def _binomial_collapse(rng: random.Random) -> Optional[str]:
    orders = (1,) + tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 2)))
    shape = Shape(orders)
    x = generator(shape, 0)
    y = random_element(rng, shape)
    m = rng.randint(0, 5)
    lhs = (x + y) ** (m + 1)
    rhs = x * (y**m) * (m + 1) + y ** (m + 1)
    if lhs != rhs:
        return _failure(f"binomial collapse failed for y={y}, m={m} in {shape}", lhs, rhs)
    return None


@_suite("lemma-3.1.7")
def _sum_power_vanishes(rng: random.Random) -> Optional[str]:
    k = rng.randint(0, 6)
    shape = Shape((1,) * k)
    total = zero(shape)
    for i in range(k):
        total = total + generator(shape, i)
    power = total ** (k + 1)
    if not power.is_zero():
        return _failure(f"(sum of {k} square-zero generators)^{k + 1} != 0", power, 0)
    return None


@_suite("lemma-3.1.8")
def _sum_power_factorial(rng: random.Random) -> Optional[str]:
    k = rng.randint(0, 6)
    shape = Shape((1,) * k)
    total = zero(shape)
    product = one(shape)
    fact = 1
    for i in range(k):
        total = total + generator(shape, i)
        product = product * generator(shape, i)
        fact *= i + 1
    lhs = total**k
    rhs = product * fact
    if lhs != rhs:
        return _failure(f"(sum of {k} generators)^{k} != {k}! * product", lhs, rhs)
    return None


# -- One-variable calculus ---------------------------------------------------------


@_suite("thm-4.1.4")
def _first_order_expansion(rng: random.Random) -> Optional[str]:
    f = random_expr(rng, 1, 5)
    x = random_rational(rng)
    shape = Shape((1,))
    jet = jet_evaluate(f, (x,), shape)
    fx = evaluate(f, [x])
    slope = derivative(f, x)
    expected = constant(shape, fx) + generator(shape, 0) * slope
    if jet != expected:
        return _failure(f"f={pretty_print(f)} at x={x}", jet, expected)
    if slope != oracle_mixed(f, (1,), (x,)):
        return _failure(
            f"slope of f={pretty_print(f)} at x={x} disagrees with termwise oracle",
            slope,
            oracle_mixed(f, (1,), (x,)),
        )
    # Immediate corollaries of the degree-1 expansion: the derivative is
    # linear and satisfies the product rule.
    g = random_expr(rng, 1, 4)
    for verdict in (
        check_rule(
            "linearity", f=f, g=g, x=x, a=random_rational(rng), b=random_rational(rng)
        ),
        check_rule("leibniz", f=f, g=g, x=x),
    ):
        if not verdict.passed:
            return verdict.describe()
    return None


@_suite("lemma-4.1.5")
def _differentiation_formulas(rng: random.Random) -> Optional[str]:
    x = random_rational(rng)
    c = random_rational(rng)
    if derivative(Const(c), x) != 0:
        return _failure(f"constant {c} has nonzero slope at {x}", derivative(Const(c), x), 0)
    if derivative(Var(0), x) != 1:
        return _failure(f"identity has slope != 1 at {x}", derivative(Var(0), x), 1)
    f = random_expr(rng, 1, 4)
    g = random_expr(rng, 1, 4)
    for verdict in (
        check_rule("chain", f=f, g=g, x=x),
        check_rule("power", n=rng.randint(0, 6), x=x),
    ):
        if not verdict.passed:
            return verdict.describe()
    for _ in range(100):
        h = random_expr(rng, 1, 4)
        if evaluate(h, [x]) != 0:
            break
    else:
        h = Add(Var(0), Const(1 - x))
    verdict = check_rule("reciprocal", f=h, x=x)
    if not verdict.passed:
        return verdict.describe()
    slope = random_rational(rng)
    if slope == 0:
        slope = _ONE
    verdict = check_rule("inverse_affine", a=slope, b=random_rational(rng), x=x)
    if not verdict.passed:
        return verdict.describe()
    return None


@_suite("lemma-4.1.6")
def _two_generator_expansion(rng: random.Random) -> Optional[str]:
    f = random_expr(rng, 1, 5)
    x = random_rational(rng)
    shape = Shape((1, 1))
    delta = generator(shape, 0) + generator(shape, 1)
    lhs = evaluate(f, [constant(shape, x) + delta], lift=lambda c: constant(shape, c))
    rhs = (
        constant(shape, evaluate(f, [x]))
        + delta * derivative(f, x)
        + delta * delta * (nth_derivative(f, 2, x) / 2)
    )
    if lhs != rhs:
        return _failure(f"f={pretty_print(f)} at x={x} over {shape}", lhs, rhs)
    return None


@_suite("prop-4.2.1")
def _second_order_expansion(rng: random.Random) -> Optional[str]:
    f = random_expr(rng, 1, 5)
    x = random_rational(rng)
    shape = Shape((2,))
    delta = generator(shape, 0)
    lhs = jet_evaluate(f, (x,), shape)
    rhs = (
        constant(shape, evaluate(f, [x]))
        + delta * derivative(f, x)
        + delta * delta * (nth_derivative(f, 2, x) / 2)
    )
    if lhs != rhs:
        return _failure(f"f={pretty_print(f)} at x={x} over {shape}", lhs, rhs)
    return None


@_suite("prop-4.2.2")
def _sum_of_generators_expansion(rng: random.Random) -> Optional[str]:
    f = random_expr(rng, 1, 5)
    x = random_rational(rng)
    m = rng.randint(0, 4)
    values = expand_sum_of_D(f, x, m)
    for n, value in enumerate(values):
        expected = oracle_mixed(f, (n,), (x,))
        if value != expected:
            return _failure(
                f"order-{n} value of f={pretty_print(f)} at x={x}", value, expected
            )
    return None


@_suite("thm-4.2.3")
def _truncated_taylor_one_variable(rng: random.Random) -> Optional[str]:
    f = random_expr(rng, 1, 5)
    x = random_rational(rng)
    m = rng.randint(0, 4)
    shape = Shape((m,))
    lhs = jet_evaluate(f, (x,), shape)
    delta = generator(shape, 0) if m >= 1 else zero(shape)
    rhs = zero(shape)
    power = one(shape)
    fact = 1
    for n in range(m + 1):
        if n:
            power = power * delta
            fact *= n
        rhs = rhs + power * (oracle_mixed(f, (n,), (x,)) / fact)
    if lhs != rhs:
        return _failure(f"f={pretty_print(f)} at x={x}, order {m}", lhs, rhs)
    return None


# -- Several variables ---------------------------------------------------------------


@_suite("thm-5.1.3")
def _partial_expansion(rng: random.Random) -> Optional[str]:
    n = rng.randint(1, 3)
    f = random_expr(rng, n, 4)
    x = random_point(rng, n)
    i = rng.randrange(n)
    shape = Shape(tuple(1 if j == i else 0 for j in range(n)))
    jet = jet_evaluate(f, x, shape)
    fx = evaluate(f, x)
    if jet.coefficient((0,) * n) != fx:
        return _failure(
            f"value mismatch for f={pretty_print(f)} at x={x}",
            jet.coefficient((0,) * n),
            fx,
        )
    slope = jet.coefficient(shape.orders)
    alpha = tuple(1 if j == i else 0 for j in range(n))
    expected = oracle_mixed(f, alpha, x)
    if slope != expected:
        return _failure(
            f"partial {i} of f={pretty_print(f)} at x={x}", slope, expected
        )
    return None


@_suite("prop-5.1.4")
def _mixed_partials_commute(rng: random.Random) -> Optional[str]:
    n = rng.randint(2, 3)
    f = random_expr(rng, n, 4)
    x = random_point(rng, n)
    i = rng.randrange(n)
    j = rng.randrange(n)
    verdict = check_rule("mixed_symmetry", f=f, i=i, j=j, x=x)
    if not verdict.passed:
        return verdict.describe()
    alpha = [0] * n
    alpha[i] += 1
    alpha[j] += 1
    expected = oracle_mixed(f, tuple(alpha), x)
    if verdict.lhs != expected:
        return _failure(
            f"iterated partials ({i},{j}) of f={pretty_print(f)} at x={x} vs oracle",
            verdict.lhs,
            expected,
        )
    return None


@_suite("thm-5.2.1")
def _squarefree_expansion(rng: random.Random) -> Optional[str]:
    n = rng.randint(0, 4)
    f = random_expr(rng, n, 4)
    x = random_point(rng, n)
    table = taylor_squarefree(f, x)
    shape = Shape((1,) * n)
    expected_entries = {}
    for subset, value in table.items():
        alpha = tuple(1 if idx in subset else 0 for idx in range(n))
        expected = oracle_mixed(f, alpha, x)
        if value != expected:
            return _failure(
                f"subset {sorted(subset)} entry for f={pretty_print(f)} at x={x}",
                value,
                expected,
            )
        expected_entries[alpha] = expected
    jet = jet_evaluate(f, x, shape)
    if jet != from_coefficients(shape, expected_entries):
        return _failure(
            f"square-free reconstruction for f={pretty_print(f)} at x={x}",
            jet,
            from_coefficients(shape, expected_entries),
        )
    return None


def _box_instance(rng: random.Random):
    n = 0 if rng.random() < 0.05 else rng.randint(1, 3)
    f = random_expr(rng, n, 4 if n > 1 else 5)
    x = random_point(rng, n)
    k = tuple(rng.randint(0, 3) for _ in range(n))
    return f, x, k


@_suite("prop-5.2.3")
def _box_expansion(rng: random.Random) -> Optional[str]:
    f, x, k = _box_instance(rng)
    shape = Shape(k)
    jet = jet_evaluate(f, x, shape)
    table = taylor_box(f, x, k)
    recon = zero(shape)
    for alpha in shape.box():
        value = mixed_derivative(f, alpha, x)
        if value != table.entries[alpha]:
            return _failure(
                f"independent extraction at {alpha} for f={pretty_print(f)}, x={x}, k={k}",
                value,
                table.entries[alpha],
            )
        entry = {alpha: value / factorial(alpha)}
        recon = recon + from_coefficients(shape, entry)
    if jet != recon:
        return _failure(f"box expansion for f={pretty_print(f)}, x={x}, k={k}", jet, recon)
    return None


@_suite("thm-5.2.4")
def _simplex_expansion(rng: random.Random) -> Optional[str]:
    f, x, k = _box_instance(rng)
    shape = Shape(k)
    jet = jet_evaluate(f, x, shape)
    # The two tables come from two algebras: the total-degree-|k| one and the box.
    table = taylor_simplex(f, x, k)
    box_table = taylor_box(f, x, k)
    for alpha in box_table.entries:
        if table.entries[alpha] != box_table.entries[alpha]:
            return _failure(
                f"simplex/box disagree at {alpha} for f={pretty_print(f)}, x={x}, k={k}",
                table.entries[alpha],
                box_table.entries[alpha],
            )
    recon = taylor_sum(table, shape)
    if jet != recon:
        return _failure(
            f"simplex expansion for f={pretty_print(f)}, x={x}, k={k}", jet, recon
        )
    return None


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

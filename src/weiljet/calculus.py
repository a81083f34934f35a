"""Derivative operators and truncated Taylor expansion by jet evaluation.

Every operator here works the same way: perturb the evaluation point by
nilpotent generators, evaluate the expression once in the corresponding
truncated polynomial algebra, and read derivatives off the coefficients.
The n-th derivative of f at x is n! times the d^n coefficient of f(x + d);
the mixed derivative for a multi-index alpha is alpha! times the d^alpha
coefficient. No AST rewriting happens here; the symbolic differentiator
lives in ``oracle`` precisely so the two paths stay independent.

Every operator reads its values through one read-out: given the finished
jet, a mode (the box {alpha <= k}, the simplex {|alpha| <= |k|}, or the
single multi-index k) and the orders k, it returns alpha! times the d^alpha
coefficient for each alpha of that index set, by a plan kept in
``multiindex.TABLES`` under the mode, the orders and the shape's fields.

``iterated_partial`` realizes repeated first-order differentiation without
ever forming the derivative as an expression: each application gets its own
square-zero generator, and the result is the coefficient of the product of
all of them, read off one evaluation in that square-free algebra. Comparing
it against the extraction over the multi-index algebra is the package's
internal consistency check for symmetry of mixed derivatives.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

from . import multiindex
from .errors import WeiljetError
from .expression import (
    Add,
    Compose,
    Const,
    Div,
    EvaluationError,
    Expr,
    Mul,
    Pow,
    Sub,
    Var,
    evaluate,
)
from .multiindex import (
    ArityMismatchError,
    MultiIndex,
    as_multiindex,
    enumerate_box,
    enumerate_simplex,
)
from .value import Value, setfields
from .weil import (
    Shape,
    WeilElement,
    constant,
    from_coefficients,
    generator,
    rational_to_json,
    seeded,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class IdentityViolationError(WeiljetError):
    """An identity the implementation guarantees failed; an internal bug."""


class InstanceRejectedError(WeiljetError):
    """A rule-check instance violates the rule's precondition."""


# The multi-indices each read-out mode covers for orders k, in output order.
# The enumerations are looked up when called, so a wrapper bound over them
# after import (the bench tracer's) still sees every call, each a lookup in
# ``multiindex.TABLES`` once its set is built.
_INDEX_SETS = {
    "box": lambda k: enumerate_box(k),
    "simplex": lambda k: enumerate_simplex(len(k), multiindex.norm(k)),
    "point": lambda k: (k,),
}


class DerivTable(Value):
    """Derivative values keyed by multi-index, from one truncated expansion.

    ``mode`` records the index set: "box" for {alpha <= orders}, "simplex"
    for {|alpha| <= |orders|}. The entry at alpha = 0 is f(x). Entries hold
    the derivative values themselves; the raw expansion coefficients are
    these divided by alpha factorial.
    """

    __slots__ = __match_args__ = ("mode", "arity", "orders", "entries")

    def __init__(self, mode: str, arity: int, orders: MultiIndex, entries: dict):
        setfields(self, mode, arity, orders, entries)

    def enumeration(self) -> tuple[MultiIndex, ...]:
        return _INDEX_SETS[self.mode](self.orders)

    def __getitem__(self, alpha) -> Fraction:
        return self.entries[as_multiindex(alpha)]


def derivtable_to_json(table: DerivTable) -> dict:
    entries = []
    for alpha in table.enumeration():
        entries.append(
            {"alpha": list(alpha), "value": rational_to_json(table.entries[alpha])}
        )
    return {
        "mode": table.mode,
        "arity": table.arity,
        "orders": list(table.orders),
        "entries": entries,
    }


def jet_evaluate(f: Expr, x, shape: Shape) -> WeilElement:
    """Evaluate f at the point x perturbed by every live generator of shape."""
    x = tuple(Fraction(v) for v in x)
    if len(x) != shape.arity:
        raise ArityMismatchError(
            f"point of length {len(x)} does not match shape {shape}"
        )
    return evaluate_perturbed(f, x, shape, [(i,) if k else () for i, k in enumerate(shape.orders)])


def evaluate_perturbed(f: Expr, x, shape: Shape, seeds) -> WeilElement:
    """Evaluate f over ``shape`` at the point whose i-th coordinate is x[i]
    plus the generators d_t for t in seeds[i]; the rational constants of f
    embed as constant jets. A shape whose multiplication plan is over
    ``errors.PAIR_BUDGET`` is refused first.
    """
    shape.plan_pairs()
    args = [seeded(shape, xi, ts) for xi, ts in zip(x, seeds)]
    return evaluate(f, args, lift=partial(constant, shape))


def kl_decompose(g: Expr, order: int):
    """Constant term and power coefficients of g evaluated at a bare
    order-nilpotent generator: g(d) = g0 + sum_i b_i d^(i+1).

    Returns (g0, [b_0, ..., b_{order-1}]); these weights are unique.
    """
    if order < 0:
        raise ValueError("order must be a natural")
    shape = Shape((order,))
    val = evaluate_perturbed(g, (0,), shape, ((0,) if order >= 1 else (),))
    g0, *b = val.coeffs
    return g0, b


def derivative(f: Expr, x) -> Fraction:
    """First derivative: the linear coefficient of f(x + d), d square-zero."""
    return nth_derivative(f, 1, x)


def nth_derivative(f: Expr, n: int, x) -> Fraction:
    """n-th derivative: n! times the d^n coefficient of f(x + d) with
    d^(n+1) = 0. The 0-th derivative is f itself.
    """
    if n < 0:
        raise ValueError("derivative order must be a natural")
    return mixed_derivative(f, (n,), (x,))


def partial_derivative(f: Expr, i: int, x) -> Fraction:
    """Partial in variable i: perturb only x_i, first order."""
    x = tuple(x)
    if not 0 <= i < len(x):
        raise ArityMismatchError(f"variable index {i} out of range for point of length {len(x)}")
    return mixed_derivative(f, tuple(1 if j == i else 0 for j in range(len(x))), x)


def mixed_derivative(f: Expr, alpha, x) -> Fraction:
    """Mixed derivative for multi-index alpha (length <= len(x); missing
    entries count as zero): alpha! times the d^alpha coefficient of f(x+d)
    over the shape alpha itself.
    """
    alpha = as_multiindex(alpha)
    x = tuple(x)
    if len(alpha) > len(x):
        raise ArityMismatchError(
            f"multi-index of length {len(alpha)} exceeds point of length {len(x)}"
        )
    padded = alpha + (0,) * (len(x) - len(alpha))
    return _readout(jet_evaluate(f, x, Shape(padded)), "point", padded)[padded]


def iterated_partial(f: Expr, applications, x) -> Fraction:
    """Repeated first-order partials, applied left to right.

    Each application owns a fresh square-zero generator added to its
    variable's coordinate; the evaluation happens once, and the result is
    the coefficient of d_0 d_1 ... d_{m-1}, the product of all m of them.
    It equals mixed_derivative at the multi-index counting the
    applications, in every order.
    """
    seq = tuple(applications)
    x = tuple(Fraction(v) for v in x)
    for i in seq:
        if not 0 <= i < len(x):
            raise ArityMismatchError(
                f"variable index {i} out of range for point of length {len(x)}"
            )
    m = len(seq)
    seeds = [[t for t, target in enumerate(seq) if target == v] for v in range(len(x))]
    ones = (1,) * m
    return _readout(evaluate_perturbed(f, x, Shape(ones), seeds), "point", ones)[ones]


def _point_and_orders(x, k):
    x = tuple(x)
    k = as_multiindex(k)
    if len(k) != len(x):
        raise ArityMismatchError(
            f"orders of length {len(k)} do not match point of length {len(x)}"
        )
    return x, k


def _readout_plan(mode: str, orders: MultiIndex, shape: Shape) -> tuple:
    # (alpha, element slot in shape, alpha!) for every alpha of the mode's
    # index set, in its enumeration order; each is a live monomial of shape.
    # No closure over shape, whose cell a hit would make on every call.
    if hit := multiindex.TABLES.get(key := ("readout", mode, orders, shape.orders, shape.degree)):
        return hit[0]
    alphas = _INDEX_SETS[mode](orders)
    slots = map(shape._slot, map(shape._position, alphas))
    return multiindex.keep(key, tuple(zip(alphas, slots, map(multiindex.factorial, alphas))))


def _readout(jet: WeilElement, mode: str, orders: MultiIndex) -> dict:
    """{alpha: alpha! times the d^alpha coefficient of jet} over the index
    set of ``mode`` at ``orders``, read straight off the jet's numerators."""
    nums, den = jet._nums, jet.den
    return {alpha: Fraction(scale * nums[p], den) for alpha, p, scale in _readout_plan(mode, orders, jet.shape)}


def _taylor_table(mode: str, f: Expr, x, k, shape: Shape) -> DerivTable:
    return DerivTable(mode, len(x), k, _readout(jet_evaluate(f, x, shape), mode, k))


def taylor_box(f: Expr, x, k) -> DerivTable:
    """All mixed derivatives over the box {alpha <= k} from one evaluation."""
    x, k = _point_and_orders(x, k)
    return _taylor_table("box", f, x, k, Shape(k))


def taylor_simplex(f: Expr, x, k) -> DerivTable:
    """Mixed derivatives over the simplex {|alpha| <= |k|} from one evaluation.

    The evaluation runs in the total-degree algebra ``Shape.simplex(n, |k|)``,
    so every entry, including those with some alpha_i > k_i, is alpha! times
    a coefficient of the same jet. The entries outside the box multiply
    vanishing monomials on the neighborhood of orders k, so reporting them
    costs nothing in the expansion identity but makes the truncation of the
    full series inspectable. Its elements hold the C(|k|+n, n) live
    monomials only; a request whose plan breaks ``errors.PAIR_BUDGET`` (10
    variables at orders all 1) raises ``CoefficientBudgetError`` first.
    """
    x, k = _point_and_orders(x, k)
    return _taylor_table("simplex", f, x, k, Shape.simplex(len(x), multiindex.norm(k)))


def taylor_squarefree(f: Expr, x) -> dict:
    """Coefficients of f(x + d) over the all-square-zero algebra, keyed by
    the subset of generators appearing in each surviving monomial.

    The entry at frozenset H equals the mixed first-order derivative in the
    variables of H; the empty set maps to f(x).
    """
    x = tuple(x)
    table = taylor_box(f, x, (1,) * len(x))
    return {frozenset(i for i, e in enumerate(alpha) if e): value for alpha, value in table.entries.items()}


def expand_sum_of_D(f: Expr, x, m: int):
    """Expand f(x + e_0 + ... + e_{m-1}) over m square-zero generators and
    return (f(x), f'(x), ..., f^(m)(x)).

    The expansion is verified on the spot against the reconstruction
    sum_n f^(n)(x) delta^n / n! with delta the generator sum; a mismatch is
    an implementation bug and raises IdentityViolationError.
    """
    if m < 0:
        raise ValueError("number of generators must be a natural")
    shape = Shape((1,) * m)
    delta = seeded(shape, 0, range(m))
    x = Fraction(x)
    lhs = evaluate_perturbed(f, (x,), shape, (range(m),))
    # f^(n)(x) for n <= m from one jet over d^(m+1) = 0; the check below
    # compares it with the m square-zero generators above.
    values = tuple(taylor_box(f, (x,), (m,)).entries.values())
    rhs = _taylor_series(values, delta)
    if lhs != rhs:
        raise IdentityViolationError(
            f"square-free expansion mismatch for f={f!r} at x={x}: {lhs} != {rhs}"
        )
    return values


def _taylor_series(values, delta: WeilElement) -> WeilElement:
    """sum_n values[n] * delta^n / n! in the algebra of delta: the Taylor sum
    of one variable whose n-th derivative is values[n]."""
    total = constant(delta.shape, values[0])
    power = delta
    for n, value in enumerate(values[1:], 1):
        if n > 1:
            power = power * delta
        total = total + power * (value / math.factorial(n))
    return total


def taylor_sum(table: DerivTable, shape: Shape) -> WeilElement:
    """Reconstruct sum_alpha value(alpha) d^alpha / alpha! inside ``shape``
    in one pass, each coefficient at its slot as in ``from_coefficients``.

    Indices that are not live monomials of the shape contribute zero, so a
    simplex table reconstructs to the same element as its box part; a
    nonzero entry of the wrong length raises ``ArityMismatchError``.
    """
    live = {}
    for alpha in table.enumeration():
        if (value := table.entries[alpha]) and shape.contains(alpha):
            live[alpha] = Fraction(value, multiindex.factorial(alpha))
        elif value and len(alpha) != shape.arity:
            raise ArityMismatchError(f"monomial exponent {alpha} has wrong length for shape {shape}")
    return from_coefficients(shape, live)


# -- Differentiation rule checks ------------------------------------------------


class RuleVerdict(Value):
    __slots__ = __match_args__ = ("rule", "passed", "instance", "lhs", "rhs")

    def __init__(self, rule: str, passed: bool, instance: dict, lhs: object, rhs: object):
        setfields(self, rule, passed, instance, lhs, rhs)

    def describe(self) -> str:
        status = "pass" if self.passed else "fail"
        return f"{self.rule}: {status} on {self.instance} (lhs={self.lhs}, rhs={self.rhs})"


def check_rule(rule: str, **params) -> RuleVerdict:
    """Check one differentiation rule on one concrete instance, exactly.

    Preconditions (a reciprocal at a zero of f, a non-bijective affine map,
    an out-of-range variable index, a pole at the evaluation point) raise
    InstanceRejectedError; a genuine inequality of the two sides returns a
    failing verdict carrying both values.
    """
    try:
        checker = _RULE_CHECKERS[rule]
    except KeyError:
        raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}") from None
    try:
        return checker(**params)
    except EvaluationError as exc:
        raise InstanceRejectedError(f"instance not evaluable: {exc}") from None


def _verdict(rule, instance, lhs, rhs) -> RuleVerdict:
    return RuleVerdict(rule, lhs == rhs, instance, lhs, rhs)


def _check_linearity(f: Expr, g: Expr, x, a, b) -> RuleVerdict:
    a, b, x = Fraction(a), Fraction(b), Fraction(x)
    combo = Add(Mul(Const(a), f), Mul(Const(b), g))
    lhs = derivative(combo, x)
    rhs = a * derivative(f, x) + b * derivative(g, x)
    return _verdict("linearity", {"f": f, "g": g, "x": x, "a": a, "b": b}, lhs, rhs)


def _check_leibniz(f: Expr, g: Expr, x) -> RuleVerdict:
    x = Fraction(x)
    lhs = derivative(Mul(f, g), x)
    fx = evaluate(f, [x])
    gx = evaluate(g, [x])
    rhs = derivative(f, x) * gx + fx * derivative(g, x)
    return _verdict("leibniz", {"f": f, "g": g, "x": x}, lhs, rhs)


def _check_chain(f: Expr, g: Expr, x) -> RuleVerdict:
    x = Fraction(x)
    lhs = derivative(Compose(f, (g,)), x)
    gx = evaluate(g, [x])
    rhs = derivative(f, gx) * derivative(g, x)
    return _verdict("chain", {"f": f, "g": g, "x": x}, lhs, rhs)


def _check_power(n: int, x) -> RuleVerdict:
    if n < 0:
        raise InstanceRejectedError("exponent must be a natural")
    x = Fraction(x)
    lhs = derivative(Pow(Var(0), n), x)
    rhs = _ZERO if n == 0 else n * x ** (n - 1)
    return _verdict("power", {"n": n, "x": x}, lhs, rhs)


def _check_reciprocal(f: Expr, x) -> RuleVerdict:
    x = Fraction(x)
    fx = evaluate(f, [x])
    if fx == 0:
        raise InstanceRejectedError(f"reciprocal undefined: f({x}) = 0")
    lhs = derivative(Div(Const(_ONE), f), x)
    rhs = -derivative(f, x) / (fx * fx)
    return _verdict("reciprocal", {"f": f, "x": x}, lhs, rhs)


def _check_inverse_affine(a, b, x) -> RuleVerdict:
    a, b, x = Fraction(a), Fraction(b), Fraction(x)
    if a == 0:
        raise InstanceRejectedError("affine map with zero slope is not invertible")
    forward = Add(Mul(Const(a), Var(0)), Const(b))
    inverse = Div(Sub(Var(0), Const(b)), Const(a))
    lhs = derivative(inverse, x)
    # Slope of the forward map at the pulled-back point (a, so nonzero), then reciprocal.
    rhs = _ONE / derivative(forward, evaluate(inverse, [x]))
    return _verdict("inverse_affine", {"a": a, "b": b, "x": x}, lhs, rhs)


def _check_mixed_symmetry(f: Expr, i: int, j: int, x) -> RuleVerdict:
    x = tuple(Fraction(v) for v in x)
    if not (0 <= i < len(x) and 0 <= j < len(x)):
        raise InstanceRejectedError("variable index out of range")
    one_way = iterated_partial(f, (j, i), x)
    other_way = iterated_partial(f, (i, j), x)
    alpha = [0] * len(x)
    alpha[i] += 1
    alpha[j] += 1
    flat = mixed_derivative(f, tuple(alpha), x)
    verdict = _verdict("mixed_symmetry", {"f": f, "i": i, "j": j, "x": x}, one_way, other_way)
    if verdict.passed and flat != one_way:
        return RuleVerdict("mixed_symmetry", False, verdict.instance, one_way, flat)
    return verdict


def _check_cancellation(b1, b2) -> RuleVerdict:
    b1, b2 = Fraction(b1), Fraction(b2)
    shape = Shape((1,))
    d = generator(shape, 0)
    elements_equal = (d * b1) == (d * b2)
    scalars_equal = b1 == b2
    return _verdict(
        "cancellation", {"b1": b1, "b2": b2}, elements_equal, scalars_equal
    )


_RULE_CHECKERS = {
    "linearity": _check_linearity,
    "leibniz": _check_leibniz,
    "chain": _check_chain,
    "power": _check_power,
    "reciprocal": _check_reciprocal,
    "inverse_affine": _check_inverse_affine,
    "mixed_symmetry": _check_mixed_symmetry,
    "cancellation": _check_cancellation,
}
RULES = tuple(_RULE_CHECKERS)

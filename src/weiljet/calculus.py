"""Derivative operators and truncated Taylor expansion by jet evaluation.

Every operator here works the same way: perturb the evaluation point by
nilpotent generators, evaluate the expression once in the corresponding
truncated polynomial algebra, and read derivatives off the coefficients.
The n-th derivative of f at x is n! times the d^n coefficient of f(x + d);
the mixed derivative for a multi-index alpha is alpha! times the d^alpha
coefficient. No AST rewriting happens here; the symbolic differentiator
lives in ``oracle`` precisely so the two paths stay independent.

``iterated_partial`` realizes repeated first-order differentiation without
ever forming the derivative as an expression: each application gets its own
square-zero generator, and applications are peeled off one at a time by
slicing that generator's linear coefficient. Comparing it against the
single-shot coefficient extraction is the package's internal consistency
check for symmetry of mixed derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
from .weil import (
    Shape,
    WeilElement,
    constant,
    generator,
    monomial,
    rational_to_json,
    slice_coefficient,
    zero,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class IdentityViolationError(WeiljetError):
    """An identity the implementation guarantees failed; an internal bug."""


class InstanceRejectedError(WeiljetError):
    """A rule-check instance violates the rule's precondition."""


@dataclass(frozen=True)
class DerivTable:
    """Derivative values keyed by multi-index, from one truncated expansion.

    ``mode`` records the index set: "box" for {alpha <= orders}, "simplex"
    for {|alpha| <= |orders|}. The entry at alpha = 0 is f(x). Entries hold
    the derivative values themselves; the raw expansion coefficients are
    these divided by alpha factorial.
    """

    mode: str
    arity: int
    orders: MultiIndex
    entries: dict

    def enumeration(self) -> tuple[MultiIndex, ...]:
        if self.mode == "box":
            return enumerate_box(self.orders)
        return enumerate_simplex(self.arity, multiindex.norm(self.orders))

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
    args = []
    for i, xi in enumerate(x):
        arg = constant(shape, xi)
        if shape.orders[i] >= 1:
            arg = arg + generator(shape, i)
        args.append(arg)
    return evaluate(f, args, lift=lambda c: constant(shape, c))


def kl_decompose(g: Expr, order: int):
    """Constant term and power coefficients of g evaluated at a bare
    order-nilpotent generator: g(d) = g0 + sum_i b_i d^(i+1).

    Returns (g0, [b_0, ..., b_{order-1}]); these weights are unique.
    """
    if order < 0:
        raise ValueError("order must be a natural")
    shape = Shape((order,))
    d = generator(shape, 0) if order >= 1 else zero(shape)
    val = evaluate(g, [d], lift=lambda c: constant(shape, c))
    g0 = val.coefficient((0,))
    b = [val.coefficient((i + 1,)) for i in range(order)]
    return g0, b


def derivative(f: Expr, x) -> Fraction:
    """First derivative: the linear coefficient of f(x + d), d square-zero."""
    jet = jet_evaluate(f, (x,), Shape((1,)))
    return jet.coefficient((1,))


def nth_derivative(f: Expr, n: int, x) -> Fraction:
    """n-th derivative: n! times the d^n coefficient of f(x + d) with
    d^(n+1) = 0. The 0-th derivative is f itself.
    """
    if n < 0:
        raise ValueError("derivative order must be a natural")
    jet = jet_evaluate(f, (x,), Shape((n,)))
    return math.factorial(n) * jet.coefficient((n,))


def partial_derivative(f: Expr, i: int, x) -> Fraction:
    """Partial in variable i: perturb only x_i, first order."""
    x = tuple(x)
    if not 0 <= i < len(x):
        raise ArityMismatchError(f"variable index {i} out of range for point of length {len(x)}")
    shape = Shape(tuple(1 if j == i else 0 for j in range(len(x))))
    jet = jet_evaluate(f, x, shape)
    return jet.coefficient(shape.orders)


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
    jet = jet_evaluate(f, x, Shape(padded))
    return multiindex.factorial(padded) * jet.coefficient(padded)


def iterated_partial(f: Expr, applications, x) -> Fraction:
    """Repeated first-order partials, applied left to right.

    Each application owns a fresh square-zero generator added to its
    variable's coordinate; the evaluation happens once, then the linear
    slice of each generator is extracted in application order. The result
    equals mixed_derivative at the multi-index counting the applications,
    in every order.
    """
    seq = tuple(applications)
    x = tuple(Fraction(v) for v in x)
    for i in seq:
        if not 0 <= i < len(x):
            raise ArityMismatchError(
                f"variable index {i} out of range for point of length {len(x)}"
            )
    m = len(seq)
    shape = Shape((1,) * m)
    args = []
    for v, xv in enumerate(x):
        arg = constant(shape, xv)
        for t, target in enumerate(seq):
            if target == v:
                arg = arg + generator(shape, t)
        args.append(arg)
    u = evaluate(f, args, lift=lambda c: constant(shape, c))
    remaining = list(range(m))
    for t in range(m):
        pos = remaining.index(t)
        u = slice_coefficient(u, pos, 1)
        remaining.pop(pos)
    return u.coeffs[0]


def _point_and_orders(x, k):
    x = tuple(x)
    k = as_multiindex(k)
    if len(k) != len(x):
        raise ArityMismatchError(
            f"orders of length {len(k)} do not match point of length {len(x)}"
        )
    return x, k


def _taylor_table(mode: str, f: Expr, x, k, shape: Shape) -> DerivTable:
    # One evaluation over the table's own algebra; entry alpha is alpha! times
    # the d^alpha coefficient, listed in the table's enumeration order.
    table = DerivTable(mode, len(x), k, {})
    coeffs = jet_evaluate(f, x, shape).coeffs
    for alpha in table.enumeration():
        table.entries[alpha] = multiindex.factorial(alpha) * coeffs[shape.index(alpha)]
    return table


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
    full series inspectable. That algebra holds (|k|+1)^n slots per element,
    so a wide request breaks ``weil.SLOT_BUDGET`` and raises
    ``CoefficientBudgetError`` before evaluating.
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
    n = len(x)
    shape = Shape((1,) * n)
    jet = jet_evaluate(f, x, shape)
    out = {}
    for alpha in shape.box():
        subset = frozenset(i for i, e in enumerate(alpha) if e)
        out[subset] = jet.coeffs[shape.index(alpha)]
    return out


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
    delta = zero(shape)
    for i in range(m):
        delta = delta + generator(shape, i)
    x = Fraction(x)
    lhs = evaluate(f, [constant(shape, x) + delta], lift=lambda c: constant(shape, c))
    # f^(n)(x) = n! times the d^n coefficient of one jet over d^(m+1) = 0;
    # the check below compares it with the m square-zero generators above.
    jet = jet_evaluate(f, (x,), Shape((m,)))
    values = [math.factorial(n) * jet.coefficient((n,)) for n in range(m + 1)]
    rhs = zero(shape)
    power = None
    for n, value in enumerate(values):
        power = constant(shape, _ONE) if n == 0 else power * delta
        rhs = rhs + power * (value / math.factorial(n))
    if lhs != rhs:
        raise IdentityViolationError(
            f"square-free expansion mismatch for f={f!r} at x={x}: {lhs} != {rhs}"
        )
    return tuple(values)


def taylor_sum(table: DerivTable, shape: Shape) -> WeilElement:
    """Reconstruct sum_alpha value(alpha) d^alpha / alpha! inside ``shape``.

    Indices that are not live monomials of the shape contribute zero, so a
    simplex table reconstructs to the same element as its box part.
    """
    acc = zero(shape)
    for alpha in table.enumeration():
        value = table.entries[alpha]
        if value:
            acc = acc + monomial(shape, alpha) * (value / multiindex.factorial(alpha))
    return acc


# -- Differentiation rule checks ------------------------------------------------


@dataclass(frozen=True)
class RuleVerdict:
    rule: str
    passed: bool
    instance: dict
    lhs: object
    rhs: object

    def describe(self) -> str:
        status = "pass" if self.passed else "fail"
        return f"{self.rule}: {status} on {self.instance} (lhs={self.lhs}, rhs={self.rhs})"


RULES = (
    "linearity",
    "leibniz",
    "chain",
    "power",
    "reciprocal",
    "inverse_affine",
    "mixed_symmetry",
    "cancellation",
)


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
    # Slope of the forward map at the pulled-back point, then reciprocal.
    slope = derivative(forward, evaluate(inverse, [x]))
    if slope == 0:
        raise InstanceRejectedError("forward slope vanishes at the pulled-back point")
    rhs = _ONE / slope
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

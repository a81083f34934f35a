"""Independent ground-truth engines used to validate the jet calculus.

Two deliberately different routes to a derivative live here:

* a symbolic one, expanding division-free expressions into canonical sparse
  polynomials and differentiating termwise by the power rule. ``oracle_mixed``
  reads a derivative off an expansion, the iterated power rule in closed
  form (a falling factorial per coordinate), and keeps nothing between
  calls;
* a numerical one, binary64 central finite differences, second-order
  accurate in the step.

Nothing in this module touches Weil algebras; keeping the two paths
disjoint is what makes agreement between them meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm
from operator import add

from .errors import WeiljetError
from .expression import (
    Add,
    Const,
    Div,
    Expr,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    _BIND,
    _variables,
    evaluate,
    fold,
    walk,
)
from .multiindex import MultiIndex, as_multiindex
from .value import Value, setfield

_ZERO = Fraction(0)
_ONE = Fraction(1)


class NotPolynomialError(WeiljetError):
    """Expression contains division and has no sparse polynomial form."""


class SparsePoly(Value):
    """Canonical sparse form: exponent tuple -> nonzero rational coefficient."""

    __slots__ = __match_args__ = ("arity", "terms")

    def __init__(self, arity: int, terms: dict):
        setfield(self, "arity", arity)
        setfield(self, "terms", terms)

    @staticmethod
    def make(arity: int, terms) -> "SparsePoly":
        clean = {}
        for alpha, c in dict(terms).items():
            c = Fraction(c)
            if c:
                alpha = as_multiindex(alpha)
                if len(alpha) != arity:
                    raise ValueError(f"exponent {alpha} has wrong length for arity {arity}")
                clean[alpha] = c
        return SparsePoly(arity, clean)

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        return _expand((self, other))

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.arity, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        terms: dict = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(map(add, a, b))
                c = ca * cb
                terms[key] = terms[key] + c if key in terms else c
        return _poly(self.arity, terms)

    def __pow__(self, exponent: int) -> "SparsePoly":
        """By square-and-multiply; p**0 is one (the 0^0 = 1 convention) and
        p**1 is p itself."""
        out = None
        square = self
        while exponent > 0:
            if exponent & 1:
                out = square if out is None else out * square
            exponent >>= 1
            if exponent:
                square = square * square
        return _poly(self.arity, {(0,) * self.arity: _ONE}) if out is None else out


def _poly(arity: int, terms: dict) -> SparsePoly:
    """A SparsePoly from exponent tuples already of length ``arity`` and
    ``Fraction`` coefficients, dropping the zero ones; the oracle's own sums
    and products build through here, ``SparsePoly.make`` checks outside input."""
    return SparsePoly(arity, {a: c for a, c in terms.items() if c})


def _expand(p) -> SparsePoly:
    """p itself, or the SparsePoly of a sum ``(left, right)`` whose sides are
    SparsePolys or such sums: ``to_poly`` folds a chain of n additions to
    pairs and adds up their terms once, where n binary sums would copy the
    partial sum n times. No SparsePoly changes, and a composition's
    substitutions are expanded when bound, so no pair is walked twice."""
    if p.__class__ is SparsePoly:
        return p
    terms, todo = {}, [p]
    while todo:
        node = todo.pop()
        if node.__class__ is tuple:
            todo += reversed(node)
            continue
        for alpha, c in node.terms.items():
            terms[alpha] = terms[alpha] + c if alpha in terms else c
    return _poly(node.arity, terms)


def to_poly(e: Expr, target_arity: int | None = None) -> SparsePoly:
    """Expand a division-free expression into canonical sparse form."""
    flat = walk(e, True)
    if any(item[0] is Div for item in flat):
        raise NotPolynomialError("expression contains division; no polynomial form")
    n = max([target_arity or 0] + [j + 1 for j in _variables(flat)])
    zero = (0,) * n  # every Var folded is one of e's, so its index is below n
    return _expand(fold(flat, {
        Const: lambda value: _poly(n, {zero: value}),
        Var: lambda i: SparsePoly(n, {zero[:i] + (1,) + zero[i + 1 :]: _ONE}),
        Add: lambda a, b: (a, b),
        Sub: lambda a, b: (a, -_expand(b)),
        Mul: lambda a, b: _expand(a) * _expand(b),
        Neg: lambda a: -_expand(a),
        Pow: lambda a, exponent: _expand(a) ** exponent,
        _BIND: _expand,
    }))


def poly_partial(p: SparsePoly, i: int) -> SparsePoly:
    """Termwise power rule in variable i: coefficient alpha_i at alpha - e_i."""
    if not 0 <= i < p.arity:
        raise ValueError(f"variable index {i} out of range for arity {p.arity}")
    terms = {}
    for alpha, c in p.terms.items():
        if alpha[i]:
            lowered = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
            terms[lowered] = terms.get(lowered, _ZERO) + alpha[i] * c
    return SparsePoly.make(p.arity, terms)


def poly_eval(p: SparsePoly, x) -> Fraction:
    """Exact evaluation at a rational point (length >= arity)."""
    x = tuple(Fraction(v) for v in x)
    if len(x) < p.arity:
        raise ValueError(f"need {p.arity} coordinates, got {len(x)}")
    total = _ZERO
    for alpha, c in p.terms.items():
        term = c
        for e_i, x_i in zip(alpha, x):
            if e_i:
                term *= x_i**e_i
        total += term
    return total


def oracle_mixed(e: Expr | SparsePoly, alpha: MultiIndex, x) -> Fraction:
    """D^alpha e at x, read off the expansion of e in one pass.

    e is an expression, expanded in its own arity on every call, or its
    ``to_poly`` expansion p = sum c * d^a, which a caller reading several
    derivatives of one expression builds once. Applying the power rule
    alpha_i times in each coordinate sends c * d^a to
    c * prod_i perm(a_i, alpha_i) * x_i^(a_i - alpha_i) if a >= alpha and to
    0 otherwise; D^alpha e(x) is the sum of those. An alpha entry past the
    arity of e differentiates a variable e does not use, so it gives 0; x
    needs at least arity(e) coordinates.
    """
    alpha = as_multiindex(alpha)
    x = tuple(Fraction(v) for v in x)
    p = e if e.__class__ is SparsePoly else to_poly(e)
    n = p.arity
    if len(x) < n:
        raise ValueError(f"need {n} coordinates, got {len(x)}")
    if any(alpha[n:]):
        return _ZERO
    alpha += (0,) * (n - len(alpha))
    total = _ZERO
    for a, c in p.terms.items():
        for a_i, k, x_i in zip(a, alpha, x):
            if a_i < k:
                break
            if k:
                c *= perm(a_i, k)
            if a_i > k:
                c *= x_i ** (a_i - k)
        else:
            total += c
    return total


def finite_difference(e: Expr, i: int, x, h: float = 1e-4) -> float:
    """Central difference (f(x + h e_i) - f(x - h e_i)) / 2h in binary64."""
    x = [float(v) for v in x]
    if not 0 <= i < len(x):
        raise ValueError(f"variable index {i} out of range for point of length {len(x)}")
    up = list(x)
    down = list(x)
    up[i] += h
    down[i] -= h
    f_up = evaluate(e, up, lift=float)
    f_down = evaluate(e, down, lift=float)
    return (f_up - f_down) / (2.0 * h)

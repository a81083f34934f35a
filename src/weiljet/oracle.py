"""Independent ground-truth engines used to validate the jet calculus.

Two deliberately different routes to a derivative live here:

* a symbolic one, expanding division-free expressions into canonical sparse
  polynomials and differentiating termwise by the power rule;
* a numerical one, binary64 central finite differences, second-order
  accurate in the step.

Nothing in this module touches Weil algebras; keeping the two paths
disjoint is what makes agreement between them meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import WeiljetError
from .expression import (
    Add,
    Compose,
    Const,
    Div,
    Expr,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    arity,
    evaluate,
    substitute,
)
from .multiindex import MultiIndex, as_multiindex

_ZERO = Fraction(0)


class NotPolynomialError(WeiljetError):
    """Expression contains division and has no sparse polynomial form."""


@dataclass(frozen=True, eq=True)
class SparsePoly:
    """Canonical sparse form: exponent tuple -> nonzero rational coefficient."""

    arity: int
    terms: dict

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

    @staticmethod
    def const(arity: int, c) -> "SparsePoly":
        return SparsePoly.make(arity, {(0,) * arity: Fraction(c)})

    @staticmethod
    def variable(arity: int, i: int) -> "SparsePoly":
        if not 0 <= i < arity:
            raise ValueError(f"variable index {i} out of range for arity {arity}")
        unit = tuple(1 if j == i else 0 for j in range(arity))
        return SparsePoly.make(arity, {unit: Fraction(1)})

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        terms = dict(self.terms)
        for alpha, c in other.terms.items():
            terms[alpha] = terms.get(alpha, _ZERO) + c
        return SparsePoly.make(self.arity, terms)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.arity, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        terms: dict = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                terms[key] = terms.get(key, _ZERO) + ca * cb
        return SparsePoly.make(self.arity, terms)

    def __pow__(self, exponent: int) -> "SparsePoly":
        out = SparsePoly.const(self.arity, 1)
        for _ in range(exponent):
            out = out * self
        return out


def to_poly(e: Expr, target_arity: int | None = None) -> SparsePoly:
    """Expand a division-free expression into canonical sparse form."""
    n = arity(e) if target_arity is None else max(target_arity, arity(e))
    return _to_poly(e, n)


def _to_poly(e: Expr, n: int) -> SparsePoly:
    if isinstance(e, Const):
        return SparsePoly.const(n, e.value)
    if isinstance(e, Var):
        return SparsePoly.variable(n, e.index)
    if isinstance(e, Add):
        return _to_poly(e.left, n) + _to_poly(e.right, n)
    if isinstance(e, Sub):
        return _to_poly(e.left, n) - _to_poly(e.right, n)
    if isinstance(e, Neg):
        return -_to_poly(e.operand, n)
    if isinstance(e, Mul):
        return _to_poly(e.left, n) * _to_poly(e.right, n)
    if isinstance(e, Pow):
        return _to_poly(e.base, n) ** e.exponent
    if isinstance(e, Compose):
        return _to_poly(substitute(e.outer, e.substitutions), n)
    if isinstance(e, Div):
        raise NotPolynomialError("expression contains division; no polynomial form")
    raise TypeError(f"not an Expr node: {e!r}")


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


def oracle_mixed(e: Expr, alpha: MultiIndex, x) -> Fraction:
    """Mixed derivative by iterated termwise power rule, evaluated at x."""
    alpha = as_multiindex(alpha)
    x = tuple(Fraction(v) for v in x)
    n_e = arity(e)
    if len(x) < n_e:
        raise ValueError(f"need {n_e} coordinates, got {len(x)}")
    n = max(len(alpha), len(x))
    p = _to_poly(e, n)
    for i, times in enumerate(alpha):
        for _ in range(times):
            p = poly_partial(p, i)
    return poly_eval(p, x + (_ZERO,) * (n - len(x)))


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

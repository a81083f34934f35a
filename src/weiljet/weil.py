"""Exact arithmetic in truncated multivariate polynomial algebras.

The carrier is W(k) = Q[d_0, ..., d_{n-1}] / <d_i^(k_i + 1)>: rational
coefficients indexed by the box {alpha <= k}, with multiplication dropping
every product monomial whose exponent exceeds the truncation order k in any
coordinate. An element is a jet: a scalar value plus nilpotent corrections.
The generators d_i model first-class infinitesimals; d_i is an m-nilpotent
(d_i^(m+1) = 0) exactly when m >= k_i.

A shape may also carry a total-degree cap N, which drops every monomial with
|alpha| > N as well: ``Shape.simplex(n, N)`` is the algebra of the simplex
{|alpha| <= N}, the degree-N multivariate Taylor arithmetic. The box and the
simplex are thus two truncations of one class.

Coefficients are ``fractions.Fraction`` throughout, so every identity the
package checks is an exact equality, never an approximation. Coefficients
are stored densely in ``enumerate_box`` order (mixed-radix position
``sum_i alpha_i * prod_{j<i} (k_j + 1)``); shapes stay small in practice,
and density keeps indexing trivial and output reproducible. A capped shape
keeps this layout over its orders, with the slots above the cap always zero,
so ``Shape.simplex(n, N)`` allocates (N+1)^n slots for its C(N+n, n) live
monomials; the ring operations compute only the live ones.

Every shape is held to ``SLOT_BUDGET`` slots per element: constructing a
larger one raises ``CoefficientBudgetError`` before anything is allocated.
No box over the budget is computable anyway (its multiplication plan has
more than size^1.58 pairs), so the budget only turns away requests that
would otherwise exhaust memory, such as a simplex in 8 or more variables.

Arithmetic between elements of different shapes is an error. Callers embed
scalars explicitly via ``constant``; the only implicit coercion is scalar
multiplication/division by ``int`` or ``Fraction``, which is module
structure rather than a change of carrier.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import multiindex
from .errors import WeiljetError
from .multiindex import MultiIndex, as_multiindex, enumerate_box

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ShapeMismatchError(WeiljetError):
    """Arithmetic attempted between elements of different shapes."""


class DegenerateGeneratorError(WeiljetError):
    """Requested generator d_i in a shape with k_i = 0, where d_i = 0."""


class NonInvertibleError(WeiljetError):
    """Inversion of an element whose constant term is zero."""


class CoefficientIndexError(WeiljetError):
    """Coefficient requested at a multi-index outside the shape's monomials."""


class CoefficientBudgetError(WeiljetError):
    """A shape would hold more than ``SLOT_BUDGET`` coefficient slots."""


# Coefficient slots per element (16 MiB of pointers); 8^7, so a simplex in
# 7 variables at total degree 7 still fits.
SLOT_BUDGET = 2**21


@dataclass(frozen=True)
class Shape:
    """Truncation orders k, one per generator (k_i = 0 kills d_i entirely),
    and an optional total-degree cap that also kills every d^alpha with
    |alpha| > degree.

    The cap normalises: an order above it is lowered to it, and a cap of
    |k| or more drops nothing, so it becomes no cap. ``Shape(k)`` is the box.
    """

    orders: MultiIndex
    degree: Optional[int] = None

    def __post_init__(self):
        orders = as_multiindex(self.orders)
        degree = self.degree
        if degree is not None:
            degree = operator.index(degree)
            if degree < 0:
                raise ValueError(f"total-degree cap must be a natural, got {degree}")
            orders = tuple(min(k, degree) for k in orders)
            if degree >= sum(orders):
                degree = None
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "degree", degree)
        if self.size() > SLOT_BUDGET:
            raise CoefficientBudgetError(
                f"shape {self} needs {self.size()} coefficient slots, "
                f"over the budget of {SLOT_BUDGET}"
            )

    @classmethod
    def simplex(cls, n: int, bound: int) -> "Shape":
        """The total-degree truncation {|alpha| <= bound} in n generators."""
        return cls((bound,) * n, degree=bound)

    @property
    def arity(self) -> int:
        return len(self.orders)

    def box(self) -> tuple[MultiIndex, ...]:
        """Every slot of the dense layout, live or not, in layout order."""
        return enumerate_box(self.orders)

    def monomials(self) -> tuple[MultiIndex, ...]:
        """The live monomials (those under the cap), in layout order."""
        return _live(self.orders, self.degree)[0]

    def live_slots(self):
        """Layout positions of ``monomials()``."""
        return _live(self.orders, self.degree)[1]

    def contains(self, alpha: MultiIndex) -> bool:
        """Whether d^alpha is a live monomial of this shape."""
        return (
            len(alpha) == len(self.orders)
            and multiindex.leq(alpha, self.orders)
            and (self.degree is None or sum(alpha) <= self.degree)
        )

    def size(self) -> int:
        out = 1
        for ki in self.orders:
            out *= ki + 1
        return out

    def index(self, alpha: MultiIndex) -> int:
        return multiindex.box_index(self.orders, alpha)

    def nilpotency_bound(self) -> int:
        # Any element with zero constant term is killed by this power plus one.
        return sum(self.orders) if self.degree is None else self.degree

    def __str__(self) -> str:
        box = "(" + ",".join(str(k) for k in self.orders) + ")"
        return box if self.degree is None else f"{box} deg<={self.degree}"


def _strides(orders: MultiIndex) -> list[int]:
    """Layout stride of each coordinate: prod_{j<i} (k_j + 1)."""
    out = []
    stride = 1
    for k in orders:
        out.append(stride)
        stride *= k + 1
    return out


@lru_cache(maxsize=None)
def _live(orders: MultiIndex, degree: Optional[int]):
    """(live monomials, their layout positions) for a shape's truncation."""
    if degree is None:
        box = enumerate_box(orders)
        return box, range(len(box))
    # Grown from the most significant coordinate, so positions ascend; the
    # dense box above the cap is never enumerated.
    cells = [((), 0, 0)]  # (alpha suffix, position, |alpha suffix|)
    for k, stride in reversed(tuple(zip(orders, _strides(orders)))):
        cells = [
            ((b,) + alpha, p + b * stride, d + b)
            for alpha, p, d in cells
            for b in range(min(k, degree - d) + 1)
        ]
    return tuple(alpha for alpha, _, _ in cells), tuple(p for _, p, _ in cells)


@lru_cache(maxsize=None)
def _mul_plan(orders: MultiIndex, degree: Optional[int] = None):
    """For each live position p, the pair (p, pairs) listing the (q, r) with
    slot[p] + slot[q] = slot[r] live.

    Built per coordinate in O(pairs): positions are mixed-radix, so
    idx(alpha + beta) = idx(alpha) + idx(beta) whenever the sum stays in the
    box, and r = p + q. For slot[p] = alpha, q runs over the positions of
    {beta <= k - alpha, |beta| <= cap - |alpha|}, ascending. That set depends
    on alpha only through its limits and degree room, and it is the union over
    the last coordinate's value b of a smaller such set shifted by b times
    that coordinate's stride, so each set is built once from shared parts.
    """
    strides = _strides(orders)
    memo: dict = {}

    def positions(limits: MultiIndex, room: int) -> list:
        room = min(room, sum(limits))
        key = (limits, room)
        out = memo.get(key)
        if out is None:
            if not limits:
                out = [0]
            else:
                s, head = strides[len(limits) - 1], limits[:-1]
                out = [q + b * s for b in range(min(limits[-1], room) + 1) for q in positions(head, room - b)]
            memo[key] = out
        return out

    cap = sum(orders) if degree is None else degree
    monomials, slots = _live(orders, degree)
    plan = []
    for p, alpha in zip(slots, monomials):
        qs = positions(tuple(k - a for k, a in zip(orders, alpha)), cap - sum(alpha))
        plan.append((p, tuple(zip(qs, map(p.__add__, qs)))))
    return tuple(plan)


def _slotwise(shape: Shape, op, *columns) -> tuple:
    """``op`` applied slot by slot. On a capped shape only the live slots are
    computed: a Fraction op costs about as much on a zero as on any other
    value, and a simplex shape has far more dead slots than live ones."""
    if shape.degree is None:
        return tuple(map(op, *columns))
    out = [_ZERO] * shape.size()
    live = shape.live_slots()
    for p, c in zip(live, map(op, *([col[p] for p in live] for col in columns))):
        out[p] = c
    return tuple(out)


@dataclass(frozen=True)
class WeilElement:
    shape: Shape
    coeffs: tuple[Fraction, ...]

    def _require_same_shape(self, other: "WeilElement") -> None:
        if self.shape != other.shape:
            raise ShapeMismatchError(
                f"shapes {self.shape} and {other.shape} do not match; "
                "embed explicitly before mixing carriers"
            )

    def __add__(self, other):
        if not isinstance(other, WeilElement):
            return NotImplemented
        self._require_same_shape(other)
        return WeilElement(self.shape, _slotwise(self.shape, operator.add, self.coeffs, other.coeffs))

    def __sub__(self, other):
        if not isinstance(other, WeilElement):
            return NotImplemented
        self._require_same_shape(other)
        return WeilElement(self.shape, _slotwise(self.shape, operator.sub, self.coeffs, other.coeffs))

    def __neg__(self):
        return WeilElement(self.shape, _slotwise(self.shape, operator.neg, self.coeffs))

    def __mul__(self, other):
        if isinstance(other, WeilElement):
            self._require_same_shape(other)
            a = self.coeffs
            b = other.coeffs
            out = [_ZERO] * len(a)
            for p, pairs in _mul_plan(self.shape.orders, self.shape.degree):
                ca = a[p]
                if not ca:
                    continue
                for q, r in pairs:
                    cb = b[q]
                    if cb:
                        out[r] += ca * cb
            return WeilElement(self.shape, tuple(out))
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return WeilElement(self.shape, _slotwise(self.shape, c.__mul__, self.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                raise ZeroDivisionError("division of a jet by scalar zero")
            return self * (_ONE / c)
        if isinstance(other, WeilElement):
            return self * other.invert()
        return NotImplemented

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("use invert() for negative powers")
        # Repeated truncated multiplication; a**0 == 1 (the 0^0 = 1 convention).
        out = one(self.shape)
        for _ in range(exponent):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def constant_term(self) -> Fraction:
        return self.coeffs[0]

    def coefficient(self, alpha) -> Fraction:
        """Coefficient at alpha; the unique polynomial decomposition weights."""
        alpha = as_multiindex(alpha)
        if not self.shape.contains(alpha):
            raise CoefficientIndexError(f"index {alpha} outside shape {self.shape}")
        return self.coeffs[self.shape.index(alpha)]

    def is_in_Dm(self, m: int) -> bool:
        """Whether the element is m-nilpotent: its (m+1)-th power vanishes."""
        if m < 0:
            raise ValueError("nilpotency order must be a natural")
        return (self ** (m + 1)).is_zero()

    def invert(self) -> "WeilElement":
        """Exact multiplicative inverse; requires a nonzero constant term.

        Writes the element as c * (1 + eps) with eps nilpotent and sums the
        terminating geometric series sum_j (-eps)^j / c.
        """
        c = self.coeffs[0]
        if c == 0:
            raise NonInvertibleError("element with zero constant term has no inverse")
        neg_eps = one(self.shape) - self * (_ONE / c)
        acc = one(self.shape)
        term = one(self.shape)
        for _ in range(self.shape.nilpotency_bound()):
            term = term * neg_eps
            if term.is_zero():
                break
            acc = acc + term
        return acc * (_ONE / c)

    def __str__(self) -> str:
        parts = []
        for alpha, c in zip(self.shape.box(), self.coeffs):
            if not c:
                continue
            mono = "*".join(
                f"d{i}" if e == 1 else f"d{i}^{e}" for i, e in enumerate(alpha) if e
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts) if parts else "0"


def zero(shape: Shape) -> WeilElement:
    return WeilElement(shape, (_ZERO,) * shape.size())


def one(shape: Shape) -> WeilElement:
    return constant(shape, _ONE)


def constant(shape: Shape, c) -> WeilElement:
    """Embed a scalar: coefficient c at alpha = 0, zero elsewhere."""
    coeffs = [_ZERO] * shape.size()
    coeffs[0] = Fraction(c)
    return WeilElement(shape, tuple(coeffs))


def generator(shape: Shape, i: int) -> WeilElement:
    """The i-th infinitesimal generator d_i (requires k_i >= 1; a cap is at
    least k_i after normalisation, so it never kills d_i)."""
    if not 0 <= i < shape.arity:
        raise multiindex.ArityMismatchError(
            f"generator index {i} out of range for shape {shape}"
        )
    if shape.orders[i] == 0:
        raise DegenerateGeneratorError(
            f"generator d{i} is identically zero in shape {shape}"
        )
    coeffs = [_ZERO] * shape.size()
    unit = tuple(1 if j == i else 0 for j in range(shape.arity))
    coeffs[shape.index(unit)] = _ONE
    return WeilElement(shape, tuple(coeffs))


def monomial(shape: Shape, alpha) -> WeilElement:
    """The basis element d^alpha, or zero when alpha is not a live monomial."""
    alpha = as_multiindex(alpha)
    if len(alpha) != shape.arity:
        raise multiindex.ArityMismatchError(
            f"monomial exponent {alpha} has wrong length for shape {shape}"
        )
    if not shape.contains(alpha):
        return zero(shape)
    coeffs = [_ZERO] * shape.size()
    coeffs[shape.index(alpha)] = _ONE
    return WeilElement(shape, tuple(coeffs))


def from_coefficients(shape: Shape, entries) -> WeilElement:
    """Build an element from a {multi-index: rational} mapping."""
    coeffs = [_ZERO] * shape.size()
    for alpha, c in dict(entries).items():
        alpha = as_multiindex(alpha)
        if not shape.contains(alpha):
            raise CoefficientIndexError(f"index {alpha} outside shape {shape}")
        coeffs[shape.index(alpha)] = Fraction(c)
    return WeilElement(shape, tuple(coeffs))


def slice_coefficient(a: WeilElement, i: int, power: int) -> WeilElement:
    """Collect the part of ``a`` with exactly d_i^power, as an element of the
    shape with generator i removed.

    For power = 1 this is first-order coefficient extraction with the
    remaining generators kept live, which is how iterated derivatives are
    peeled off one application at a time. A cap N on ``a`` becomes the cap
    N - power on the result.
    """
    k = a.shape.orders
    if not 0 <= i < len(k):
        raise multiindex.ArityMismatchError(f"generator index {i} out of range for shape {a.shape}")
    if power > k[i]:
        raise CoefficientIndexError(f"power {power} exceeds order {k[i]} of generator {i}")
    degree = a.shape.degree
    reduced = Shape(k[:i] + k[i + 1 :], None if degree is None else degree - power)
    coeffs = [a.coeffs[a.shape.index(beta[:i] + (power,) + beta[i:])] for beta in reduced.box()]
    return WeilElement(reduced, tuple(coeffs))


def rational_to_json(c: Fraction) -> dict:
    return {"num": str(c.numerator), "den": str(c.denominator)}


def rational_from_json(obj) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def element_to_json(a: WeilElement) -> dict:
    """JSON form: orders, the cap of a capped shape, and the nonzero
    coefficients in layout order."""
    coeffs = []
    for alpha, c in zip(a.shape.box(), a.coeffs):
        if c:
            coeffs.append({"alpha": list(alpha), "num": str(c.numerator), "den": str(c.denominator)})
    doc = {"orders": list(a.shape.orders)}
    if a.shape.degree is not None:
        doc["degree"] = a.shape.degree
    doc["coeffs"] = coeffs
    return doc


def element_from_json(obj) -> WeilElement:
    shape = Shape(tuple(obj["orders"]), obj.get("degree"))
    entries = {tuple(item["alpha"]): Fraction(int(item["num"]), int(item["den"])) for item in obj["coeffs"]}
    return from_coefficients(shape, entries)

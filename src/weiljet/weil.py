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

Coefficients are exact rationals stored fraction-free: an element holds one
``int`` numerator per slot over one positive ``int`` denominator, kept in
lowest terms (``gcd(den, *nums) == 1``) by one gcd sweep after every
operation. The ring operations thus run on ints only, each value has one
form, and every identity the package checks is an exact equality, never an
approximation; ``WeilElement.coeffs`` presents the slots as ``Fraction``s.
Numerators are stored densely in the mixed-radix layout of
``multiindex.layout(orders)``, which also lists the live slots and the plan
rows; shapes stay small in practice, and density keeps indexing trivial and
output reproducible. A capped shape keeps this layout over its orders, with
the slots above the cap always zero, so ``Shape.simplex(n, N)`` allocates
(N+1)^n slots for its C(N+n, n) live monomials. Products visit only the live
ones; sums and scalar multiples run over every slot, which costs little on
zero ints. Powers are taken by square-and-multiply.

The product of slots p and q lands in slot p + q, since mixed-radix
positions add while alpha + beta stays in the box, so a shape's plan lists
for each live p only the q that pair with it. Division a / b is
``b.invert(a)``: one triangular solve of b * y = a over that plan in layout
order, fraction-free over |b0|^(L+1) (b0 the constant term, L the
nilpotency bound).

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
from math import gcd, lcm

from . import multiindex
from .errors import WeiljetError
from .multiindex import MultiIndex, as_multiindex, enumerate_box, layout

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
    degree: int | None = None

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
        return tuple(alpha for _, alpha in self._live())

    def _live(self):
        """(position, alpha) for each live monomial, in layout order."""
        lay = layout(self.orders)
        ps = lay.position_sets()(self.orders, self.nilpotency_bound())
        return zip(ps, lay.decode(ps))

    def contains(self, alpha: MultiIndex) -> bool:
        """Whether d^alpha is a live monomial of this shape."""
        return (
            len(alpha) == len(self.orders)
            and multiindex.leq(alpha, self.orders)
            and (self.degree is None or sum(alpha) <= self.degree)
        )

    def size(self) -> int:
        return layout(self.orders).size

    def index(self, alpha: MultiIndex) -> int:
        return multiindex.box_index(self.orders, alpha)

    def nilpotency_bound(self) -> int:
        # Any element with zero constant term is killed by this power plus one.
        return sum(self.orders) if self.degree is None else self.degree

    def __str__(self) -> str:
        box = "(" + ",".join(str(k) for k in self.orders) + ")"
        return box if self.degree is None else f"{box} deg<={self.degree}"


@lru_cache(maxsize=None)
def _mul_plan(orders: MultiIndex, degree: int | None = None):
    """For each live position p, the pair (p, qs) listing the positions q
    with slot[p] + slot[q] live. Their product lands at p + q, because
    idx(alpha + beta) = idx(alpha) + idx(beta) while the sum stays in the
    box. For slot[p] = alpha, qs is the memoised position set of
    {beta <= k - alpha, |beta| <= cap - |alpha|}, shared by every alpha with
    the same limits and room, so the plan is built in O(pairs).
    """
    lay = layout(orders)
    positions = lay.position_sets()
    cap = sum(orders) if degree is None else degree
    ps = positions(orders, cap)
    return tuple(
        (p, positions(tuple(k - a for k, a in zip(orders, alpha)), cap - sum(alpha)))
        for p, alpha in zip(ps, lay.decode(ps))
    )


def _raw(shape: Shape, nums: tuple, den: int) -> "WeilElement":
    """An element from numerators over ``den`` > 0 already in lowest terms."""
    out = object.__new__(WeilElement)
    out._shape = shape
    out._nums = nums
    out._den = den
    out._coeffs = None
    return out


def _reduced(shape: Shape, nums: tuple, den: int) -> "WeilElement":
    """An element from numerators over ``den`` > 0, put in lowest terms by one
    gcd sweep."""
    g = gcd(den, *nums)
    if g != 1:
        nums = tuple(map(g.__rfloordiv__, nums))
        den //= g
    return _raw(shape, nums, den)


class WeilElement:
    """An element of the algebra of ``shape``, stored fraction-free: a tuple
    of ``int`` numerators in layout order over one positive ``int``
    denominator, with ``gcd(den, *nums) == 1``. That form is unique, so
    ``==`` and ``hash`` compare values.

    ``WeilElement(shape, coeffs)`` takes one rational per slot; ``coeffs``
    gives them back as reduced ``Fraction``s, built on first use.
    """

    __slots__ = ("_shape", "_nums", "_den", "_coeffs")

    def __init__(self, shape: Shape, coeffs):
        coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if len(coeffs) != shape.size():
            raise ValueError(f"shape {shape} has {shape.size()} slots, got {len(coeffs)} coefficients")
        den = lcm(*(c.denominator for c in coeffs))
        # Over the lcm of reduced denominators the numerators share no factor
        # with it, so this is already the canonical form.
        self._shape = shape
        self._nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self._den = den
        self._coeffs = coeffs

    shape = property(lambda self: self._shape)
    nums = property(lambda self: self._nums, doc="Numerators in layout order.")
    den = property(lambda self: self._den, doc="The shared positive denominator.")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Every slot as a reduced ``Fraction``, in layout order."""
        if self._coeffs is None:
            den = self._den
            self._coeffs = tuple(Fraction(n, den) if n else _ZERO for n in self._nums)
        return self._coeffs

    def __eq__(self, other):
        if not isinstance(other, WeilElement):
            return NotImplemented
        return self._den == other._den and self._shape == other._shape and self._nums == other._nums

    def __hash__(self):
        return hash((self._shape, self._den, self._nums))

    def __repr__(self) -> str:
        return f"WeilElement({self._shape!r}, {self.coeffs!r})"

    def _require_same_shape(self, other: "WeilElement") -> None:
        if self._shape is not other._shape and self._shape != other._shape:
            raise ShapeMismatchError(
                f"shapes {self._shape} and {other._shape} do not match; "
                "embed explicitly before mixing carriers"
            )

    def _combine(self, other: "WeilElement", op) -> "WeilElement":
        # Both sides over the lcm of the two denominators, then op slot by slot.
        self._require_same_shape(other)
        a, b = self._nums, other._nums
        den, other_den = self._den, other._den
        if den != other_den:
            g = gcd(den, other_den)
            scale_a, scale_b = other_den // g, den // g
            if scale_a != 1:
                a = map(scale_a.__mul__, a)
            if scale_b != 1:
                b = map(scale_b.__mul__, b)
            den *= scale_a
        return _reduced(self._shape, tuple(map(op, a, b)), den)

    def __add__(self, other):
        if not isinstance(other, WeilElement):
            return NotImplemented
        return self._combine(other, operator.add)

    def __sub__(self, other):
        if not isinstance(other, WeilElement):
            return NotImplemented
        return self._combine(other, operator.sub)

    def __neg__(self):
        return _raw(self._shape, tuple(map(operator.neg, self._nums)), self._den)

    def __mul__(self, other):
        if isinstance(other, WeilElement):
            self._require_same_shape(other)
            shape = self._shape
            a = self._nums
            b = other._nums
            out = [0] * len(a)
            for p, qs in _mul_plan(shape.orders, shape.degree):
                ca = a[p]
                if not ca:
                    continue
                for q in qs:
                    cb = b[q]
                    if cb:
                        out[p + q] += ca * cb
            return _reduced(shape, tuple(out), self._den * other._den)
        if isinstance(other, (int, Fraction)):
            scaled = tuple(map(other.numerator.__mul__, self._nums))
            return _reduced(self._shape, scaled, self._den * other.denominator)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        """By a scalar, or by a unit: ``other.invert(self)``, one solve."""
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                raise ZeroDivisionError("division of a jet by scalar zero")
            return self * (_ONE / c)
        if isinstance(other, WeilElement):
            return other.invert(self)
        return NotImplemented

    def __pow__(self, exponent: int):
        """Truncated power by square-and-multiply; a**0 == 1 (the 0^0 = 1
        convention) and a**1 is a itself."""
        exponent = operator.index(exponent)
        if exponent < 0:
            raise ValueError("use invert() for negative powers")
        out = None
        square = self
        while True:
            if exponent & 1:
                out = square if out is None else out * square
            exponent >>= 1
            if not exponent:
                return one(self._shape) if out is None else out
            square = square * square

    def is_zero(self) -> bool:
        return not any(self._nums)

    def constant_term(self) -> Fraction:
        return Fraction(self._nums[0], self._den)

    def coefficient(self, alpha) -> Fraction:
        """Coefficient at alpha; the unique polynomial decomposition weights."""
        alpha = as_multiindex(alpha)
        if not self._shape.contains(alpha):
            raise CoefficientIndexError(f"index {alpha} outside shape {self._shape}")
        return Fraction(self._nums[self._shape.index(alpha)], self._den)

    def is_in_Dm(self, m: int) -> bool:
        """Whether the element is m-nilpotent: its (m+1)-th power vanishes."""
        if m < 0:
            raise ValueError("nilpotency order must be a natural")
        return (self ** (m + 1)).is_zero()

    def invert(self, numerator: "WeilElement | None" = None) -> "WeilElement":
        """The y with self * y == numerator (one by default), for self with a
        nonzero constant term b0: ``a / b`` is ``b.invert(a)``. Over
        numerators, Z = A * |b0|^(L+1) / B is integral (1/B has no
        denominator above b0^(L+1), L the nilpotency bound). In layout order
        each Z[q] is its accumulator over b0, exactly; Z[q] * B[p] then
        leaves every later slot q + p. y is Z * b.den over |b0|^(L+1) * a.den."""
        a = one(self._shape) if numerator is None else numerator
        a._require_same_shape(self)
        shape = a._shape
        b0 = self._nums[0]
        if not b0:
            raise NonInvertibleError("element with zero constant term is not invertible")
        scale = abs(b0) ** (shape.nilpotency_bound() + 1)
        acc = [n * scale for n in a._nums]
        off_diagonal = (0,) + self._nums[1:]
        for q, ps in _mul_plan(shape.orders, shape.degree):
            z = acc[q] = acc[q] // b0
            if z:
                for p in ps:
                    cb = off_diagonal[p]
                    if cb:
                        acc[q + p] -= cb * z
        return _reduced(shape, tuple(map(self._den.__mul__, acc)), scale * a._den)

    def _terms(self) -> list:
        """(alpha, coefficient) for each nonzero coefficient, in layout order."""
        nums, den = self._nums, self._den
        return [(alpha, Fraction(nums[p], den)) for p, alpha in self._shape._live() if nums[p]]

    def __str__(self) -> str:
        parts = []
        for alpha, c in self._terms():
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
    return _raw(shape, (0,) * shape.size(), 1)


def one(shape: Shape) -> WeilElement:
    return constant(shape, 1)


def _unit(shape: Shape, position: int, num: int = 1, den: int = 1) -> WeilElement:
    # num/den (in lowest terms) at one slot, zero elsewhere.
    nums = [0] * shape.size()
    nums[position] = num
    return _raw(shape, tuple(nums), den)


def constant(shape: Shape, c) -> WeilElement:
    """Embed a scalar: coefficient c at alpha = 0, zero elsewhere."""
    if not isinstance(c, (int, Fraction)):
        c = Fraction(c)
    return _unit(shape, 0, c.numerator, c.denominator)


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
    return _unit(shape, layout(shape.orders).strides[i])


def monomial(shape: Shape, alpha) -> WeilElement:
    """The basis element d^alpha, or zero when alpha is not a live monomial."""
    alpha = as_multiindex(alpha)
    if len(alpha) != shape.arity:
        raise multiindex.ArityMismatchError(
            f"monomial exponent {alpha} has wrong length for shape {shape}"
        )
    if not shape.contains(alpha):
        return zero(shape)
    return _unit(shape, shape.index(alpha))


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
    remaining generators kept live. A cap N on ``a`` becomes the cap
    N - power on the result.
    """
    k = a.shape.orders
    if not 0 <= i < len(k):
        raise multiindex.ArityMismatchError(f"generator index {i} out of range for shape {a.shape}")
    if power > k[i]:
        raise CoefficientIndexError(f"power {power} exceeds order {k[i]} of generator {i}")
    degree = a.shape.degree
    reduced = Shape(k[:i] + k[i + 1 :], None if degree is None else degree - power)
    nums = tuple(a.nums[a.shape.index(beta[:i] + (power,) + beta[i:])] for beta in reduced.box())
    return _reduced(reduced, nums, a.den)


def rational_to_json(c: Fraction) -> dict:
    return {"num": str(c.numerator), "den": str(c.denominator)}


def element_to_json(a: WeilElement) -> dict:
    """JSON form: orders, the cap of a capped shape, and the nonzero
    coefficients in layout order."""
    coeffs = [{"alpha": list(alpha), **rational_to_json(c)} for alpha, c in a._terms()]
    doc = {"orders": list(a.shape.orders)}
    if a.shape.degree is not None:
        doc["degree"] = a.shape.degree
    doc["coeffs"] = coeffs
    return doc


def element_from_json(obj) -> WeilElement:
    shape = Shape(tuple(obj["orders"]), obj.get("degree"))
    entries = {tuple(item["alpha"]): Fraction(int(item["num"]), int(item["den"])) for item in obj["coeffs"]}
    return from_coefficients(shape, entries)

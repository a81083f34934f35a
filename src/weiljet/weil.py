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
``int`` numerator per live monomial (its slots) over one positive ``int``
denominator, kept in lowest terms (``gcd(den, *nums) == 1``) by one gcd sweep
after every operation. The ring operations thus run on ints only, each value
has one form, and every identity the package checks is an exact equality,
never an approximation. Slots follow the mixed-radix layout of
``multiindex.layout(orders)``: a box holds every position, and a capped
shape only the live ones, through its ``multiindex.live_slots`` table, so
``Shape.simplex(n, N)`` holds C(N+n, n) slots, not (N+1)^n. The public views
stay dense: ``Shape.size``/``index``/``box``, ``WeilElement(shape, coeffs)``,
``coeffs`` and ``nums`` span the whole layout, zero above a cap; ``coeffs``,
and a capped element's ``nums``, are built on each read. Powers are
square-and-multiply.

On a box the product of slots p and q lands in slot p + q, since mixed-radix
positions add while alpha + beta stays in the box, so a shape's plan lists
for each p only the q that pair with it; a capped plan also lists each
product's slot. Division a / b is ``b.invert(a)``: one triangular solve of
b * y = a over that plan in layout order, fraction-free over |b0|^(L+1) (b0
the constant term, L the nilpotency bound); a constant b only scales a.
The plan, like the layout and live-slot table, is kept in ``multiindex.TABLES``.

A shape is held to ``SLOT_BUDGET`` live monomials and its plan to
``PAIR_BUDGET`` pairs, each counted before anything is built; a dense view is
held to ``SLOT_BUDGET`` slots, a power squares no element whose numerators
or denominator pass ``COEFF_BIT_BUDGET`` bits, and a division scales no
numerator past it. Over a budget raises ``CoefficientBudgetError``.

Arithmetic between elements of different shapes is an error. Callers embed
scalars explicitly via ``constant``; the only implicit coercion is scalar
multiplication/division by ``int`` or ``Fraction``, which is module
structure rather than a change of carrier.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import comb, gcd, lcm, prod

from . import multiindex
from .errors import COEFF_BIT_BUDGET, PAIR_BUDGET, SLOT_BUDGET, BudgetError, WeiljetError
from .multiindex import MultiIndex, as_multiindex, enumerate_box, layout, live_slots
from .value import Value, setfield

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


class CoefficientBudgetError(BudgetError):
    """A shape over ``SLOT_BUDGET`` slots or ``PAIR_BUDGET`` plan pairs, or a
    power whose next square, or a division whose scaled numerator, is over
    ``COEFF_BIT_BUDGET`` bits."""


def _within_budget(shape: "Shape", count: int, budget: int, what: str) -> int:
    if count > budget:
        raise CoefficientBudgetError(f"shape {shape} needs at least {count} {what}, over the budget of {budget}")
    return count


class Shape(Value):
    """Truncation orders k, one per generator (k_i = 0 kills d_i entirely),
    and an optional total-degree cap that also kills every d^alpha with
    |alpha| > degree.

    The cap normalises: an order above it is lowered to it, and a cap of
    |k| or more drops nothing, so it becomes no cap. ``Shape(k)`` is the box.
    """

    __slots__ = ("orders", "degree", "_length")
    __match_args__ = ("orders", "degree")

    def __init__(self, orders: MultiIndex, degree: int | None = None):
        orders = as_multiindex(orders)
        if degree is not None:
            degree = operator.index(degree)
            if degree < 0:
                raise ValueError(f"total-degree cap must be a natural, got {degree}")
            orders = tuple(min(k, degree) for k in orders)
            if degree >= sum(orders):
                degree = None
        setfield(self, "orders", orders)
        setfield(self, "degree", degree)
        live = layout(orders).size if degree is None else multiindex.count_capped(orders, degree, SLOT_BUDGET)
        setfield(self, "_length", _within_budget(self, live, SLOT_BUDGET, "coefficient slots"))

    @classmethod
    def simplex(cls, n: int, bound: int) -> "Shape":
        """The total-degree truncation {|alpha| <= bound} in n generators."""
        return cls((bound,) * n, degree=bound)

    @property
    def arity(self) -> int:
        return len(self.orders)

    def box(self) -> tuple[MultiIndex, ...]:
        """Every slot of the dense layout, live or not, in layout order."""
        _within_budget(self, self.size(), SLOT_BUDGET, "slots in a dense view")
        return enumerate_box(self.orders)

    def monomials(self) -> tuple[MultiIndex, ...]:
        """The live monomials (those under the cap), in layout order."""
        return tuple(layout(self.orders).decode(self._positions()))

    def _positions(self):
        """The dense position of each slot of an element, in layout order."""
        return range(self.size()) if self.degree is None else live_slots(self.orders, self.degree)

    def _slot(self, p: int) -> int:
        """The slot of an element that holds the live monomial at position p."""
        return p if self.degree is None else live_slots(self.orders, self.degree)[p]

    def plan_pairs(self) -> int:
        """The pairs of live monomials with a live product, counted without
        building the plan; over ``PAIR_BUDGET`` raises ``CoefficientBudgetError``."""
        if self.degree is None:
            pairs = prod(comb(k + 2, 2) for k in self.orders)
        else:
            pairs = multiindex.count_capped(self.orders, self.degree, PAIR_BUDGET, pairs=True)
        return _within_budget(self, pairs, PAIR_BUDGET, "product pairs")

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


def _mul_plan(orders: MultiIndex, degree: int | None = None):
    """``_plan_rows(orders, degree)``, kept in ``multiindex.TABLES`` and
    weighed by its pairs. Every product and solve looks its plan up here, so
    the rows are built apart: their closures would make cells on each call."""
    if hit := multiindex.TABLES.get(key := ("plan", orders, degree)):
        return hit[0]
    pairs = Shape(orders, degree).plan_pairs()
    return multiindex.keep(key, _plan_rows(orders, degree), pairs)


def _plan_rows(orders: MultiIndex, degree: int | None) -> tuple:
    """For each live position p, the pair (p, qs) listing the positions q
    with slot[p] + slot[q] live. Their product lands at p + q, because
    idx(alpha + beta) = idx(alpha) + idx(beta) while the sum stays in the
    box. For slot[p] = alpha, qs is the memoised position set of
    {beta <= k - alpha, |beta| <= cap - |alpha|}, limits cut to the room and
    shared by every alpha with the same ones, so the plan is built in
    O(pairs). A capped shape's rows are over element slots, from the same
    pass: (i, js, ts), js the slots of the qs and ts of their products.
    """
    lay = layout(orders)
    positions = lay.position_sets(shared=degree is None)
    cap = sum(orders) if degree is None else degree
    ps = positions(orders, cap)
    rows = [
        (p, positions(tuple(min(k - a, room) for k, a in zip(orders, alpha)), room))
        for p, alpha in zip(ps, lay.decode(ps))
        for room in (cap - sum(alpha),)
    ]
    if degree is None:
        return tuple(rows)
    rank, slots = live_slots(orders, cap), {}  # id of a shared position set -> its slots
    for i, (p, qs) in enumerate(rows):
        js = slots.get(id(qs)) or slots.setdefault(id(qs), [rank[q] for q in qs])
        rows[i] = (i, js, [rank[p + q] for q in qs])
    return tuple(rows)


def _raw(shape: Shape, nums: tuple, den: int) -> "WeilElement":
    """An element from numerators over ``den`` > 0 already in lowest terms."""
    out = object.__new__(WeilElement)
    out._shape = shape
    out._nums = nums
    out._den = den
    return out


def _reduced(shape: Shape, nums: tuple, den: int) -> "WeilElement":
    """An element from numerators over ``den`` > 0, put in lowest terms by one
    gcd sweep."""
    g = gcd(den, *nums)
    if g != 1:
        nums = tuple(map(g.__rfloordiv__, nums))
        den //= g
    return _raw(shape, nums, den)


def _fraction_free(coeffs) -> tuple:
    # Over the lcm of reduced denominators the numerators share no factor
    # with it, so this is already the canonical form.
    den = lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (den // c.denominator) for c in coeffs), den


class WeilElement:
    """An element of the algebra of ``shape``, stored fraction-free: one
    ``int`` numerator per slot over one positive ``int`` denominator, with
    ``gcd(den, *nums) == 1``. That form is unique, so ``==`` and ``hash``
    compare values.

    ``WeilElement(shape, coeffs)`` takes one rational per dense slot, zero
    above a cap; ``coeffs`` and ``nums`` give them back, ``nums`` of a box
    as stored and the rest built on each read.
    """

    __slots__ = ("_shape", "_nums", "_den")

    def __init__(self, shape: Shape, coeffs):
        coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if len(coeffs) != shape.size():
            raise ValueError(f"shape {shape} has {shape.size()} slots, got {len(coeffs)} coefficients")
        live = coeffs
        if shape.degree is not None:
            live = [coeffs[p] for p in shape._positions()]
            if sum(map(bool, live)) < sum(map(bool, coeffs)):
                raise CoefficientIndexError(f"shape {shape} has a nonzero coefficient above its cap")
        self._shape = shape
        self._nums, self._den = _fraction_free(live)

    shape = property(lambda self: self._shape)
    den = property(lambda self: self._den, doc="The shared positive denominator.")

    @property
    def nums(self) -> tuple[int, ...]:
        """Every slot's numerator in the dense layout, zero above a cap."""
        shape = self._shape
        if shape.degree is None:
            return self._nums
        out = [0] * _within_budget(shape, shape.size(), SLOT_BUDGET, "slots in a dense view")
        for p, n in zip(shape._positions(), self._nums):
            out[p] = n
        return tuple(out)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Every slot as a reduced ``Fraction``, in the dense layout."""
        den = self._den
        return tuple(Fraction(n, den) if n else _ZERO for n in self.nums)

    def __eq__(self, other):
        if not isinstance(other, WeilElement):
            return NotImplemented
        return self._den == other._den and self._shape == other._shape and self._nums == other._nums

    def __hash__(self):
        return hash((self._shape, self._den, self._nums))

    def __repr__(self) -> str:
        if self._shape.size() > SLOT_BUDGET:  # no dense view to show
            return f"<WeilElement over {self._shape}: {self}>"
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
            if shape.degree is None:
                for p, qs in _mul_plan(shape.orders, shape.degree):
                    if ca := a[p]:
                        for q in qs:
                            if cb := b[q]:
                                out[p + q] += ca * cb
            else:
                for i, js, ts in _mul_plan(shape.orders, shape.degree):
                    if ca := a[i]:
                        for j, t in zip(js, ts):
                            if cb := b[j]:
                                out[t] += ca * cb
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
        convention) and a**1 is a itself. A square over ``COEFF_BIT_BUDGET``
        bits raises ``CoefficientBudgetError`` before it is made."""
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
            bits = square._bits()
            if bits > COEFF_BIT_BUDGET:
                raise CoefficientBudgetError(f"a power would square {bits}-bit coefficients, over the budget of {COEFF_BIT_BUDGET} bits")
            square = square * square

    def _bits(self) -> int:
        """The largest bit length of a numerator or the denominator."""
        return max(self._den.bit_length(), *map(int.bit_length, self._nums))

    def is_zero(self) -> bool:
        return not any(self._nums)

    def constant_term(self) -> Fraction:
        return Fraction(self._nums[0], self._den)

    def coefficient(self, alpha) -> Fraction:
        """Coefficient at alpha; the unique polynomial decomposition weights."""
        alpha = as_multiindex(alpha)
        if not self._shape.contains(alpha):
            raise CoefficientIndexError(f"index {alpha} outside shape {self._shape}")
        return Fraction(self._nums[self._shape._slot(self._shape.index(alpha))], self._den)

    def is_in_Dm(self, m: int) -> bool:
        """Whether the element is m-nilpotent: its (m+1)-th power vanishes."""
        if m < 0:
            raise ValueError("nilpotency order must be a natural")
        return (self ** (m + 1)).is_zero()

    def invert(self, numerator: "WeilElement | None" = None) -> "WeilElement":
        """The y with self * y == numerator (one by default), for self with a
        nonzero constant term b0: ``a / b`` is ``b.invert(a)``. Over
        numerators, Z = A * |b0|^(m+1) / B is integral (1/B has no
        denominator above b0^(m+1), as (B - b0)^(m+1) = 0 for m = L // r, L
        the nilpotency bound, r the least total degree of B's nonzero
        non-constant slots). In layout order each Z[q] is its accumulator
        over b0, exactly; Z[q] * B[p] then leaves the later slot of their
        product. y is Z * b.den over |b0|^(m+1) * a.den. A constant b = b0 /
        b.den skips the solve: y is a * b.den / b0. m is L, unless (L+1) *
        bits(b0) + bits(a), the most bits A * |b0|^(L+1) may take, is over
        ``COEFF_BIT_BUDGET``: only then is r read. If (m+1) * bits(b0) +
        bits(a) is over it still, ``CoefficientBudgetError`` is raised first."""
        a = one(self._shape) if numerator is None else numerator
        a._require_same_shape(self)
        shape = a._shape
        b0 = self._nums[0]
        if not b0:
            raise NonInvertibleError("element with zero constant term is not invertible")
        if self._nums.count(0) == len(self._nums) - 1:
            factor = self._den if b0 > 0 else -self._den
            return _reduced(shape, tuple(map(factor.__mul__, a._nums)), a._den * abs(b0))
        power = shape.nilpotency_bound() + 1
        bits = power * b0.bit_length() + a._bits()
        if bits > COEFF_BIT_BUDGET:
            r = min(sum(alpha) for alpha, n in zip(shape.monomials()[1:], self._nums[1:]) if n)
            power = (power - 1) // r + 1
            bits = power * b0.bit_length() + a._bits()
        if bits > COEFF_BIT_BUDGET:
            raise CoefficientBudgetError(f"a division would scale to {bits}-bit coefficients, over the budget of {COEFF_BIT_BUDGET} bits")
        scale = abs(b0) ** power
        acc = [n * scale for n in a._nums]
        off_diagonal = (0,) + self._nums[1:]
        if shape.degree is None:
            for q, ps in _mul_plan(shape.orders, shape.degree):
                z = acc[q] = acc[q] // b0
                if z:
                    for p in ps:
                        if cb := off_diagonal[p]:
                            acc[q + p] -= cb * z
        else:
            for i, js, ts in _mul_plan(shape.orders, shape.degree):
                z = acc[i] = acc[i] // b0
                if z:
                    for j, t in zip(js, ts):
                        if cb := off_diagonal[j]:
                            acc[t] -= cb * z
        return _reduced(shape, tuple(map(self._den.__mul__, acc)), scale * a._den)

    def _terms(self) -> list:
        """(alpha, coefficient) for each nonzero coefficient, in layout order."""
        den = self._den
        return [(alpha, Fraction(n, den)) for alpha, n in zip(self._shape.monomials(), self._nums) if n]

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
    return _raw(shape, (0,) * shape._length, 1)


def one(shape: Shape) -> WeilElement:
    return constant(shape, 1)


def constant(shape: Shape, c) -> WeilElement:
    """Embed a scalar: coefficient c at alpha = 0, zero elsewhere."""
    return seeded(shape, c, ())


def generator(shape: Shape, i: int) -> WeilElement:
    """The i-th infinitesimal generator d_i (requires k_i >= 1; a cap is at
    least k_i after normalisation, so it never kills d_i)."""
    return seeded(shape, 0, (i,))


def seeded(shape: Shape, c, generators) -> WeilElement:
    """c plus the generator d_t for each t in ``generators``, built in one
    step: c's numerator at alpha = 0 and its denominator at each d_t, over
    that denominator."""
    if not isinstance(c, (int, Fraction)):
        c = Fraction(c)
    nums = [0] * shape._length
    nums[0] = c.numerator
    for t in generators:
        if not 0 <= t < shape.arity:
            raise multiindex.ArityMismatchError(f"generator index {t} out of range for shape {shape}")
        if shape.orders[t] == 0:
            raise DegenerateGeneratorError(f"generator d{t} is identically zero in shape {shape}")
        nums[shape._slot(layout(shape.orders).strides[t])] += c.denominator
    return _raw(shape, tuple(nums), c.denominator)


def monomial(shape: Shape, alpha) -> WeilElement:
    """The basis element d^alpha, or zero when alpha is not a live monomial."""
    alpha = as_multiindex(alpha)
    if len(alpha) != shape.arity:
        raise multiindex.ArityMismatchError(
            f"monomial exponent {alpha} has wrong length for shape {shape}"
        )
    if not shape.contains(alpha):
        return zero(shape)
    nums = [0] * shape._length
    nums[shape._slot(shape.index(alpha))] = 1
    return _raw(shape, tuple(nums), 1)


def from_coefficients(shape: Shape, entries) -> WeilElement:
    """Build an element from a {multi-index: rational} mapping."""
    coeffs = [_ZERO] * shape._length
    for alpha, c in dict(entries).items():
        alpha = as_multiindex(alpha)
        if not shape.contains(alpha):
            raise CoefficientIndexError(f"index {alpha} outside shape {shape}")
        coeffs[shape._slot(shape.index(alpha))] = Fraction(c)
    return _raw(shape, *_fraction_free(coeffs))


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

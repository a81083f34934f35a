"""Multi-index bookkeeping: exponent tuples, their norm and factorial, the
componentwise partial order, the mixed-radix layout of a box, and the two
enumeration sets used by truncated Taylor expansions (the box {alpha <= k}
and the simplex {|alpha| <= N}).

A multi-index is a plain tuple of naturals. ``Layout`` places the box
{alpha <= k} at the mixed-radix positions ``idx(alpha) = sum_i alpha_i *
prod_{j<i} (k_j + 1)``, the first component least significant, and lists
every index set of the package as a set of positions: the box, the simplex,
the live slots of a ``weil.Shape`` and its multiplication plan's rows. Every
table built for a shape, here, in ``weil`` or in ``calculus``, is kept in
``TABLES`` by ``keep``.
Enumeration order is fixed so that tables and serialized output are
reproducible byte for byte:

* ``enumerate_box`` is colexicographic, i.e. increasing position.
* ``enumerate_simplex`` is graded by total degree, lexicographically
  decreasing within each degree: (1,0,1) comes before (0,2,0).
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate

from .errors import PAIR_BUDGET, SLOT_BUDGET, WeiljetError

MultiIndex = tuple[int, ...]
# The package's whole process state, oldest first: a key of tags, tuples and
# ints (never a shape or an element) -> (table, weight), the weights summed in
# ``_held``. A hit is a bare ``TABLES.get``, with no bookkeeping.
TABLES: dict = {}
_held = 0


def keep(key, table, weight: int | None = None):
    """Keep ``table`` at ``key``, weighed by the ints it holds (its length
    unless given), and return it. The oldest tables go to make room within
    PAIR_BUDGET + SLOT_BUDGET, the budgets of one request's plan and slots;
    a heavier table is returned unkept."""
    global _held
    weight = len(table) if weight is None else weight
    if weight <= PAIR_BUDGET + SLOT_BUDGET:
        while _held + weight > PAIR_BUDGET + SLOT_BUDGET:
            _held -= TABLES.pop(next(iter(TABLES)))[1]
        TABLES[key] = table, weight
        _held += weight
    return table


class ArityMismatchError(WeiljetError):
    """Two multi-indices (or an index and a point) have different lengths."""


def as_multiindex(parts) -> MultiIndex:
    """Validate and normalize an iterable of naturals into a MultiIndex."""
    alpha = tuple(int(p) for p in parts)
    for p in alpha:
        if p < 0:
            raise ValueError(f"multi-index entries must be naturals, got {alpha}")
    return alpha


def norm(alpha: MultiIndex) -> int:
    """Total degree |alpha|, the sum of the entries."""
    return sum(alpha)


def factorial(alpha: MultiIndex) -> int:
    """alpha!, the product of entrywise factorials (1 for the empty index)."""
    out = 1
    for p in alpha:
        out *= math.factorial(p)
    return out


def leq(alpha: MultiIndex, beta: MultiIndex) -> bool:
    """Componentwise order: alpha <= beta iff alpha_i <= beta_i for all i."""
    if len(alpha) != len(beta):
        raise ArityMismatchError(
            f"cannot compare multi-indices of lengths {len(alpha)} and {len(beta)}"
        )
    return all(a <= b for a, b in zip(alpha, beta))


class Layout:
    """The mixed-radix layout of the box {alpha <= orders}: ``size`` slots,
    alpha at ``sum_i alpha_i * strides[i]`` (``box_index``), sets of
    positions listed by ``position_sets`` and read back, a list at a time, by
    ``decode``.
    """

    def __init__(self, orders: MultiIndex):
        radices = [k + 1 for k in orders]
        *strides, self.size = accumulate(radices, operator.mul, initial=1)
        self.strides = tuple(strides)
        self._radix = tuple(zip(strides, radices))

    def decode(self, ps: list) -> list[MultiIndex]:
        """The alpha at each position of ps, in order: one column of digits
        per coordinate, zipped."""
        columns = [[p // s % r for p in ps] for s, r in self._radix]
        return list(zip(*columns)) if columns else [()] * len(ps)

    def position_sets(self, shared: bool = False):
        """A fresh memoised ``positions(limits, room)``: the ascending
        positions of {beta <= limits, |beta| <= room}, limits a prefix of the
        orders. Each is the union over the last coordinate's value b of a
        smaller set shifted by b strides, built once from shared parts; the
        box above a cap is never visited. A set in one coordinate, whose
        stride is 1, is a ``range``, so a univariate plan holds no lists. The
        memo dies with the function.

        With ``shared`` every set takes each position's int from one list of
        the whole layout, built for this call: a box plan holds a position in
        many sets, and (60, 60)'s then holds 3,721 ints, not 3,085,325. A
        capped layout's box can be far larger than its live slots, so its
        sets compute their ints.
        """
        strides, memo = self.strides, {}
        ints = list(range(self.size)) if shared else None

        def positions(limits: MultiIndex, room: int) -> list:
            room = min(room, sum(limits))
            key = (limits, room)
            out = memo.get(key)
            if out is None:
                if not limits:
                    out = [0] if room >= 0 else []
                elif len(limits) == 1:
                    out = range(min(limits[0], room) + 1)
                else:
                    s, head = strides[len(limits) - 1], limits[:-1]
                    bs = range(min(limits[-1], room) + 1)
                    if ints is None:
                        out = [q + b * s for b in bs for q in positions(head, room - b)]
                    else:
                        out = [ints[q + b * s] for b in bs for q in positions(head, room - b)]
                memo[key] = out
            return out

        return positions


def live_slots(orders: MultiIndex, cap: int) -> dict:
    """The live-slot table of a capped box: the rank of each position of
    {alpha <= orders, |alpha| <= cap}, in ascending order."""
    if hit := TABLES.get(key := ("live", orders, cap)):
        return hit[0]
    ps = layout(orders).position_sets()(orders, cap)
    return keep(key, dict(zip(ps, range(len(ps)))))


def count_capped(orders: MultiIndex, cap: int, limit: int, pairs: bool = False) -> int:
    """The size of {alpha <= orders, |alpha| <= cap} for a cap under |orders|,
    or with ``pairs`` the number of pairs (alpha, beta) whose sum lies in it,
    without listing either. ``ways[t]`` counts by total degree t over all
    coordinates but the largest, a; one of order k adds a degree c <= k in
    one way, or for pairs in c + 1 ways (alpha_i + beta_i = c), summed over
    that window by prefix sums. The largest then adds m = min(a, cap - t) + 1
    degrees to each t, in m or m(m+1)/2 ways. A count past ``limit`` returns
    at once as a lower bound, first the size of a rectangle in the set, so
    the lists, min(cap, |orders| - a) + 1 long, hold O(n sqrt(limit)) ints.
    """
    if hit := TABLES.get(key := ("count", orders, cap, limit, pairs)):
        return hit[0]
    *rest, a = sorted(orders)
    b, top = min(rest[-1], cap // 2), min(cap, sum(rest))
    count = (b + 1) * (min(a, cap - b) + 1)  # degrees <= b and <= cap - b in the two largest
    if count > limit:
        return count
    ways = [1] + [0] * top
    for k in rest:
        # Prefix sums of ways[s] and of s * ways[s]; window s in [t - k, t].
        s0 = [0, *accumulate(ways)]
        s1 = [0, *accumulate(map(operator.mul, range(top + 1), ways))]
        window = ((t, max(0, t - k)) for t in range(top + 1))
        if pairs:  # the sum of (t - s + 1) * ways[s]
            ways = [(t + 1) * (s0[t + 1] - s0[lo]) - (s1[t + 1] - s1[lo]) for t, lo in window]
        else:
            ways = [s0[t + 1] - s0[lo] for t, lo in window]
        if (count := sum(ways)) > limit:
            return count
    return keep(key, sum(w * (m * (m + 1) // 2 if pairs else m) for t, w in enumerate(ways) for m in (min(a, cap - t) + 1,)), 1)


def layout(orders: MultiIndex) -> Layout:
    """The one ``Layout`` of the box {alpha <= orders}."""
    hit = TABLES.get(("layout", orders))
    return hit[0] if hit else keep(("layout", orders), Layout(orders), 1)


def enumerate_box(k: MultiIndex) -> tuple[MultiIndex, ...]:
    """All alpha <= k in colexicographic order (increasing position); length
    prod_i (k_i + 1).

    Arity 0 yields the single empty index.
    """
    if hit := TABLES.get(key := ("box", k)):
        return hit[0]
    lay = layout(as_multiindex(k))
    return keep(key, tuple(lay.decode(range(lay.size))))


def box_index(k: MultiIndex, alpha: MultiIndex) -> int:
    """Position of alpha in enumerate_box(k): the mixed-radix encoding."""
    return sum(map(operator.mul, alpha, layout(tuple(k)).strides))


def enumerate_simplex(n: int, bound: int) -> tuple[MultiIndex, ...]:
    """All alpha in N^n with |alpha| <= bound, graded by degree and
    lexicographically decreasing within each degree.

    Length is C(bound + n, n).
    """
    if hit := TABLES.get(key := ("simplex", n, bound)):
        return hit[0]
    orders = (bound,) * n
    # The indices are distinct, so the stable sort by degree keeps them
    # lexicographically decreasing within each degree.
    return keep(key, tuple(sorted(sorted(layout(orders).decode(live_slots(orders, bound)), reverse=True), key=sum)))

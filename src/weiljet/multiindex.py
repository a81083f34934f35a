"""Multi-index bookkeeping: exponent tuples, their norm and factorial, the
componentwise partial order, the mixed-radix layout of a box, and the two
enumeration sets used by truncated Taylor expansions (the box {alpha <= k}
and the simplex {|alpha| <= N}).

A multi-index is a plain tuple of naturals. ``Layout`` places the box
{alpha <= k} at the mixed-radix positions ``idx(alpha) = sum_i alpha_i *
prod_{j<i} (k_j + 1)``, the first component least significant, and lists
every index set of the package as a set of positions: the box, the simplex,
the live slots of a ``weil.Shape`` and its multiplication plan's rows.
Enumeration order is fixed so that tables and serialized output are
reproducible byte for byte:

* ``enumerate_box`` is colexicographic, i.e. increasing position.
* ``enumerate_simplex`` is graded by total degree, lexicographically
  decreasing within each degree: (1,0,1) comes before (0,2,0).
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import accumulate

from .errors import WeiljetError

MultiIndex = tuple[int, ...]


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

    def position_sets(self):
        """A fresh memoised ``positions(limits, room)``: the ascending
        positions of {beta <= limits, |beta| <= room}, limits a prefix of the
        orders. Each is the union over the last coordinate's value b of a
        smaller set shifted by b strides, built once from shared parts; the
        box above a cap is never visited. The memo dies with the function.
        """
        strides, memo = self.strides, {}

        def positions(limits: MultiIndex, room: int) -> list:
            room = min(room, sum(limits))
            key = (limits, room)
            out = memo.get(key)
            if out is None:
                if not limits:
                    out = [0] if room >= 0 else []
                else:
                    s, head = strides[len(limits) - 1], limits[:-1]
                    out = [q + b * s for b in range(min(limits[-1], room) + 1) for q in positions(head, room - b)]
                memo[key] = out
            return out

        return positions


@lru_cache(maxsize=None)
def layout(orders: MultiIndex) -> Layout:
    """The one ``Layout`` of the box {alpha <= orders}."""
    return Layout(orders)


@lru_cache(maxsize=None)
def enumerate_box(k: MultiIndex) -> tuple[MultiIndex, ...]:
    """All alpha <= k in colexicographic order (increasing position); length
    prod_i (k_i + 1).

    Arity 0 yields the single empty index.
    """
    k = as_multiindex(k)
    lay = layout(k)
    return tuple(lay.decode(lay.position_sets()(k, sum(k))))


def box_index(k: MultiIndex, alpha: MultiIndex) -> int:
    """Position of alpha in enumerate_box(k): the mixed-radix encoding."""
    return sum(map(operator.mul, alpha, layout(tuple(k)).strides))


@lru_cache(maxsize=None)
def enumerate_simplex(n: int, bound: int) -> tuple[MultiIndex, ...]:
    """All alpha in N^n with |alpha| <= bound, graded by degree and
    lexicographically decreasing within each degree.

    Length is C(bound + n, n).
    """
    orders = (bound,) * n
    lay = layout(orders)
    # The indices are distinct, so the stable sort by degree keeps them
    # lexicographically decreasing within each degree.
    return tuple(sorted(sorted(lay.decode(lay.position_sets()(orders, bound)), reverse=True), key=sum))

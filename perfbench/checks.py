"""Output checks against references that share no code with the jet path.

Polynomial derivatives come from ``weiljet.oracle`` (sparse expansion and
the termwise power rule); a quotient r = p/q is checked through the Leibniz
identity  sum_{beta <= alpha} C(alpha, beta) q^(beta) r^(alpha - beta) =
p^(alpha), with the oracle supplying the derivatives of p and q. The index
set of every table is enumerated here, not by the package.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction


class Derivatives:
    """alpha -> d^alpha p (x) for a polynomial p given as text, via the oracle."""

    def __init__(self, mods, text: str, x):
        self.oracle = mods.oracle
        self.x = tuple(x)
        n = len(self.x)
        self.polys = {(0,) * n: self.oracle.to_poly(mods.expression.parse(text), n)}
        self.values = {}

    def _poly(self, alpha):
        poly = self.polys.get(alpha)
        if poly is None:
            i = next(i for i, a in enumerate(alpha) if a)
            lower = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
            poly = self.polys[alpha] = self.oracle.poly_partial(self._poly(lower), i)
        return poly

    def __call__(self, alpha) -> Fraction:
        value = self.values.get(alpha)
        if value is None:
            value = self.values[alpha] = self.oracle.poly_eval(self._poly(alpha), self.x)
        return value


def expected_indices(mode: str, orders) -> set:
    if mode == "box":
        return set(itertools.product(*(range(k + 1) for k in orders)))
    bound = sum(orders)
    return {a for a in itertools.product(range(bound + 1), repeat=len(orders)) if sum(a) <= bound}


def table_ok(mods, req, mode: str, entries: dict) -> bool:
    """Every derivative of p or p/q at x, over the box or simplex of orders."""
    if set(entries) != expected_indices(mode, req["orders"]):
        return False
    dp = Derivatives(mods, req["p"], req["x"])
    if req["q"] is None:
        return all(value == dp(alpha) for alpha, value in entries.items())
    dq = Derivatives(mods, req["q"], req["x"])
    for alpha in entries:
        total = Fraction(0)
        for beta in itertools.product(*(range(a + 1) for a in alpha)):
            weight = math.prod(math.comb(a, b) for a, b in zip(alpha, beta))
            rest = tuple(a - b for a, b in zip(alpha, beta))
            total += weight * dq(beta) * entries[rest]
        if total != dp(alpha):
            return False
    return True


def value_ok(mods, req, alpha, value) -> bool:
    return value == Derivatives(mods, req["p"], req["x"])(tuple(alpha))


def jet_ok(mods, req, out) -> bool:
    """Check a jet-taylor output: a table's entries, or a single value."""
    op = req["op"]
    if op in ("box", "simplex"):
        return table_ok(mods, req, op, out)
    if op == "mixed":
        return value_ok(mods, req, req["alpha"], out)
    counts = [0] * len(req["x"])
    for i in req["apps"]:
        counts[i] += 1
    return value_ok(mods, req, counts, out)


def _rational(obj) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def cli_ok(mods, req, returncode: int, stdout: str) -> bool:
    """Check one child's exit code and ``--format json`` output."""
    if returncode != 0:
        return False
    result = json.loads(stdout)["result"]
    kind = req["kind"]
    if kind == "check":
        return result["all_passed"] is True
    if kind == "derive":
        return value_ok(mods, req, req["alpha"], _rational(result["value"]))
    if kind == "fd-check":
        alpha = tuple(1 if i == req["wrt"] else 0 for i in range(len(req["x"])))
        return result["within_tolerance"] is True and value_ok(mods, req, alpha, _rational(result["exact"]))
    mode = "simplex" if kind == "simplex" else "box"
    if result["mode"] != mode or tuple(result["orders"]) != tuple(req["orders"]):
        return False
    entries = {tuple(e["alpha"]): _rational(e["value"]) for e in result["entries"]}
    return table_ok(mods, req, mode, entries)

"""Seeded inputs for the benchmark workloads.

The generator is the benchmark's own and shares no code with
``weiljet.suites``: if the suites change what they draw, the ``jet-taylor``
and ``cli-cold`` inputs stay the same. Every input is plain data (expression
text, rational points, orders), so the program under test sees only what a
caller would hand it.

The mix of request kinds, arities and truncation orders follows a fixed
schedule; the seed draws the expressions, the points, the coordinate order
of each shape and the suites. Fixing the schedule keeps the cost of a run
close to the same from seed to seed, so the seeds change the data without
changing the amount of work much.
"""

from __future__ import annotations

import random
from fractions import Fraction

# jet-taylor: one slot per request, repeated. Box requests dominate, simplex
# requests make the latency tail, a few single-value requests ride along.
JET_KINDS = ("box", "box", "simplex", "box", "mixed", "box", "box", "simplex", "box", "iterated")

# Truncation orders per arity (every order is 0-4); the j-th request of a
# kind at arity n takes entry j // 4 of its row, in a seeded coordinate order.
BOX_ORDERS = {
    1: ((4,), (3,)),
    2: ((4, 4), (4, 2), (3, 3)),
    3: ((2, 2, 2), (3, 2, 1), (4, 2, 0)),
    4: ((1, 1, 1, 1), (2, 2, 1, 1), (2, 1, 1, 0)),
}
SIMPLEX_ORDERS = {
    1: ((4,), (3,)),
    2: ((2, 2), (3, 1)),
    3: ((1, 1, 1), (2, 1, 0)),
    4: ((1, 1, 1, 1), (1, 1, 1, 0)),
}
MIXED_ALPHAS = {1: (4,), 2: (3, 1), 3: (2, 1, 1), 4: (1, 1, 1, 1)}

# cli-cold: one slot per child process, repeated. Three wide square-free
# tables in ten, a third of them at 8 variables, put the 90th percentile in
# the middle of the 8-variable ones, whose time is mostly plan building,
# rather than at the edge between two clusters of latencies.
CLI_KINDS = (
    "derive", "box", "squarefree", "check", "simplex",
    "squarefree", "derive", "fd-check", "squarefree", "check",
)
SQUAREFREE_ARITIES = (6, 7, 8, 9, 8, 7)

# Total degree of each monomial: fixed, so that seeds change coefficients,
# variables and points but hardly the amount of work.
POLY_DEGREES = (4, 3, 3, 2, 1)
G_DEGREES = (2, 2, 1)
SQUAREFREE_DEGREES = (4, 3, 3, 2, 2, 1)
FD_DEGREES = (3, 2, 2, 1)
CLI_CHECK_INSTANCES = 3


def _rational(rng: random.Random, span: int = 9, max_den: int = 5) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-span, span)
    return Fraction(num, rng.randint(1, max_den))


def _point(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(_rational(rng, 4, 3) for _ in range(n))


def _monomials(rng: random.Random, n: int, degrees) -> list:
    """One term (coefficient, exponents) over x0..x(n-1) per total degree,
    the degree spread over the variables at random."""
    terms = []
    for degree in degrees:
        exps = [0] * n
        for i in rng.choices(range(n), k=degree):
            exps[i] += 1
        terms.append((_rational(rng), tuple(exps)))
    return terms


def _render(terms) -> str:
    """Text of a sum of monomials in the package's expression language."""
    out = []
    for c, exps in terms:
        factors = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e]
        mag = abs(c)
        if factors and mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(out) or "0"


def _eval(terms, x) -> Fraction:
    total = Fraction(0)
    for c, exps in terms:
        term = c
        for xi, e in zip(x, exps):
            term *= xi**e
        total += term
    return total


def polynomial(rng: random.Random, n: int, degrees=POLY_DEGREES) -> str:
    """A sum of monomials plus the cube of a linear form, as text."""
    text = _render(_monomials(rng, n, degrees))
    used = rng.sample(range(n), min(n, 2))
    linear = [(_rational(rng, 4, 3), tuple(1 if i == j else 0 for i in range(n))) for j in used]
    linear.append((_rational(rng, 4, 3), (0,) * n))
    c = _rational(rng, 3, 2)
    sign = "+" if c > 0 else "-"
    return f"{text} {sign} {abs(c)}*({_render(linear)})^3"


def quotient(rng: random.Random, n: int, x) -> str:
    """Denominator text ``1 + g^2`` for a random g, drawn again while x is a
    pole. The pole test evaluates the denominator exactly here, with no help
    from the package under test."""
    while True:
        g = _monomials(rng, n, G_DEGREES)
        if 1 + _eval(g, x) ** 2 != 0:
            return f"1 + ({_render(g)})^2"


def _permuted(rng: random.Random, orders: tuple[int, ...]) -> tuple[int, ...]:
    out = list(orders)
    rng.shuffle(out)
    return tuple(out)


def jet_requests(seed: int, count: int) -> list[dict]:
    """The jet-taylor request pool.

    Each request is a dict with ``op`` (box, simplex, mixed, iterated), the
    numerator text ``p``, the denominator text ``q`` (None for a
    polynomial), the point ``x`` and either ``orders``, ``alpha`` or
    ``apps``. Every third box or simplex request is a quotient ``p/q``.
    """
    rng = random.Random(f"weiljet-bench:jet-taylor:{seed}")
    seen = {kind: 0 for kind in set(JET_KINDS)}
    table_requests = 0
    out = []
    for i in range(count):
        kind = JET_KINDS[i % len(JET_KINDS)]
        j = seen[kind]
        seen[kind] += 1
        n = 1 + j % 4
        x = _point(rng, n)
        req = {"op": kind, "p": polynomial(rng, n), "q": None, "x": x}
        if kind in ("box", "simplex"):
            menu = (BOX_ORDERS if kind == "box" else SIMPLEX_ORDERS)[n]
            req["orders"] = _permuted(rng, menu[(j // 4) % len(menu)])
            if table_requests % 3 == 0:
                req["q"] = quotient(rng, n, x)
            table_requests += 1
        elif kind == "mixed":
            req["alpha"] = _permuted(rng, MIXED_ALPHAS[n])
        else:
            req["apps"] = tuple(rng.randrange(n) for _ in range(2 + j % 3))
        out.append(req)
    return out


def jet_text(req: dict) -> str:
    if req["q"] is None:
        return req["p"]
    return f"({req['p']})/({req['q']})"


def suite_ops(seed: int, names, count: int) -> list[tuple[int, str]]:
    """(suite seed, suite name) pairs: every suite once per suite seed."""
    names = tuple(names)
    return [(seed * 1000 + i // len(names), names[i % len(names)]) for i in range(count)]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _decimal_point(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    # Quarters print exactly as decimals, so the float and rational views agree.
    return tuple(Fraction(rng.randint(-8, 8), 4) for _ in range(n))


def cli_requests(seed: int, count: int, suite_names) -> list[dict]:
    """The cli-cold request pool: argv for ``weiljet`` plus what checks it.

    Each request has ``argv`` (always ``--format json``), ``kind`` and the
    inputs the checker needs (``p``, ``q``, ``x``, and ``orders``, ``alpha``
    or ``wrt``).
    """
    rng = random.Random(f"weiljet-bench:cli-cold:{seed}")
    suite_names = tuple(suite_names)
    suite_offset = rng.randrange(len(suite_names))
    seen = {kind: 0 for kind in set(CLI_KINDS)}
    out = []
    for i in range(count):
        kind = CLI_KINDS[i % len(CLI_KINDS)]
        j = seen[kind]
        seen[kind] += 1
        if kind == "check":
            name = suite_names[(suite_offset + j) % len(suite_names)]
            argv = ["check", f"--suite={name}", f"--instances={CLI_CHECK_INSTANCES}",
                    f"--seed={seed * 1000 + j}"]
            req = {"kind": kind}
        elif kind == "squarefree":
            n = SQUAREFREE_ARITIES[j % len(SQUAREFREE_ARITIES)]
            x = _point(rng, n)
            terms = _monomials(rng, n, SQUAREFREE_DEGREES) + [(_rational(rng), (1,) * n)]
            req = {"kind": kind, "p": _render(terms), "q": None, "x": x, "orders": (1,) * n}
            argv = ["taylor", f"--expr={req['p']}", f"--at={_csv(x)}", f"--orders={_csv(req['orders'])}"]
        elif kind == "fd-check":
            n = 1 + j % 2
            x = _decimal_point(rng, n)
            req = {"kind": kind, "p": _render(_monomials(rng, n, FD_DEGREES)), "q": None, "x": x,
                   "wrt": rng.randrange(n)}
            argv = ["fd-check", f"--expr={req['p']}", f"--at={_csv(float(v) for v in x)}",
                    f"--wrt={req['wrt']}", "--rtol=1e-4"]
        else:
            n = 1 + j % 3
            x = _point(rng, n)
            req = {"kind": kind, "p": polynomial(rng, n), "q": None, "x": x}
            if kind == "derive":
                req["alpha"] = _permuted(rng, MIXED_ALPHAS[n])
                argv = ["derive", f"--expr={req['p']}", f"--at={_csv(x)}", f"--alpha={_csv(req['alpha'])}"]
            else:
                menu = (BOX_ORDERS if kind == "box" else SIMPLEX_ORDERS)[n]
                req["orders"] = _permuted(rng, menu[(j // 3) % len(menu)])
                if j % 3 == 0:
                    req["q"] = quotient(rng, n, x)
                argv = ["taylor", f"--expr={jet_text(req)}", f"--at={_csv(x)}",
                        f"--orders={_csv(req['orders'])}", f"--mode={kind}"]
        # --flag=value keeps values that start with '-' from reading as flags.
        req["argv"] = argv + ["--format=json"]
        out.append(req)
    return out

"""``multiindex.TABLES``, which keeps every table built for a shape: held to
PAIR_BUDGET + SLOT_BUDGET ints, oldest first, and never rebuilt while kept."""

import itertools
from fractions import Fraction

from weiljet import multiindex
from weiljet.calculus import iterated_partial, jet_evaluate, mixed_derivative, taylor_box, taylor_simplex
from weiljet.expression import parse
from weiljet.weil import Shape, WeilElement, _mul_plan


def _held() -> int:
    held = sum(weight for _, weight in multiindex.TABLES.values())
    assert held == multiindex._held
    return held


def _quotient(n: int):
    # A quotient over x0..x(n-1) with a power, so that every request
    # multiplies and divides.
    xs = [f"x{i}" for i in range(n)]
    return parse(f"({' + '.join(xs)} + 1/2)^2 / (3 + {'*'.join(xs)})")


def _requests():
    """(operator, expression, point, orders or shape): every box of orders
    at most 2 in 1-4 variables, its simplex, and each cap of it; 550
    requests over 352 distinct shapes."""
    for n in range(1, 5):
        f, x = _quotient(n), tuple(Fraction(1, i + 2) for i in range(n))
        for k in itertools.product(range(3), repeat=n):
            yield taylor_box, f, x, k
            yield taylor_simplex, f, x, k
            for cap in range(1, sum(k)):
                yield jet_evaluate, f, x, Shape(k, cap)


def _run(request):
    op, f, x, at = request
    out = op(f, x, at)
    return out if isinstance(out, WeilElement) else out.entries


def test_the_kept_weight_stays_within_the_bound_and_results_do_not_change(no_tables, monkeypatch):
    requests = list(_requests())
    expected = [_run(request) for request in requests]
    assert len([key for key in no_tables if key[0] == "plan"]) > 200  # distinct shapes multiplied on
    no_tables.clear()
    multiindex._held = 0
    monkeypatch.setattr(multiindex, "PAIR_BUDGET", 500)
    monkeypatch.setattr(multiindex, "SLOT_BUDGET", 100)
    for request, want in zip(requests, expected):
        assert _run(request) == want
        assert _held() <= 600


def test_a_second_pass_over_a_pool_builds_no_table(no_tables, monkeypatch):
    pool = []
    for n in range(1, 5):
        f, x = _quotient(n), tuple(Fraction(-1, i + 3) for i in range(n))
        pool += [
            (taylor_box, f, x, (2,) * n),
            (taylor_box, f, x, (3,) + (1,) * (n - 1)),
            (taylor_simplex, f, x, (1,) * n),
            (mixed_derivative, f, x, (2,) + (1,) * (n - 1)),
            (iterated_partial, f, x, [0, n - 1, 0]),
        ]

    def run(op, f, x, at):
        return op(f, at, x) if op in (mixed_derivative, iterated_partial) else op(f, x, at).entries

    built, keep = [], multiindex.keep

    def counted(key, table, weight=None):
        built.append(key)
        return keep(key, table, weight)

    monkeypatch.setattr(multiindex, "keep", counted)
    first = [run(*request) for request in pool]
    assert len(built) > len(pool)
    del built[:]
    assert [run(*request) for request in pool] == first
    assert built == []
    # No key holds a shape or an element, so a dropped table is freed at once.
    parts = [part for key in no_tables for part in key]
    assert not [part for part in parts if isinstance(part, (Shape, WeilElement))]


def test_a_table_over_the_bound_is_returned_unkept_and_the_oldest_go_first(no_tables, monkeypatch):
    monkeypatch.setattr(multiindex, "PAIR_BUDGET", 6)
    monkeypatch.setattr(multiindex, "SLOT_BUDGET", 4)
    box = multiindex.enumerate_box((3, 3))
    assert box == tuple((a, b) for b in range(4) for a in range(4))
    plan = _mul_plan((3, 3), None)
    assert sum(len(qs) for _, qs in plan) == Shape((3, 3)).plan_pairs() == 100
    assert list(no_tables) == [("layout", (3, 3))]  # 16 entries and 100 pairs: over 10
    assert multiindex.enumerate_box((3, 3)) == box and multiindex.enumerate_box((3, 3)) is not box
    for i in range(15):
        multiindex.layout((i,))
    assert list(no_tables) == [("layout", (i,)) for i in range(5, 15)]
    assert _held() == 10

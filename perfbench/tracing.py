"""Spans around the calls into each weiljet module, recorded from outside.

``Tracer.install`` replaces the public functions of the package with timing
wrappers in every module namespace that bound them (``calculus.evaluate``
and ``suites.taylor_box`` are separate bindings of ``expression.evaluate``
and ``calculus.taylor_box``), and the ``WeilElement`` ring methods on the
class. Spans nest; a span's self time is its duration minus the spans it
encloses and minus the tracer's own bookkeeping for them. Spans are
aggregated per name in memory (calls, total seconds, self seconds) and
written out once, at the end.

Besides spans the tracer computes counts that repeat exactly for a given
input, because they do not depend on the clock:

* ``weil.mul.madds``: for every product of two elements, the number of
  nonzero coefficient pairs whose exponent sum stays inside the box;
* ``weil.coeff_bits_max``: the largest numerator or denominator bit length
  in any product;
* ``weil.mul.cold_shapes``: products on a shape this process had not
  multiplied on before (``weil.mul.cold_s`` is their time);
* ``expression.evaluate.nodes``: AST nodes of every expression evaluated.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) -> span name. Several functions may share one name.
FUNCTIONS = {
    ("multiindex", "enumerate_box"): "multiindex.enumerate",
    ("multiindex", "enumerate_simplex"): "multiindex.enumerate",
    ("expression", "parse"): "expression.parse",
    ("expression", "evaluate"): "expression.evaluate",
    ("calculus", "taylor_box"): "calculus.taylor_box",
    ("calculus", "taylor_simplex"): "calculus.taylor_simplex",
    ("calculus", "mixed_derivative"): "calculus.mixed_derivative",
    ("calculus", "iterated_partial"): "calculus.iterated_partial",
    ("calculus", "jet_evaluate"): "calculus.jet_evaluate",
    ("oracle", "to_poly"): "oracle",
    ("oracle", "poly_partial"): "oracle",
    ("oracle", "poly_eval"): "oracle",
    ("oracle", "oracle_mixed"): "oracle",
    ("oracle", "finite_difference"): "oracle",
    ("suites", "run_suite"): "suites",
    ("cli", "main"): "cli.main",
}
# WeilElement methods -> span name; "weil.addsub" covers +, - and unary -.
METHODS = {
    "__mul__": "weil.mul",
    "invert": "weil.invert",
    "__pow__": "weil.pow",
    "__add__": "weil.addsub",
    "__sub__": "weil.addsub",
    "__neg__": "weil.addsub",
}
MAXIMA = ("weil.coeff_bits_max",)


class TraceError(RuntimeError):
    """A traced name is missing from the package, or a layer recorded nothing."""


def _loaded_modules():
    return {name: mod for name, mod in sys.modules.items() if name == "weiljet" or name.startswith("weiljet.")}


def product_madds(a, b, orders) -> int:
    """Nonzero pairs (a_p, b_q) with box[p] + box[q] inside the box.

    Coefficients are laid out mixed-radix, first index fastest, so the
    position of k - alpha is size - 1 - position(alpha). A prefix count of
    b's nonzeros over every axis then answers each p in one lookup.
    """
    count = [1 if c else 0 for c in b]
    size = len(count)
    stride = 1
    for k in orders:
        block = stride * (k + 1)
        for base in range(0, size, block):
            for j in range(base + stride, base + block):
                count[j] += count[j - stride]
        stride = block
    top = size - 1
    return sum(count[top - p] for p, c in enumerate(a) if c)


class Tracer:
    def __init__(self):
        self.recording = False
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total_s, self_s]
        self.counts = defaultdict(int)
        self.values = defaultdict(float)
        self._stack: list[list[float]] = []
        self._seen_shapes: set = set()
        self._last_error = None
        self._patches: list = []  # (owner, name, original, wrapper)

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in the weiljet modules loaded so far."""
        modules = _loaded_modules()
        for (module, attr), name in FUNCTIONS.items():
            owner = modules.get(f"weiljet.{module}")
            if owner is None:
                continue
            original = getattr(owner, attr, None)
            if original is None:
                raise TraceError(f"weiljet.{module}.{attr} not found; update tracing.FUNCTIONS")
            wrapper = self._wrapper(name, original, module)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))
        weil = modules.get("weiljet.weil")
        if weil is not None:
            cls = weil.WeilElement
            for attr, name in METHODS.items():
                original = cls.__dict__.get(attr)
                if original is None:
                    raise TraceError(f"WeilElement.{attr} not found; update tracing.METHODS")
                self._patches.append((cls, attr, original, self._wrapper(name, original, "weil", method=attr)))
        self.enable()

    def enable(self) -> None:
        """Put the installed wrappers in place."""
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def disable(self) -> None:
        """Put the original functions back; ``enable`` reverses this."""
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def _wrapper(self, name, fn, module, method=None):
        before = after = None
        errors = "calculus.errors" if module == "calculus" else None
        # run_suite spans are named per suite: suites.<suite name>.
        name_of = (lambda args: f"{name}.{args[0]}") if module == "suites" else (lambda args: name)
        if method == "__mul__":
            element_type = sys.modules["weiljet.weil"].WeilElement
            before = functools.partial(self._product_shape, element_type)
            after = self._count_product
        elif name == "expression.evaluate":
            expr_type = sys.modules["weiljet.expression"].Expr
            after = functools.partial(self._count_nodes, expr_type)
        elif module == "suites":
            after = self._count_suite

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before else None
            if not self.recording:
                return fn(*args, **kwargs)
            frame = [0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(name_of(args), start, frame)
                if errors and exc is not self._last_error:
                    self._last_error = exc
                    self.counts[errors] += 1
                self._charge_parent(start)
                raise
            elapsed = self._close(name_of(args), start, frame)
            if after:
                after(args, result, elapsed, token)
            self._charge_parent(start)
            return result

        return traced

    # -- bookkeeping --------------------------------------------------------

    def _close(self, name, start, frame) -> float:
        elapsed = perf_counter() - start
        self._stack.pop()
        record = self.spans[name]
        record[0] += 1
        record[1] += elapsed
        record[2] += elapsed - frame[0]
        return elapsed

    def _charge_parent(self, start) -> None:
        # The enclosing span does not own this span nor the counting after it.
        if self._stack:
            self._stack[-1][0] += perf_counter() - start

    def _product_shape(self, element_type, args):
        a, b = args
        if not isinstance(b, element_type):
            return None
        cold = a.shape not in self._seen_shapes
        self._seen_shapes.add(a.shape)
        return cold

    def _count_product(self, args, result, elapsed, cold):
        if cold is None:  # a scalar factor
            return
        a, b = args
        if cold:
            self.counts["weil.mul.cold_shapes"] += 1
            self.values["weil.mul.cold_s"] += elapsed
        self.counts["weil.mul.madds"] += product_madds(a.coeffs, b.coeffs, a.shape.orders)
        bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in result.coeffs)
        if bits > self.counts["weil.coeff_bits_max"]:
            self.counts["weil.coeff_bits_max"] = bits

    def _count_nodes(self, expr_type, args, result, elapsed, token):
        nodes = 0
        todo = [args[0]]
        while todo:
            node = todo.pop()
            nodes += 1
            for field in dataclasses.fields(node):
                value = getattr(node, field.name)
                if isinstance(value, expr_type):
                    todo.append(value)
                elif isinstance(value, tuple):
                    todo.extend(v for v in value if isinstance(v, expr_type))
        self.counts["expression.evaluate.nodes"] += nodes

    def _count_suite(self, args, result, elapsed, token):
        self.counts["suites.instances_failed"] += result.instances - result.passes

    # -- results ------------------------------------------------------------

    def to_json(self) -> dict:
        return {"spans": dict(self.spans), "counts": dict(self.counts), "values": dict(self.values)}

    def merge(self, data: dict) -> None:
        """Add the spans and counts another process wrote with ``to_json``."""
        for name, (calls, total, self_s) in data["spans"].items():
            record = self.spans[name]
            record[0] += calls
            record[1] += total
            record[2] += self_s
        for name, value in data["counts"].items():
            if name in MAXIMA:
                self.counts[name] = max(self.counts[name], value)
            else:
                self.counts[name] += value
        for name, value in data["values"].items():
            self.values[name] += value

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    def metric(self, name: str):
        """Value of one per-layer metric name (see BENCHMARK.json)."""
        if name in self.counts or name in self.values:
            return self.counts.get(name, self.values.get(name))
        span, _, field = name.rpartition(".")
        record = self.spans.get(span, (0, 0.0, 0.0))
        if field == "calls":
            return record[0]
        if field == "s":
            return record[1]
        if field == "self_s":
            return record[2]
        return 0

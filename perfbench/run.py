"""Benchmark for weiljet: seeded workloads, end-to-end metrics, traced layers.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload jet-taylor --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``jet-taylor``: one in-process caller in a closed loop sends Taylor
  requests (``taylor_box`` mostly, ``taylor_simplex`` for a minority, a few
  ``mixed_derivative`` and ``iterated_partial``), a third of the tables for
  quotients ``p/(1+g^2)``. The pool of requests repeats once exhausted.
* ``suite-check``: one ``suites.run_suite`` call per op, every suite once per
  suite seed, as ``weiljet check`` does.
* ``cli-cold``: one fresh ``weiljet`` process per op, one at a time, so each
  op pays interpreter start, import and plan building.

Every op's output is checked outside the timed region (see ``checks``); a
wrong value, an exception, a non-zero exit or a failing suite counts as a
failed op. A repeated request must give the output its first run gave.

With ``--trace 0`` the run sets up ``SETUP_REPEATS`` times (each time from a
fresh import of the package) and reports the median as ``setup_s``, then
runs the closed loop for ``--seconds`` and over at least ``MIN_OPS``
distinct ops. An op's latency is the best of its runs, and
``latency_p50_ms``, ``latency_p90_ms`` and ``ops_per_s`` come from the best
times of the distinct ops (median, 90th percentile, and count over sum).
jet-taylor repeats a pool of ``MIN_OPS`` requests many times: on a 2-vCPU
virtual machine shared with other tenants, whose speed drifts by up to 1.8x
over tens of seconds, the best of many runs spread over a run varies far
less between runs than their mean. The pools of suite-check and cli-cold
outlast a run, so their ops run once: a child process is too slow to repeat
enough, and a pool of suite instances small enough to repeat varies in work
by about 10% from seed to seed.

With ``--trace 1`` it runs a fixed list of ops, each op once with spans
recorded (see ``tracing``) and once without, and reports the per-layer
metrics and the ratio of the two times as ``trace.overhead_ratio``; the op
list depends only on the seed and ``--seconds``, so the counts repeat
exactly.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it list the same metrics for a
reader, with their sample counts. The metric names and units are those of
``BENCHMARK.json``. The reader's lines also give ``failed_share``, failed
over attempted ops; it is 0 for a correct program, so the JSON carries it
as ``failed`` and ``attempted`` rather than as a metric.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import inputs
from tracing import TraceError, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
MIN_OPS = 100
MAX_LOOP_S = 120.0
CLI_MAIN = "import sys; from weiljet.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_weiljet():
    """Import the package from ``src`` afresh, so caches start empty."""
    for name in [n for n in sys.modules if n == "weiljet" or n.startswith("weiljet.")]:
        del sys.modules[name]
    pkg = importlib.import_module("weiljet")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"weiljet imported from {pkg.__file__}, not from {SRC}")
    for sub in ("calculus", "expression", "oracle", "suites"):
        importlib.import_module(f"weiljet.{sub}")
    return pkg


def child_env(**extra) -> dict:
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


class State:
    def __init__(self, mods, pool):
        self.mods = mods
        self.pool = pool
        self.tracer = None  # set during a traced pass; cli-cold traces its children


class JetTaylor:
    name = "jet-taylor"
    rusage = resource.RUSAGE_SELF
    cycle = len(inputs.JET_KINDS)
    pool_size = MIN_OPS
    trace_cycles_per_s = 1.0
    required = (
        "weil.mul.calls", "weil.invert.calls", "expression.parse.calls",
        "expression.evaluate.calls", "calculus.taylor_box.calls",
        "calculus.taylor_simplex.calls", "calculus.mixed_derivative.calls",
        "calculus.iterated_partial.calls", "calculus.jet_evaluate.calls",
    )

    def prepare(self, seed, tracer):
        mods = import_weiljet()
        if tracer:
            tracer.install()
        pool = inputs.jet_requests(seed, self.pool_size)
        # Build every multiplication plan the pool needs before timing: run
        # each distinct (operator, orders) once on a product of the variables
        # (x0 twice, so that even one variable takes a product).
        warm = {}
        for req in pool:
            shape = req.get("orders") or req.get("alpha") or req.get("apps")
            product = "*".join(f"x{i}" for i in range(len(req["x"]))) + "*x0"
            warm.setdefault((req["op"], shape, len(req["x"])), dict(req, p=product, q=None))
        state = State(mods, pool)
        for req in warm.values():
            self.run(state, req)
        return state

    def run(self, state, req):
        calculus = state.mods.calculus
        f = state.mods.expression.parse(inputs.jet_text(req))
        op = req["op"]
        if op == "box":
            return calculus.taylor_box(f, req["x"], req["orders"]).entries
        if op == "simplex":
            return calculus.taylor_simplex(f, req["x"], req["orders"]).entries
        if op == "mixed":
            return calculus.mixed_derivative(f, req["alpha"], req["x"])
        return calculus.iterated_partial(f, req["apps"], req["x"])

    def check(self, state, req, out) -> bool:
        return checks.jet_ok(state.mods, req, out)


class SuiteCheck:
    name = "suite-check"
    rusage = resource.RUSAGE_SELF
    instances = 40
    suite_seeds = 200  # more than a run reaches, so no op repeats
    trace_cycles_per_s = 0.4

    def __init__(self):
        self.names = ()

    @property
    def cycle(self):
        return len(self.names)

    @property
    def required(self):
        layers = ("weil.mul.calls", "weil.pow.calls", "weil.addsub.calls", "oracle.calls")
        return layers + tuple(f"suites.{n}.s" for n in self.names)

    def prepare(self, seed, tracer):
        mods = import_weiljet()
        if tracer:
            tracer.install()
        self.names = mods.suites.suite_names()
        pool = inputs.suite_ops(seed, self.names, len(self.names) * self.suite_seeds)
        # Warm-up instances come from one fixed seed, so set-up does the same
        # work whatever the seed of the run.
        for name in self.names:
            mods.suites.run_suite(name, mods.suites.SuiteConfig(instances=5, seed=-1))
        return State(mods, pool)

    def run(self, state, op):
        suite_seed, name = op
        suites = state.mods.suites
        return suites.run_suite(name, suites.SuiteConfig(instances=self.instances, seed=suite_seed))

    def check(self, state, op, out) -> bool:
        return out.passed


class CliCold:
    name = "cli-cold"
    rusage = resource.RUSAGE_CHILDREN  # peak_rss_mb: the largest child
    cycle = len(inputs.CLI_KINDS)
    pool_size = 300
    trace_cycles_per_s = 0.2
    required = (
        "cli.main.self_s", "cli.interpreter_s", "cli.import_s", "weil.mul.calls",
        "weil.mul.cold_shapes", "multiindex.enumerate.calls", "expression.parse.calls",
        "expression.evaluate.calls", "calculus.taylor_box.calls",
        "calculus.taylor_simplex.calls", "calculus.mixed_derivative.calls",
        "calculus.jet_evaluate.calls",
    )

    def prepare(self, seed, tracer):
        # The package is imported here only to draw suite names and, later,
        # to check outputs; every op runs in a child of its own.
        mods = import_weiljet()
        pool = inputs.cli_requests(seed, self.pool_size, mods.suites.suite_names())
        probe = subprocess.run(
            [sys.executable, "-c", "import weiljet.cli; print(weiljet.cli.__file__)"],
            env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if probe.returncode != 0 or not Path(probe.stdout.strip()).resolve().is_relative_to(SRC):
            raise BenchError(f"child cannot import weiljet from {SRC}: {probe.stderr.strip()}")
        return State(mods, pool)

    def run(self, state, req):
        tracer = state.tracer
        if tracer is None:
            argv = [sys.executable, "-c", CLI_MAIN] + req["argv"]
            proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            return proc.returncode, proc.stdout
        with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix="tmp-spans-") as tmp:
            spans = Path(tmp) / "spans.json"
            argv = [sys.executable, str(BENCH_DIR / "launcher.py"), str(spans)] + req["argv"]
            env = child_env(WEILJET_BENCH_SPAWNED=repr(time.monotonic()))
            proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                tracer.counts["cli.exit_nonzero"] += 1
            tracer.merge(json.loads(spans.read_text()))
        return proc.returncode, proc.stdout

    def check(self, state, req, out) -> bool:
        return checks.cli_ok(state.mods, req, *out)


WORKLOADS = {w.name: w for w in (JetTaylor(), SuiteCheck(), CliCold())}


def setup(workload, seed, tracer=None):
    """Set up SETUP_REPEATS times; return the last state and every time taken."""
    times = []
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.prepare(seed, tracer if rep == SETUP_REPEATS - 1 else None)
        times.append(time.perf_counter() - start)
    return state, times


class Outcomes:
    """Per pool index: the best latency, and the outputs. The first output is
    checked; repeats must equal it."""

    def __init__(self):
        self.best = {}
        self.first = {}
        self.agreeing = {}
        self.failed = 0
        self.errors = []

    def record(self, index, elapsed, out, error):
        self.best[index] = min(elapsed, self.best.get(index, elapsed))
        if error is not None:
            self.failed += 1
            self.errors.append(f"op {index}: {error!r}")
        elif index not in self.first:
            self.first[index] = out
            self.agreeing[index] = 1
        elif out == self.first[index]:
            self.agreeing[index] += 1
        else:
            self.failed += 1
            self.errors.append(f"op {index}: output differs from its first run")

    def verify(self, workload, state) -> int:
        for index, out in self.first.items():
            try:
                ok = workload.check(state, state.pool[index], out)
            except Exception as exc:  # a malformed output is a wrong output
                ok = False
                self.errors.append(f"op {index}: check raised {exc!r}")
            if not ok:
                self.failed += self.agreeing[index]
                self.errors.append(f"op {index}: wrong output for {state.pool[index]!r}"[:400])
        return self.failed


def call(workload, state, index, outcomes):
    op = state.pool[index % len(state.pool)]
    start = time.perf_counter()
    try:
        out, error = workload.run(state, op), None
    except Exception as exc:  # the op failed; keep measuring the rest
        out, error = None, exc
    elapsed = time.perf_counter() - start
    outcomes.record(index % len(state.pool), elapsed, out, error)
    return elapsed


def timed_loop(workload, state, seconds):
    """Run ops until ``seconds`` have passed and MIN_OPS distinct ops ran."""
    outcomes = Outcomes()
    distinct = min(MIN_OPS, len(state.pool))
    ops = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(outcomes.best) >= distinct) or elapsed >= MAX_LOOP_S:
            break
        call(workload, state, ops, outcomes)
        ops += 1
    return ops, outcomes


def peak_rss_mb(workload) -> float:
    return resource.getrusage(workload.rusage).ru_maxrss / 1024.0


def measure(workload, seed, seconds):
    state, setup_times = setup(workload, seed)
    ops, outcomes = timed_loop(workload, state, seconds)
    failed = outcomes.verify(workload, state)
    best = list(outcomes.best.values())
    values = {
        "ops_per_s": len(best) / sum(best),
        "latency_p50_ms": statistics.median(best) * 1e3,
        "latency_p90_ms": statistics.quantiles(best, n=10)[8] * 1e3,
        "failed_share": failed / ops,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(workload),
    }
    samples = dict.fromkeys(("ops_per_s", "latency_p50_ms", "latency_p90_ms"), len(best))
    samples.update(failed_share=ops, setup_s=len(setup_times), peak_rss_mb=1)
    return values, samples, ops, failed, outcomes.errors


def trace_ops(workload, seconds) -> int:
    """Whole cycles of the op schedule, as many as the workload's rate gives."""
    return workload.cycle * max(1, int(seconds * workload.trace_cycles_per_s))


def traced(workload, seed, seconds):
    tracer = Tracer()
    state, _ = setup(workload, seed, tracer)
    count = trace_ops(workload, seconds)
    outcomes = Outcomes()
    traced_s = untraced_s = 0.0
    # Each op runs traced and then untraced, so that drift in the speed of
    # the machine falls on both sides of the overhead ratio alike.
    for index in range(count):
        tracer.enable()
        tracer.recording = True
        state.tracer = tracer
        traced_s += call(workload, state, index, outcomes)
        tracer.recording = False
        state.tracer = None
        tracer.disable()
        untraced_s += call(workload, state, index, Outcomes())
    failed = outcomes.verify(workload, state)
    missing = [name for name in workload.required if not tracer.metric(name)]
    if missing:
        raise TraceError(f"{workload.name}: no spans or counts recorded for " + ", ".join(missing))
    tracer.values["trace.overhead_ratio"] = traced_s / untraced_s
    return tracer, count, failed, outcomes.errors, traced_s, untraced_s


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError(f"{spec_path} not found")
    return json.loads(spec_path.read_text())


def result_line(attempted, failed, metrics, spec_metrics) -> dict:
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in spec_metrics}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


def run_one(name, seed, seconds, trace) -> dict:
    spec = load_spec()
    workload = WORKLOADS[name]
    if trace:
        tracer, attempted, failed, errors, traced_s, untraced_s = traced(workload, seed, seconds)
        print(f"{name} seed {seed}: traced {attempted} ops in {traced_s:.3f} s, "
              f"untraced {untraced_s:.3f} s, overhead x{traced_s / untraced_s:.3f}")
        spec_metrics = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = {metric: tracer.metric(metric) for metric, _ in spec_metrics}
        for metric, unit in spec_metrics:
            print(f"  {metric:<40} {values[metric]} {unit}")
    else:
        values, samples, attempted, failed, errors = measure(workload, seed, seconds)
        print(f"{name} seed {seed}: {attempted} ops, {failed} failed")
        spec_metrics = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        units = dict(spec_metrics, failed_share="ratio")
        for metric, value in values.items():
            n = samples[metric]
            print(f"  {metric:<16} {value:.6g} {units[metric]} (n={n})")
    for line in errors[:10]:
        print(f"  failure: {line}", file=sys.stderr)
    return result_line(attempted, failed, values, spec_metrics)


def run_all(seed, seconds, trace) -> dict:
    """Each workload in a process of its own; metrics keyed workload.metric."""
    attempted = failed = 0
    metrics = {}
    correct = True
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if not (SRC / "weiljet" / "__init__.py").is_file():
            raise BenchError(f"no weiljet package under {SRC}")
        sys.path.insert(0, str(SRC))
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run_one(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, TraceError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

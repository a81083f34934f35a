"""Smoke test of the benchmark at its smallest size; it bounds no timing.

Run from the root of the repository::

    python3 -m pytest -q perfbench/test_smoke.py
"""

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import product_madds  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("weil.mul.madds", "weil.coeff_bits_max", "weil.mul.cold_shapes", "expression.evaluate.nodes")


def bench(*args, cwd=ROOT):
    argv = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = result(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"))
    assert out["attempted"] >= 100
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
    first, second = result(bench(*args)), result(bench(*args))
    expected = {m["name"] for m in SPEC["per_layer"]}
    assert set(first["metrics"]) == expected
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["weil.mul.madds"]["value"] > 0
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_product_madds_matches_pair_count():
    rng = random.Random(0)
    for _ in range(200):
        orders = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 4)))
        # Mixed radix, first index fastest: the layout of WeilElement.coeffs.
        box = [tuple(reversed(a)) for a in itertools.product(*(range(k + 1) for k in reversed(orders)))]
        a = [rng.choice((0, 0, 1)) for _ in box]
        b = [rng.choice((0, 1, 2)) for _ in box]
        pairs = sum(
            1
            for (alpha, ca), (beta, cb) in itertools.product(zip(box, a), zip(box, b))
            if ca and cb and all(x + y <= k for x, y, k in zip(alpha, beta, orders))
        )
        assert product_madds(a, b, orders) == pairs

#!/usr/bin/env python3
"""Run every identity suite at several seeds and print a summary table:
passes per seed and each suite's wall time over all seeds.

Useful as a quick health sweep beyond the fixed-seed CI run:

  python3 scripts/identity_report.py --instances 100 --seeds 0,1,2
"""

import argparse
import time

from weiljet.suites import SuiteConfig, run_suite, suite_names


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=100)
    ap.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]

    width = max(len(name) for name in suite_names())
    print(f"{'suite':<{width}}  " + "  ".join(f"seed={s}" for s in seeds) + "     time")
    all_ok = True
    started = time.perf_counter()
    for name in suite_names():
        cells = []
        suite_started = time.perf_counter()
        for seed in seeds:
            result = run_suite(name, SuiteConfig(instances=args.instances, seed=seed))
            cells.append(f"{result.passes}/{result.instances}")
            if not result.passed:
                all_ok = False
                print(f"  !! {name} seed={seed}: {result.first_counterexample}")
        elapsed = time.perf_counter() - suite_started
        print(f"{name:<{width}}  " + "  ".join(f"{c:>7}" for c in cells) + f"  {elapsed:6.3f}s")
    print(f"total: {time.perf_counter() - started:.1f}s, {'all pass' if all_ok else 'FAILURES'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

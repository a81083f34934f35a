"""Command-line front end.

Subcommands::

    taylor    truncated expansion table for an expression at a point
    derive    one exact mixed derivative
    check     run named identity suites over seeded random instances
    fd-check  cross-validate one derivative against central finite differences

Exit codes: 0 on success, 2 on parse/evaluation/numeric failure (including a
failing suite or tolerance), 64 on usage errors. ``--format json`` output is
deterministic given (command, inputs, seed); the seed defaults to the
WEILJET_SEED environment variable, then 0. Rationals print as ``p/q`` (bare
``p`` for integers) in tables and as decimal-string numerator/denominator
pairs in JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .calculus import derivtable_to_json, mixed_derivative, partial_derivative, taylor_box, taylor_simplex
from .errors import WeiljetError
from .expression import arity, parse
from .oracle import finite_difference
from .suites import SuiteConfig, UnknownSuiteError, run_suites, suite_names
from .weil import rational_to_json

EXIT_OK = 0
EXIT_FAILURE = 2
EXIT_USAGE = 64


class UsageError(WeiljetError):
    """Bad flag values; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass
class RunReport:
    command: str
    inputs: dict
    result: dict
    seed: int
    wall_time_ms: int = 0
    ok: bool = True
    table_lines: list = field(default_factory=list)

    def to_json(self) -> dict:
        # wall_time_ms is intentionally excluded: JSON output must be
        # byte-identical across runs with the same command, inputs and seed.
        return {
            "command": self.command,
            "inputs": self.inputs,
            "seed": self.seed,
            "result": self.result,
        }


def _format_rational(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _parse_rational_list(text: str, flag: str) -> tuple[Fraction, ...]:
    if text.strip() == "":
        return ()
    out = []
    for part in text.split(","):
        try:
            out.append(Fraction(part.strip()))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"{flag}: {part.strip()!r} is not a rational") from None
    return tuple(out)


def _parse_nat_list(text: str, flag: str) -> tuple[int, ...]:
    if text.strip() == "":
        return ()
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part.isdigit():
            raise UsageError(f"{flag}: {part!r} is not a natural number")
        out.append(int(part))
    return tuple(out)


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    if text.strip() == "":
        return ()
    out = []
    for part in text.split(","):
        try:
            value = float(part.strip())
        except ValueError:
            raise UsageError(f"{flag}: {part.strip()!r} is not a float") from None
        if not math.isfinite(value):
            raise UsageError(f"{flag}: {part.strip()!r} is not a finite float")
        out.append(value)
    return tuple(out)


def _default_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("WEILJET_SEED", "").strip()
    if env:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"WEILJET_SEED={env!r} is not a natural number") from None
    return 0


def _cmd_taylor(args) -> RunReport:
    expr = parse(args.expr)
    at = _parse_rational_list(args.at, "--at")
    orders = _parse_nat_list(args.orders, "--orders")
    if len(at) != len(orders):
        raise UsageError(
            f"--at has {len(at)} coordinates but --orders has {len(orders)}"
        )
    if len(at) < arity(expr):
        raise UsageError(f"expression needs {arity(expr)} coordinates, got {len(at)}")
    table = (taylor_box if args.mode == "box" else taylor_simplex)(expr, at, orders)
    lines = [
        f"mode: {table.mode}",
        f"arity: {table.arity}",
        "orders: (" + ",".join(str(k) for k in table.orders) + ")",
    ]
    for alpha in table.enumeration():
        key = "(" + ",".join(str(a) for a in alpha) + ")"
        lines.append(f"{key}  {_format_rational(table.entries[alpha])}")
    return RunReport(
        command="taylor",
        inputs={"expr": args.expr, "at": args.at, "orders": args.orders, "mode": args.mode},
        result=derivtable_to_json(table),
        seed=_default_seed(None),
        table_lines=lines,
    )


def _cmd_derive(args) -> RunReport:
    expr = parse(args.expr)
    at = _parse_rational_list(args.at, "--at")
    alpha = _parse_nat_list(args.alpha, "--alpha")
    if len(alpha) > len(at):
        raise UsageError(f"--alpha has {len(alpha)} entries but --at only {len(at)}")
    if len(at) < arity(expr):
        raise UsageError(f"expression needs {arity(expr)} coordinates, got {len(at)}")
    value = mixed_derivative(expr, alpha, at)
    return RunReport(
        command="derive",
        inputs={"expr": args.expr, "at": args.at, "alpha": args.alpha},
        result={"value": rational_to_json(value)},
        seed=_default_seed(None),
        table_lines=[_format_rational(value)],
    )


def _cmd_check(args) -> RunReport:
    seed = _default_seed(args.seed)
    if args.suite == "all":
        names = suite_names()
    elif args.suite in suite_names():
        names = (args.suite,)
    else:
        raise UsageError(
            f"unknown suite {args.suite!r}; known: all, {', '.join(suite_names())}"
        )
    if args.instances < 0:
        raise UsageError(f"--instances must be a natural number, got {args.instances}")
    config = SuiteConfig(instances=args.instances, seed=seed)
    try:
        results = run_suites(names, config)
    except UnknownSuiteError as exc:
        raise UsageError(str(exc)) from None
    all_passed = all(r.passed for r in results)
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {r.passes}/{r.instances}  {status}")
        if r.first_counterexample:
            lines.append(f"  counterexample: {r.first_counterexample}")
    lines.append(f"overall: {'pass' if all_passed else 'FAIL'}")
    return RunReport(
        command="check",
        inputs={"suite": args.suite, "instances": args.instances},
        result={"suites": [r.to_json() for r in results], "all_passed": all_passed},
        seed=seed,
        ok=all_passed,
        table_lines=lines,
    )


def _cmd_fd_check(args) -> RunReport:
    if not (math.isfinite(args.h) and args.h > 0):
        raise UsageError(f"--h must be a positive finite step, got {args.h!r}")
    expr = parse(args.expr)
    at = _parse_float_list(args.at, "--at")
    if not 0 <= args.wrt < len(at):
        raise UsageError(f"--wrt {args.wrt} out of range for point of length {len(at)}")
    exact = partial_derivative(expr, args.wrt, tuple(Fraction(v) for v in at))
    exact_float = float(exact)
    fd = finite_difference(expr, args.wrt, at, args.h)
    abs_gap = abs(exact_float - fd)
    rel_gap = abs_gap / max(1.0, abs(exact_float))
    ok = rel_gap <= args.rtol
    lines = [
        f"exact: {_format_rational(exact)} ({exact_float!r})",
        f"finite difference (h={args.h!r}): {fd!r}",
        f"absolute gap: {abs_gap!r}",
        f"relative gap: {rel_gap!r}",
        f"within rtol {args.rtol!r}: {'yes' if ok else 'NO'}",
    ]
    return RunReport(
        command="fd-check",
        inputs={"expr": args.expr, "at": args.at, "wrt": args.wrt, "h": args.h, "rtol": args.rtol},
        result={
            "exact": rational_to_json(exact),
            "exact_float": exact_float,
            "finite_difference": fd,
            "absolute_gap": abs_gap,
            "relative_gap": rel_gap,
            "within_tolerance": ok,
        },
        seed=_default_seed(None),
        ok=ok,
        table_lines=lines,
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="weiljet", description="Exact jet-based differentiation")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    taylor = sub.add_parser("taylor", help="truncated expansion table")
    taylor.add_argument("--expr", required=True)
    taylor.add_argument("--at", required=True, help="comma-separated rationals ('' for arity 0)")
    taylor.add_argument("--orders", required=True, help="comma-separated naturals ('' for arity 0)")
    taylor.add_argument("--mode", choices=("box", "simplex"), default="box")
    taylor.add_argument("--format", choices=("table", "json"), default="table")
    taylor.set_defaults(handler=_cmd_taylor)

    derive = sub.add_parser("derive", help="one exact mixed derivative")
    derive.add_argument("--expr", required=True)
    derive.add_argument("--at", required=True)
    derive.add_argument("--alpha", required=True, help="comma-separated derivative orders per variable")
    derive.add_argument("--format", choices=("table", "json"), default="table")
    derive.set_defaults(handler=_cmd_derive)

    check = sub.add_parser("check", help="run identity suites")
    check.add_argument("--suite", default="all", help="suite name or 'all'")
    check.add_argument("--instances", type=int, default=200)
    check.add_argument("--seed", type=int, default=None, help="defaults to WEILJET_SEED, then 0")
    check.add_argument("--format", choices=("table", "json"), default="table")
    check.set_defaults(handler=_cmd_check)

    fd = sub.add_parser("fd-check", help="compare against central finite differences")
    fd.add_argument("--expr", required=True)
    fd.add_argument("--at", required=True, help="comma-separated floats")
    fd.add_argument("--wrt", type=int, required=True)
    fd.add_argument("--h", type=float, default=1e-4)
    fd.add_argument("--rtol", type=float, default=1e-6)
    fd.add_argument("--format", choices=("table", "json"), default="table")
    fd.set_defaults(handler=_cmd_fd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report = args.handler(args)
    except UsageError as exc:
        print(f"weiljet: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WeiljetError as exc:
        print(f"weiljet: error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    report.wall_time_ms = int((time.perf_counter() - started) * 1000)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        # The timing stays on the report object only; printed output must be
        # deterministic given (command, inputs, seed).
        for line in report.table_lines:
            print(line)
    return EXIT_OK if report.ok else EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())

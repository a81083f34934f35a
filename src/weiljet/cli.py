"""Command-line front end.

Subcommands::

    taylor    truncated expansion table for an expression at a point
    derive    one exact mixed derivative
    check     run named identity suites over seeded random instances
    fd-check  cross-validate one derivative against central finite differences

Exit codes: 0 on success, 2 on parse/evaluation/numeric failure (including a
failing suite or tolerance, and standard output closed before all of it was
written), 64 on usage errors (including ``check --instances`` over
``MAX_INSTANCES``, a ``--at`` rational that could need more than
``weil.COEFF_BIT_BUDGET`` bits, a ``--at`` point shorter than the
expression's variables and an invalid WEILJET_SEED). A word that begins with
one "-" is an option only if it begins one (``-h``), so ``--at -1/2`` reads
as ``--at=-1/2``. ``--format json`` output is deterministic given (command,
inputs, seed); the seed defaults to the WEILJET_SEED environment variable,
then 0, and ``main`` reads it before the subcommand runs. Each subcommand
returns its inputs, result, table lines and verdict, and ``main`` alone
forms the JSON report from them. Rationals print as ``p/q`` (bare ``p`` for
integers) in tables and as decimal-string numerator/denominator pairs in
JSON. ``check`` imports the suites (and with them the oracle) and
``fd-check`` the oracle when they run, so ``taylor`` and ``derive`` start
without either.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .calculus import derivtable_to_json, mixed_derivative, partial_derivative, taylor_box, taylor_simplex
from .errors import WeiljetError, int_digit_limit
from .expression import arity, parse
from .weil import COEFF_BIT_BUDGET, rational_to_json

EXIT_OK = 0
EXIT_FAILURE = 2
EXIT_USAGE = 64

# The most instances ``check`` runs per suite: an instance of all 18 suites
# takes about 4 ms, so the largest request ends in under a minute, not hours.
MAX_INSTANCES = 10_000


class UsageError(WeiljetError):
    """Bad flag values; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def _get_values(self, action, arg_strings):
        # Before Python 3.13 argparse drops the "--" of a flag given as
        # "--seed=--" and hands the handler [], unconverted and unchecked;
        # like 3.13, take "--" as the flag's value.
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)

    def _parse_optional(self, arg_string):
        # argparse takes a word with one leading "-" for an option unless it
        # is a plain negative number ("-1"); take any such word that begins
        # no option ("-1/2", "-x0^2", "-1,2") for a value, as "--at=-1/2" is.
        if arg_string[:1] == "-" and arg_string[:2] != "--" and arg_string[:2] not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_list(text: str, flag: str, convert) -> tuple:
    """The comma-separated values of a flag ('' for none). ``convert`` turns
    one stripped part into its value, or raises ValueError whose message
    names what the part should have been."""
    if text.strip() == "":
        return ()
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            out.append(convert(part))
        except ValueError as exc:
            raise UsageError(f"{flag}: {part!r} is not {exc}") from None
    return tuple(out)


def _rational(part: str) -> Fraction:
    # Fraction builds 10^exponent exactly, so "1e99999999" would take
    # minutes: first bound the value's bits, each character of the mantissa
    # and unit of the exponent adding under log2(10) < 3.322 bits.
    mantissa, e, exponent = part.lower().partition("e")
    try:
        digits = len(mantissa) + (abs(int(exponent)) if e else 0)
        value = Fraction(part) if digits * 3322 // 1000 < COEFF_BIT_BUDGET else None
    except (ValueError, ZeroDivisionError):
        raise ValueError("a rational") from None
    if value is None:
        raise ValueError(f"a rational of at most {COEFF_BIT_BUDGET} bits")
    return value


def _natural(part: str) -> int:
    if not part.isdecimal() or 0 < int_digit_limit() < len(part):
        raise ValueError("a natural number")
    return int(part)


def _finite_float(part: str) -> float:
    try:
        value = float(part)
    except ValueError:
        raise ValueError("a float") from None
    if not math.isfinite(value):
        raise ValueError("a finite float")
    return value


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


def _read_point(args, convert) -> tuple:
    """The parsed ``--expr`` and its ``--at`` point, each coordinate through
    ``convert``, refused unless the point covers the expression's variables."""
    expr = parse(args.expr)
    at = _parse_list(args.at, "--at", convert)
    if len(at) < arity(expr):
        raise UsageError(f"expression needs {arity(expr)} coordinates, got {len(at)}")
    return expr, at


# Each handler returns the report's inputs and result, its table lines and
# whether it passed; main adds the command and the seed.
def _cmd_taylor(args) -> tuple:
    expr, at = _read_point(args, _rational)
    orders = _parse_list(args.orders, "--orders", _natural)
    if len(at) != len(orders):
        raise UsageError(
            f"--at has {len(at)} coordinates but --orders has {len(orders)}"
        )
    table = (taylor_box if args.mode == "box" else taylor_simplex)(expr, at, orders)
    lines = [
        f"mode: {table.mode}",
        f"arity: {table.arity}",
        "orders: (" + ",".join(str(k) for k in table.orders) + ")",
    ]
    for alpha in table.enumeration():
        key = "(" + ",".join(str(a) for a in alpha) + ")"
        lines.append(f"{key}  {table.entries[alpha]}")
    inputs = {"expr": args.expr, "at": args.at, "orders": args.orders, "mode": args.mode}
    return inputs, derivtable_to_json(table), lines, True


def _cmd_derive(args) -> tuple:
    expr, at = _read_point(args, _rational)
    alpha = _parse_list(args.alpha, "--alpha", _natural)
    if len(alpha) > len(at):
        raise UsageError(f"--alpha has {len(alpha)} entries but --at only {len(at)}")
    value = mixed_derivative(expr, alpha, at)
    inputs = {"expr": args.expr, "at": args.at, "alpha": args.alpha}
    return inputs, {"value": rational_to_json(value)}, [str(value)], True


def _cmd_check(args) -> tuple:
    from .suites import SuiteConfig, run_suites, suite_names

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
    if args.instances > MAX_INSTANCES:
        raise UsageError(f"--instances must be at most {MAX_INSTANCES}, got {args.instances}")
    config = SuiteConfig(instances=args.instances, seed=args.seed)
    results = run_suites(names, config)
    all_passed = all(r.passed for r in results)
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {r.passes}/{r.instances}  {status}")
        if r.first_counterexample:
            lines.append(f"  counterexample: {r.first_counterexample}")
    lines.append(f"overall: {'pass' if all_passed else 'FAIL'}")
    result = {"suites": [r.to_json() for r in results], "all_passed": all_passed}
    return {"suite": args.suite, "instances": args.instances}, result, lines, all_passed


def _cmd_fd_check(args) -> tuple:
    from .oracle import finite_difference

    if not (math.isfinite(args.h) and args.h > 0):
        raise UsageError(f"--h must be a positive finite step, got {args.h!r}")
    if not (math.isfinite(args.rtol) and args.rtol >= 0):
        raise UsageError(f"--rtol must be a nonnegative finite tolerance, got {args.rtol!r}")
    expr, at = _read_point(args, _finite_float)
    if not 0 <= args.wrt < len(at):
        raise UsageError(f"--wrt {args.wrt} out of range for point of length {len(at)}")
    exact = partial_derivative(expr, args.wrt, tuple(Fraction(v) for v in at))
    try:
        exact_float = float(exact)
        fd = finite_difference(expr, args.wrt, at, args.h)
        # A float product can overflow to inf without raising; fd, and with
        # it the gap, is then inf or nan.
        abs_gap = abs(exact_float - fd)
        if not math.isfinite(abs_gap):
            raise OverflowError
    except OverflowError:
        raise WeiljetError(
            "the derivative or its finite difference overflows binary64 "
            f"(largest float {sys.float_info.max!r})"
        ) from None
    rel_gap = abs_gap / max(1.0, abs(exact_float))
    ok = rel_gap <= args.rtol
    lines = [
        f"exact: {exact} ({exact_float!r})",
        f"finite difference (h={args.h!r}): {fd!r}",
        f"absolute gap: {abs_gap!r}",
        f"relative gap: {rel_gap!r}",
        f"within rtol {args.rtol!r}: {'yes' if ok else 'NO'}",
    ]
    inputs = {"expr": args.expr, "at": args.at, "wrt": args.wrt, "h": args.h, "rtol": args.rtol}
    result = {
        "exact": rational_to_json(exact),
        "exact_float": exact_float,
        "finite_difference": fd,
        "absolute_gap": abs_gap,
        "relative_gap": rel_gap,
        "within_tolerance": ok,
    }
    return inputs, result, lines, ok


def build_parser() -> _Parser:
    parser = _Parser(prog="weiljet", description="Exact jet-based differentiation")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    taylor = sub.add_parser("taylor", help="truncated expansion table")
    taylor.add_argument("--expr", required=True)
    taylor.add_argument("--at", required=True, help="comma-separated rationals ('' for arity 0)")
    taylor.add_argument("--orders", required=True, help="comma-separated naturals ('' for arity 0)")
    taylor.add_argument("--mode", choices=("box", "simplex"), default="box")

    derive = sub.add_parser("derive", help="one exact mixed derivative")
    derive.add_argument("--expr", required=True)
    derive.add_argument("--at", required=True)
    derive.add_argument("--alpha", required=True, help="comma-separated derivative orders per variable")

    check = sub.add_parser("check", help="run identity suites")
    check.add_argument("--suite", default="all", help="suite name or 'all'")
    check.add_argument("--instances", type=int, default=200)
    check.add_argument("--seed", type=int, help="defaults to WEILJET_SEED, then 0")

    fd = sub.add_parser("fd-check", help="compare against central finite differences")
    fd.add_argument("--expr", required=True)
    fd.add_argument("--at", required=True, help="comma-separated floats")
    fd.add_argument("--wrt", type=int, required=True)
    fd.add_argument("--h", type=float, default=1e-4)
    fd.add_argument("--rtol", type=float, default=1e-6)

    for command, handler in ((taylor, _cmd_taylor), (derive, _cmd_derive), (check, _cmd_check), (fd, _cmd_fd_check)):
        command.add_argument("--format", choices=("table", "json"), default="table")
        command.set_defaults(handler=handler, seed=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.seed = _default_seed(args.seed)
        inputs, result, lines, ok = args.handler(args)
    except UsageError as exc:
        print(f"weiljet: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WeiljetError as exc:
        print(f"weiljet: error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except ValueError as exc:
        # Every handler renders its rationals to text before returning; an
        # int over the interpreter's digit cap fails there, with this message.
        if "integer string conversion" not in str(exc):
            raise
        print(
            f"weiljet: error: a number in the result has more than {int_digit_limit()} digits, "
            "the interpreter's limit for integer-to-string conversion",
            file=sys.stderr,
        )
        return EXIT_FAILURE
    try:
        if args.format == "json":
            report = {"command": args.command, "inputs": inputs, "seed": args.seed, "result": result}
            print(json.dumps(report, indent=2, allow_nan=False))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # As in Python's "Note on SIGPIPE": stdout now goes to devnull, so the
        # flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("weiljet: error: standard output was closed before all output was written", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK if ok else EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())

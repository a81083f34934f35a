"""Exception hierarchy, and every size limit of the package: no other module
assigns one. Each limit's comment names the largest request it accepts and
what that cost (Python 3.11.7, 2 vCPUs)."""

import sys

# Live monomials per element (16 MiB of pointers; the simplex in n variables
# at degree n fits for n <= 11) and dense slots per view. ``Shape((1,) * 21)``
# holds 2^21: it, a constant and one sum took 0.10 s and +64 MB max RSS.
SLOT_BUDGET = 2**21
# Pairs in one multiplication plan, counted before it is built: 3^n on the
# square-free box in n variables, so 14 fit. Building the plan took 0.53 s
# and +71 MB max RSS for ``(1,) * 14`` (4,782,969 pairs), 0.26 s and +29 MB
# for ``(60, 60)``, and 0.54 s and +63 MB for ``Shape.simplex(9, 9)``. With
# SLOT_BUDGET it also bounds the ints of the tables a process keeps
# (``multiindex.keep``).
PAIR_BUDGET = 2**23
# Bits of the numerators and denominator ``**`` may square, over jets or
# rationals, and that a division's numerators may reach once scaled. A
# 2^16-bit int squares in 0.76 ms and takes a gcd in 4.6 ms (7 and 69 ms at
# 2^18); ``derive --expr "x0^100000000" --at 10/3 --alpha 1`` exits 2 after
# 0.12 s. The CLI prints no int over the 4,300-digit cap (14,284 bits) anyway.
# Sums and products of ``int``/``Fraction`` values in ``expression.evaluate``
# stay unchecked until a meter bounds a request's work: only library callers
# and the suites' own draws reach them, never a CLI flag, and ``_power``
# already checks a rational ``**``.
COEFF_BIT_BUDGET = 2**16
# Characters of one source: Linux's limit on one command-line argument, so
# every ``--expr`` fits; a longer source is refused untokenized. ``derive``
# of the 131,072-character ``x0+...+x0`` took 0.31 s through ``cli.main``.
MAX_SOURCE = 2**17
# Parentheses and unary minus signs open at once: the parser recurses four
# frames per parenthesis, so 200 need a recursion limit of 810 (default 1,000).
MAX_NESTING = 200
# Instances ``check`` runs per suite: ``check --suite all --instances 10000``
# took 28.5 s and 20 MB as a whole process.
MAX_INSTANCES = 10_000


class WeiljetError(Exception):
    """Base class for all errors raised by this package."""


class BudgetError(WeiljetError):
    """A request over one of the package's documented size budgets."""


def int_digit_limit() -> int:
    """The interpreter's cap on the decimal digits of an int converted from
    or to a string (``sys.get_int_max_str_digits``). Python 3.10 releases
    before 3.10.7 have neither the cap nor the function; 0 stands for that."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()

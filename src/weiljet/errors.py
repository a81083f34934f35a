"""Exception hierarchy, and the coefficient bit budget, shared across the
package."""

import sys

# Bits of the numerators and denominator ``**`` may square, over jets or
# rationals, and that a division's numerators may reach once scaled by
# |b0|^(L+1). A 2^16-bit int squares in 1.6 ms and takes a gcd in 5 ms; at
# 2^18 bits 14 ms and 92 ms, at 2^20 130 ms and 1.3 s (Python 3.11, 2 vCPUs).
# ``x0^100000000`` at 10/3 is refused after 0.23 s, 0.69 s at 2^18. The CLI
# prints no int over the interpreter's 4,300-digit cap (14,284 bits) anyway.
COEFF_BIT_BUDGET = 2**16


class WeiljetError(Exception):
    """Base class for all errors raised by this package."""


class BudgetError(WeiljetError):
    """A request over one of the package's documented size budgets."""


def int_digit_limit() -> int:
    """The interpreter's cap on the decimal digits of an int converted from
    or to a string (``sys.get_int_max_str_digits``). Python 3.10 releases
    before 3.10.7 have neither the cap nor the function; 0 stands for that."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()

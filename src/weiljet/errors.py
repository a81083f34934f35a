"""Exception hierarchy shared across the package."""

import sys


class WeiljetError(Exception):
    """Base class for all errors raised by this package."""


class BudgetError(WeiljetError):
    """A request over one of the package's documented size budgets."""


def int_digit_limit() -> int:
    """The interpreter's cap on the decimal digits of an int converted from
    or to a string (``sys.get_int_max_str_digits``). Python 3.10 releases
    before 3.10.7 have neither the cap nor the function; 0 stands for that."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()

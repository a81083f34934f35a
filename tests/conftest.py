import sys
import time
from contextlib import contextmanager

import pytest


@pytest.fixture
def within():
    """``with within(seconds):`` fails the test if the block takes longer.
    Under a tracer (``sys.settrace``, as ``scripts/unexecuted.py`` runs the
    suite) every line runs several times slower, so there the block still
    runs but its time is not held to the bound; untraced runs hold it."""

    @contextmanager
    def bound(seconds):
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < seconds or sys.gettrace() is not None, f"took {elapsed:.2f} s, over {seconds} s"

    return bound


@pytest.fixture
def no_tables():
    """``multiindex.TABLES`` emptied, so that the test builds every table it
    asks for; what it builds stays kept after it."""
    from weiljet import multiindex

    multiindex.TABLES.clear()
    multiindex._held = 0
    return multiindex.TABLES

import math
import sys

import pytest

#: The interpreter's default int<->str digit limit.
DEFAULT_INT_MAX_STR_DIGITS = 4300


@pytest.fixture
def default_int_limit():
    """Run the test at the default int<->str limit, whatever ran before it,
    and restore the limit afterwards."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DEFAULT_INT_MAX_STR_DIGITS)
    try:
        yield DEFAULT_INT_MAX_STR_DIGITS
    finally:
        sys.set_int_max_str_digits(old)


@pytest.fixture
def gcd_calls(monkeypatch):
    """The argument tuples of every ``gcd`` call, made through ``math.gcd``
    (as ``fractions`` makes its own) or a ``gcd`` bound in a library module."""
    calls = []
    real = math.gcd

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(math, "gcd", counting)
    for name, module in list(sys.modules.items()):
        if name.startswith("weakapprox") and getattr(module, "gcd", None) is real:
            monkeypatch.setattr(module, "gcd", counting)
    return calls

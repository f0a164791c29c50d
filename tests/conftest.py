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

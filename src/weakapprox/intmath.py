"""Big-integer and exact-rational arithmetic helpers.

Everything downstream works on arbitrary-precision integers and
``fractions.Fraction``.  Denominators in the growth constructions reach
tens of thousands of digits, so logarithms are never taken by converting
to float directly: ``log_int`` splits off the bit length and converts
only the top 64 bits.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

#: Bits of the mantissa used when taking logs of huge integers.
_LOG_MANTISSA_BITS = 64

_LN2 = math.log(2.0)


def log_int(n: int) -> float:
    """Natural log of a positive integer of any size.

    Uses ``bit_length`` plus a 64-bit mantissa, so the result is accurate
    to double precision even when ``n`` has millions of digits.
    """
    if n <= 0:
        raise ValueError("log_int requires a positive integer")
    nbits = n.bit_length()
    if nbits <= _LOG_MANTISSA_BITS:
        return math.log(n)
    shift = nbits - _LOG_MANTISSA_BITS
    return math.log(n >> shift) + shift * _LN2


def log_fraction(x: Fraction) -> float:
    """Natural log of a positive rational, safe for huge numerators/denominators."""
    if x.numerator <= 0:
        raise ValueError("log_fraction requires a positive rational")
    return log_int(x.numerator) - log_int(x.denominator)


def nth_root_floor(n: int, k: int) -> int:
    """floor(n**(1/k)) for n >= 0, k >= 1, by seeded integer Newton iteration.

    The seed comes from ``log_int`` (accurate to ~1e-15 relative), so only a
    couple of full-precision correction steps are needed even for inputs
    with 10^5 digits.
    """
    if k <= 0:
        raise ValueError("root order must be positive")
    if n < 0:
        raise ValueError("nth_root_floor requires n >= 0")
    if n in (0, 1) or k == 1:
        return n
    if k >= n.bit_length():
        return 1
    if k == 2:
        return math.isqrt(n)

    # Seed slightly above the true root so Newton descends monotonically.
    lg = log_int(n) / k
    ebits = int(lg / _LN2)
    frac = lg - ebits * _LN2
    x = int(math.exp(frac) * (1 << 64) * 1.0000001) << max(ebits - 64, 0)
    if ebits < 64:
        x >>= 64 - ebits
    x = max(x, 2)

    while True:
        t = ((k - 1) * x + n // x ** (k - 1)) // k
        if t >= x:
            break
        x = t
    # The loop can stop one off; pin down the exact floor.
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def round_root(n: int, num: int, den: int) -> int:
    """Nearest integer to n**(num/den) for n >= 1 and num, den >= 1, ties up."""
    return round_div_root(n, num, den, 0, 1)


def floor_div_root(base: int, num: int, den: int, c: int, s: int) -> int:
    """floor((base**(num/den) - c) / s) for base, s >= 1.

    Exact with r = floor(R), R = base**(num/den): m = (r - c) // s gives
    c + m*s <= r <= R, and the integer c + (m+1)*s exceeds r, so it is at
    least r + 1 > R.
    """
    if base < 1 or s < 1 or num < 1 or den < 1:
        raise ValueError("root helpers require positive base, s, num, den")
    return (nth_root_floor(base**num, den) - c) // s


def round_div_root(base: int, num: int, den: int, c: int, s: int) -> int:
    """Nearest integer to (base**(num/den) - c) / s, exact, ties up.

    With m the floor (``floor_div_root``), the answer is m + 1 iff
    base**(num/den) >= c + (m + 1/2)*s, i.e. iff v = 2c + (2m+1)s is at
    most 0 or v**den <= 2**den * base**num; all comparisons are integer.
    """
    if base < 1 or s < 1 or num < 1 or den < 1:
        raise ValueError("root helpers require positive base, s, num, den")
    power = base**num
    m = (nth_root_floor(power, den) - c) // s
    v = 2 * c + (2 * m + 1) * s
    if v <= 0 or v**den <= power << den:
        return m + 1
    return m


def reduced_fraction(num: int, den: int) -> Fraction:
    """``Fraction(num, den)`` for a pair already in lowest terms with den > 0.

    The constructor would take gcd(num, den) to normalise, which costs tens
    of milliseconds when both terms have 10^5 digits; callers that know the
    pair is coprime skip it here.  The object is built the way the standard
    library's own coprime constructor builds it.
    """
    x = object.__new__(Fraction)
    x._numerator = num
    x._denominator = den
    return x


def dist_to_int(x: Fraction) -> Fraction:
    """Distance from a rational to the nearest integer, ||x||, in [0, 1/2]."""
    r = x - math.floor(x)
    return min(r, 1 - r)


def digits_of(n: int) -> int:
    """Approximate decimal digit count of |n| (exact enough for guards)."""
    if n == 0:
        return 1
    return int(abs(n).bit_length() * 0.30103) + 1


def _ensure_str_digits(n_digits: int) -> None:
    """Grow the interpreter's int<->str conversion limit when needed.

    Artifacts serialize arbitrary-precision integers as decimal strings, so
    the default 4300-digit guard must stretch with the data.
    """
    try:
        cur = sys.get_int_max_str_digits()
    except AttributeError:  # pragma: no cover
        return
    if cur == 0:
        return
    need = n_digits + 16
    if cur < need:
        sys.set_int_max_str_digits(need)


def decimal_str(n: int) -> str:
    """str(n) for integers of any size."""
    _ensure_str_digits(digits_of(n))
    return str(n)


def parse_decimal(text: str) -> int:
    """int(text) for decimal strings of any length."""
    _ensure_str_digits(len(text))
    return int(text)


def fraction_str(x: Fraction) -> str:
    """'num/den' with arbitrary-precision decimal parts."""
    return f"{decimal_str(x.numerator)}/{decimal_str(x.denominator)}"


def parse_fraction(text: str) -> Fraction:
    """Parse 'num/den' or a plain integer string of any length."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return Fraction(parse_decimal(num), parse_decimal(den))
    return Fraction(parse_decimal(text))

"""Big-integer and exact-rational arithmetic helpers.

Everything downstream works on arbitrary-precision integers and
``fractions.Fraction``.  Denominators in the growth constructions reach
hundreds of thousands of digits, so no kernel here is quadratic in them:

- Logarithms are never taken by converting to float directly: ``log_int``
  splits off the bit length and converts only the top 64 bits.
  ``log_product_ratio`` (log of (x*y)/(u*w), with ``log_ratio`` its
  one-factor case) depends only on the value, so no caller reduces a
  fraction or forms a product to take its log.  It brackets the quotient on the
  64-bit heads of its factors, and takes the product and one short
  division (Brent & Zimmermann, *Modern Computer Arithmetic*, 1.4) only
  when the bracket holds a rounding boundary of the double.  Its
  docstring proves the result bit-identical to the exact evaluation.
- ``ratio_less`` orders two ratios on their bit lengths, then a near tie
  of long products on the 64-bit heads of its four factors, and
  multiplies only when those heads leave the order open.
- ``nth_root_floor`` takes the root that ``round_div_root``'s bracket uses,
  found by Newton's method at the answer's precision (ibid., 1.5), and
  settles it with exact powers of the answer: no full-size division runs.
  Its docstring proves the result exact.
- ``round_div_root`` works at the precision of its answer (ibid., 1.5 and
  4.2): it bounds base**num from the base's head with directed rounding,
  finds a root near it by Newton's method, and certifies a bracket around
  the root with integer comparisons, all on numbers of about the answer's
  bits plus 64 guard bits, however long base**num is.  Only the rounding
  of the bracket divides a number of the root's size by s, and the exact
  root of the full power runs only when the bracket holds a rounding
  boundary.  Its docstring proves the bracket and the exact path.
- ``floor_divmod`` is ``divmod`` in time below quadratic: a quotient of
  more than ``_DIV_LIMIT`` bits by a divisor of as many is found by
  recursive 2n/1n and 3n/2n steps (Burnikel & Ziegler 1998; ibid., 1.4.3),
  the algorithm of CPython 3.12's ``Lib/_pylong.py``, which 3.12+ runs
  for ``//`` too.  Shorter quotients and divisors take the built-in.
- ``decimal_str`` and ``parse_decimal`` convert by divide and conquer
  (ibid., 1.7): ``decimal_str`` prints ``to_decimal``, which recombines
  binary parts in the C ``decimal`` module in a context that raises on
  any rounding, and ``parse_decimal`` recombines decimal halves with int
  multiplies.  ``to_decimal`` splits only at the widths ``_PLAIN_BITS`` 2^k,
  so every conversion in a process reads its powers of 2 from one shared
  table of constants, each entry the square of the one below.

No function here reads or changes the interpreter-wide int<->str digit
limit; only pieces below the default limit go through plain ``str``/``int``.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from functools import cache

#: Bits of each factor's head in ``log_int`` and in the screens of
#: ``ratio_less`` and ``log_product_ratio``.
_HEAD_BITS = 64

#: Products up to this many bits ``ratio_less`` multiplies without a screen.
_SCREEN_BITS = 256

#: ``round_div_root`` brackets R in units of 2^t <= 2^-_GUARD_BITS s.
_GUARD_BITS = 64

#: Half-width of that bracket in units of 2^t.  The candidate root is
#: within a unit or two, and each power bound within a few units.
_BRACKET_UNITS = 1 << 16

#: Shortest power base**num (in bits) whose root ``round_div_root`` brackets:
#: below about this size the exact root is the cheaper one.
_BRACKET_MIN_BITS = 4000

_LN2 = math.log(2.0)

#: Largest integer (in bits) that ``decimal_str`` converts with plain ``str``.
_PLAIN_BITS = 10_000

#: Longest text that ``parse_decimal`` converts with plain ``int``.
_PLAIN_DIGITS = 4_300

#: Quotients and divisors of at most this many bits ``floor_divmod`` leaves
#: to the built-in ``divmod``, as CPython 3.12's ``Lib/_pylong.py`` does.
_DIV_LIMIT = 4000

#: Exact integer arithmetic in ``decimal``: any rounding raises.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])


def log_int(n: int) -> float:
    """Natural log of a positive integer of any size.

    Uses ``bit_length`` plus a 64-bit mantissa, so the result is accurate
    to double precision even when ``n`` has millions of digits.
    """
    if n <= 0:
        raise ValueError("log_int requires a positive integer")
    h, e = _head(n)
    return math.log(h) + e * _LN2


def log_ratio(num: int, den: int) -> float:
    """Natural log of num/den for positive integers of any size: the
    one-factor case of ``log_product_ratio``."""
    return log_product_ratio(num, 1, den, 1)


def log_product_ratio(x: int, y: int, u: int, w: int) -> float:
    """Natural log of (x*y)/(u*w) for positive integers of any size.

    The result is a function of the value V = x*y/(u*w) alone, so
    (a*g, b, c*g, d) and (a, b, c, d) give the same bits.  It is defined by
    the exact evaluation ``_log_exact(x*y, u*w)``: a ratio below 1 is the
    negated log of its inverse; otherwise, with e = floor(log2 V), it is
    log1p(RN(V - 1)) for e = 0, at full relative precision near 1, else
    log(RN(V / 2^e)) + e ln 2, RN being the correctly rounded double.

    The screen finds the same double from the factors' ``_HEAD_BITS``-bit
    heads.  With n_h = n >> k_n and k_n = max(bl(n) - _HEAD_BITS, 0),
    n_h 2^k_n <= n <= n_+ 2^k_n for n_+ = n_h + [k_n > 0] and each factor
    n.  So V lies in [a_lo / b_hi, a_hi / b_lo] 2^s with
    s = k_x + k_y - k_u - k_w, a_lo = x_h y_h, a_hi = x_+ y_+,
    b_lo = u_h w_h and b_hi = u_+ w_+.  ``_log_bracket`` proves the answer
    common to that whole bracket, or finds a rounding boundary or a power
    of 2 inside it.  The bracket's relative width is about 4 2^-63, so that
    happens to about one call in 500 (more often for V within a few
    percent of 1, where RN(V - 1) has finer steps), and only then are the
    products taken for ``_log_exact``.
    """
    if x <= 0 or y <= 0 or u <= 0 or w <= 0:
        raise ValueError("log_product_ratio requires positive integers")
    (xh, kx), (yh, ky), (uh, ku), (wh, kw) = _head(x), _head(y), _head(u), _head(w)
    got = _log_bracket(xh * yh, (xh + (kx > 0)) * (yh + (ky > 0)),
                       uh * wh, (uh + (ku > 0)) * (wh + (kw > 0)), kx + ky - ku - kw)
    return _log_exact(x * y, u * w) if got is None else got


def _log_exact(num: int, den: int) -> float:
    """The definition of ``log_product_ratio`` on V = num/den, with one
    correctly rounded int true division of a short quotient."""
    if num < den:
        return -_log_exact(den, num)
    e = num.bit_length() - den.bit_length()  # 2**(e-1) < num/den < 2**(e+1)
    if num < den << e:
        e -= 1
    if e == 0:
        return math.log1p((num - den) / den)
    return math.log(num / (den << e)) + e * _LN2


def _log_bracket(a_lo: int, a_hi: int, b_lo: int, b_hi: int, s: int) -> float | None:
    """``_log_exact`` of every V in [a_lo/b_hi, a_hi/b_lo] 2^s if one double
    fits them all, else None; a_lo <= a_hi and b_lo <= b_hi are positive.

    Write w = V 2^-s and r = RN(a_lo/b_hi) = RN(a_hi/b_lo).  Scaling by a
    power of 2 commutes with RN while the result is a normal double, as
    every value here is (the heads have at most 130 bits).  If r is not a
    power of 2, no power of 2 lies in w's bracket, since it would round to
    itself and so equal r; then floor(log2 w) = j - 1 throughout, for
    r = m 2^j with 1/2 < m < 1, and e = floor(log2 V) = j - 1 + s.
    For e >= 1, RN(V / 2^e) = RN(w / 2^(j-1)) = 2m.  For e = 0,
    RN(V - 1) is taken at both ends, as r does not fix it near 1.  For
    e < 0, every V is below 1, and the answer is the negated one of the
    inverse bracket; the bit lengths show most such V at once.
    """
    sign = 1.0
    if a_hi.bit_length() + s < b_lo.bit_length():  # V < 1
        sign, a_lo, a_hi, b_lo, b_hi, s = -1.0, b_lo, b_hi, a_lo, a_hi, -s
    r = a_lo / b_hi
    if r != a_hi / b_lo:
        return None
    m, j = math.frexp(r)
    e = j - 1 + s
    if m == 0.5:
        return None
    if e > 0:
        return sign * (math.log(2.0 * m) + e * _LN2)
    if e < 0:  # V < 1, which the bit lengths left open; sign is 1.0 here
        inverse = _log_bracket(b_lo, b_hi, a_lo, a_hi, -s)
        return None if inverse is None else -inverse
    lo = _minus_one(a_lo, b_hi, s)
    return sign * math.log1p(lo) if lo == _minus_one(a_hi, b_lo, s) else None


def _minus_one(a: int, b: int, s: int) -> float:
    """RN(a 2^s / b - 1), by one correctly rounded int true division."""
    if s < 0:
        b <<= -s
    else:
        a <<= s
    return (a - b) / b


def ratio_less(a: int, b: int, c: int, d: int) -> bool:
    """a/b < c/d for a, c >= 0 and b, d > 0; cross-multiplies only on a near tie.

    A zero numerator decides at once: the answer is a < c.  Otherwise
    2^(k-1) <= n < 2^k for each k-bit factor, so with bl the bit length
    2^(L-2) <= a d < 2^L for L = bl(a) + bl(d), and likewise c b for
    R = bl(c) + bl(b).  When L and R differ by 2 or more, the larger sum
    belongs to the larger product; only a near tie goes on.

    A near tie of products above ``_SCREEN_BITS`` bits is screened on the
    ``_HEAD_BITS``-bit heads of its factors.  For each factor x, with
    e = max(bl(x) - _HEAD_BITS, 0) and x_h = x >> e,
    x_h 2^e <= x < (x_h + 1) 2^e, so a d lies in [lo1, hi1) with
    lo1 = a_h d_h 2^(ea+ed) and hi1 = (a_h+1)(d_h+1) 2^(ea+ed), and c b in
    [lo2, hi2) likewise.  hi1 <= lo2 proves a d < c b, and hi2 <= lo1
    proves c b < a d; only overlapping brackets multiply.  An exact tie
    a d = c b lies in both brackets, so they overlap and it multiplies,
    unless a ratio is 1 (a = b or c = d): then the other one's terms decide
    it.  Two unit ratios tie in the profile of [[1, theta], [eta, 1]] with
    |theta|, |eta| < 1, as every ``verify`` T4 lattice is, at sup-norm 1.
    """
    if not a or not c:
        return a < c
    la, lb, lc, ld = a.bit_length(), b.bit_length(), c.bit_length(), d.bit_length()
    left = la + ld
    gap = lc + lb - left  # R - L
    if gap > 1 or gap < -1:
        return gap > 1
    if left > _SCREEN_BITS:
        # ``_head`` of each factor from the bit lengths at hand, inlined: on
        # near ties of a few thousand bits four calls cost more than the
        # two products the screen saves.
        ea = la - _HEAD_BITS if la > _HEAD_BITS else 0
        eb = lb - _HEAD_BITS if lb > _HEAD_BITS else 0
        ec = lc - _HEAD_BITS if lc > _HEAD_BITS else 0
        ed = ld - _HEAD_BITS if ld > _HEAD_BITS else 0
        ah, bh, ch, dh = a >> ea, b >> eb, c >> ec, d >> ed
        shift = ea + ed - ec - eb
        lo1, hi1 = ah * dh, (ah + 1) * (dh + 1)
        lo2, hi2 = ch * bh, (ch + 1) * (bh + 1)
        if shift >= 0:
            lo1, hi1 = lo1 << shift, hi1 << shift
        else:
            lo2, hi2 = lo2 << -shift, hi2 << -shift
        if hi1 <= lo2:
            return True
        if hi2 <= lo1:
            return False
    if a == b or c == d:
        return d < c if a == b else a < b
    return a * d < c * b


def _head(x: int) -> tuple[int, int]:
    """(x >> e, e) with e = max(bl(x) - _HEAD_BITS, 0): the top bits of x."""
    e = max(x.bit_length() - _HEAD_BITS, 0)
    return x >> e, e


def nth_root_floor(n: int, k: int) -> int:
    """floor(n**(1/k)) for n >= 0, k >= 1, exactly.

    For k >= 3 the candidate is ``_root_near``'s root at the answer's
    precision (Brent & Zimmermann, 1.5), raised to 1 if it is below, and
    exact powers settle it: x falls while x**k > n and then rises while
    (x + 1)**k <= n.  As 1**k <= n the first loop stops by x = 1, and the
    second then stops at the largest x with x**k <= n, the floor.  A
    candidate that is the floor costs two powers, and each unit it is off
    one more.
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
    x = max(_root_near(n, 0, k, 0), 1)
    while x**k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def round_root(n: int, num: int, den: int) -> int:
    """Nearest integer to n**(num/den) for n >= 1 and num, den >= 1, ties up."""
    return round_div_root(n, num, den, 0, 1)


def round_div_root(base: int, num: int, den: int, c: int, s: int) -> int:
    """Nearest integer to (base**(num/den) - c) / s, exact, ties up.

    With R = base**(num/den) the answer is f(R) for
    f(x) = floor((2x - 2c + s) / (2s)), which never falls as x grows.

    Bracketed path, tried first.  It counts in units of 2^t for
    t = bl(s) - 1 - _GUARD_BITS, bl being the bit length, so steps 1-3 work
    on numbers of about w = ceil(bl(base) num/den) - t bits, those of
    R / 2^t, and their products, however long base**num is.  It runs when
    t > 0 and base**num has at least ``_BRACKET_MIN_BITS`` bits, as a
    shorter power is cheaper to take exactly.  With t <= 0 (every
    ``round_root``, as s = 1) R itself has about the answer's bits, and
    for den = 2 the exact path's ``math.isqrt`` is the cheaper root.

    1. ``_power_bounds`` gives lo 2^e <= P = base**num <= hi 2^e with
       lo, hi of about w bits.
    2. ``_root_near`` gives an integer z near (lo 2^e)^(1/den) / 2^t.
       Nothing is assumed of it: step 3 checks it.
    3. Certify.  With d = ``_BRACKET_UNITS`` and z > d, ``_power_bounds``
       gives (z - d)**den <= a 2^ea and b 2^eb <= (z + d)**den.  If
       a 2^(ea + den t) <= lo 2^e and hi 2^e <= b 2^(eb + den t), then
       ((z - d) 2^t)**den <= lo 2^e <= P <= hi 2^e <= ((z + d) 2^t)**den,
       and as x -> x**den increases on x >= 0, taking den-th roots gives
       L = (z - d) 2^t <= R <= U = (z + d) 2^t.  Each check compares two
       integers after one shift.
    4. Round.  As f never falls, f(L) = f(U) makes it the answer.  With
       (m, rho) = divmod(2L - 2c + s, 2s), 2U - 2c + s = 2sm + rho + 4d 2^t,
       so f(U) = m iff rho + 4d 2^t < 2s.  As 2^t <= 2^-_GUARD_BITS s, only
       an R within 4d 2^t <= 2^-46 s of a rounding boundary fails this.

    Exact path, when a check of 3 or 4 fails or the bracketed path does not
    run: m = (r - c) // s with r = floor(R) is the floor of (R - c) / s:
    c + m*s <= r <= R, and the integer c + (m+1)*s exceeds r, so it is at
    least r + 1 > R.  The answer is m + 1 iff R >= c + (m + 1/2)*s, i.e.
    iff v = 2c + (2m+1)s is at most 0 or v**den <= 2**den * base**num; all
    comparisons are integer.
    """
    if base < 1 or s < 1 or num < 1 or den < 1:
        raise ValueError("root helpers require positive base, s, num, den")
    t = s.bit_length() - 1 - _GUARD_BITS
    if t > 0 and base.bit_length() * num >= _BRACKET_MIN_BITS:
        m = _round_bracketed(base, num, den, c, s, t)
        if m is not None:
            return m
    return _round_exact(base, num, den, c, s)


def _round_bracketed(base: int, num: int, den: int, c: int, s: int, t: int) -> int | None:
    """Steps 1-4 of ``round_div_root``'s bracketed path: its answer, or None
    when a check fails."""
    w = -(-base.bit_length() * num // den) - t
    if w < 1:  # R < 2^t
        return None
    lo, hi, e = _power_bounds(base, num, w)
    z, d = _root_near(lo, e, den, t), _BRACKET_UNITS
    if z <= d:
        return None
    _, a, ea = _power_bounds(z - d, den, w)
    b, _, eb = _power_bounds(z + d, den, w)
    if not (_le_scaled(a, ea + den * t, lo, e) and _le_scaled(hi, e, b, eb + den * t)):
        return None
    m, rho = floor_divmod(((z - d) << (t + 1)) - 2 * c + s, 2 * s)
    return m if rho + (d << (t + 2)) < 2 * s else None


def _round_exact(base: int, num: int, den: int, c: int, s: int) -> int:
    """``round_div_root``'s exact path, on the full power base**num."""
    power = base**num
    m = floor_divmod(nth_root_floor(power, den) - c, s)[0]
    v = 2 * c + (2 * m + 1) * s
    if v <= 0 or v**den <= power << den:
        return m + 1
    return m


def _power_bounds(x: int, n: int, w: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo 2^e <= x**n <= hi 2^e for x, n >= 1; lo has at
    most w bits, and hi - lo is small.

    Ball arithmetic with directed rounding: each value v is held as
    (m, u, e) with m 2^e <= v <= (m + u) 2^e.  x starts as its w-bit head,
    (x >> k, [k > 0], k) for k = max(bl(x) - w, 0), since x - (x >> k) 2^k
    < 2^k.  Binary powering multiplies two balls: v1 v2 lies in
    [p, p + m1 u2 + u1 m2 + u1 u2] 2^(e1 + e2) with p = m1 m2, and the ball
    keeps floor(p / 2^j) below and ceil((p + err) / 2^j) above, for
    j = max(bl(p) - w, 0).  The radius u grows by a few units per product,
    so only p is a long product.
    """
    k = max(x.bit_length() - w, 0)
    head = (x >> k, int(k > 0), k)
    ball = head
    for bit in bin(n)[3:]:
        ball = _ball_product(ball, ball, w)
        if bit == "1":
            ball = _ball_product(ball, head, w)
    m, u, e = ball
    return m, m + u, e


def _ball_product(a: tuple[int, int, int], b: tuple[int, int, int], w: int) -> tuple[int, int, int]:
    """The product of two balls of ``_power_bounds``, cut to w bits."""
    (m1, u1, e1), (m2, u2, e2) = a, b
    p = m1 * m2
    j = max(p.bit_length() - w, 0)
    m = p >> j
    return m, -(-(p + m1 * u2 + u1 * m2 + u1 * u2) >> j) - m, e1 + e2 + j


def _le_scaled(a: int, x: int, b: int, y: int) -> bool:
    """a 2^x <= b 2^y for integers a, b >= 0."""
    return a << (x - y) <= b if x >= y else a <= b << (y - x)


def _shift(x: int, k: int) -> int:
    """floor(x 2^k) for any integer k."""
    return x << k if k >= 0 else x >> -k


def _root_near(m: int, e: int, den: int, t: int) -> int:
    """An integer near (m 2^e)^(1/den) / 2^t for m >= 1.

    No error bound is claimed: ``round_div_root`` certifies the result on
    its bracket, and ``nth_root_floor`` (e = t = 0) corrects it with exact
    powers.  For den <= 2 it is one integer root (``math.isqrt``) of about
    twice the result's bits.  Otherwise precision doubles (Brent &
    Zimmermann, 1.5, 4.2).  With w = ceil(bl(m 2^e) / den) - t, the
    result's bits or one more, a double gives it for w <= 48: the root of
    m's 53-bit head times 2^(r/den) for the remainder r < den of its
    exponent, so no double passes 2^54 however large den is.  A longer
    result takes the one of p = w/2 + 16 bits, y, and one Newton step on
    x = y 2^(w-p), x + (P - x**den) / (den x**(den-1)) for
    P = m 2^(e - den t).  The residual P - x**den has about p bits, so the
    step divides a 2p-bit number by a p-bit one, with x**den taken to
    w + 16 bits and x**(den-1) to p bits.
    """
    if den <= 2:
        return nth_root_floor(_shift(m, e - den * t), den)
    w = -(-(m.bit_length() + e) // den) - t
    if w <= 48:
        j = max(m.bit_length() - 53, 0)
        q, r = divmod(e + j - den * t, den)
        return int(math.ldexp(float(m >> j) ** (1 / den) * 2.0 ** (r / den), q))
    p = w // 2 + 16
    y = _root_near(m, e, den, t + w - p)
    a, _, g = _power_bounds(y, den, w + 16)
    b, _, h = _power_bounds(y, den - 1, p)
    g += den * (w - p)
    residual = _shift(m, e - den * t - g) - a
    return (y << (w - p)) + floor_divmod(_shift(residual, g - h - (den - 1) * (w - p)), den * b)[0]


def floor_divmod(a: int, b: int) -> tuple[int, int]:
    """``divmod(a, b)`` for any integers, b != 0, in time below quadratic.

    A quotient or a divisor of at most ``_DIV_LIMIT`` bits takes the
    built-in, whose cost is the product of the two lengths.  Otherwise,
    for a >= 0 < b and n = bl(b), a is read as digits in base 2^n from the
    top, and each digit costs one 2n/1n division of the remainder so far,
    shifted up by one digit, by b (``_div2n1n``).  Other signs reduce to
    that one: for b < 0, a = q b + r iff -a = q (-b) + (-r); for a < 0 < b,
    ~a = -a - 1 = q b + r gives a = (~q) b + (b + ~r), and 0 <= b + ~r < b.
    """
    if a.bit_length() - b.bit_length() <= _DIV_LIMIT or b.bit_length() <= _DIV_LIMIT:
        return divmod(a, b)
    if b < 0:
        q, r = floor_divmod(-a, -b)
        return q, -r
    if a < 0:
        q, r = floor_divmod(~a, b)
        return ~q, b + ~r
    n = b.bit_length()
    return _div_digits(0, a, -(-a.bit_length() // n), b, n)


def _div_digits(r: int, a: int, k: int, b: int, n: int) -> tuple[int, int]:
    """divmod(r 2^(kn) + a, b) for b of n bits, 0 <= r < b and 0 <= a < 2^(kn).

    For k > 1 the k digits of a split at s = floor(k/2) n bits, so that a
    level of the recursion shifts each bit once: (q1, r1) divides
    r 2^((k - k/2) n) + (a >> s), then (q2, r2) divides r1 2^s + (a mod 2^s),
    and q = q1 2^s + q2, with q2 < 2^s as r1 < b.
    """
    if k == 1:
        return _div2n1n(r << n | a, b, n)
    s = k // 2 * n
    q1, r = _div_digits(r, a >> s, k - k // 2, b, n)
    q2, r = _div_digits(r, a & ((1 << s) - 1), k // 2, b, n)
    return q1 << s | q2, r


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of n bits and 0 <= a < 2^n b (Burnikel & Ziegler).

    A quotient of at most ``_DIV_LIMIT`` bits takes the built-in.  Else n
    is made even, if it is odd, by doubling a and b (which doubles only the
    remainder), and with h = n/2 and b = b1 2^h + b2, the quotient's two
    digits in base 2^h are two ``_div3n2n`` steps, on a's top 3h bits and
    then on the remainder and a's last h bits.
    """
    if a.bit_length() - n <= _DIV_LIMIT:
        return divmod(a, b)
    pad = n & 1
    if pad:
        a, b, n = a << 1, b << 1, n + 1
    h = n >> 1
    mask = (1 << h) - 1
    b1, b2 = b >> h, b & mask
    q1, r = _div3n2n(a >> n, (a >> h) & mask, b, b1, b2, h)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, h)
    return q1 << h | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, h: int) -> tuple[int, int]:
    """divmod(a12 2^h + a3, b) for b = b1 2^h + b2 of 2h bits, 0 <= a12 < b
    and 0 <= a3 < 2^h.

    As a12 < b, a12's top part a12 >> h is at most b1.  The estimate is
    2^h - 1 when it equals b1, else floor(a12 / b1) by ``_div2n1n``; with
    b's top bit set it is at most 2 above the quotient (Burnikel & Ziegler,
    Lemma 2), and the loop steps it down while the remainder is negative.
    """
    if a12 >> h == b1:
        q, r = (1 << h) - 1, a12 - (b1 << h) + b1
    else:
        q, r = _div2n1n(a12, b1, h)
    r = (r << h | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


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


def digits_of(n: int) -> int:
    """Approximate decimal digit count of |n| (exact enough for guards)."""
    if n == 0:
        return 1
    return int(abs(n).bit_length() * 0.30103) + 1


def decimal_str(n: int) -> str:
    """str(n) for integers of any size, in time below quadratic.

    Up to ``_PLAIN_BITS`` bits (about 3,000 digits, under the interpreter's
    default 4,300-digit int<->str limit) this is ``str(n)``; larger |n| is
    printed from ``to_decimal``.  No global limit or context is read or
    changed.
    """
    return str(n) if n.bit_length() <= _PLAIN_BITS else str(to_decimal(n))


def to_decimal(n: int) -> Decimal:
    """The exact ``Decimal`` of any integer, in time below quadratic.

    Up to ``_PLAIN_BITS`` bits this is ``Decimal(n)``.  Larger |n| is split
    at 2^w for the largest w = ``_PLAIN_BITS`` 2^k below its bit length,
    both parts are converted recursively, and they are recombined as
    hi * 2^w + lo in the C ``decimal`` module, whose multiplication is
    subquadratic, with 2^w from the cached ``_pow2(k)``.  The
    context has ``MAX_PREC`` digits and traps ``Inexact`` and ``Rounded``,
    so a rounding would raise instead of giving wrong digits.
    """
    if n < 0:
        return _EXACT.minus(to_decimal(-n))
    bits = n.bit_length()
    if bits <= _PLAIN_BITS:
        return Decimal(n)
    k = ((bits - 1) // _PLAIN_BITS).bit_length() - 1  # _PLAIN_BITS 2^k < bits
    w = _PLAIN_BITS << k
    hi = n >> w
    return _EXACT.add(_EXACT.multiply(to_decimal(hi), _pow2(k)), to_decimal(n - (hi << w)))


@cache
def _pow2(k: int) -> Decimal:
    """2^(_PLAIN_BITS 2^k) as an exact ``Decimal``, a power at which
    ``to_decimal`` splits: made on first use as the square of entry k - 1
    and shared by every conversion in the process."""
    if k == 0:
        return _EXACT.power(2, _PLAIN_BITS)
    half = _pow2(k - 1)
    return _EXACT.multiply(half, half)


def scale_decimal(x: Decimal, num: int, den: int) -> Decimal:
    """x num / den for an integral ``Decimal`` x and integers num, den > 0
    such that den divides x num, exactly; any rounding raises.  For short
    num and den both steps take time linear in x's digits."""
    return _EXACT.divide(_EXACT.multiply(x, num), den)


def parse_decimal(text: str) -> int:
    """int(text) for decimal strings of any length, in time below quadratic.

    Up to ``_PLAIN_DIGITS`` characters (the interpreter's default int<->str
    limit) this is ``int(text)``.  A longer text may have surrounding
    whitespace and one sign, like ``int``, but otherwise only ASCII digits
    (no underscores); anything else raises ``ValueError``.  Its digits are
    split in half, both halves parsed recursively and rebuilt as
    hi * 10**len(lo) + lo with int multiplies (Karatsuba).  No global limit
    is read or changed.
    """
    if len(text) <= _PLAIN_DIGITS:
        return int(text)
    digits = text.strip()
    negative = digits[:1] == "-"
    if digits[:1] in ("-", "+"):
        digits = digits[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid decimal literal of {len(text)} characters")
    n = _from_digits(digits, {})
    return -n if negative else n


def _from_digits(digits: str, pow10: dict[int, int]) -> int:
    """int of a nonempty ASCII digit string by splitting it in half;
    ``pow10`` holds the powers of 10 made so far, for one conversion only."""
    if len(digits) <= _PLAIN_DIGITS:
        return int(digits)
    mid = len(digits) // 2
    w = len(digits) - mid
    if w not in pow10:
        pow10[w] = 10**w
    return _from_digits(digits[:mid], pow10) * pow10[w] + _from_digits(digits[mid:], pow10)


def fraction_str(x: Fraction) -> str:
    """'num/den' with arbitrary-precision decimal parts."""
    return f"{decimal_str(x.numerator)}/{decimal_str(x.denominator)}"


def _rat_str(x) -> str:
    """str(x) for error messages, with ints and Fractions of any size."""
    if isinstance(x, Fraction):
        return fraction_str(x) if x.denominator != 1 else decimal_str(x.numerator)
    return decimal_str(x) if isinstance(x, int) else str(x)

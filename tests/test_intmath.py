import contextlib
import decimal
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakapprox import construct, intmath
from weakapprox.cf import PartialQuotients
from weakapprox.intmath import (
    decimal_str,
    digits_of,
    floor_divmod,
    fraction_str,
    log_int,
    log_product_ratio,
    log_ratio,
    nth_root_floor,
    parse_decimal,
    round_div_root,
    round_root,
)
from weakapprox.measure import StepFunction
from oracles import dist_to_int, exact_log_ratio, full_round_div_root


def test_nth_root_floor_small_cases():
    assert nth_root_floor(0, 3) == 0
    assert nth_root_floor(1, 5) == 1
    assert nth_root_floor(8, 3) == 2
    assert nth_root_floor(7, 3) == 1
    assert nth_root_floor(10**12, 2) == 10**6
    assert nth_root_floor(2, 10) == 1


def test_nth_root_floor_randomized():
    rng = random.Random(7)
    for _ in range(300):
        bits = rng.randint(2, 400)
        n = rng.getrandbits(bits) + 1
        k = rng.randint(1, 9)
        r = nth_root_floor(n, k)
        assert r**k <= n < (r + 1) ** k


def test_nth_root_floor_huge():
    n = 7**4001
    r = nth_root_floor(n, 4001)
    assert r == 7
    r2 = nth_root_floor(n - 1, 4001)
    assert r2 == 6 or r2**4001 <= n - 1 < (r2 + 1) ** 4001
    assert r2 == 6


def test_nth_root_floor_corrects_the_candidate_both_ways():
    """x**k - 1, x**k and x**k + 1 for n of 10^2 to 10^5 bits: the floor
    steps from x - 1 to x there, so the Newton candidate lands on both sides
    of it and both correction loops run."""
    rng = random.Random("kernel")
    offsets = set()
    for k in (3, 4, 10, 13, 45, 4001):
        for bits in (100, 1000, 10_000, 100_000):
            xb = max(bits // k, 2)
            x = rng.getrandbits(xb) | 1 << (xb - 1)
            for n in (x**k - 1, x**k, x**k + 1):
                r = nth_root_floor(n, k)
                assert r**k <= n < (r + 1) ** k
                assert r == (x if n >= x**k else x - 1)
                offsets.add(max(intmath._root_near(n, 0, k, 0), 1) - r)
    assert min(offsets) < 0 < max(offsets)


def test_nth_root_floor_rejects():
    with pytest.raises(ValueError):
        nth_root_floor(10, 0)
    with pytest.raises(ValueError):
        nth_root_floor(-1, 2)


def test_round_root_nearest():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 10**30)
        num = rng.randint(1, 5)
        den = rng.randint(1, 5)
        m = round_root(n, num, den)
        # |m - n^(num/den)| <= 1/2, i.e. (2m-1)^den <= 2^den n^num <= (2m+1)^den
        power = (1 << den) * n**num
        assert (2 * m - 1) ** den <= power
        assert power <= (2 * m + 1) ** den


def test_round_div_root_against_exact_rationals():
    # Perfect powers make the root value exactly rational; compare directly.
    rng = random.Random(5)
    for _ in range(200):
        root = rng.randint(2, 50)
        den = rng.randint(1, 4)
        base = root**den
        c = rng.randint(-20, 20)
        s = rng.randint(1, 9)
        got = round_div_root(base, 1, den, c, s)
        exact = Fraction(root - c, s)
        # round-half-up of exact
        want = math.floor(exact + Fraction(1, 2))
        assert got == want, (base, den, c, s)


def _at_most(x, k, base, num, den):
    """x <= k * base**(num/den), in integers."""
    return x <= 0 or x**den <= k**den * base**num


def test_root_helpers_negative_c():
    # Irrational roots too, checked in integers by ``_at_most``.
    rng = random.Random(17)
    for _ in range(300):
        base, num, den = rng.randint(1, 10**6), rng.randint(1, 5), rng.randint(1, 5)
        c, s = -rng.randint(1, 10**4), rng.randint(1, 10**4)
        r = round_div_root(base, num, den, c, s)
        # c + (r - 1/2) s <= R < c + (r + 1/2) s: nearest, ties up
        assert _at_most(2 * c + (2 * r - 1) * s, 2, base, num, den)
        assert not _at_most(2 * c + (2 * r + 1) * s, 2, base, num, den)
    # (1 + 8) / 10 rounds up although 2c + s < 0.
    assert round_div_root(1, 1, 2, -8, 10) == 1


def test_round_root_of_a_long_base():
    """round_root at 13/10 on 20,000-bit bases: a 10th root of a
    260,000-bit power, checked with the integer bracket of
    ``test_root_helpers_negative_c``."""
    rng = random.Random(23)
    for _ in range(3):
        base = rng.getrandbits(20_000) | 1 << 19_999
        r = round_root(base, 13, 10)
        assert _at_most(2 * r - 1, 2, base, 13, 10)
        assert not _at_most(2 * r + 1, 2, base, 13, 10)


@pytest.fixture
def root_paths(monkeypatch):
    """The paths ``round_div_root`` enters, in order: "bracketed" alone is
    the bracketed path deciding, and a later "exact" is the exact path."""
    seen = []
    for name in ("bracketed", "exact"):
        real = getattr(intmath, f"_round_{name}")
        monkeypatch.setattr(intmath, f"_round_{name}",
                            lambda *args, real=real, name=name: seen.append(name) or real(*args))
    return seen


def test_round_div_root_in_the_truncated_regime(root_paths):
    """s of 100 to 5000 bits, num/den below and above 1, c of either sign
    and up to 3s, answers of 0 to 2000 bits; each answer is checked with
    the integer bracket of ``test_root_helpers_negative_c``, and most are
    decided on the base's head, without the exact path."""
    rng = random.Random(29)
    bracketed = 0
    for _ in range(300):
        num, den = rng.choice([(1, 2), (2, 3), (3, 7), (4, 3), (3, 2), (13, 10), (7, 4), (5, 1)])
        s_bits = rng.randint(100, 5000)
        s = rng.getrandbits(s_bits) | 1 << (s_bits - 1)
        answer_bits = rng.randint(0, 2000)
        base_bits = max(1, (s_bits + answer_bits) * den // num)
        base = rng.getrandbits(base_bits) | 1 << (base_bits - 1)
        c = rng.randint(-3 * s, 3 * s)
        root_paths.clear()
        r = round_div_root(base, num, den, c, s)
        assert _at_most(2 * c + (2 * r - 1) * s, 2, base, num, den)
        assert not _at_most(2 * c + (2 * r + 1) * s, 2, base, num, den)
        bracketed += root_paths == ["bracketed"]
    assert bracketed >= 200


@pytest.mark.parametrize("num, den", [(1, 2), (1, 5), (3, 2), (13, 10)])
def test_round_div_root_exact_tie_falls_back_and_rounds_up(root_paths, num, den):
    """base = x**den for odd x, so R = x**num, and c = R - (k + 1/2) s for an
    even s of thousands of bits: R lies exactly on a rounding boundary, so
    every bracket around it straddles the boundary; the bracketed path must
    decline and the exact path run and round up.  x has 2048 bits, so
    base**num is long enough for the bracketed path to run."""
    rng = random.Random(num * 100 + den)
    x = rng.getrandbits(2048) | 1 << 2047 | 1
    s = 2 * (rng.getrandbits(num * 2048 - 801) | 1)  # an answer of about 800 bits
    k = rng.getrandbits(790)
    c = x**num - k * s - s // 2
    assert Fraction(x**num - c, s) == k + Fraction(1, 2)
    assert round_div_root(x**den, num, den, c, s) == k + 1
    assert root_paths == ["bracketed", "exact"]


@pytest.mark.parametrize("num, den", [(13, 10), (3, 2), (1, 3), (7, 4), (5, 3)])
def test_round_div_root_matches_the_full_root(num, den):
    """Against the oracle on the full power: answers shorter than the base
    (13/10, 3/2, 1/3) and longer (7/4, 5/3), bases of 1 to 20,000 bits
    spread evenly in log size, s from 1 bit to past R, c in [-3s, 3s], and
    exact ties from perfect powers x**den, with s even and
    c = x**num - (k + 1/2) s."""
    rng = random.Random(f"bracket {num}/{den}")
    for case in range(120):
        bits = round(20_000 ** rng.random())
        if case % 4:
            base = rng.getrandbits(bits) | 1 << (bits - 1)
            s = rng.getrandbits(rng.randint(1, -(-bits * num // den) + 10)) | 1
            c = rng.randint(-3 * s, 3 * s)
        else:
            x = rng.getrandbits(-(-bits // den)) | 1
            base = x**den
            s = 2 * (rng.getrandbits(rng.randint(1, max(x.bit_length() * num - 2, 1))) | 1)
            c = x**num - rng.getrandbits(32) * s - s // 2
        assert round_div_root(base, num, den, c, s) == full_round_div_root(base, num, den, c, s)


def _large_den_cases(num, den, count):
    """Bases of 80 to 100 bits, s of 67 bits to 10 bits short of R and
    c in [-3s, 3s]: the bracketed path runs, and its root candidate ends in
    the double seed with a power of 2 of up to den - 1 bits to spread."""
    rng = random.Random(f"large den {num}/{den}")
    for _ in range(count):
        bits = rng.randint(80, 100)
        base = rng.getrandbits(bits) | 1 << (bits - 1)
        s = rng.getrandbits(rng.randint(67, bits * num // den - 10)) | 1 << 66
        yield base, s, rng.randint(-3 * s, 3 * s)


@pytest.mark.parametrize("num, den", [(1301, 1000), (2601, 2000)])
def test_round_div_root_at_a_large_den_matches_the_full_root(root_paths, num, den):
    """gamma = 1.301 and 1.3005 as the CLI reads them."""
    for base, s, c in _large_den_cases(num, den, 2):
        root_paths.clear()
        assert round_div_root(base, num, den, c, s) == full_round_div_root(base, num, den, c, s)
        assert root_paths == ["bracketed"]


def test_round_div_root_at_den_10000_is_nearest():
    """gamma = 1.3001; checked with the integer bracket of
    ``test_root_helpers_negative_c``, as the oracle's 10,000th root of a
    million-bit power takes minutes."""
    num, den = 13001, 10000
    for base, s, c in _large_den_cases(num, den, 3):
        r = round_div_root(base, num, den, c, s)
        assert _at_most(2 * c + (2 * r - 1) * s, 2, base, num, den)
        assert not _at_most(2 * c + (2 * r + 1) * s, 2, base, num, den)


def test_power_bounds_bracket_the_power():
    """lo 2^e <= x**n <= hi 2^e with lo of at most w bits and hi - lo
    small, for w below and above bl(x)."""
    rng = random.Random(41)
    for _ in range(300):
        x = rng.getrandbits(rng.randint(1, 3000)) | 1
        n, w = rng.randint(1, 40), rng.randint(2, 4000)
        lo, hi, e = intmath._power_bounds(x, n, w)
        assert e >= 0 and lo << e <= x**n <= hi << e
        assert lo.bit_length() <= w and hi - lo < 64 * n
        if w >= x.bit_length() * n:
            assert lo == hi == x**n and e == 0


@pytest.mark.parametrize("gamma, depth", [(Fraction(13, 10), 20), (Fraction(7, 4), 11)])
def test_thm2_roots_above_the_size_gate_stay_bracketed(root_paths, monkeypatch, gamma, depth):
    """Every root of a deep thm2 build whose power reaches the size gate is
    decided by the bracketed path, and every one below it by the exact one."""
    real, runs = intmath.round_div_root, []

    def probe(base, num, den, c, s):
        root_paths.clear()
        answer = real(base, num, den, c, s)
        runs.append((base.bit_length() * num >= intmath._BRACKET_MIN_BITS, root_paths[:]))
        return answer

    monkeypatch.setattr(construct, "round_div_root", probe)
    construct.construct_thm2(gamma, depth)
    assert sum(large for large, _ in runs) >= 9
    assert all(paths == (["bracketed"] if large else ["exact"]) for large, paths in runs)


def test_log_int_matches_math_log():
    for n in (1, 2, 3, 10, 12345, 10**15):
        assert abs(log_int(n) - math.log(n)) < 1e-12


def test_log_int_huge():
    n = 10**5000
    assert abs(log_int(n) - 5000 * math.log(10)) < 1e-9 * log_int(n)
    assert abs(log_ratio(10**5000, 7**6000) -
               (5000 * math.log(10) - 6000 * math.log(7))) < 1e-6


def test_log_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_int(0)
    with pytest.raises(ValueError):
        log_ratio(-1, 3)


#: A common factor of 10^4 digits.
HUGE_FACTOR = 3**20959 + 2


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**300), st.integers(1, 2**300),
       st.one_of(st.integers(1, 2**200), st.just(HUGE_FACTOR)))
@example(1, 1, HUGE_FACTOR)
@example(2**64 + 1, 2**64, HUGE_FACTOR)
@example(1, 7**6000, HUGE_FACTOR)
def test_log_ratio_depends_only_on_the_value(a, b, g):
    assert log_ratio(a * g, b * g) == log_ratio(a, b)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(1, 2**200), st.just(HUGE_FACTOR)))
def test_log_ratio_of_one_is_zero(n):
    got = log_ratio(n, n)
    assert got == 0.0 and math.copysign(1.0, got) == 1.0


def decimal_ln(num: int, den: int) -> decimal.Decimal:
    """ln(num/den) to 60 significant digits: the quotient keeps 60 digits
    past the leading ones of 1 + (num - den)/den when num/den is near 1."""
    near_one = len(str(max(num, den))) - len(str(abs(num - den) or 1))
    ctx = decimal.Context(prec=60 + max(0, near_one))
    return ctx.ln(ctx.divide(decimal.Decimal(num), decimal.Decimal(den)))


def assert_close_to_decimal(num: int, den: int) -> None:
    exact = decimal_ln(num, den)
    error = abs(decimal.Decimal(log_ratio(num, den)) - exact)
    assert error <= abs(exact) * decimal.Decimal("1e-15")


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**1000), st.integers(1, 2**1000))
@example(3, 2)
@example(2, 1)
@example(2**1000, 1)
@example(1, 2**1000)
@example(2**53 + 1, 2**54)
@example(2**148 + 1, 2**148)
def test_log_ratio_matches_decimal_ln(num, den):
    if num == den:
        assert log_ratio(num, den) == 0.0
    else:
        assert_close_to_decimal(num, den)


@settings(max_examples=300, deadline=None)
@given(st.integers(10**20, 10**40), st.integers(-10**8, 10**8).filter(bool))
@example(10**20, 1)
@example(10**20, -1)
@example(10**12, 1)
def test_log_ratio_near_one_matches_decimal_ln(den, step):
    # |num/den - 1| <= 1e-12
    assert_close_to_decimal(den + step, den)


@pytest.mark.parametrize("num, den", [(0, 1), (1, 0), (-3, 2), (3, -2), (0, 0)])
def test_log_ratio_rejects_nonpositive(num, den):
    with pytest.raises(ValueError):
        log_ratio(num, den)


def _bits(rng: random.Random, bits: int) -> int:
    """A random integer of exactly ``bits`` bits."""
    return rng.getrandbits(bits) | 1 << (bits - 1)


#: Factor sizes: 1 to 10^5 bits, with the short ones drawn often.
LOG_BITS = st.one_of(st.integers(1, 200), st.integers(1, 10**5))


@st.composite
def log_cases(draw):
    """(x, y, u, w) with x*y/(u*w) random, exactly 2^e, near 1 (e = 0 on the
    ratio or its inverse), or within 2^-60 of a rounding boundary of the
    double the exact evaluation rounds; y = w = 1 for a one-factor call."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["random", "power_of_two", "near_one", "boundary"]))
    x, y, w = (_bits(rng, draw(LOG_BITS)) for _ in range(3))
    if draw(st.booleans()):
        y = w = 1
    if kind == "random":
        return x, y, _bits(rng, draw(LOG_BITS)), w
    if kind == "power_of_two":
        e = draw(st.integers(-300, 300))
        return (x << e, y * w, x * y, w) if e >= 0 else (x, y * w, (x * y) << -e, w)
    if kind == "near_one":
        return x * w, y, max(x * y + draw(st.integers(-3, 3)), 1), w
    # A midpoint of consecutive doubles: of RN(V / 2^e) in [1, 2), or of
    # RN(V - 1) for V in (1, 2).  With u > 2^62 the quotient lies within a
    # few units of 1/u of it.
    x <<= max(130 + w.bit_length() - x.bit_length() - y.bit_length(), 0)
    odd = 2 * rng.randrange(1 << 52, 1 << 53) + 1
    if draw(st.booleans()):
        target = Fraction(odd, 1 << 53) * Fraction(2) ** draw(st.integers(-200, 200))
    else:
        target = 1 + Fraction(odd, 1 << (54 + draw(st.integers(0, 40))))
    if draw(st.booleans()):
        target = 1 / target
    u = x * y * target.denominator // (target.numerator * w) + draw(st.integers(-2, 2))
    return x, y, max(u, 1), w


@settings(max_examples=500, deadline=None)
@given(log_cases())
@example((1, 1, 1, 1))
@example((2**64 + 1, 1, 2**64, 1))
@example((3 << 70, 5, 15 << 70, 1))
@example((3 << 70, 5, 5 << 70, 3))
def test_log_product_ratio_is_the_exact_evaluation(case):
    x, y, u, w = case
    want = exact_log_ratio(x * y, u * w).hex()
    assert log_product_ratio(x, y, u, w).hex() == want
    if y == w == 1:
        assert log_ratio(x, u).hex() == want


def test_log_screen_multiplies_only_near_a_boundary(monkeypatch):
    """Random quotients of 1,000-bit factors, away from 1, are decided on
    the heads; quotients within 2^-60 of a rounding boundary go to the
    exact evaluation."""
    exact_calls = []
    real = intmath._log_exact
    monkeypatch.setattr(intmath, "_log_exact", lambda n, d: exact_calls.append(n) or real(n, d))
    rng = random.Random(11)
    for _ in range(200):
        log_product_ratio(_bits(rng, 1000), _bits(rng, 1000), _bits(rng, 1000), _bits(rng, 800))
        log_ratio(_bits(rng, 1000), _bits(rng, 3000))
    assert len(exact_calls) <= 2
    exact_calls.clear()
    for _ in range(20):
        x, y, w = _bits(rng, 1000), _bits(rng, 1000), _bits(rng, 500)
        odd = 2 * rng.randrange(1 << 52, 1 << 53) + 1
        # V = odd (1 + O(2^-1400)), a midpoint of consecutive doubles
        log_product_ratio(x, y, x * y // (odd * w), w)
    assert len(exact_calls) == 20


def test_dist_to_int():
    assert dist_to_int(Fraction(5, 12)) == Fraction(5, 12)
    assert dist_to_int(Fraction(5, 6)) == Fraction(1, 6)
    assert dist_to_int(Fraction(1, 2)) == Fraction(1, 2)
    assert dist_to_int(Fraction(8, 5)) == Fraction(2, 5)
    assert dist_to_int(Fraction(-8, 5)) == Fraction(2, 5)
    assert dist_to_int(Fraction(3)) == 0


def test_decimal_roundtrip_huge():
    n = (1 << 40000) + 12345
    s = decimal_str(n)
    assert parse_decimal(s) == n
    assert digits_of(n) >= len(s) - 1


def test_fraction_str_roundtrip():
    x = Fraction((1 << 20000) + 1, (1 << 19000) + 7)
    num, _, den = fraction_str(x).partition("/")
    assert Fraction(parse_decimal(num), parse_decimal(den)) == x
    assert fraction_str(Fraction(-5, 12)) == "-5/12"


# -- oracles for the big-integer kernels --------------------------------------


@contextlib.contextmanager
def unlimited_int_str():
    """Lift the interpreter's int<->str limit for the oracle, then restore it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@st.composite
def root_cases(draw):
    """(n, k): random n of up to ~40k bits, perfect powers m**k and their
    neighbours, and bit lengths 48k +- 1, where ``_root_near``'s candidate
    leaves its double seed for a Newton step."""
    k = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["random", "power", "threshold"]))
    if kind == "random":
        bits = draw(st.integers(0, 40_000))
        n = draw(st.integers(0, (1 << bits) - 1)) | (1 << bits >> 1)
    elif kind == "power":
        m = draw(st.integers(1, (1 << (40_000 // k)) - 1))
        n = m**k + draw(st.integers(-1, 1))
    else:
        bits = 48 * k + draw(st.integers(-1, 1))
        n = (1 << (bits - 1)) | draw(st.integers(0, (1 << (bits - 1)) - 1))
    return max(n, 0), k


@settings(max_examples=300, deadline=None)
@given(root_cases())
@example((3**20000, 40))
@example((2**(48 * 3 + 1) - 1, 3))
def test_nth_root_floor_oracle(case):
    n, k = case
    x = nth_root_floor(n, k)
    assert x**k <= n < (x + 1) ** k


@st.composite
def big_ints(draw):
    """Integers around the split points of ``decimal_str``/``parse_decimal``:
    random ones of up to 60k bits, 10**j and 10**j - 1, 2**w +- 1, negated
    at random."""
    kind = draw(st.sampled_from(["random", "ten", "two"]))
    if kind == "random":
        bits = draw(st.integers(0, 60_000))
        n = draw(st.integers(0, (1 << bits) - 1))
    elif kind == "ten":
        j = draw(st.one_of(st.integers(4290, 4310), st.integers(1, 18_000)))
        n = 10**j - draw(st.integers(0, 1))
    else:
        w = draw(st.one_of(st.integers(9_990, 10_010), st.integers(1, 60_000)))
        n = (1 << w) + draw(st.integers(-1, 1))
    return -n if draw(st.booleans()) else n


@settings(max_examples=200, deadline=None)
@given(big_ints())
@example(-(10**4300))
@example(2**10_000 + 1)
def test_decimal_conversions_match_str_and_int(n):
    with unlimited_int_str():
        text = str(n)
    # The kernels run at the interpreter's own limit.
    assert decimal_str(n) == text
    assert parse_decimal(text) == n
    padded = f" \t+{text}\n" if n >= 0 else f"  {text} "
    assert parse_decimal(padded) == n


def test_decimal_conversions_deep_recursion():
    n = 7**150_000  # ~127k digits, four levels of splitting
    with unlimited_int_str():
        text = str(n)
    assert decimal_str(n) == text
    assert decimal_str(-n) == "-" + text
    assert parse_decimal(text) == n
    assert parse_decimal("-" + text) == -n


def test_decimal_conversions_leave_the_limit_alone(default_int_limit):
    n = 3**60_000
    assert parse_decimal(decimal_str(n)) == n
    assert sys.get_int_max_str_digits() == default_int_limit


#: ``to_decimal``'s split widths ``_PLAIN_BITS`` 2^k, k = 0..4.
_SPLITS = [intmath._PLAIN_BITS << k for k in range(5)]


@pytest.mark.parametrize("w", _SPLITS)
def test_decimal_str_at_every_split_width(w):
    """Integers of w - 1, w and w + 1 bits at each split width, of either
    sign, against the C ``decimal`` module's own conversion."""
    rng = random.Random(w)
    for bits in (w - 1, w, w + 1):
        for n in ((1 << bits) - 1, 1 << (bits - 1), rng.getrandbits(bits) | 1 << (bits - 1)):
            text = str(decimal.Decimal(n))
            assert decimal_str(n) == text
            assert decimal_str(-n) == "-" + text


def test_decimal_str_fills_the_power_table_in_either_order():
    """From an empty cache, converting the smaller value first or the larger
    one first gives the same digits, and ``_pow2`` caches 2^(_PLAIN_BITS 2^k)."""
    small, large = 7**20_000, -(7**60_000)  # 56k and 168k bits
    texts = [str(decimal.Decimal(n)) for n in (small, large)]
    for order in (slice(None), slice(None, None, -1)):
        intmath._pow2.cache_clear()
        for _ in range(2):  # an empty cache, then a full one
            assert [decimal_str(n) for n in (small, large)[order]] == texts[order]
        assert intmath._pow2.cache_info().currsize == 5
    assert all(int(intmath._pow2(k)) == 1 << (intmath._PLAIN_BITS << k) for k in range(5))
    assert intmath._pow2.cache_info().currsize == 5  # the entries are k = 0..4


_LIMIT = intmath._DIV_LIMIT


@st.composite
def division_cases(draw):
    """(a, b) around the limits of ``floor_divmod``, signs drawn at random:
    random sizes up to 2^17 bits, b = 1, a < b, exact multiples (and +-1),
    the largest 2n/1n inputs (b << n) - 1 and - 2 for b = 2^n - 1 or
    2^(n-1), where ``_div3n2n``'s estimate hits its cap or is corrected,
    inputs where it is 2 above the quotient digit, and quotients of
    _DIV_LIMIT +- 1 bits over divisors of _DIV_LIMIT +- 1, 2 _DIV_LIMIT +- 1
    and 4 _DIV_LIMIT + 1 bits."""
    def number(bits):  # exactly ``bits`` bits
        return draw(st.integers(1 << (bits - 1), (1 << bits) - 1))

    kind = draw(st.sampled_from(["random", "unit", "below", "multiple", "extreme", "twice",
                                 "limit"]))
    if kind == "random":
        a, b = number(draw(st.integers(1, 1 << 17))), number(draw(st.integers(1, 1 << 17)))
    elif kind == "unit":
        a, b = number(draw(st.integers(1, 1 << 17))), 1
    elif kind == "below":
        b = number(draw(st.integers(2, 1 << 17)))
        a = draw(st.integers(0, b - 1))
    elif kind == "multiple":
        b = number(draw(st.integers(1, 1 << 16)))
        a = number(draw(st.integers(1, 1 << 16))) * b + draw(st.integers(-1, 1))
    elif kind == "extreme":
        n = draw(st.integers(_LIMIT, 1 << 15))
        b = draw(st.sampled_from([(1 << n) - 1, 1 << (n - 1)]))
        a = (b << n) - draw(st.integers(1, 2))
    elif kind == "twice":  # b1 = 2^(h-1), b2 = 2^h - 1 and a's top part (2^h - 1) b1
        h = draw(st.integers(_LIMIT // 2 + 1, 1 << 14))
        b = (1 << (2 * h - 1)) | ((1 << h) - 1)
        a = ((1 << h) - 1) << (3 * h - 1) | draw(st.integers(0, (1 << h) - 1))
    else:
        n = draw(st.sampled_from([_LIMIT - 1, _LIMIT, _LIMIT + 1, 2 * _LIMIT - 1, 2 * _LIMIT,
                                  2 * _LIMIT + 1, 4 * _LIMIT + 1]))
        b = number(n)
        a = number(n + draw(st.sampled_from([_LIMIT - 1, _LIMIT, _LIMIT + 1])))
    return a * draw(st.sampled_from([1, -1])), b * draw(st.sampled_from([1, -1]))


@settings(max_examples=300, deadline=None)
@given(division_cases())
@example((0, -1))
@example((-(1 << 20_000) + 1, 3**9_000))
@example((((1 << 2001) - 1) << 6002 | 12345, (1 << 4001) | ((1 << 2001) - 1)))
def test_floor_divmod_matches_divmod(case):
    a, b = case
    assert floor_divmod(a, b) == divmod(a, b)


@pytest.mark.parametrize("bits, signs", [((10**6, 5 * 10**5), (-1, 1)),
                                         ((10**6, 9 * 10**5), (1, -1))])
def test_floor_divmod_at_a_million_bits(bits, signs):
    rng = random.Random(bits[1])
    a = signs[0] * rng.getrandbits(bits[0])
    b = signs[1] * (rng.getrandbits(bits[1]) | 1)
    assert floor_divmod(a, b) == divmod(a, b)


def test_floor_divmod_recurses_only_past_the_limit(monkeypatch):
    """The kernel, not the built-in, divides a long quotient by a long
    divisor, and a short quotient or divisor never reaches it."""
    steps = []
    real = intmath._div3n2n
    monkeypatch.setattr(intmath, "_div3n2n", lambda *args: steps.append(1) or real(*args))
    rng = random.Random(5)
    a, b = rng.getrandbits(1 << 16), rng.getrandbits(1 << 15)
    for x, y in ((a, b >> (b.bit_length() - _LIMIT)), (a, a >> _LIMIT), (a, 12345)):
        assert floor_divmod(x, y) == divmod(x, y)
    assert not steps
    assert floor_divmod(a, b) == divmod(a, b)
    assert steps
    with pytest.raises(ZeroDivisionError):
        floor_divmod(a, 0)


@pytest.mark.parametrize(
    "text",
    ["", "--5", "+-5", "-", "  ", "1" * 5000 + "x" + "1" * 5000, "-" + "9" * 4400 + "-",
     "1" * 2500 + " " + "1" * 2500, "+" * 4301],
)
def test_parse_decimal_rejects_what_int_rejects(text):
    with unlimited_int_str():
        with pytest.raises(ValueError):
            int(text)
    with pytest.raises(ValueError):
        parse_decimal(text)


def test_parse_decimal_long_text_is_ascii_digits_only():
    # ``int`` would accept these; artifacts never hold them.
    for text in ("1_000" + "0" * 5000, "\u0661" * 5000):
        with pytest.raises(ValueError):
            parse_decimal(text)


_BIG = 10**5000  # past the default 4,300-digit int<->str limit


def _interleaving(monkeypatch, quotients, seed_theta, seed_eta):
    """construct_thm2 with its root rounding replaced by ``quotients``."""
    steps = iter(quotients)
    monkeypatch.setattr(construct, "round_div_root", lambda *args, **kwargs: next(steps))
    construct.construct_thm2(Fraction(3, 2), 3, seed_theta, seed_eta)


@pytest.mark.parametrize(
    "fail, message",
    [
        (lambda mp: StepFunction((1, _BIG), (1, Fraction(1, 2)), _BIG + 1).value(10**6000),
         f"t = {decimal_str(10**6000)} outside domain [1, {decimal_str(_BIG + 1)})"),
        (lambda mp: StepFunction((1, _BIG), (1, Fraction(1, 2)), _BIG + 1).left_limit(10**6000),
         f"left limit undefined at t = {decimal_str(10**6000)}"),
        (lambda mp: _interleaving(mp, [], (0, _BIG), (0, _BIG + 1)),
         f"interleaving failed at index 1: seeds give s_1 = {decimal_str(_BIG + 1)} "
         f">= q_1 = {decimal_str(_BIG)}"),
        (lambda mp: _interleaving(mp, [1], (0, _BIG + 1), (0, _BIG)),
         f"interleaving failed at index 1: q_1 = {decimal_str(_BIG + 1)} "
         f">= s_2 = {decimal_str(_BIG + 1)}"),
        (lambda mp: _interleaving(mp, [2, 1], (0, _BIG + 1), (0, _BIG)),
         f"interleaving failed at index 2: s_2 = {decimal_str(2 * _BIG + 1)} "
         f">= q_2 = {decimal_str(_BIG + 2)}"),
        (lambda mp: PartialQuotients(0, (1, -_BIG)),
         f"tail entry a2 = {decimal_str(-_BIG)} must be >= 1"),
    ],
    ids=["value", "left_limit", "seeds", "q-before-s", "s-before-q", "tail-entry"],
)
def test_error_messages_print_huge_integers(default_int_limit, monkeypatch, fail, message):
    """Each message keeps its own text at the default int<->str limit."""
    with pytest.raises(ValueError) as err:
        fail(monkeypatch)
    assert str(err.value) == message
    assert sys.get_int_max_str_digits() == default_int_limit

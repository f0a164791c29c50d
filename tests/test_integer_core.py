"""Property tests of the integer number-side core against Fraction oracles.

The core (``cf.PrefixAnalysis``, the measure functions built from it, the
screened comparison and the estimators that sample it) works on integers
over the common denominator q_N.  Every property here is checked against
plain ``Fraction`` arithmetic: the scans of ``oracles`` (``evaluate_nested``,
``dist_to_int``, ``brute_measure``), ``Fraction.__lt__`` and, for whole
reports, the Fraction-only algorithm kept below as ``fraction_report``.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import weakapprox.cf as cf
from weakapprox.cf import PartialQuotients, qnorm_table
from weakapprox.construct import construct_thm1, construct_thm2, construct_thm3
from weakapprox.exponents import (
    ASYMPTOTIC_TOL,
    EXACT_TOL,
    ExponentEstimate,
    apply_window,
    exponent_report,
    uniform_exponent,
)
from weakapprox.intmath import decimal_str, log_int, log_ratio, ratio_less
from weakapprox.measure import (StepFunction, _less, measure_csv, min_step, psi_step,
                                upsilon_step)
from oracles import (brute_measure, convergents, dist_to_int, evaluate_nested,
                     running_minimum_rows)

core_settings = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def prefixes(draw, max_depth=40, max_quotient=10**6):
    """Depth 2..max_depth, quotients 1..max_quotient, any-sign a0, and the
    a1 = 1 and trailing-1 corners switched on independently."""
    depth = draw(st.integers(2, max_depth))
    tail = draw(st.lists(st.integers(1, max_quotient), min_size=depth, max_size=depth))
    if draw(st.booleans()):
        tail[0] = 1
    if draw(st.booleans()):
        tail[-1] = 1
    a0 = draw(st.integers(-(10**6), 10**6))
    return PartialQuotients(a0, tuple(tail))


def small_domain(pq):
    return 2 <= pq.analysis.q[-2] <= 60


def assert_lowest_terms(x: Fraction, num: int, den: int):
    assert den > 0 and math.gcd(num, den) == 1
    assert (x.numerator, x.denominator) == (num, den)
    assert x == Fraction(num, den)


# ---------------------------------------------------------------------------
# distances, the gcd identity, stored pairs


@core_settings
@given(prefixes())
def test_rows_equal_nearest_integer_distance(pq):
    x = evaluate_nested(pq)
    an = pq.analysis
    for row in qnorm_table(pq):
        oracle = dist_to_int(row.q * x)
        assert row.value == oracle
        assert_lowest_terms(row.value, oracle.numerator, oracle.denominator)
        assert Fraction(an.rho[row.index], an.q_n) == oracle


@core_settings
@given(prefixes())
def test_gcd_identity_and_continuant_identity(pq):
    an = pq.analysis
    q = an.q
    q_n = an.q_n
    for v, rho in enumerate(an.rho):
        assert math.gcd(rho, q_n) == math.gcd(q[v], rho) == an.g(v)
        assert 2 * rho <= q_n
    # q_N = q_v r_{v-1} + q_{v-1} r_v; rho = r away from the v = 0 corner.
    for v in range(2, pq.depth + 1):
        assert q_n == q[v] * an.rho[v - 1] + q[v - 1] * an.rho[v]


@core_settings
@given(prefixes())
def test_stored_pairs_are_coprime_and_equal_the_fraction_values(pq):
    assume(pq.analysis.q[-2] >= 2)
    psi, ups = psi_step(pq), upsilon_step(pq)
    ref_psi, ref_ups = fraction_psi(pq), fraction_upsilon(pq)
    for f, ref in ((psi, ref_psi), (ups, ref_ups)):
        assert (f.breakpoints, f.values, f.domain_end) == ref
        for v, r in zip(f.values, ref[1]):
            assert_lowest_terms(v, r.numerator, r.denominator)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(prefixes(max_depth=8, max_quotient=6).filter(small_domain))
def test_measure_functions_match_brute_scan_everywhere(pq):
    x = evaluate_nested(pq)
    psi, ups = psi_step(pq), upsilon_step(pq)
    for t in range(1, psi.domain_end):
        assert psi.value(t) == brute_measure(x, t, "ordinary")
        assert ups.value(t) == brute_measure(x, t, "weak")


# ---------------------------------------------------------------------------
# screened comparison

#: Integers of 1 to 4000 bits, every bit length equally likely, so that
#: products fall on both sides of the head screen's 256 bits.
positive = st.integers(1, 4000).flatmap(lambda n: st.integers(1 << (n - 1), (1 << n) - 1))
nonnegative = st.one_of(st.just(0), positive)


@core_settings
@given(nonnegative, positive, nonnegative, positive)
def test_screened_less_agrees_with_fraction_order(an, ad, bn, bd):
    a, b = Fraction(an, ad), Fraction(bn, bd)
    assert ratio_less(an, ad, bn, bd) == (a < b)
    assert ratio_less(bn, bd, an, ad) == (b < a)


@core_settings
@given(positive, positive, positive, positive, positive, positive, st.integers(0, 3))
def test_value_less_agrees_with_fraction_order(x1, y1, d1, x2, y2, d2, case):
    """The comparator of factor-held values (x, y, d) = x y / d on each of
    its paths: one denominator (with one y, or two), both y = 1, and
    neither."""
    if case <= 1:
        d2 = d1
    if case == 1:
        y2 = y1
    elif case == 2:
        y1 = y2 = 1
    v, w = (x1, y1, d1), (x2, y2, d2)
    a, b = Fraction(x1 * y1, d1), Fraction(x2 * y2, d2)
    assert _less(v, w) == (a < b)
    assert _less(w, v) == (b < a)
    assert not _less(v, v)


def with_bits(bits: int, low: int) -> int:
    """An integer of exactly ``bits`` bits, its low bits taken from ``low``."""
    return (1 << (bits - 1)) | (low % (1 << (bits - 1)))


@core_settings
@given(positive, positive, st.integers(0, 2), nonnegative, nonnegative, nonnegative)
def test_screened_less_at_each_bit_length_gap(a, d, gap, split, low_b, low_c):
    """b and c are drawn so that bl(c) + bl(b) exceeds bl(a) + bl(d) by
    exactly 0, 1 or 2: the sums the screen passes on to a multiplication,
    and the nearest it decides on bit lengths alone."""
    total = a.bit_length() + d.bit_length() + gap
    b_bits = 1 + split % (total - 1)
    b, c = with_bits(b_bits, low_b), with_bits(total - b_bits, low_c)
    assert b.bit_length() + c.bit_length() - a.bit_length() - d.bit_length() == gap
    assert ratio_less(a, b, c, d) == (Fraction(a, b) < Fraction(c, d))
    assert ratio_less(c, d, a, b) == (Fraction(c, d) < Fraction(a, b))


@core_settings
@given(nonnegative, positive, positive, positive)
def test_screened_less_on_zero_numerators_and_exact_ties(a, b, d, k):
    """A zero numerator against any ratio, on both sides and with
    denominators of any length, and a ratio against itself scaled by k of
    up to 4000 bits: an exact tie, whose head brackets always overlap."""
    assert ratio_less(0, b, a, d) == (a > 0)
    assert not ratio_less(a, b, 0, d)
    assert not ratio_less(a, b, a * k, b * k)
    assert not ratio_less(a * k, b * k, a, b)


@core_settings
@given(positive, positive, st.integers(-2, 2))
def test_screened_less_against_a_unit_ratio(a, d, nudge):
    """1 = a/a against c/d with c within 2 of d, on both sides: exact and
    near ties that the heads leave open, decided by c and d alone."""
    c = max(d + nudge, 0)
    assert ratio_less(a, a, c, d) == (1 < Fraction(c, d))
    assert ratio_less(c, d, a, a) == (Fraction(c, d) < 1)


@core_settings
@given(positive, positive, st.one_of(st.integers(1, 2**64), positive), st.integers(-3, 3))
def test_screened_less_on_near_ties(num, den, scale, nudge):
    a = Fraction(num, den)
    b = Fraction(num * scale + nudge, den * scale) if num * scale + nudge > 0 else a
    for left, right in ((a, b), (b, a)):
        # Nearly equal values put the bit-length sums at the screen's edge.
        bits = (left.numerator.bit_length() + right.denominator.bit_length(),
                right.numerator.bit_length() + left.denominator.bit_length())
        assert abs(bits[0] - bits[1]) <= 2
        assert ratio_less(left.numerator, left.denominator,
                          right.numerator, right.denominator) == (left < right)


@core_settings
@given(st.integers(1 << 63, (1 << 64) - 1), st.integers(200, 3000), nonnegative, nonnegative,
       positive, st.integers(0, 2))
def test_screened_less_when_the_heads_agree(head, shift, low_a, low_c, b, step):
    """a = h 2^k + da and c = (h + step) 2^k + dc over one denominator b, and
    over b and b + 1: the 64-bit heads of the products agree or differ in
    their last places, and the order is decided by the low bits."""
    a = (head << shift) + low_a % (1 << shift)
    c = ((head + step) << shift) + low_c % (1 << shift)
    for d in (b, b + 1):
        assert ratio_less(a, b, c, d) == (Fraction(a, b) < Fraction(c, d))
        assert ratio_less(c, d, a, b) == (Fraction(c, d) < Fraction(a, b))


@core_settings
@given(prefixes())
def test_measure_csv_reduces_in_closed_form(pq):
    """The CSV writer's lowest terms by g_v equal the generic reduction of
    the unreduced pairs the measure functions hold."""
    assume(pq.analysis.q[-2] >= 2)
    for weak, f in ((False, psi_step(pq)), (True, upsilon_step(pq))):
        assert measure_csv(pq, weak) == f.to_csv()


def product_held(pq, weak: bool) -> StepFunction:
    """psi, or upsilon if ``weak``, on the rows of the product oracle, each
    value held as the formed product (rho_v or q_v rho_v, 1, q_N)."""
    an = pq.analysis
    rows = running_minimum_rows(pq, weak)
    return StepFunction(tuple(an.q[v] for v in rows),
                        tuple((an.q[v] * an.rho[v] if weak else an.rho[v], 1, an.q_n)
                              for v in rows),
                        an.domain_end)


@core_settings
@given(prefixes())
def test_kept_rows_equal_the_product_oracle(pq):
    """The drops decided on factors keep the rows of the running minimum
    of the formed products: the breakpoints are their q_v."""
    assume(pq.analysis.q[-2] >= 2)
    conv = convergents(pq)
    for weak, f in ((False, psi_step(pq)), (True, upsilon_step(pq))):
        assert f.breakpoints == tuple(conv[v][1] for v in running_minimum_rows(pq, weak))


def assert_same_bits(got: ExponentEstimate, want: ExponentEstimate) -> None:
    assert (got.kind, got.value.hex(), got.window) == (want.kind, want.value.hex(), want.window)
    assert [(t, s.hex()) for t, s in got.samples] == [(t, s.hex()) for t, s in want.samples]


@pytest.mark.parametrize(
    "prefix",
    [
        pytest.param(construct_thm1(Fraction(3, 2), 14), id="thm1-d14"),
        *(pytest.param(pq, id=f"thm2-d12-{k}")
          for k, pq in enumerate(construct_thm2(Fraction(13, 10), 12))),
        *(pytest.param(pq, id=f"thm3-d10-{k}")
          for k, pq in enumerate(construct_thm3(Fraction(1), 10))),
    ],
)
def test_omega_bar_from_kept_rows_constructions(prefix):
    """omega_bar logs each value of ``upsilon_step`` on its factors and gives
    the bits of the same estimate on the formed products."""
    got = uniform_exponent(upsilon_step(prefix), "omega_bar")
    assert_same_bits(got, uniform_exponent(product_held(prefix, weak=True), "omega_bar"))


@core_settings
@given(prefixes())
def test_omega_bar_from_kept_rows_random(pq):
    assume(pq.analysis.q[-2] >= 2)
    got = uniform_exponent(upsilon_step(pq), "omega_bar")
    assert_same_bits(got, uniform_exponent(product_held(pq, weak=True), "omega_bar"))


def assert_same_minimum(theta, eta) -> None:
    """The minimum of factor-held upsilons equals that of product-held ones,
    and so does its varpi_upsilon, bit for bit."""
    got = min_step(upsilon_step(theta), upsilon_step(eta))
    want = min_step(product_held(theta, weak=True), product_held(eta, weak=True))
    assert (got.breakpoints, got.values, got.domain_end) == (
        want.breakpoints, want.values, want.domain_end)
    assert_same_bits(uniform_exponent(got, "varpi_upsilon"),
                     uniform_exponent(want, "varpi_upsilon"))


def test_min_step_of_factor_held_upsilons_thm3_pair():
    assert_same_minimum(*construct_thm3(Fraction(1), 10))


@core_settings
@given(prefixes(), prefixes())
def test_min_step_of_factor_held_upsilons_random(theta, eta):
    assume(theta.analysis.q[-2] >= 2 and eta.analysis.q[-2] >= 2)
    assert_same_minimum(theta, eta)


def test_exponent_report_takes_no_gcd(gcd_calls):
    """Every sample logs an unreduced pair, so no value is reduced."""
    theta = construct_thm1(Fraction(3, 2), 20)
    gcd_calls.clear()
    exponent_report(theta)
    assert gcd_calls == []


# ---------------------------------------------------------------------------
# one analysis per prefix per op


def test_report_analyses_each_prefix_once(monkeypatch):
    calls = []
    real = cf.analyse
    monkeypatch.setattr(cf, "analyse", lambda pq: calls.append(pq) or real(pq))
    theta, eta = construct_thm3(Fraction(1), 8)
    exponent_report(theta, eta)
    assert calls == [theta, eta]


# ---------------------------------------------------------------------------
# Fraction-only reference: the number-side algorithm before the integer core


def fraction_rows(pq):
    conv = convergents(pq)
    x = Fraction(*conv[-1])
    n = pq.depth
    return [(q, dist_to_int(q * x)) for _, q in conv[:n - 1]], conv[n - 1][1]


def fraction_merged(points, end):
    bps, vals = [], []
    for t, v in points:
        if not vals or v < vals[-1]:
            bps.append(t)
            vals.append(v)
    return tuple(bps), tuple(vals), end


def fraction_psi(pq):
    rows, end = fraction_rows(pq)
    return fraction_merged(rows, end)


def fraction_upsilon(pq):
    rows, end = fraction_rows(pq)
    best, points = None, []
    for q, d in rows:
        best = q * d if best is None or q * d < best else best
        points.append((q, best))
    return fraction_merged(points, end)


def fraction_value(f, t):
    bps, vals, _ = f
    return vals[max(k for k, b in enumerate(bps) if b <= t)]


def fraction_min(f, g):
    start, end = max(f[0][0], g[0][0]), min(f[2], g[2])
    cuts = sorted({b for b in f[0] + g[0] if start <= b < end} | {start})
    return fraction_merged([(t, min(fraction_value(f, t), fraction_value(g, t)))
                            for t in cuts], end)


def fraction_log(x):
    return log_ratio(x.numerator, x.denominator)


def fraction_ordinary(pq):
    rows, _ = fraction_rows(pq)
    samples = [(q, -fraction_log(d) / log_int(q)) for q, d in rows if q >= 2]
    picked, _ = apply_window(samples, None)
    return max(s for _, s in picked), samples


def fraction_uniform(f, shift):
    bps, vals, end = f
    samples = [(t, shift - fraction_log(vals[k - 1]) / log_int(t))
               for k, t in enumerate(bps) if k >= 1 and t >= 2]
    if end >= 2:
        samples.append((end, shift - fraction_log(vals[-1]) / log_int(end)))
    picked, _ = apply_window(samples, None)
    return min(s for _, s in picked), samples


def fraction_report(theta, eta=None):
    def dump(samples):
        return [[decimal_str(t), s] for t, s in samples]

    omega_t, s_ot = fraction_ordinary(theta)
    bar_t, s_bt = fraction_uniform(fraction_upsilon(theta), 1.0)
    out = {"omega_theta": omega_t, "omega_bar_theta": bar_t,
           "samples": {"omega_theta": dump(s_ot), "omega_bar_theta": dump(s_bt)}}
    flags = []
    if not omega_t >= 1 - EXACT_TOL:
        flags.append("omega_theta below 1")
    if not omega_t >= bar_t - ASYMPTOTIC_TOL:
        flags.append("omega_theta below omega_bar_theta")
    if eta is not None:
        omega_e, _ = fraction_ordinary(eta)
        bar_e, _ = fraction_uniform(fraction_upsilon(eta), 1.0)
        vp, s_vp = fraction_uniform(fraction_min(fraction_psi(theta), fraction_psi(eta)), 0.0)
        vu, s_vu = fraction_uniform(
            fraction_min(fraction_upsilon(theta), fraction_upsilon(eta)), 1.0)
        out.update({"omega_eta": omega_e, "omega_bar_eta": bar_e,
                    "varpi_psi": vp, "varpi_upsilon": vu})
        out["samples"]["varpi_psi"] = dump(s_vp)
        out["samples"]["varpi_upsilon"] = dump(s_vu)
        if not omega_e >= 1 - EXACT_TOL:
            flags.append("omega_eta below 1")
        if not omega_e >= bar_e - ASYMPTOTIC_TOL:
            flags.append("omega_eta below omega_bar_eta")
        if not vp >= 1 - ASYMPTOTIC_TOL:
            flags.append("varpi_psi below 1")
        if not vp <= vu + ASYMPTOTIC_TOL:
            flags.append("varpi_psi above varpi_upsilon")
    out["flags"] = flags
    return out


@pytest.mark.parametrize(
    "prefixes",
    [
        pytest.param((construct_thm1(Fraction(3, 2), 10),), id="thm1-d10"),
        pytest.param(construct_thm2(Fraction(13, 10), 10), id="thm2-d10"),
        pytest.param(construct_thm3(Fraction(1), 8), id="thm3-d8"),
    ],
)
def test_report_equals_fraction_reference(prefixes):
    assert exponent_report(*prefixes) == fraction_report(*prefixes)

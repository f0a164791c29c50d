import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weakapprox.cf import PartialQuotients
from weakapprox.measure import StepFunction, measure_csv, min_step, psi_step, upsilon_step
from oracles import brute_measure, convergents


def small_prefix(rng, max_q=400):
    """Random prefix whose second-to-last denominator stays scan-friendly."""
    while True:
        depth = rng.randint(2, 8)
        pq = PartialQuotients(
            rng.randint(0, 2), tuple(rng.randint(1, 6) for _ in range(depth))
        )
        if 2 <= pq.analysis.q[-2] <= max_q:
            return pq


class TestStepFunction:
    def test_evaluation_and_left_limit(self):
        f = StepFunction((1, 4, 10), (Fraction(1), Fraction(3, 10), Fraction(1, 10)), 20)
        assert f.value(1) == 1
        assert f.value(Fraction(7, 2)) == 1
        assert f.value(4) == Fraction(3, 10)
        assert f.left_limit(4) == 1
        assert f.left_limit(10) == Fraction(3, 10)
        assert f.left_limit(20) == Fraction(1, 10)
        with pytest.raises(ValueError):
            f.value(20)
        with pytest.raises(ValueError):
            f.value(Fraction(1, 2))
        with pytest.raises(ValueError):
            f.left_limit(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepFunction((1, 1), (Fraction(2), Fraction(1)), 5)
        with pytest.raises(ValueError):
            StepFunction((1, 2), (Fraction(1), Fraction(1)), 5)  # no strict drop
        with pytest.raises(ValueError):
            StepFunction((1, 2), (Fraction(1), Fraction(2)), 5)  # increasing
        with pytest.raises(ValueError):
            StepFunction((1, 3), (Fraction(1), Fraction(1, 2)), 3)  # bad domain end

    def test_csv_roundtrip(self):
        f = StepFunction((1, 4, 10), (Fraction(1), Fraction(3, 10), Fraction(1, 10)), 20)
        text = f.to_csv()
        assert text.splitlines()[0] == "t,value_num,value_den"
        g = StepFunction.from_csv(text, domain_end=20)
        assert g == f
        h = StepFunction.from_csv(text)
        assert h.domain_end == 20  # default: twice the last breakpoint

    def test_discontinuity_predicate(self):
        f = StepFunction((1, 4, 10), (Fraction(1), Fraction(3, 10), Fraction(1, 10)), 20)
        assert f.is_discontinuous_at(4)
        assert f.is_discontinuous_at(10)
        assert not f.is_discontinuous_at(1)  # no stored predecessor
        assert not f.is_discontinuous_at(5)

    @given(
        st.lists(st.integers(1, 60), min_size=1, max_size=12, unique=True),
        st.one_of(
            st.integers(-5, 70),
            st.fractions(-5, 70),
            st.floats(allow_nan=True, allow_infinity=True),
        ),
    )
    def test_discontinuity_predicate_is_membership(self, bps, t):
        bps = sorted(bps)
        values = [Fraction(1, k + 1) for k in range(len(bps))]
        f = StepFunction(tuple(bps), tuple(values), bps[-1] + 1)
        assert f.is_discontinuous_at(t) == (t in f.breakpoints[1:])
        for b in bps:
            assert f.is_discontinuous_at(b) == (b != bps[0])


class TestPsiStep:
    def test_hand_example(self):
        f = psi_step(PartialQuotients(0, (2, 2, 2)))
        assert f.breakpoints == (1, 2)
        assert f.values == (Fraction(5, 12), Fraction(1, 6))
        assert f.domain_end == 5

    def test_golden_prefix_at_one(self):
        f = psi_step(PartialQuotients(1, (1, 1, 1, 1)))
        assert f.value(1) == Fraction(2, 5)

    def test_bounded_by_reciprocal(self):
        rng = random.Random(4)
        for _ in range(50):
            f = psi_step(small_prefix(rng))
            for b, v in zip(f.breakpoints, f.values):
                assert v <= Fraction(1, b)

    def test_breakpoint_left_limits_above_half(self):
        # t_{k+1} * psi(t_{k+1}-) > 1/2 at every stored breakpoint
        rng = random.Random(5)
        for _ in range(50):
            f = psi_step(small_prefix(rng))
            for t in f.breakpoints[1:]:
                assert t * f.left_limit(t) > Fraction(1, 2)

    def test_degenerate_prefix_rejected(self):
        with pytest.raises(ValueError):
            psi_step(PartialQuotients(0, (2,)))


class TestUpsilonStep:
    def test_hand_example_merges_continuity_point(self):
        f = upsilon_step(PartialQuotients(0, (2, 2, 2)))
        assert f.breakpoints == (1, 2)
        assert f.values == (Fraction(5, 12), Fraction(1, 3))
        assert f.domain_end == 5
        assert 5 not in f.breakpoints  # 5*(1/12) = 5/12 does not improve 1/3

    def test_lowest_terms_divide_by_gcd_of_g_squared(self):
        # Row v = 1 of [0;2,2,2]: q_1 = rho_1 = g_1 = 2 and q_N = 12, so
        # q_1 rho_1 / q_N = 4/12 must be divided by gcd(g^2, q_N) = 4, not g.
        pq = PartialQuotients(0, (2, 2, 2))
        an = pq.analysis
        assert (an.q[1], an.rho[1], an.g(1), an.q_n) == (2, 2, 2, 12)
        assert gcd(an.g(1) ** 2, an.q_n) > an.g(1)
        value = upsilon_step(pq).value(2)
        assert (value.numerator, value.denominator) == (1, 3)
        # The CSV writer reduces the kept row by the closed form itself.
        assert measure_csv(pq, weak=True).splitlines()[2] == "2,1,3"

    def test_below_t_times_psi(self):
        rng = random.Random(6)
        for _ in range(40):
            pq = small_prefix(rng)
            psi, ups = psi_step(pq), upsilon_step(pq)
            for t in range(1, psi.domain_end):
                assert ups.value(t) <= t * psi.value(t)

    def test_single_piece_when_products_nondecreasing(self):
        # [0; 1, 1, 1, ...]: q*||q theta|| stays near 1/sqrt(5); the running
        # minimum improves only rarely, and a very short prefix keeps one piece.
        f = upsilon_step(PartialQuotients(0, (1, 1, 1)))
        assert len(f.breakpoints) == 1


class TestMinStep:
    def test_idempotent(self):
        f = psi_step(PartialQuotients(0, (2, 2, 2)))
        assert min_step(f, f) == f

    def test_hand_comparison(self):
        f = StepFunction((1,), (Fraction(1),), 10)
        g = StepFunction((1, 4), (Fraction(2), Fraction(1, 2)), 10)
        h = min_step(f, g)
        assert h.breakpoints == (1, 4)
        assert h.values == (Fraction(1), Fraction(1, 2))
        assert h.domain_end == 10

    def test_empty_intersection_rejected(self):
        f = StepFunction((1, 2), (Fraction(2), Fraction(1)), 3)
        g = StepFunction((5, 6), (Fraction(2), Fraction(1)), 8)
        with pytest.raises(ValueError):
            min_step(f, g)

    def test_matches_pointwise_minimum(self):
        rng = random.Random(12)
        for _ in range(30):
            f = psi_step(small_prefix(rng))
            g = psi_step(small_prefix(rng))
            h = min_step(f, g)
            for t in range(h.domain_start, h.domain_end):
                assert h.value(t) == min(f.value(t), g.value(t))


class TestBruteMeasure:
    def test_examples(self):
        assert brute_measure(Fraction(5, 12), 2, "ordinary") == Fraction(1, 6)
        assert brute_measure(Fraction(5, 12), 2, "weak") == Fraction(1, 3)
        assert brute_measure(Fraction(1, 2), 1) == Fraction(1, 2)


class TestOracleEquivalence:
    def test_step_functions_match_brute_scan(self):
        rng = random.Random(777)
        for _ in range(40):
            pq = small_prefix(rng)
            x = Fraction(*convergents(pq)[-1])
            psi, ups = psi_step(pq), upsilon_step(pq)
            for t in range(1, psi.domain_end):
                assert psi.value(t) == brute_measure(x, t, "ordinary")
                assert ups.value(t) == brute_measure(x, t, "weak")

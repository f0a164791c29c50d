import math
from fractions import Fraction

import pytest

from weakapprox.bounds import check_theorem
from weakapprox.cf import PartialQuotients, qnorm_table
from weakapprox.construct import construct_thm1, construct_thm2, construct_thm3, growth_rate_thm3
from weakapprox.exponents import (
    apply_window,
    exponent_report,
    ordinary_exponent,
    uniform_exponent,
)
from weakapprox.intmath import log_int, log_ratio
from weakapprox.measure import StepFunction, min_step, psi_step, upsilon_step


def golden(depth, a0=1):
    return PartialQuotients(a0, (1,) * depth)


class TestOrdinary:
    def test_samples_match_definition(self):
        pq = PartialQuotients(0, (3, 1, 4, 1, 5, 9, 2, 6))
        est = ordinary_exponent(pq, window=(0, 99))
        rows = {r.q: r.value for r in qnorm_table(pq) if r.index <= pq.depth - 2 and r.q >= 2}
        assert len(est.samples) == len(rows)
        for q, s in est.samples:
            expect = -log_ratio(rows[q].numerator, rows[q].denominator) / log_int(q)
            assert abs(s - expect) < 1e-12
        assert est.value == max(s for _, s in est.samples)

    def test_huge_quotient_sample(self):
        # a huge partial quotient forces one very strong approximation
        pq = PartialQuotients(0, (1, 1, 10**6, 1, 1))
        est = ordinary_exponent(pq, window=(0, 99))
        best = max(s for _, s in est.samples)
        # at q_2 = 2 the distance ~ 1/(2*10^6), sample ~ log(4e6)/log(2)
        assert best > 15

    def test_bounded_quotients_stay_modest(self):
        est = ordinary_exponent(golden(30))
        assert 1.0 <= est.value <= 1.45  # transient ceiling for Fibonacci data

    def test_always_at_least_one(self):
        import random

        rng = random.Random(3)
        for _ in range(60):
            # depth >= 4 guarantees an eligible interior sample (q_2 >= 2)
            pq = PartialQuotients(
                0, tuple(rng.randint(1, 9) for _ in range(rng.randint(4, 10)))
            )
            est = ordinary_exponent(pq, window=(0, 99))
            assert est.value >= 1.0 - 1e-9

    def test_empty_window_rejected(self):
        pq = PartialQuotients(0, (2, 2, 2, 2))
        with pytest.raises(ValueError):
            ordinary_exponent(pq, window=(5, 5))


class TestUniform:
    def test_synthetic_power_function_exact(self):
        # values exactly t^-2 at breakpoints: every left-limit sample is
        # 2 * log(t_k) / log(t_{k+1}) and the pure-power estimate is c = 2
        # when sampled at exact powers.
        bps = tuple(2**k for k in range(1, 9))
        vals = tuple(Fraction(1, t * t) for t in bps)
        f = StepFunction(bps, vals, 2**9)
        est = uniform_exponent(f, "varpi_psi", window=(0, 99))
        for t, s in est.samples:
            prev = bps[-1] if t == 2**9 else bps[bps.index(t) - 1]
            expect = 2.0 * math.log2(prev) / math.log2(t)
            assert abs(s - expect) < 1e-12

    def test_weak_kinds_shift_by_one(self):
        bps = (2, 4, 8, 16, 32)
        vals = tuple(Fraction(1, t) for t in bps)
        f = StepFunction(bps, vals, 64)
        plain = uniform_exponent(f, "varpi_psi", window=(0, 99))
        weak = uniform_exponent(f, "varpi_upsilon", window=(0, 99))
        bar = uniform_exponent(f, "omega_bar", window=(0, 99))
        for (_, a), (_, b), (_, c) in zip(plain.samples, weak.samples, bar.samples):
            assert abs(b - (a + 1.0)) < 1e-12
            assert abs(c - (a + 1.0)) < 1e-12

    def test_two_samples_are_estimable(self):
        # left limits 1/2 at t = 4 and 1/4 at t = 8: 1 + 1/2 and 1 + 2/3
        f = StepFunction((2, 4), (Fraction(1, 2), Fraction(1, 4)), 8)
        est = uniform_exponent(f, "omega_bar")
        assert [t for t, _ in est.samples] == [4, 8]
        assert est.value == pytest.approx(1.5, abs=1e-12)

    def test_unknown_kind_rejected(self):
        f = StepFunction((2, 4, 8, 16), tuple(Fraction(1, t) for t in (2, 4, 8, 16)), 32)
        with pytest.raises(ValueError):
            uniform_exponent(f, "sideways")

    def test_value_is_window_min(self):
        # growing quotients keep the weak running minimum improving
        pq = PartialQuotients(0, (2, 4, 8, 16, 32, 64, 128))
        est = uniform_exponent(upsilon_step(pq), "omega_bar", window=(0, 99))
        assert len(est.samples) >= 5
        assert est.value == min(s for _, s in est.samples)


class TestWindows:
    def test_schedule(self):
        """The default window keeps log t >= 0.35 log t_last and at least the
        last two; every threshold below is >= 5% away from the nearest log t."""
        def default(exps):
            samples = [(2**e, float(e)) for e in exps]
            picked, win = apply_window(samples, None)
            assert picked == samples[win[0]:] and win[1] == len(samples)
            return win[0]

        # geometric log t (ratio phi): only the last 3 clear 0.35 * 144 = 50.4
        assert default([3, 5, 8, 13, 21, 34, 55, 89, 144]) == 6
        # linear log t: 13 of 20 (65%) clear 0.35 * 39 = 13.65
        assert default(range(1, 40, 2)) == 7
        # only the last clears 0.35 * 1000; the floor keeps two
        assert default([1, 10, 1000]) == 1
        assert default([1, 1000]) == 0
        assert default([7]) == 0
        # explicit windows are clipped to the sample range, never rescheduled
        samples = [(2**e, float(e)) for e in range(1, 11)]
        assert apply_window(samples, (-3, 99)) == (samples, (0, 10))
        assert apply_window(samples, (2, 4)) == (samples[2:4], (2, 4))
        with pytest.raises(ValueError):
            apply_window(samples, (10, 12))

    def test_monotone_refinement(self):
        pq = PartialQuotients(0, (2, 1, 3, 1, 4, 1, 5, 1, 6, 1, 7, 1))
        windows = [(4, 6), (3, 7), (2, 8), (0, 99)]
        ord_vals = [ordinary_exponent(pq, w).value for w in windows]
        assert all(a <= b + 1e-15 for a, b in zip(ord_vals, ord_vals[1:]))
        ups = upsilon_step(pq)
        uni_vals = [uniform_exponent(ups, "omega_bar", w).value for w in windows]
        assert all(a >= b - 1e-15 for a, b in zip(uni_vals, uni_vals[1:]))


class TestReport:
    def test_golden_pair_orderings_hold(self):
        theta = golden(25)
        eta = PartialQuotients(0, (2,) + (1,) * 24)
        report = exponent_report(theta, eta)
        assert report["flags"] == []
        assert report["omega_theta"] >= report["omega_bar_theta"] - 0.05
        assert 0.95 <= report["varpi_psi"] <= report["varpi_upsilon"] + 0.05

    def test_single_number_report(self):
        report = exponent_report(golden(20))
        assert "omega_theta" in report and "omega_bar_theta" in report
        assert "varpi_psi" not in report
        assert report["flags"] == []

    def test_varpi_order_against_min_functions(self):
        theta = PartialQuotients(0, (2, 3, 2, 3, 2, 3, 2, 3, 2, 3))
        eta = PartialQuotients(0, (3, 2, 3, 2, 3, 2, 3, 2, 3, 2))
        report = exponent_report(theta, eta)
        psi_min = min_step(psi_step(theta), psi_step(eta))
        direct = uniform_exponent(psi_min, "varpi_psi")
        assert abs(report["varpi_psi"] - direct.value) < 1e-12
        assert report["flags"] == []


def _thm1_case(gamma, depths):
    g = float(gamma)
    return (lambda d: (construct_thm1(gamma, d),), depths,
            {"omega_theta": 1 / (2 - g), "omega_bar_theta": g}, "T1")


def _thm2_case(gamma, depths):
    g = float(gamma)
    return (lambda d: construct_thm2(gamma, d), depths,
            {"omega_theta": g * g, "omega_eta": g * g, "varpi_psi": g}, "T2")


def _thm3_case(gamma, depths):
    root = growth_rate_thm3(gamma)
    return (lambda d: construct_thm3(gamma, d), depths,
            {"omega_theta": root, "omega_eta": root, "varpi_upsilon": float(gamma) + 1},
            "T3")


@pytest.mark.parametrize(
    "build, depths, limits, theorem",
    [
        _thm1_case(Fraction(3, 2), range(8, 17)),
        _thm2_case(Fraction(13, 10), range(6, 15)),
        _thm2_case(Fraction(3, 2), range(6, 15)),
        _thm3_case(Fraction(1), range(6, 13)),
        _thm3_case(Fraction(1, 2), range(6, 13)),
        _thm1_case(Fraction(5, 4), range(10, 17)),
    ],
    ids=["thm1-3/2", "thm2-13/10", "thm2-3/2", "thm3-1", "thm3-1/2", "thm1-5/4"],
)
def test_number_exponents_converge_with_depth(build, depths, limits, theorem):
    """|estimate - limit| and |slack| of the construction's own bound check
    never grow with the depth of the construction and are below 0.001 at the
    deepest one: each bound is sharp on its construction.  An estimate can
    stay on one sample for several depths; deeper quotients move that sample
    by less than 1e-9."""
    errors = {key: [] for key in limits}
    slacks = []
    for depth in depths:
        report = exponent_report(*build(depth))
        for key, limit in limits.items():
            errors[key].append(abs(report[key] - limit))
        slacks.append(abs(check_theorem(theorem, report).slack))
    for key, errs in {**errors, theorem: slacks}.items():
        assert all(a >= b - 1e-9 for a, b in zip(errs, errs[1:])), (key, errs)
        assert errs[-1] < 0.001, (key, errs)

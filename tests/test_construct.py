import math
from fractions import Fraction

import pytest

from weakapprox import construct
from weakapprox.construct import (
    DIGIT_GUARD_ENV,
    GuardExceeded,
    InterleavingError,
    construct_thm1,
    construct_thm2,
    construct_thm3,
    growth_rate_thm3,
)
from weakapprox.intmath import log_int
from oracles import full_round_div_root


def q_sequence(pq):
    return list(pq.analysis.q)


class TestSpec:
    def test_parameter_domains(self):
        """Each builder checks its gamma domain and depth >= 3."""
        construct_thm1(Fraction(3, 2), 5)
        for build, gamma, depth in (
            (construct_thm1, Fraction(2), 5),
            (construct_thm2, Fraction(1), 5),
            (construct_thm3, Fraction(0), 5),
            (construct_thm3, Fraction(1), 2),
        ):
            with pytest.raises(ValueError):
                build(gamma, depth)


class TestThm1:
    def test_hand_run_gamma_three_halves(self):
        pq = construct_thm1(Fraction(3, 2), 5)
        # exponent (gamma-1)/(2-gamma) = 1, so a_{v+1} = q_v
        assert q_sequence(pq)[1:] == [1, 2, 5, 27, 734]

    def test_gamma_near_one_gives_all_ones(self):
        pq = construct_thm1(Fraction(101, 100), 10)
        assert set(pq.tail) == {1}

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            construct_thm1(Fraction(2), 5)
        with pytest.raises(ValueError):
            construct_thm1(Fraction(1), 5)

    def test_deterministic(self):
        a = construct_thm1(Fraction(7, 5), 10)
        b = construct_thm1(Fraction(7, 5), 10)
        assert a == b

    def test_log_ratio_converges(self):
        pq = construct_thm1(Fraction(3, 2), 12)
        qs = q_sequence(pq)
        target = 1.0 / (2.0 - 1.5)
        for v in range(6, len(qs) - 1):
            ratio = log_int(qs[v + 1]) / log_int(qs[v])
            assert abs(ratio - target) / target < 0.05

    def test_digit_guard(self, monkeypatch):
        monkeypatch.setenv(DIGIT_GUARD_ENV, "100")
        with pytest.raises(GuardExceeded):
            construct_thm1(Fraction(3, 2), 14)


class TestThm2:
    def test_interleaving(self):
        theta, eta = construct_thm2(Fraction(13, 10), 10)
        qs, ss = q_sequence(theta), q_sequence(eta)
        for v in range(1, 11):
            assert ss[v] < qs[v]
            if v < 10:
                assert qs[v] < ss[v + 1]

    def test_growth_exponent(self):
        theta, _ = construct_thm2(Fraction(13, 10), 12)
        qs = q_sequence(theta)
        target = 1.3**2
        for v in range(5, 11):
            ratio = log_int(qs[v + 1]) / log_int(qs[v])
            assert abs(ratio - target) / target < 0.05

    def test_bad_seeds_reported_with_index(self):
        with pytest.raises(InterleavingError) as err:
            construct_thm2(Fraction(13, 10), 6, seed_theta=(0, 2), seed_eta=(0, 5))
        assert err.value.index == 1

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            construct_thm2(Fraction(1), 6)

    @pytest.mark.parametrize("gamma, depth", [("13/10", 18), ("3/2", 16), ("7/4", 11)])
    def test_roots_on_the_full_base_give_the_same_prefixes(self, monkeypatch, gamma, depth):
        """Each step's bracketed root must round as the root on the full
        base does.  The bracketed path first runs at depth 12 at 13/10
        (1 of 22 roots) and takes 13 of the 34 roots at depth 18, 13 of 30
        at 3/2 and 9 of 20 at 7/4, where every answer is longer than its
        base (gamma - 1/gamma > 1).  A depth-N build's prefixes are the
        builds of every depth below N."""
        fast = construct_thm2(Fraction(gamma), depth)
        monkeypatch.setattr(construct, "round_div_root", full_round_div_root)
        assert construct_thm2(Fraction(gamma), depth) == fast


class TestThm3:
    def test_growth_rate_value(self):
        assert abs(growth_rate_thm3(1) - (3 + math.sqrt(5)) / 2) < 1e-12

    def test_interleaving_and_tail_validity(self):
        theta, eta = construct_thm3(Fraction(1), 8)
        assert all(a >= 1 for a in theta.tail) and all(b >= 1 for b in eta.tail)
        qs, ss = q_sequence(theta), q_sequence(eta)
        for v in range(1, 9):
            assert ss[v] < qs[v]
            if v < 8:
                assert qs[v] < ss[v + 1]

    def test_log_vector_recurrence(self):
        # (log q_{v+1}, log s_{v+1}) ~ [[g^2+1, g], [g, 1]] (log q_v, log s_v)
        gamma = 1.0
        theta, eta = construct_thm3(Fraction(1), 10)
        qs, ss = q_sequence(theta), q_sequence(eta)
        for v in range(3, 9):
            lq, ls = log_int(qs[v]), log_int(ss[v])
            pred_q = (gamma * gamma + 1) * lq + gamma * ls
            pred_s = gamma * lq + ls
            assert abs(log_int(qs[v + 1]) - pred_q) / pred_q < 0.01
            assert abs(log_int(ss[v + 1]) - pred_s) / pred_s < 0.01

    def test_rational_gamma_roots(self):
        theta, eta = construct_thm3(Fraction(1, 2), 6)
        qs, ss = q_sequence(theta), q_sequence(eta)
        assert all(a < b for a, b in zip(qs, qs[1:]))
        assert all(a < b for a, b in zip(ss[1:], ss[2:]))

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            construct_thm3(Fraction(0), 6)
        with pytest.raises(ValueError):
            construct_thm3(Fraction(-1, 2), 6)

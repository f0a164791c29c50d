from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from weakapprox.construct import construct_thm2
from weakapprox.lemma import (
    _GAP,
    StepPair,
    check_conditions,
    find_witnesses,
    random_step_pair,
    verify_witness,
)
from weakapprox.measure import StepFunction, psi_step, upsilon_step
from oracles import dominated_controls


def hand_pair(domain_end=20):
    u = StepFunction((1, 4, 10), (Fraction(1), Fraction(3, 10), Fraction(1, 10)), domain_end)
    v = StepFunction((2, 6, 15), (Fraction(1, 2), Fraction(1, 5), Fraction(1, 20)), domain_end)
    return StepPair(u, v)


class TestCheckConditions:
    def test_hand_pair(self):
        report = check_conditions(hand_pair())
        assert report.a_holds and report.b_holds
        # (a): in [2,6) the point 4 works; in [6,15) the point 10 works
        assert dict(report.a_witnesses) == {0: 4, 1: 10}
        # (b): u-pieces visible in the window are [2,4) and [4,10)
        assert dict(report.b_witnesses) == {0: 2, 1: 6}

    def test_identical_functions_fail_strictness(self):
        u = StepFunction((1, 3, 6, 9), (Fraction(8), Fraction(4), Fraction(2), Fraction(1)), 12)
        pair = StepPair(u, u)
        report = check_conditions(pair)
        assert not report.a_holds and not report.b_holds
        assert find_witnesses(pair, margin=0) == []

    def test_window_too_small(self):
        pair = hand_pair()
        with pytest.raises(ValueError):
            check_conditions(StepPair(pair.u, pair.v, window=(1, 7)))

    def test_generated_pair_from_interleaved_prefixes(self):
        theta, eta = construct_thm2(Fraction(13, 10), 9)
        pair = StepPair(psi_step(theta), psi_step(eta))
        report = check_conditions(pair)
        assert report.a_holds and report.b_holds


class TestFindWitnesses:
    def test_hand_pair_witness(self):
        pair = hand_pair()
        witnesses = find_witnesses(pair, margin=0)
        assert len(witnesses) == 1
        w = witnesses[0]
        assert (w.q_nu, w.s_mu, w.q_nu1, w.s_mu1) == (4, 6, 10, 15)
        assert w.u_at_s == Fraction(3, 10) and w.v_before_s == Fraction(1, 2)
        assert w.v_before_q1 == Fraction(1, 5) and w.u_before_q1 == Fraction(3, 10)
        assert verify_witness(pair, w)

    def test_witness_requires_all_clauses(self):
        pair = hand_pair()
        w = find_witnesses(pair, margin=0)[0]
        # breaking the interleaving invalidates verification
        from dataclasses import replace

        broken = replace(w, s_mu=3)
        assert not verify_witness(pair, broken)

    def test_dominated_pair_has_no_witnesses(self):
        # u >= v everywhere: clause u(s) < v(s-) can never hold
        u = StepFunction((1, 4, 10), (Fraction(9), Fraction(8), Fraction(7)), 20)
        v = StepFunction((2, 6, 15), (Fraction(1, 2), Fraction(1, 5), Fraction(1, 20)), 20)
        assert find_witnesses(StepPair(u, v), margin=0) == []

    def test_strictness_exact_tie_removes_witness(self):
        pair = hand_pair()
        w = find_witnesses(pair, margin=0)[0]
        # lift u on [4, 10) to exactly v(s_mu-) = 1/2: clause u(s) < v(s-) ties
        u2 = StepFunction((1, 4, 10), (Fraction(1), Fraction(1, 2), Fraction(1, 10)), 20)
        pair2 = StepPair(u2, pair.v)
        assert all(
            (x.q_nu, x.s_mu) != (w.q_nu, w.s_mu) for x in find_witnesses(pair2, margin=0)
        )

    def test_swapped_roles_never_verify(self):
        pair = hand_pair()
        swapped = StepPair(pair.v, pair.u)
        for w in find_witnesses(pair, margin=0):
            assert not verify_witness(swapped, w)

    def test_upsilon_pair_from_construction(self):
        theta, eta = construct_thm2(Fraction(13, 10), 10)
        u, v = upsilon_step(theta), upsilon_step(eta)
        # skip the seed-affected first interval; the hypotheses are asymptotic
        pair = StepPair(u, v, window=(u.breakpoints[1], min(u.domain_end, v.domain_end)))
        report = check_conditions(pair)
        assert report.a_holds and report.b_holds
        witnesses = find_witnesses(pair)
        assert witnesses
        assert all(verify_witness(pair, w) for w in witnesses)


class TestGenerator:
    def test_deterministic(self):
        assert random_step_pair(42) == random_step_pair(42)

    def test_alternating_pairs_satisfy_hypotheses(self):
        for seed in range(40):
            pair = random_step_pair(seed, pieces=10)
            report = check_conditions(pair)
            assert report.a_holds and report.b_holds
            witnesses = find_witnesses(pair)
            assert witnesses, f"seed {seed} found no witnesses"
            assert all(verify_witness(pair, w) for w in witnesses)

    def test_controls_break_one_clause(self):
        for seed in range(30):
            breaks_a, breaks_b = dominated_controls(random_step_pair(seed))
            report = check_conditions(breaks_a)
            assert not report.a_holds and report.b_holds
            report = check_conditions(breaks_b)
            assert not report.b_holds and report.a_holds
            assert find_witnesses(breaks_a) == find_witnesses(breaks_b) == []

    def test_levels_are_small_integers(self):
        # 2 * pieces gaps of at most _GAP each, summed from the bottom level.
        pieces = 600
        for seed in (0, 1):
            pair = random_step_pair(seed, pieces=pieces)
            for v in (*pair.u.values, *pair.v.values):
                assert v.denominator == 1 and 1 <= v < 2 * _GAP * pieces + 1

    def test_witness_growth_with_window(self):
        # widening the window should never shrink the largest witness index
        base = random_step_pair(3, pieces=14)
        u, v = base.u, base.v
        tops = []
        for hi in (u.breakpoints[8], u.breakpoints[11], u.domain_end):
            pair = StepPair(u, v, window=(0, hi))
            ws = find_witnesses(pair)
            tops.append(max((w.nu_star for w in ws), default=-1))
        assert tops == sorted(tops)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            random_step_pair(0, pieces=3)


# ---------------------------------------------------------------------------
# brute oracles for the index-driven scan and interval check

lemma_settings = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

@st.composite
def step_pairs(draw):
    """Pairs from one walk down the levels 1/(i+1) over points of 1..40.

    Each point is a breakpoint of u, of v or of both (s_mu = q_{nu+1}); the
    owner mostly alternates, as the lemma's witnesses need.  The walk may
    stay on its level, so u and v tie, and v's levels are shifted by a
    drawn offset, so either function may lie above the other.  The window
    is optional.
    """
    points = sorted(draw(st.sets(st.integers(1, 40), min_size=6, max_size=24)))
    offset = {"u": 2, "v": 2 + draw(st.integers(-2, 2))}
    bps = {"u": [], "v": []}
    idx = {"u": [-1], "v": [-1]}
    level, owner = 0, "v"
    for t in points:
        level += draw(st.integers(0, 2))
        step = draw(st.sampled_from(("switch", "switch", "switch", "stay", "both")))
        if step == "switch":
            owner = "u" if owner == "v" else "v"
        for f in "uv" if step == "both" else owner:
            bps[f].append(t)
            idx[f].append(max(level + offset[f], idx[f][-1] + 1))
            level = idx[f][-1] - offset[f]
    assume(bps["u"] and bps["v"])
    u, v = (
        StepFunction(tuple(bps[f]), tuple(Fraction(1, i + 1) for i in idx[f][1:]),
                     bps[f][-1] + draw(st.integers(1, 4)))
        for f in "uv"
    )
    window = draw(st.none() | st.tuples(st.integers(0, 40), st.integers(1, 45)))
    return StepPair(u, v, window and (window[0], window[0] + window[1]))


def brute_witnesses(pair, margin):
    """Every (nu, mu) of the window interiors meeting the five clauses."""
    lo, hi = pair.effective_window()
    u, v = pair.u, pair.v

    def interior(f):
        idx = [k for k, b in enumerate(f.breakpoints) if lo <= b < hi]
        return idx[margin:len(idx) - margin]

    out = []
    for nu in interior(u):
        for mu in interior(v):
            if nu + 1 >= len(u.breakpoints) or mu + 1 >= len(v.breakpoints):
                continue
            q0, q1 = u.breakpoints[nu], u.breakpoints[nu + 1]
            s0, s1 = v.breakpoints[mu], v.breakpoints[mu + 1]
            if (
                u.is_discontinuous_at(q0)
                and v.is_discontinuous_at(s0)
                and q0 < s0 < q1 < s1
                and u.value(s0) < v.left_limit(s0)
                and v.left_limit(q1) < u.left_limit(q1)
            ):
                out.append((nu, mu, q0, s0, q1, s1, u.value(s0), v.left_limit(s0),
                            v.left_limit(q1), u.left_limit(q1)))
    return out


def brute_intervals(upper, lower, lo, hi):
    """(k, start, end, holds, t*) for each full piece of lower, by scanning
    every integer point of the piece; t* is the clipped start of upper's
    last piece before end."""
    out = []
    for k in range(len(lower.breakpoints) - 1):
        start, end = max(lower.breakpoints[k], lo), lower.breakpoints[k + 1]
        if end <= hi and start < end:
            holds = any(upper.value(t) < lower.values[k] for t in range(start, end))
            t_star = max(start, upper.breakpoints[upper.piece_index(end - 1)])
            out.append((k, start, end, holds, t_star))
    return out


class TestAgainstBruteOracles:
    @lemma_settings
    @given(step_pairs(), st.integers(0, 3))
    def test_find_witnesses_equals_brute_scan(self, pair, margin):
        try:
            want = brute_witnesses(pair, margin)
        except ValueError:  # empty window
            with pytest.raises(ValueError):
                find_witnesses(pair, margin)
            return
        got = find_witnesses(pair, margin)
        # A witness holds its levels as pairs; compare them as Fractions.
        assert [(*astuple(w)[:6], w.u_at_s, w.v_before_s, w.v_before_q1, w.u_before_q1)
                for w in got] == want
        assert all(verify_witness(pair, w) for w in got)

    @lemma_settings
    @given(step_pairs())
    def test_check_conditions_equals_brute_intervals(self, pair):
        try:
            lo, hi = pair.effective_window()
        except ValueError:
            with pytest.raises(ValueError):
                check_conditions(pair)
            return
        a = brute_intervals(pair.u, pair.v, lo, hi)
        b = brute_intervals(pair.v, pair.u, lo, hi)
        if len(a) < 2 or len(b) < 2:
            with pytest.raises(ValueError, match="window too small"):
                check_conditions(pair)
            return
        report = check_conditions(pair)
        for upper, lower, rows, wit, fail, flag in (
            (pair.u, pair.v, a, report.a_witnesses, report.a_failures, report.a_holds),
            (pair.v, pair.u, b, report.b_witnesses, report.b_failures, report.b_holds),
        ):
            assert list(wit) == [(k, t) for k, _, _, holds, t in rows if holds]
            assert list(fail) == [k for k, _, _, holds, _ in rows if not holds]
            assert flag == all(holds for *_, holds, _ in rows)
            for (k, t), (_, start, end, _, _) in zip(wit, [r for r in rows if r[3]]):
                assert start <= t < end
                assert upper.value(t) < lower.values[k]

    def test_strategy_reaches_shared_breakpoints_and_ties(self):
        seen = {"shared": False, "tie": False}

        @settings(max_examples=100, deadline=None)
        @given(step_pairs())
        def probe(pair):
            seen["shared"] |= bool(set(pair.u.breakpoints) & set(pair.v.breakpoints))
            seen["tie"] |= bool(set(pair.u.values) & set(pair.v.values))

        probe()
        assert seen["shared"] and seen["tie"]


class TestBenchmarkInvariant:
    @pytest.mark.parametrize("pieces", [10, 40, 600])
    def test_alternating_pairs_have_pieces_minus_five_witnesses(self, pieces):
        # One witness per scanned u-breakpoint: the window starts at s_1,
        # leaving pieces - 1 u-breakpoints, less the margin at both ends.
        for seed in (0, 1):
            pair = random_step_pair(seed, pieces=pieces)
            witnesses = find_witnesses(pair)
            assert len(witnesses) == pieces - 5
            assert all(verify_witness(pair, w) for w in witnesses)

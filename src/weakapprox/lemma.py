"""Executable combinatorics of two interleaved step functions.

Given two positive non-increasing right-open step functions u (breakpoints
q_1 < q_2 < ...) and v (breakpoints s_1 < s_2 < ...), the two hypotheses

  (a) every full v-interval [s_m, s_{m+1}) in the window contains a point
      with u < v strictly;
  (b) every full u-interval [q_n, q_{n+1}) in the window contains a point
      with v < u strictly;

force the existence of index pairs (n*, m*) such that

  u is discontinuous at q_{n*},
  v is discontinuous at s_{m*},
  q_{n*} < s_{m*} < q_{n*+1} < s_{m*+1},
  u(s_{m*}) < v(s_{m*}-)  and  v(q_{n*+1}-) < u(q_{n*+1}-).

This module checks the hypotheses exactly, scans for all witness pairs by
index arithmetic on the sorted breakpoints, and re-verifies each witness
clause by direct evaluation (``verify_witness``, the independent oracle).
Because measure-side step functions are stored merged, "discontinuous at t"
is simply "t is a stored breakpoint with a predecessor": the first two
clauses hold for every index >= 1.  Every check compares values and never
computes with them, so only their order matters; the seeded generator
``random_step_pair`` therefore draws small integer levels.  Each comparison
is the ``measure`` comparator on the functions' values, held as factors
(x, y, d) = x y / d; Fractions are built only for a witness's report.

Hypotheses.  u is non-increasing, so on a full v-interval ending at e its
smallest value is u(e-), the value of u's last piece starting before e.
Each interval is therefore one exact comparison, and the clipped start of
that piece of u is a witness point t*.  (b) is the same with u and v swapped.

One candidate per u-breakpoint.  Fix nu with 1 <= nu < len(q) - 1 and let
mu = bisect_left(s, q_{nu+1}) - 1, so s_mu is the last v-breakpoint below
q_{nu+1} and s_{mu+1} >= q_{nu+1}.  Any pair (nu, m) meeting the
interleaving clause s_m < q_{nu+1} < s_{m+1} has m = mu: if m < mu then
s_{m+1} <= s_mu < q_{nu+1}, and if m > mu then s_m >= s_{mu+1} >= q_{nu+1},
since s is strictly increasing.  So the scan tests mu alone, which fails
when s_{mu+1} = q_{nu+1} (a shared breakpoint) or s_mu <= q_nu.  When the
interleaving holds, u is constant on [q_nu, q_{nu+1}) and v on
[s_mu, s_{mu+1}), which gives the values by index:

  u(s_mu) = u(q_{nu+1}-) = u.factors[nu],
  v(s_mu-) = v.factors[mu-1],   v(q_{nu+1}-) = v.factors[mu].
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .intmath import decimal_str, fraction_str
from .measure import StepFunction, Value, _fraction, _less

__all__ = [
    "StepPair",
    "Witness",
    "ConditionReport",
    "check_conditions",
    "find_witnesses",
    "verify_witness",
    "random_step_pair",
]

#: Full breakpoint intervals this close to the window edge are not scanned;
#: truncated boundary pieces can spuriously satisfy or break the clauses.
BOUNDARY_MARGIN = 2

#: ``random_step_pair`` draws each breakpoint gap and each gap between
#: consecutive levels from 1 to ``_GAP``.
_GAP = 6


@dataclass(frozen=True)
class StepPair:
    """Two step functions with a common evaluation window."""

    u: StepFunction
    v: StepFunction
    window: tuple[int, int] | None = None

    def effective_window(self) -> tuple[int, int]:
        lo = max(self.u.domain_start, self.v.domain_start)
        hi = min(self.u.domain_end, self.v.domain_end)
        if self.window is not None:
            lo = max(lo, self.window[0])
            hi = min(hi, self.window[1])
        if lo >= hi:
            raise ValueError("empty window")
        return lo, hi


@dataclass(frozen=True)
class Witness:
    """Index pair realizing the interleaving and both strict inequalities.

    nu_star / mu_star index into the stored breakpoints of u / v.
    ``levels`` holds, as the functions' factors (x, y, d), the three values
    the clauses compare: u(s_mu) = u(q_{nu+1}-), v(s_mu-) and
    v(q_{nu+1}-).  The four properties below give them as Fractions.
    """

    nu_star: int
    mu_star: int
    q_nu: int
    s_mu: int
    q_nu1: int
    s_mu1: int
    levels: tuple[Value, Value, Value]

    @property
    def u_at_s(self) -> Fraction:
        return _fraction(self.levels[0])

    @property
    def v_before_s(self) -> Fraction:
        return _fraction(self.levels[1])

    @property
    def v_before_q1(self) -> Fraction:
        return _fraction(self.levels[2])

    @property
    def u_before_q1(self) -> Fraction:
        return _fraction(self.levels[0])

    def to_dict(self) -> dict:
        return {
            "nu_star": self.nu_star,
            "mu_star": self.mu_star,
            "q_nu": decimal_str(self.q_nu),
            "s_mu": decimal_str(self.s_mu),
            "q_nu_plus_1": decimal_str(self.q_nu1),
            "s_mu_plus_1": decimal_str(self.s_mu1),
            "u_at_s_mu": fraction_str(self.u_at_s),
            "v_left_at_s_mu": fraction_str(self.v_before_s),
            "v_left_at_q_nu_plus_1": fraction_str(self.v_before_q1),
            "u_left_at_q_nu_plus_1": fraction_str(self.u_before_q1),
        }


@dataclass(frozen=True)
class ConditionReport:
    """Interval-by-interval outcome of hypotheses (a) and (b)."""

    a_holds: bool
    b_holds: bool
    a_witnesses: tuple[tuple[int, int], ...]  # (v-interval index, t*)
    b_witnesses: tuple[tuple[int, int], ...]  # (u-interval index, t**)
    a_failures: tuple[int, ...]
    b_failures: tuple[int, ...]


def _interval_checks(
    upper: StepFunction, lower: StepFunction, lo: int, hi: int
) -> tuple[list[tuple[int, int]], list[int]]:
    """Witnesses (k, t*) and failures over the full pieces k of lower.

    A full piece ends at lower.bp[k+1] <= hi and, clipped at
    lo >= lower.domain_start, starts below its end; pieces cut off at the
    top are left out, since the drop that ends them is not visible inside
    the window.  j is upper's last piece before the end, and t* is its
    clipped start (module docstring).
    """
    ubp, lbp = upper.breakpoints, lower.breakpoints
    witnesses: list[tuple[int, int]] = []
    failures: list[int] = []
    for k in range(bisect_right(lbp, lo) - 1, bisect_right(lbp, hi) - 1):
        j = bisect_left(ubp, lbp[k + 1]) - 1
        if _less(upper.factors[j], lower.factors[k]):
            witnesses.append((k, max(lbp[k], lo, ubp[j])))
        else:
            failures.append(k)
    return witnesses, failures


def check_conditions(pair: StepPair) -> ConditionReport:
    """Exact per-interval evaluation of hypotheses (a) and (b).

    The window must contain at least 2 checkable breakpoint intervals of
    each function; the overall flags are the conjunction over those
    intervals.
    """
    lo, hi = pair.effective_window()
    a_wit, a_fail = _interval_checks(pair.u, pair.v, lo, hi)
    b_wit, b_fail = _interval_checks(pair.v, pair.u, lo, hi)
    if len(a_wit) + len(a_fail) < 2 or len(b_wit) + len(b_fail) < 2:
        raise ValueError("window too small: need >= 2 checkable intervals per side")
    return ConditionReport(
        a_holds=not a_fail,
        b_holds=not b_fail,
        a_witnesses=tuple(a_wit),
        b_witnesses=tuple(b_wit),
        a_failures=tuple(a_fail),
        b_failures=tuple(b_fail),
    )


def _interior(bps: tuple[int, ...], lo: int, hi: int, margin: int) -> range:
    """Indices of the breakpoints in [lo, hi) less ``margin`` at each end,
    kept to 1 <= k < len(bps) - 1 (a predecessor and a successor)."""
    return range(
        max(bisect_left(bps, lo) + margin, 1), min(bisect_left(bps, hi) - margin, len(bps) - 1)
    )


def find_witnesses(pair: StepPair, margin: int = BOUNDARY_MARGIN) -> list[Witness]:
    """All index pairs satisfying the five witness clauses, interior only.

    Scans the u-breakpoints of the window less ``margin`` at each end (and
    likewise for v); for each nu the only candidate is
    mu = bisect_left(v.bp, q_{nu+1}) - 1 (module docstring).  An empty
    result on a narrow window is valid output.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    lo, hi = pair.effective_window()
    u, v = pair.u, pair.v
    q, s = u.breakpoints, v.breakpoints
    mu_range = _interior(s, lo, hi, margin)
    out: list[Witness] = []
    for nu in _interior(q, lo, hi, margin):
        mu = bisect_left(s, q[nu + 1]) - 1
        if mu not in mu_range:
            continue
        u_nu, v_before_s, v_mu = u.factors[nu], v.factors[mu - 1], v.factors[mu]
        if (
            q[nu] < s[mu]
            and q[nu + 1] < s[mu + 1]
            and _less(u_nu, v_before_s)
            and _less(v_mu, u_nu)
        ):
            out.append(
                Witness(
                    nu_star=nu,
                    mu_star=mu,
                    q_nu=q[nu],
                    s_mu=s[mu],
                    q_nu1=q[nu + 1],
                    s_mu1=s[mu + 1],
                    levels=(u_nu, v_before_s, v_mu),
                )
            )
    return out


def verify_witness(pair: StepPair, w: Witness) -> bool:
    """Independent re-check of all five clauses by direct evaluation: the
    values at s_mu and just before s_mu and q_{nu+1} are looked up afresh by
    bisection (``piece_index``, ``left_index``), not read from ``w``."""
    u, v = pair.u, pair.v
    try:
        checks = (
            u.is_discontinuous_at(w.q_nu),
            v.is_discontinuous_at(w.s_mu),
            w.q_nu < w.s_mu < w.q_nu1 < w.s_mu1,
            u.breakpoints[w.nu_star] == w.q_nu,
            u.breakpoints[w.nu_star + 1] == w.q_nu1,
            v.breakpoints[w.mu_star] == w.s_mu,
            v.breakpoints[w.mu_star + 1] == w.s_mu1,
            _less(u.factors[u.piece_index(w.s_mu)], v.factors[v.left_index(w.s_mu)]),
            _less(v.factors[v.left_index(w.q_nu1)], u.factors[u.left_index(w.q_nu1)]),
        )
    except (ValueError, IndexError):
        return False
    return all(checks)


def random_step_pair(seed: int, pieces: int = 8) -> StepPair:
    """Deterministic random pair whose minimum alternates.

    Breakpoints interleave q_1 < s_1 < q_2 < s_2 < ... and the values
    interleave strictly downward u_1 > v_1 > u_2 > v_2 > ..., which forces
    hypotheses (a) and (b) on the interior.  The lemma only compares values,
    so the levels are integers: running sums of random gaps, reversed.
    """
    if pieces < 5:
        raise ValueError("need at least 5 pieces per side")
    rng = random.Random(seed)

    q_bps: list[int] = []
    s_bps: list[int] = []
    t = rng.randint(1, 3)
    for _ in range(pieces):
        q_bps.append(t)
        t += rng.randint(1, _GAP)
        s_bps.append(t)
        t += rng.randint(1, _GAP)
    domain_end = t + rng.randint(1, _GAP)

    levels: list[Value] = []
    level = 0
    for _ in range(2 * pieces):
        level += rng.randint(1, _GAP)
        levels.append((level, 1, 1))
    levels.reverse()
    return StepPair(
        StepFunction(tuple(q_bps), tuple(levels[0::2]), domain_end),
        StepFunction(tuple(s_bps), tuple(levels[1::2]), domain_end),
    )

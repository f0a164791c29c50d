"""Exact continued-fraction engine.

A number is represented only by a finite prefix of partial quotients
``[a0; a1, ..., aN]``; every downstream quantity is computed exactly for
the rational truncation value of that prefix.  The distance table is
trustworthy as a stand-in for the underlying irrational only strictly
inside the prefix, which is why measure functions built on top of it carry
an explicit validity bound.

Integer analysis over the common denominator
--------------------------------------------
Let x = p_N/q_N with convergents p_v/q_v, and (p_{-1}, q_{-1}) = (1, 0).
Everything ``PrefixAnalysis`` stores is an integer; its facts are these.

(1) Backward recurrence.  Put r_N = 0, r_{N-1} = 1 and
    r_v = a_{v+2} r_{v+1} + r_{v+2} for v = N-2, ..., -1.  Then
    |q_v p_N - p_v q_N| = r_v for -1 <= v <= N, so r_{-1} = q_N.
    Proof: e_v = q_v p_N - p_v q_N obeys the forward recurrence
    e_{v+1} = a_{v+1} e_v + e_{v-1} of p and q, with e_N = 0 and
    |e_{N-1}| = |p_N q_{N-1} - p_{N-1} q_N| = 1.  Writing
    e_v = s (-1)^v r_v for the fixed sign s turns it into
    r_{v-1} = a_{v+1} r_v + r_{v+1}, whose solution from r_N, r_{N-1} is
    the nonnegative integer sequence above.

(2) Continuant identity.  q_N = q_v r_{v-1} + q_{v-1} r_v for 0 <= v <= N.
    Proof: at v = N the right side is q_N * 1 + q_{N-1} * 0.  Substituting
    r_{v-1} = a_{v+1} r_v + r_{v+1} and q_{v+1} = a_{v+1} q_v + q_{v-1}
    shows that the right side at v equals the one at v + 1.

(3) Distances.  q_v x = p_v + e_v/q_N, so ||q_v x|| = min(r_v, q_N - r_v)/q_N.
    By (2), q_{v+1} r_v <= q_N, so 2 r_v <= q_N whenever q_{v+1} >= 2.
    Only q_1 = a_1 = 1 breaks that: at the corner v = 0, a_1 = 1 the
    nearest integer to x is a0 + 1, and the stored value is the complement
    q_N - r_0, which equals r_1 because r_{-1} = a_1 r_0 + r_1 = q_N.
    Call the stored value rho_v; then ||q_v x|| = rho_v/q_N for every v.

(4) Lowest terms.  g_v = gcd(rho_v, q_N) = gcd(q_v, q_N) = gcd(q_v, rho_v).
    Proof: rho_v = +-q_v p_N (mod q_N) and gcd(p_N, q_N) = 1, which gives
    the first equality.  For v >= 1, rho_v = r_v and (2) shows that
    gcd(q_v, r_v) divides q_N, hence divides gcd(r_v, q_N); conversely
    gcd(q_v, q_N) divides both q_v and r_v.  For v = 0 all three are 1,
    since q_0 = 1.  So ||q_v x|| = (rho_v/g_v) / (q_N/g_v) in lowest terms,
    and g_v is found without any gcd of two numbers the size of q_N: by (2),
    q_v rho_v <= q_v r_{v-1} <= q_N, so the smaller of q_v and rho_v has at
    most half the digits of q_N.

A log, a comparison or a running minimum depends only on the value of a
ratio, so only a value that is printed needs lowest terms: ``qnorm_table``
(the ``cf`` artifact's distances) and the ``measure`` CSV take g_v by (4),
one row at a time, through ``PrefixAnalysis.g``.  Everything else reads
rho_v and q_N unreduced.  ``Fraction`` objects are made only at
the public boundary (``truncation_value`` and ``ExactDistance.value``),
from pairs already known to be in lowest terms.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .intmath import decimal_str, digits_of, parse_decimal, reduced_fraction

__all__ = [
    "GuardExceeded",
    "DIGIT_GUARD_ENV",
    "PartialQuotients",
    "PrefixAnalysis",
    "ExactDistance",
    "analyse",
    "truncation_value",
    "qnorm_table",
]


#: Hard ceiling on denominator digit counts; override via environment.
DEFAULT_DIGIT_GUARD = 10 ** 6
DIGIT_GUARD_ENV = "WEAKAPPROX_DIGIT_GUARD"


class GuardExceeded(RuntimeError):
    """A prefix or a construction grew past the configured digit guard."""


def _digit_guard() -> int:
    env = os.environ.get(DIGIT_GUARD_ENV)
    return int(env) if env else DEFAULT_DIGIT_GUARD


def _check_guard(q: int, guard: int) -> None:
    if digits_of(q) > guard:
        raise GuardExceeded(f"denominator reached ~{digits_of(q)} digits (guard {guard})")


#: The error of a distance table or estimate asked of a depth-1 prefix.
TABLE_DEPTH_ERROR = "need at least two tail entries for a usable distance table"


@dataclass(frozen=True)
class PartialQuotients:
    """A continued-fraction prefix [a0; a1, ..., aN].

    ``a0`` may be any integer; the tail entries must all be >= 1 and there
    must be at least one of them.
    """

    a0: int
    tail: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tail", tuple(int(a) for a in self.tail))
        if len(self.tail) < 1:
            raise ValueError("prefix needs at least one partial quotient after a0")
        for i, a in enumerate(self.tail):
            if a < 1:
                raise ValueError(f"tail entry a{i + 1} = {decimal_str(a)} must be >= 1")

    @property
    def depth(self) -> int:
        """Number of tail entries N."""
        return len(self.tail)

    def min_q_digits(self) -> int:
        """A lower bound on the decimal digits of q_N, from bit lengths only:
        q_N >= a_1 ... a_N and q_N >= F_{N+1} >= phi^(N-1), with constants
        rounded down so that it never exceeds the true count."""
        bits = max(
            sum(a.bit_length() - 1 for a in self.tail),
            int((self.depth - 1) * 0.6942419),  # log2(phi) = 0.69424191...
        )
        return int(bits * 0.30102999) + 1  # log10(2) = 0.30102999566...

    @cached_property
    def analysis(self) -> "PrefixAnalysis":
        """The integer analysis of this prefix, made on first use and kept.

        Every distance, measure function and exponent of the prefix reads
        it, so one prefix is analysed once however many of them are asked.
        """
        return analyse(self)

    def to_json(self) -> str:
        """Serialize with arbitrary-precision integers as decimal strings."""
        return json.dumps(
            {"a0": decimal_str(self.a0), "tail": [decimal_str(a) for a in self.tail]},
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "PartialQuotients":
        # parse_int=str: a quotient written as a JSON number is parsed like
        # a string one, by parse_decimal, whatever its length.
        data = json.loads(text, parse_int=str)
        if not (isinstance(data, dict) and "a0" in data and isinstance(data.get("tail"), list)):
            raise ValueError("a prefix artifact needs 'a0' and a list 'tail'")
        return PartialQuotients(
            parse_decimal(str(data["a0"])),
            tuple(parse_decimal(str(a)) for a in data["tail"]),
        )

    @staticmethod
    def parse(text: str) -> "PartialQuotients":
        """Parse the bracket notation "[a0;a1,a2,...]"."""
        s = text.strip()
        if s.startswith("["):
            s = s[1:]
        if s.endswith("]"):
            s = s[:-1]
        if ";" not in s:
            raise ValueError("expected '[a0;a1,...]' notation")
        head, _, rest = s.partition(";")
        tail = tuple(parse_decimal(p) for p in rest.split(",") if p.strip() != "")
        return PartialQuotients(parse_decimal(head), tail)


@dataclass(frozen=True)
class ExactDistance:
    """||q * x|| for the truncation value x, as an exact rational.

    ``sandwich_ok`` marks indices where both two-sided bounds
    1/(2 q_{v+1}) < ||q_v x|| < 1/q_{v+1}   and
    1/(a_{v+1}+2) < q_v ||q_v x|| < 1/a_{v+1}
    are guaranteed; ``tail_degenerate`` marks the final entry, whose value
    reflects the truncation only (q_N * x is an integer, so it is exactly 0).
    """

    index: int
    q: int
    value: Fraction
    sandwich_ok: bool = True
    tail_degenerate: bool = False


def truncation_value(pq: PartialQuotients) -> Fraction:
    """The exact rational value p_N/q_N of the prefix, read from its analysis."""
    an = pq.analysis
    return reduced_fraction(an.p_n, an.q_n)


@dataclass(frozen=True)
class PrefixAnalysis:
    """Integer analysis of one prefix over its own denominator q_N.

    ``q[v]`` is the convergent denominator q_v and ``rho[v]`` is
    q_N ||q_v x||, for v = 0..N, as facts (1)-(3) of the module docstring
    define them; ``p_n`` is the last numerator, so x = p_N/q_N.  The other
    numerators p_v are not kept: only the ``cf`` command prints them, and
    it runs their recurrence in its own output loop.  Rows
    v <= N-2 are valid for measure functions, whose domain therefore ends
    at ``domain_end`` = q_{N-1}.
    """

    q: tuple[int, ...]
    rho: tuple[int, ...]
    p_n: int

    @property
    def q_n(self) -> int:
        return self.q[-1]

    @property
    def domain_end(self) -> int:
        return self.q[-2]

    def g(self, v: int) -> int:
        """g_v = gcd(q_v, rho_v) = gcd(rho_v, q_N), by fact (4) without a
        gcd of two numbers the size of q_N; taken anew on each call."""
        return gcd(self.q[v], self.rho[v])

    def distance(self, v: int) -> tuple[int, int]:
        """||q_v x|| as (numerator, denominator) in lowest terms."""
        g = self.g(v)
        return self.rho[v] // g, self.q_n // g


def analyse(pq: PartialQuotients) -> PrefixAnalysis:
    """Denominators q_v by the forward recurrence, rho_v by the backward
    recurrence (1) with the corner complement (3), and p_N = a0 q_N + r_0.
    ``pq.analysis`` keeps the result.  Any depth is analysed; a distance
    table or an estimate needs depth >= 2 and checks it itself.  A q_N past
    the digit guard raises ``GuardExceeded``, however the prefix was made:
    before any recurrence if its lower bound ``min_q_digits`` is past it,
    else before the backward recurrence.

    The numerator needs no recurrence of its own.  By (1) at v = 0, where
    (p_0, q_0) = (a0, 1), |p_N - a0 q_N| = r_0, taken before the corner
    complement.  And p_N/q_N - a0 = [0; a1, ..., aN] is positive, since
    every a_i >= 1, so p_N = a0 q_N + r_0.  In continuants: r_0 = K(a2..aN)
    and q_N = K(a1..aN), and p_N/q_N = a0 + K(a2..aN)/K(a1..aN).
    """
    digits, guard = pq.min_q_digits(), _digit_guard()
    if digits > guard:
        raise GuardExceeded(f"prefix q_N has at least {digits} digits (guard {guard})")
    n = pq.depth
    q_prev, q_n = 0, 1
    q = [q_n]
    for a in pq.tail:
        q_n, q_prev = a * q_n + q_prev, q_n
        q.append(q_n)
    _check_guard(q_n, guard)
    rho = [0] * (n + 1)
    rho[n - 1] = 1
    for v in range(n - 2, -1, -1):
        rho[v] = pq.tail[v + 1] * rho[v + 1] + rho[v + 2]
    p_n = pq.a0 * q_n + rho[0]
    if 2 * rho[0] > q_n:
        rho[0] = q_n - rho[0]
    return PrefixAnalysis(tuple(q), tuple(rho), p_n)


def qnorm_table(pq: PartialQuotients) -> list[ExactDistance]:
    """Exact distances ||q_v * x|| for v = 0..N, x the truncation value.

    Distances are genuine nearest-integer distances (at v = 0 with a1 = 1 the
    nearest integer is a0 + 1, not p0).  The two-sided bounds hold exactly for
    v <= N-2, with two corner exclusions forced by truncation: v = 0 when
    q1 = q0 = 1 (a duplicated denominator, outside the strictly increasing
    sequence the bounds are stated for), and v = N-2 when the prefix ends in
    quotient 1 (the non-canonical form of a shorter prefix, where the lower
    bound on q_v ||q_v x|| is attained with equality).  The final entry v = N
    is exactly zero and flagged tail-degenerate.
    """
    n = pq.depth
    if n < 2:
        raise ValueError(TABLE_DEPTH_ERROR)
    an = pq.analysis
    return [
        ExactDistance(
            index=v,
            q=q,
            value=reduced_fraction(*an.distance(v)),
            sandwich_ok=(
                v <= n - 2
                and not (v == 0 and pq.tail[0] == 1)
                and not (v == n - 2 and pq.tail[-1] == 1)
            ),
            tail_degenerate=v == n,
        )
        for v, q in enumerate(an.q)
    ]

"""Irrationality measure functions as exact step functions.

psi(t)     = min_{1 <= q <= t} ||q x||          (ordinary)
upsilon(t) = min_{1 <= q <= t} q ||q x||        (weak)

Both are positive, non-increasing, right-open piecewise-constant functions.
They are stored *merged*: a breakpoint is kept only where the value strictly
drops, so "the function is discontinuous at t" is equivalent to "t is a
stored breakpoint".  Values are exact rationals computed for the truncation
value of a partial-quotient prefix; the representation is valid only for
t < domain_end (the second-to-last convergent denominator), beyond which the
truncation stops tracking the underlying number.

Both functions are read off the prefix's integer analysis
(``PartialQuotients.analysis``; facts (1)-(4) of the ``cf`` docstring):
||q_v x|| = rho_v / q_N with one denominator q_N for every v, so the running
minima compare the integers rho_v (psi) and q_v rho_v (upsilon).  The
upsilon drop q_v rho_v < q_w rho_w is decided on its factors as
``ratio_less(q_v, rho_w, q_w, rho_v)``, so only the rows kept as drops get
the product q_v rho_v; a log of one is ``log_product_ratio(q_v, rho_v,
q_N, 1)`` and needs none.  The values are kept as the unreduced pairs
(rho_v, q_N) and (q_v rho_v, q_N).  Only the CSV writer ``measure_csv``
brings a value to lowest terms, by c = gcd(num, q_N) in closed form:
write g = g_v, q_v = g q', rho_v = g r', q_N = g n'.  By (4) q' and r' are prime to n', so
c = g for psi and c = g gcd(g q' r', n') = g gcd(g, n') = gcd(g^2, q_N) for
upsilon.
"""

from __future__ import annotations

import io
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Union

from .cf import PartialQuotients, qnorm_table  # noqa: F401 - perfbench looks it up here
from .intmath import _rat_str, decimal_str, parse_decimal, ratio_less

__all__ = [
    "StepFunction",
    "psi_step",
    "upsilon_step",
    "min_step",
    "measure_csv",
]

Rat = Union[int, Fraction]
#: A positive rational as (numerator, denominator), not necessarily reduced.
Pair = tuple[int, int]

_CSV_HEADER = "t,value_num,value_den\n"


@dataclass(frozen=True)
class StepFunction:
    """Positive non-increasing right-open step function.

    f(t) = num/den for (num, den) = pairs[k] and
    breakpoints[k] <= t < breakpoints[k+1], with the last piece ending
    (exclusively) at domain_end.  Stored breakpoints are exactly the
    discontinuities: consecutive equal values are merged at construction
    time.  Breakpoints are positive integers; evaluation is allowed at any
    rational t inside the domain.

    A value is held as an integer pair with den > 0, not necessarily in
    lowest terms; every comparison and log reads it through
    ``intmath.ratio_less`` and ``intmath.log_ratio``, which depend only on
    the value.  The constructor also takes an int or a ``Fraction`` for a
    value.  ``values``, ``value`` and ``left_limit`` build Fractions.
    """

    breakpoints: tuple[int, ...]
    pairs: tuple[Pair, ...]
    domain_end: int

    def __post_init__(self) -> None:
        bps = tuple(int(b) for b in self.breakpoints)
        pairs = tuple(v if isinstance(v, tuple) else (v.numerator, v.denominator)
                      for v in self.pairs)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pairs", pairs)
        if len(bps) != len(pairs) or not bps:
            raise ValueError("breakpoints and values must be nonempty and aligned")
        if bps[0] < 1:
            raise ValueError("breakpoints must be positive")
        for a, b in zip(bps, bps[1:]):
            if b <= a:
                raise ValueError("breakpoints must be strictly increasing")
        # Positivity first: the screened comparison needs numerators >= 0.
        if any(num <= 0 or den <= 0 for num, den in pairs):
            raise ValueError("values must be positive")
        for v, w in zip(pairs, pairs[1:]):
            if not ratio_less(*w, *v):
                raise ValueError("values must strictly decrease at stored breakpoints")
        if self.domain_end <= bps[-1]:
            raise ValueError("domain_end must exceed the last breakpoint")

    @property
    def domain_start(self) -> int:
        return self.breakpoints[0]

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The values as Fractions in lowest terms."""
        return tuple(Fraction(*v) for v in self.pairs)

    def piece_index(self, t: Rat) -> int:
        """Index k of the piece containing t; raises outside the domain."""
        if t < self.breakpoints[0] or t >= self.domain_end:
            start, end = decimal_str(self.breakpoints[0]), decimal_str(self.domain_end)
            raise ValueError(f"t = {_rat_str(t)} outside domain [{start}, {end})")
        return bisect_right(self.breakpoints, t) - 1

    def left_index(self, t: Rat) -> int:
        """Index k of the piece just before t, for domain_start < t <= domain_end."""
        if t <= self.breakpoints[0] or t > self.domain_end:
            raise ValueError(f"left limit undefined at t = {_rat_str(t)}")
        return bisect_left(self.breakpoints, t) - 1

    def value(self, t: Rat) -> Fraction:
        """f(t)."""
        return Fraction(*self.pairs[self.piece_index(t)])

    def left_limit(self, t: Rat) -> Fraction:
        """f(t-) = value just before t, for domain_start < t <= domain_end."""
        return Fraction(*self.pairs[self.left_index(t)])

    def is_discontinuous_at(self, t: Rat) -> bool:
        """True iff t is a stored breakpoint with a predecessor piece."""
        k = bisect_left(self.breakpoints, t)
        return 1 <= k < len(self.breakpoints) and self.breakpoints[k] == t

    def pieces(self) -> Iterable[tuple[int, int, Pair]]:
        """Yield (start, end, (num, den)) for each piece, end exclusive."""
        for k, (b, v) in enumerate(zip(self.breakpoints, self.pairs)):
            end = self.breakpoints[k + 1] if k + 1 < len(self.breakpoints) else self.domain_end
            yield b, end, v

    def to_csv(self) -> str:
        """CSV with header "t,value_num,value_den", one row per breakpoint,
        each value in lowest terms."""
        return _csv((b, v.numerator, v.denominator) for b, v in zip(self.breakpoints, self.values))

    @staticmethod
    def from_csv(text: str, domain_end: int | None = None) -> "StepFunction":
        """Parse the to_csv format.

        The CSV schema does not carry the validity bound, so domain_end
        defaults to twice the last breakpoint.
        """
        rows = [line.strip() for line in text.splitlines() if line.strip()]
        if not rows or rows[0] != _CSV_HEADER.strip():
            raise ValueError("expected header 't,value_num,value_den'")
        bps: list[int] = []
        pairs: list[Pair] = []
        for row in rows[1:]:
            t_s, num_s, den_s = row.split(",")
            bps.append(parse_decimal(t_s))
            pairs.append((parse_decimal(num_s), parse_decimal(den_s)))
        if not bps:
            raise ValueError("CSV has a header but no rows")
        if domain_end is None:
            domain_end = 2 * bps[-1]
        return StepFunction(tuple(bps), tuple(pairs), domain_end)


def _csv(rows: Iterable[tuple[int, int, int]]) -> str:
    """The CSV text of (t, num, den) rows."""
    buf = io.StringIO()
    buf.write(_CSV_HEADER)
    for t, num, den in rows:
        buf.write(f"{decimal_str(t)},{decimal_str(num)},{decimal_str(den)}\n")
    return buf.getvalue()


def _merged(points: list[tuple[int, Pair]], domain_end: int) -> StepFunction:
    """Build a StepFunction keeping only strict drops."""
    bps: list[int] = []
    pairs: list[Pair] = []
    for t, v in points:
        # The same pair again is no drop, and needs no comparison.
        if not pairs or v is not pairs[-1] and ratio_less(*v, *pairs[-1]):
            bps.append(t)
            pairs.append(v)
    return StepFunction(tuple(bps), tuple(pairs), domain_end)


def _drops(pq: PartialQuotients, weak: bool) -> list[int]:
    """The rows v <= N-2 where rho_v (psi) or q_v rho_v (upsilon) strictly
    drops below every earlier row's; upsilon's are decided without the
    products."""
    if pq.depth < 2:
        raise ValueError("need depth >= 2 to build a measure function")
    an = pq.analysis
    if an.domain_end < 2:
        raise ValueError("valid domain [1, q_{N-1}) is empty for this prefix")
    q, rho = an.q, an.rho
    kept = [0]
    for v in range(1, pq.depth - 1):
        w = kept[-1]
        # rho_v > 0 for v < N, so q_v rho_v < q_w rho_w iff q_v/rho_w < q_w/rho_v.
        drop = ratio_less(q[v], rho[w], q[w], rho[v]) if weak else rho[v] < rho[w]
        if drop:
            kept.append(v)
    return kept


def _measure(pq: PartialQuotients, kept: list[int], weak: bool) -> StepFunction:
    """The step function on the rows ``_drops(pq, weak)`` keeps, with the
    values (num, q_N) unreduced: one product q_v rho_v per kept upsilon row."""
    an = pq.analysis
    pairs = tuple((an.q[v] * an.rho[v] if weak else an.rho[v], an.q_n) for v in kept)
    return StepFunction(tuple(an.q[v] for v in kept), pairs, an.domain_end)


def measure_csv(pq: PartialQuotients, weak: bool) -> str:
    """The CSV of ``psi_step(pq)``, or of ``upsilon_step(pq)`` if ``weak``,
    each value brought to lowest terms by the closed-form gcd of the module
    docstring: one g_v per printed row, and no gcd with q_N for psi."""
    an = pq.analysis
    rows = []
    for v in _drops(pq, weak):
        g = an.g(v)
        num = an.q[v] * an.rho[v] if weak else an.rho[v]
        c = gcd(g * g, an.q_n) if weak else g
        rows.append((an.q[v], num // c, an.q_n // c))
    return _csv(rows)


def psi_step(pq: PartialQuotients) -> StepFunction:
    """The ordinary measure function of the prefix's truncation value.

    On [q_v, q_{v+1}) the minimum distance is ||q_v x||, so the breakpoints
    are the (deduplicated) convergent denominators and the values the exact
    distances.  Valid for t < q_{N-1}.
    """
    return _measure(pq, _drops(pq, False), False)


def upsilon_step(pq: PartialQuotients) -> StepFunction:
    """The weak measure function: running minimum of q_v * ||q_v x||.

    Consecutive equal values are merged away, so stored breakpoints are
    exactly the discontinuity points.
    """
    return _measure(pq, _drops(pq, True), True)


def min_step(f: StepFunction, g: StepFunction) -> StepFunction:
    """Pointwise minimum of two step functions on their domain intersection.

    One linear pass over the merged breakpoints of both functions.
    """
    start = max(f.domain_start, g.domain_start)
    end = min(f.domain_end, g.domain_end)
    if start >= end:
        raise ValueError("domains do not overlap")
    i, j = f.piece_index(start), g.piece_index(start)
    points: list[tuple[int, Pair]] = []
    t = start
    while t < end:
        a, b = f.pairs[i], g.pairs[j]
        points.append((t, b if ratio_less(*b, *a) else a))
        nf = f.breakpoints[i + 1] if i + 1 < len(f.breakpoints) else end
        ng = g.breakpoints[j + 1] if j + 1 < len(g.breakpoints) else end
        t = min(nf, ng)
        if nf == t:
            i += 1
        if ng == t:
            j += 1
    return _merged(points, end)

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
||q_v x|| = rho_v / q_N with one denominator q_N for every v.  A value is
held as three factors (x, y, d), meaning x y / d: psi's rows as
(rho_v, 1, q_N) and upsilon's as (q_v, rho_v, q_N).  ``_less`` compares
two values.  On one denominator, x1 y1 < x2 y2 is decided as
``ratio_less(x1, y2, x2, y1)``, or as x1 < x2 when y1 = y2, so upsilon's
running minimum forms no product q_v rho_v; two values with y = 1 compare as
``ratio_less(x1, d1, x2, d2)``, and only the rest compare their products.
``min_step`` compares the values of two numbers, whose q_N differ, so it
multiplies each weak value once before its pass.  A log of a value is
``log_product_ratio(x, y, d, 1)`` and needs no product either.  Only the
CSV writer ``measure_csv`` brings a value to lowest terms, by
c = gcd(x y, q_N) in closed form: write g = g_v, q_v = g q', rho_v = g r',
q_N = g n'.  By (4) q' and r' are prime to n', so c = g for psi and
c = g gcd(g q' r', n') = g gcd(g, n') = gcd(g^2, q_N) for upsilon.
"""

from __future__ import annotations

import io
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
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
#: A positive rational x*y/d as its factors (x, y, d), not necessarily reduced.
Value = tuple[int, int, int]

_CSV_HEADER = "t,value_num,value_den\n"


@dataclass(frozen=True)
class StepFunction:
    """Positive non-increasing right-open step function.

    f(t) = x*y/d for (x, y, d) = factors[k] and
    breakpoints[k] <= t < breakpoints[k+1], with the last piece ending
    (exclusively) at domain_end.  Stored breakpoints are exactly the
    discontinuities: consecutive equal values are merged at construction
    time.  Breakpoints are positive integers; evaluation is allowed at any
    rational t inside the domain.

    A value is held as three positive integers, not necessarily in lowest
    terms; every comparison reads it through ``_less`` and every log
    through ``intmath.log_product_ratio``, which depend only on the value.
    The constructor also takes an int or a ``Fraction`` for a value, held
    as (num, 1, den).  ``values``, ``value`` and ``left_limit`` build
    Fractions.
    """

    breakpoints: tuple[int, ...]
    factors: tuple[Value, ...]
    domain_end: int

    def __post_init__(self) -> None:
        bps = tuple(int(b) for b in self.breakpoints)
        factors = tuple(v if isinstance(v, tuple) else (v.numerator, 1, v.denominator)
                        for v in self.factors)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "factors", factors)
        if len(bps) != len(factors) or not bps:
            raise ValueError("breakpoints and values must be nonempty and aligned")
        if bps[0] < 1:
            raise ValueError("breakpoints must be positive")
        for a, b in zip(bps, bps[1:]):
            if b <= a:
                raise ValueError("breakpoints must be strictly increasing")
        # Positivity first: the screened comparison needs numerators >= 0.
        if any(x <= 0 or y <= 0 or d <= 0 for x, y, d in factors):
            raise ValueError("values must be positive")
        for v, w in zip(factors, factors[1:]):
            if not _less(w, v):
                raise ValueError("values must strictly decrease at stored breakpoints")
        if self.domain_end <= bps[-1]:
            raise ValueError("domain_end must exceed the last breakpoint")

    @property
    def domain_start(self) -> int:
        return self.breakpoints[0]

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The values as Fractions in lowest terms."""
        return tuple(_fraction(v) for v in self.factors)

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
        return _fraction(self.factors[self.piece_index(t)])

    def left_limit(self, t: Rat) -> Fraction:
        """f(t-) = value just before t, for domain_start < t <= domain_end."""
        return _fraction(self.factors[self.left_index(t)])

    def is_discontinuous_at(self, t: Rat) -> bool:
        """True iff t is a stored breakpoint with a predecessor piece."""
        k = bisect_left(self.breakpoints, t)
        return 1 <= k < len(self.breakpoints) and self.breakpoints[k] == t

    def pieces(self) -> Iterable[tuple[int, int, Value]]:
        """Yield (start, end, (x, y, d)) for each piece, end exclusive."""
        for k, (b, v) in enumerate(zip(self.breakpoints, self.factors)):
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
        factors: list[Value] = []
        for row in rows[1:]:
            t_s, num_s, den_s = row.split(",")
            bps.append(parse_decimal(t_s))
            factors.append((parse_decimal(num_s), 1, parse_decimal(den_s)))
        if not bps:
            raise ValueError("CSV has a header but no rows")
        if domain_end is None:
            domain_end = 2 * bps[-1]
        return StepFunction(tuple(bps), tuple(factors), domain_end)


def _less(v: Value, w: Value) -> bool:
    """v < w for two values held as factors (module docstring)."""
    x1, y1, d1 = v
    x2, y2, d2 = w
    if d1 == d2:
        return x1 < x2 if y1 == y2 else ratio_less(x1, y2, x2, y1)
    if y1 == 1 and y2 == 1:
        return ratio_less(x1, d1, x2, d2)
    return ratio_less(x1 * y1, d1, x2 * y2, d2)


def _fraction(v: Value) -> Fraction:
    """The value x*y/d as a Fraction in lowest terms."""
    return Fraction(v[0] * v[1], v[2])


def _csv(rows: Iterable[tuple[int, int, int]]) -> str:
    """The CSV text of (t, num, den) rows, each distinct integer converted once."""
    dec = cache(decimal_str)
    buf = io.StringIO()
    buf.write(_CSV_HEADER)
    for row in rows:
        buf.write(",".join(map(dec, row)) + "\n")
    return buf.getvalue()


def _merged(points: Iterable[tuple[int, Value]], domain_end: int) -> StepFunction:
    """Build a StepFunction keeping only strict drops."""
    bps: list[int] = []
    factors: list[Value] = []
    for t, v in points:
        # The same value object again is no drop, and needs no comparison.
        if not factors or v is not factors[-1] and _less(v, factors[-1]):
            bps.append(t)
            factors.append(v)
    return StepFunction(tuple(bps), tuple(factors), domain_end)


def _running_minimum(pq: PartialQuotients, weak: bool) -> StepFunction:
    """psi of the prefix, or upsilon if ``weak``: the rows v <= N-2 whose
    value (rho_v, 1, q_N), or (q_v, rho_v, q_N), drops below every earlier
    row's, at the breakpoints q_v."""
    if pq.depth < 2:
        raise ValueError("need depth >= 2 to build a measure function")
    an = pq.analysis
    if an.domain_end < 2:
        raise ValueError("valid domain [1, q_{N-1}) is empty for this prefix")
    q, rho, q_n = an.q, an.rho, an.q_n
    return _merged(((q[v], (q[v], rho[v], q_n) if weak else (rho[v], 1, q_n))
                    for v in range(pq.depth - 1)), an.domain_end)


def measure_csv(pq: PartialQuotients, weak: bool) -> str:
    """The CSV of ``psi_step(pq)``, or of ``upsilon_step(pq)`` if ``weak``,
    each value brought to lowest terms by the closed-form gcd of the module
    docstring: one g_v = gcd(q_v, rho_v) per printed row, with q_v the
    breakpoint, and no gcd with q_N for psi."""
    rows = []
    f = _running_minimum(pq, weak)
    for t, (x, y, d) in zip(f.breakpoints, f.factors):
        g = gcd(t, y if weak else x)
        c = gcd(g * g, d) if weak else g
        rows.append((t, x * y // c, d // c))
    return _csv(rows)


def psi_step(pq: PartialQuotients) -> StepFunction:
    """The ordinary measure function of the prefix's truncation value.

    On [q_v, q_{v+1}) the minimum distance is ||q_v x||, so the breakpoints
    are the (deduplicated) convergent denominators and the values the exact
    distances, held as (rho_v, 1, q_N).  Valid for t < q_{N-1}.
    """
    return _running_minimum(pq, weak=False)


def upsilon_step(pq: PartialQuotients) -> StepFunction:
    """The weak measure function: running minimum of q_v * ||q_v x||, each
    value held as (q_v, rho_v, q_N) and no product formed.

    Consecutive equal values are merged away, so stored breakpoints are
    exactly the discontinuity points.
    """
    return _running_minimum(pq, weak=True)


def min_step(f: StepFunction, g: StepFunction) -> StepFunction:
    """Pointwise minimum of two step functions on their domain intersection.

    One linear pass over the merged breakpoints of both functions.  Each
    value with y != 1 is multiplied out to (x*y, 1, d) once beforehand, so
    no comparison of two values on different denominators forms a product.
    """
    start = max(f.domain_start, g.domain_start)
    end = min(f.domain_end, g.domain_end)
    if start >= end:
        raise ValueError("domains do not overlap")
    fv, gv = ([v if v[1] == 1 else (v[0] * v[1], 1, v[2]) for v in h.factors] for h in (f, g))
    i, j = f.piece_index(start), g.piece_index(start)
    points: list[tuple[int, Value]] = []
    t = start
    while t < end:
        a, b = fv[i], gv[j]
        points.append((t, b if _less(b, a) else a))
        nf = f.breakpoints[i + 1] if i + 1 < len(f.breakpoints) else end
        ng = g.breakpoints[j + 1] if j + 1 < len(g.breakpoints) else end
        t = min(nf, ng)
        if nf == t:
            i += 1
        if ng == t:
            j += 1
    return _merged(points, end)

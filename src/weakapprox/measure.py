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
minima compare the integers rho_v (psi) and q_v rho_v (upsilon) directly.
Only a value that is kept is brought to lowest terms, by c = gcd(num, q_N):
write g = g_v, q_v = g q', rho_v = g r', q_N = g n'.  By (4) q' and r' are prime to n',
so c = g for psi and c = g gcd(g q' r', n') = g gcd(g, n') = gcd(g^2, q_N) for upsilon.
"""

from __future__ import annotations

import io
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Union

from .cf import PartialQuotients, qnorm_table  # noqa: F401 - perfbench looks it up here
from .intmath import _rat_str, decimal_str, parse_decimal, ratio_less, reduced_fraction

__all__ = [
    "StepFunction",
    "psi_step",
    "upsilon_step",
    "min_step",
]

Rat = Union[int, Fraction]


@dataclass(frozen=True)
class StepFunction:
    """Positive non-increasing right-open step function.

    f(t) = values[k] for breakpoints[k] <= t < breakpoints[k+1], with the
    last piece ending (exclusively) at domain_end.  Stored breakpoints are
    exactly the discontinuities: consecutive equal values are merged at
    construction time.  Breakpoints are positive integers; evaluation is
    allowed at any rational t inside the domain.
    """

    breakpoints: tuple[int, ...]
    values: tuple[Fraction, ...]
    domain_end: int

    def __post_init__(self) -> None:
        bps = tuple(int(b) for b in self.breakpoints)
        vals = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        if len(bps) != len(vals) or not bps:
            raise ValueError("breakpoints and values must be nonempty and aligned")
        if bps[0] < 1:
            raise ValueError("breakpoints must be positive")
        for a, b in zip(bps, bps[1:]):
            if b <= a:
                raise ValueError("breakpoints must be strictly increasing")
        # Positivity first: the screened comparison needs numerators >= 0.
        if any(v.numerator <= 0 for v in vals):
            raise ValueError("values must be positive")
        for v, w in zip(vals, vals[1:]):
            if not ratio_less(w.numerator, w.denominator, v.numerator, v.denominator):
                raise ValueError("values must strictly decrease at stored breakpoints")
        if self.domain_end <= bps[-1]:
            raise ValueError("domain_end must exceed the last breakpoint")

    @property
    def domain_start(self) -> int:
        return self.breakpoints[0]

    def piece_index(self, t: Rat) -> int:
        """Index k of the piece containing t; raises outside the domain."""
        if t < self.breakpoints[0] or t >= self.domain_end:
            start, end = decimal_str(self.breakpoints[0]), decimal_str(self.domain_end)
            raise ValueError(f"t = {_rat_str(t)} outside domain [{start}, {end})")
        return bisect_right(self.breakpoints, t) - 1

    def value(self, t: Rat) -> Fraction:
        """f(t)."""
        return self.values[self.piece_index(t)]

    def left_limit(self, t: Rat) -> Fraction:
        """f(t-) = value just before t, for domain_start < t <= domain_end."""
        if t <= self.breakpoints[0] or t > self.domain_end:
            raise ValueError(f"left limit undefined at t = {_rat_str(t)}")
        return self.values[bisect_left(self.breakpoints, t) - 1]

    def is_discontinuous_at(self, t: Rat) -> bool:
        """True iff t is a stored breakpoint with a predecessor piece."""
        k = bisect_left(self.breakpoints, t)
        return 1 <= k < len(self.breakpoints) and self.breakpoints[k] == t

    def pieces(self) -> Iterable[tuple[int, int, Fraction]]:
        """Yield (start, end, value) for each piece, end exclusive."""
        for k, (b, v) in enumerate(zip(self.breakpoints, self.values)):
            end = self.breakpoints[k + 1] if k + 1 < len(self.breakpoints) else self.domain_end
            yield b, end, v

    def to_csv(self) -> str:
        """CSV with header "t,value_num,value_den", one row per breakpoint."""
        buf = io.StringIO()
        buf.write("t,value_num,value_den\n")
        for b, v in zip(self.breakpoints, self.values):
            buf.write(
                f"{decimal_str(b)},{decimal_str(v.numerator)},{decimal_str(v.denominator)}\n"
            )
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str, domain_end: int | None = None) -> "StepFunction":
        """Parse the to_csv format.

        The CSV schema does not carry the validity bound, so domain_end
        defaults to twice the last breakpoint.
        """
        rows = [line.strip() for line in text.splitlines() if line.strip()]
        if not rows or rows[0] != "t,value_num,value_den":
            raise ValueError("expected header 't,value_num,value_den'")
        bps: list[int] = []
        vals: list[Fraction] = []
        for row in rows[1:]:
            t_s, num_s, den_s = row.split(",")
            bps.append(parse_decimal(t_s))
            vals.append(Fraction(parse_decimal(num_s), parse_decimal(den_s)))
        if domain_end is None:
            domain_end = 2 * bps[-1]
        return StepFunction(tuple(bps), tuple(vals), domain_end)


def _merged(points: list[tuple[int, Fraction]], domain_end: int) -> StepFunction:
    """Build a StepFunction keeping only strict drops."""
    bps: list[int] = []
    vals: list[Fraction] = []
    for t, v in points:
        if not vals or ratio_less(v.numerator, v.denominator,
                                  vals[-1].numerator, vals[-1].denominator):
            bps.append(t)
            vals.append(v)
    return StepFunction(tuple(bps), tuple(vals), domain_end)


def _measure(pq: PartialQuotients, weak: bool) -> StepFunction:
    """Running minimum of rho_v (psi) or q_v rho_v (upsilon) over v <= N-2."""
    if pq.depth < 2:
        raise ValueError("need depth >= 2 to build a measure function")
    an = pq.analysis
    if an.domain_end < 2:
        raise ValueError("valid domain [1, q_{N-1}) is empty for this prefix")
    bps: list[int] = []
    vals: list[Fraction] = []
    best = None
    for v in range(pq.depth - 1):
        q = an.q[v]
        scaled = q * an.rho[v] if weak else an.rho[v]
        if best is None or scaled < best:
            best = scaled
            g = an.gcds[v]
            c = gcd(g * g, an.q_n) if weak else g
            bps.append(q)
            vals.append(reduced_fraction(scaled // c, an.q_n // c))
    return StepFunction(tuple(bps), tuple(vals), an.domain_end)


def psi_step(pq: PartialQuotients) -> StepFunction:
    """The ordinary measure function of the prefix's truncation value.

    On [q_v, q_{v+1}) the minimum distance is ||q_v x||, so the breakpoints
    are the (deduplicated) convergent denominators and the values the exact
    distances.  Valid for t < q_{N-1}.
    """
    return _measure(pq, weak=False)


def upsilon_step(pq: PartialQuotients) -> StepFunction:
    """The weak measure function: running minimum of q_v * ||q_v x||.

    Consecutive equal values are merged away, so stored breakpoints are
    exactly the discontinuity points.
    """
    return _measure(pq, weak=True)


def min_step(f: StepFunction, g: StepFunction) -> StepFunction:
    """Pointwise minimum of two step functions on their domain intersection.

    One linear pass over the merged breakpoints of both functions.
    """
    start = max(f.domain_start, g.domain_start)
    end = min(f.domain_end, g.domain_end)
    if start >= end:
        raise ValueError("domains do not overlap")
    i, j = f.piece_index(start), g.piece_index(start)
    points: list[tuple[int, Fraction]] = []
    t = start
    while t < end:
        a, b = f.values[i], g.values[j]
        points.append((t, b if ratio_less(b.numerator, b.denominator,
                                          a.numerator, a.denominator) else a))
        nf = f.breakpoints[i + 1] if i + 1 < len(f.breakpoints) else end
        ng = g.breakpoints[j + 1] if j + 1 < len(g.breakpoints) else end
        t = min(nf, ng)
        if nf == t:
            i += 1
        if ng == t:
            j += 1
    return _merged(points, end)

"""Two-dimensional lattices A*Z^2 and the product minimum Psi(t).

Psi(t) = min |x1 x2|^(1/2) over nonzero lattice points with sup-norm <= t.
Minima are compared through the exact product |x1 x2|, so no square roots
are ever taken; logarithms appear only in exponent estimates.

Rational lattices degenerate at large t: some point hits a coordinate axis
(the product vanishes) at the *degeneracy radius*, computable exactly from
the matrix entries.  All exponent sampling stays strictly below it.

``minimum_profile`` reads Psi off the chain of relative minima (Voronoi
1896; Cassels, *An Introduction to the Geometry of Numbers*, ch. V); the
facts below prove it complete, and the tests check it against an
exhaustive scan of the box.

Say y dominates x if |y1| <= |x1|, |y2| <= |x2| and (|y1|, |y2|) differs
from (|x1|, |x2|).  A nonzero lattice point no lattice point dominates is a
relative minimum; minima are counted once per (|x1|, |x2|).  Two minima
cannot share |x1| (one would dominate the other), so by |x1| falling they
have |x2| rising: they form a chain.

(1) Every record value is attained at a relative minimum.  For a nonzero
    point x, among the nonzero points y with |y1| <= |x1| and |y2| <= |x2|
    one with the least |y1| + |y2| is a minimum, with sup-norm and product
    at most x's.  So Psi(t) is the least product over the minima with
    sup-norm <= t, and the records of Psi are the strict running minima of
    the product over the minima in order of sup-norm.
(2) The chain ends at its axis points.  Write row i of the matrix as
    (Ai, Bi)/di in integers, D = A1 B2 - B1 A2 and gi = gcd(Ai, Bi).  The
    primitive point with x2 = 0 is e, with (m, n) = (B2, -A2)/g2 and
    x1 = D/(g2 d1).  Every point with x2 = 0 is a multiple of e, so nothing
    dominates e, and e dominates every point with |x1| >= |e1| off the
    axis: e ends the chain.  Complete e to a basis e, f with f = (u, v):
    v = m^-1 mod |n| and u = (m v - 1)/n, so that m v - n u = 1, or
    f = (0, m) when n = 0 (then m = +-1).  Every point is a e + b f, with
    x2 = b f2, so every nonzero point with |x1| < |e1| has b != 0 and
    |x2| >= |f2|, with equality only at b = +-1.  Among those,
    r = f - round(f1/e1) e has the least |x1|, at most |e1|/2.  So nothing
    dominates r, and no point has |y1| < |e1| and |y2| < |r2|: r is the
    minimum next to e.  The same holds with the coordinates swapped, so
    the least sup-norm of a zero-product point, the degeneracy radius, is
    |D| / max(g1 d2, g2 d1).
(3) Let p, q be consecutive, |p1| > |q1|, oriented so that p1, q1 > 0.  No
    nonzero lattice point has |y1| < p1 and |y2| < |q2|: the minimum that
    (1) finds for it would lie strictly between p and q.  So p, q is a basis
    (else some a p + b q with |a|, |b| <= 1/2, not both 0, is such a
    point), and p2 q2 <= 0 (else q - p is one).  The next minimum r has the
    least |y2| among the nonzero points with |y1| < q1, and r = +-(p - a q)
    as q, r is a basis too.  |p1 - a q1| < q1 leaves a = floor(p1/q1) or
    a + 1, and |p2 - a q2| = |p2| + a |q2| picks a = floor(p1/q1).  So
    r = p - floor(p1/q1) q with 0 <= r1 < q1: the continued-fraction
    algorithm on p1/q1, ending at the other axis point, r1 = 0.
(4) Walked from e, r by (3), the chain comes by |x1| falling and |x2|
    rising strictly.  The minima with sup-norm <= R are those with
    |x2| <= R, a first stretch of the walk, that also have |x1| <= R; so
    the walk may stop at its first point with |x2| > R.

``minimum_profile`` seeds the chain at its x2 = 0 end, walks it once and
keeps the running minima, all on integer coordinates over the row
denominators.  The records keep those integers unreduced:
``intmath.log_ratio`` depends only on the value of a quotient, so the
exponent estimates need no gcd, and only the tests build Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Union

from .cf import PartialQuotients, truncation_value
from .exponents import ExponentEstimate, _estimate
from .intmath import fraction_str, log_ratio

__all__ = [
    "Lattice2",
    "ProfileRecord",
    "lattice_from_pair",
    "diag_scale",
    "degeneracy_radius",
    "minimum_profile",
    "lattice_exponents",
]

Rat = Union[int, Fraction]


@dataclass(frozen=True)
class Lattice2:
    """Lattice A*Z^2 given by a nonsingular 2x2 rational matrix."""

    a11: Fraction
    a12: Fraction
    a21: Fraction
    a22: Fraction

    def __post_init__(self) -> None:
        for name in ("a11", "a12", "a21", "a22"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.integer_form[6] == 0:  # D
            raise ValueError("matrix must be nonsingular")

    @property
    def det(self) -> Fraction:
        return self.a11 * self.a22 - self.a12 * self.a21

    @cached_property
    def integer_form(self) -> tuple[int, int, int, int, int, int, int, int, int]:
        """(A1, B1, d1, A2, B2, d2, D, g1, g2), made on first use and kept:
        row i of the matrix is (Ai, Bi) / di in integers, D = A1 B2 - B1 A2
        and gi = gcd(Ai, Bi), as in fact (2) of the module docstring."""
        rows: list[int] = []
        for a, b in ((self.a11, self.a12), (self.a21, self.a22)):
            d = math.lcm(a.denominator, b.denominator)
            rows += (a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d)
        A1, B1, _, A2, B2, _ = rows
        return (*rows, A1 * B2 - B1 * A2, gcd(A1, B1), gcd(A2, B2))

    def to_dict(self) -> dict:
        return {
            "a11": fraction_str(self.a11),
            "a12": fraction_str(self.a12),
            "a21": fraction_str(self.a21),
            "a22": fraction_str(self.a22),
        }


@dataclass(frozen=True)
class ProfileRecord:
    """One running-minimum record in the profile's unreduced integers: at
    sup-norm t = sup/sup_den (|x1|/d1 or |x2|/d2), Psi^2 drops to
    product/product_den (|x1 x2| over d1 d2).  ``t`` and ``product_sq``
    build the exact Fractions."""

    sup: int
    sup_den: int
    point: tuple[int, int]
    product: int
    product_den: int

    @property
    def t(self) -> Fraction:
        return Fraction(self.sup, self.sup_den)

    @property
    def product_sq(self) -> Fraction:  # (x1 x2)^2 = Psi(t)^4
        return Fraction(self.product, self.product_den) ** 2


def lattice_from_pair(theta_pq: PartialQuotients, eta_pq: PartialQuotients) -> Lattice2:
    """Unit-diagonal lattice [[1, theta], [eta, 1]] from two prefixes."""
    return Lattice2(1, truncation_value(theta_pq), truncation_value(eta_pq), 1)


def diag_scale(lat: Lattice2, d1: Rat, d2: Rat) -> Lattice2:
    """Row scaling diag(d1, d2) * A; the row ratios a12/a11, a21/a22 are unchanged."""
    d1, d2 = Fraction(d1), Fraction(d2)
    if d1 == 0 or d2 == 0:
        raise ValueError("scale factors must be nonzero")
    return Lattice2(d1 * lat.a11, d1 * lat.a12, d2 * lat.a21, d2 * lat.a22)


def degeneracy_radius(lat: Lattice2) -> Fraction:
    """Smallest sup-norm of a nonzero lattice point with zero product,
    |D| / max(g1 d2, g2 d1) by fact (2) of the module docstring.

    Beyond this radius Psi is identically zero for a rational matrix, so
    exponent sampling there measures only the truncation.
    """
    _, _, d1, _, _, d2, D, g1, g2 = lat.integer_form
    return Fraction(abs(D), max(g1 * d2, g2 * d1))


#: A lattice point as (m, n, x1, x2), with x1, x2 its coordinates scaled to
#: integers by the row denominators.
_Point = tuple[int, int, int, int]


def _axis_seed(A1: int, B1: int, A2: int, B2: int, D: int, g: int) -> tuple[_Point, _Point]:
    """The minimum e on the x2 = 0 axis and the minimum r next to it; fact (2),
    with D and g = gcd(A2, B2) from ``Lattice2.integer_form``."""
    m, n = B2 // g, -A2 // g
    e = (m, n, D // g, 0)
    v = pow(m, -1, abs(n)) if n else m
    u = (m * v - 1) // n if n else 0
    f1 = A1 * u + B1 * v  # and f2 = A2 u + B2 v = g (m v - n u) = g
    a = (2 * f1 + e[2]) // (2 * e[2])  # round(f1 / e1)
    return e, (u - a * m, v - a * n, f1 - a * e[2], g)


def _walk(p: _Point, q: _Point, x2_max: int) -> list[_Point]:
    """The relative minima beyond the consecutive minima p, q, |p1| > |q1|,
    by |x1| falling, up to the first with |x2| > x2_max; fact (3)."""
    if p[2] < 0:
        p = (-p[0], -p[1], -p[2], -p[3])
    if q[2] < 0:
        q = (-q[0], -q[1], -q[2], -q[3])
    walked: list[_Point] = []
    while 0 < q[2] < p[2]:  # x1 falls strictly, so this ends
        a = p[2] // q[2]
        r = (p[0] - a * q[0], p[1] - a * q[1], p[2] - a * q[2], p[3] - a * q[3])
        if abs(r[3]) > x2_max:
            break
        walked.append(r)
        p, q = q, r
    return walked


def minimum_profile(lat: Lattice2, t_max: Rat) -> list[ProfileRecord]:
    """All running-minimum records of the product up to sup-norm t_max.

    The candidates are the relative minima with sup-norm <= t_max, walked
    once from the x2 = 0 end of the chain (see the module docstring).
    """
    t_max = Fraction(t_max)
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    A1, B1, d1, A2, B2, d2, D, _, g2 = lat.integer_form
    # sup-norm <= t_max  iff  |x1| <= t_max d1 and |x2| <= t_max d2
    x1_max, x2_max = (t_max.numerator * d // t_max.denominator for d in (d1, d2))
    e, r = _axis_seed(A1, B1, A2, B2, D, g2)
    chain = [
        p for p in (e, r, *_walk(e, r, x2_max)) if abs(p[2]) <= x1_max and abs(p[3]) <= x2_max
    ]

    def keyed(p: _Point) -> tuple:
        # (sup-norm, product) over d1 d2, the point, and the sup-norm as x / d
        s1, s2 = abs(p[2]) * d2, abs(p[3]) * d1
        x, d = (abs(p[2]), d1) if s1 >= s2 else (abs(p[3]), d2)
        return max(s1, s2), abs(p[2] * p[3]), p, x, d

    den = d1 * d2
    records: list[ProfileRecord] = []
    for _, prod, p, x, d in sorted(map(keyed, chain)):
        if not records or prod < records[-1].product:
            records.append(ProfileRecord(x, d, (p[0], p[1]), prod, den))
    return records


def lattice_exponents(
    lat: Lattice2,
    t_max: Rat | None = None,
) -> tuple[ExponentEstimate, ExponentEstimate, dict]:
    """Ordinary and uniform lattice exponent estimates from the record profile.

    Sampling matches the normalization of the reduction to row-ratio
    exponents (ordinary lattice exponent = (max row-ratio ordinary + 1)/2,
    uniform = (mutual weak uniform + 1)/2): at a record of sup-norm T the
    ordinary sample is 1 - log Psi(T) / log T (the newly attained minimum,
    where the liminf envelope binds) and the uniform sample is
    1 - log Psi(T-) / log T (the left limit, where the limsup envelope
    binds), with log Psi = log_ratio(product, product_den) / 2 and
    log T = log_ratio(sup, sup_den), straight from the unreduced record
    integers; the sample key is floor(T).  Ordinary estimate: sample
    max; uniform: sample min; both over the samples that
    ``exponents.apply_window`` schedules, as on the number side.  An input
    without a sample of each kind raises ``exponents.NotEstimable``.

    The range is capped strictly below the degeneracy radius; a requested
    t_max at or beyond it is truncated and flagged in the info dict.
    """
    radius = degeneracy_radius(lat)
    cap = radius * Fraction(4095, 4096)
    info: dict = {"degeneracy_radius": fraction_str(radius), "truncated": False}
    if t_max is None:
        t_eff = cap
    else:
        t_eff = Fraction(t_max)
        if t_eff >= radius:
            t_eff = cap
            info["truncated"] = True
    info["t_max"] = fraction_str(t_eff)

    records = minimum_profile(lat, t_eff)
    # Every record lies below the degeneracy radius, so its product is nonzero.
    log_psi = [log_ratio(rec.product, rec.product_den) / 2.0 for rec in records]
    ord_all: list[tuple[int, float]] = []
    uni_all: list[tuple[int, float]] = []
    for k, rec in enumerate(records):
        if rec.sup >= 2 * rec.sup_den:
            key, log_t = rec.sup // rec.sup_den, log_ratio(rec.sup, rec.sup_den)
            ord_all.append((key, 1.0 - log_psi[k] / log_t))
            if k > 0:
                uni_all.append((key, 1.0 - log_psi[k - 1] / log_t))
    info["records"] = len(records)
    return (
        _estimate("omega_lattice", ord_all, None, max),
        _estimate("omega_bar_lattice", uni_all, None, min),
        info,
    )

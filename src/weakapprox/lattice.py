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
(5) Along the walk |x1|/d1 falls and |x2|/d2 rises, so the sup-norm falls
    while |x1|/d1 >= |x2|/d2 and rises after.  Read backwards the first
    stretch is in sup-norm order, and so is the rest: merging the two
    orders the minima by sup-norm, the smaller product first at a tie.

``minimum_profile`` seeds the chain at its x2 = 0 end, walks it once,
merges it by (5) and keeps the running minima, on the integer rows of
``Lattice2``: the box test and the merge are ``intmath.ratio_less``
comparisons, screened on bit lengths and then on 64-bit heads, and each
minimum costs one product |x1 x2|.  The records keep those integers
unreduced: ``intmath.log_ratio`` depends only on the value of a
quotient, so the exponent estimates need no gcd, and only the tests
build Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Union

from .cf import PartialQuotients, convergents
from .exponents import ExponentEstimate, _estimate
from .intmath import fraction_str, log_ratio, ratio_less

__all__ = [
    "Lattice2",
    "ProfileRecord",
    "lattice_from_pair",
    "degeneracy_radius",
    "minimum_profile",
    "lattice_exponents",
]

Rat = Union[int, Fraction]


@dataclass(frozen=True)
class Lattice2:
    """Lattice A*Z^2 of a nonsingular rational 2x2 matrix A, held as integer
    rows: row i of A is (Ai, Bi)/di with di > 0.  Construction also keeps
    D = A1 B2 - B1 A2 and gi = gcd(Ai, Bi) of fact (2) of the module
    docstring, as the attributes ``D``, ``g1`` and ``g2``."""

    A1: int
    B1: int
    d1: int
    A2: int
    B2: int
    d2: int

    def __post_init__(self) -> None:
        if self.d1 <= 0 or self.d2 <= 0:
            raise ValueError("row denominators must be positive")
        object.__setattr__(self, "D", self.A1 * self.B2 - self.B1 * self.A2)
        if self.D == 0:
            raise ValueError("matrix must be nonsingular")
        object.__setattr__(self, "g1", gcd(self.A1, self.B1))
        object.__setattr__(self, "g2", gcd(self.A2, self.B2))

    def to_dict(self) -> dict:
        entries = (self.A1, self.d1), (self.B1, self.d1), (self.A2, self.d2), (self.B2, self.d2)
        return {name: fraction_str(Fraction(*entry))
                for name, entry in zip(("a11", "a12", "a21", "a22"), entries)}


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


def lattice_from_pair(
    theta_pq: PartialQuotients, eta_pq: PartialQuotients, d1: Rat = 1, d2: Rat = 1
) -> Lattice2:
    """The lattice diag(d1, d2) [[1, theta], [eta, 1]] of two prefixes whose
    last convergents are p/q and r/s: rows d1 (q, p)/q and d2 (r, s)/s."""
    theta, eta = convergents(theta_pq)[-1], convergents(eta_pq)[-1]
    d1, d2 = Fraction(d1), Fraction(d2)
    return Lattice2(d1.numerator * theta.q, d1.numerator * theta.p, d1.denominator * theta.q,
                    d2.numerator * eta.p, d2.numerator * eta.q, d2.denominator * eta.q)


def degeneracy_radius(lat: Lattice2) -> Fraction:
    """Smallest sup-norm of a nonzero lattice point with zero product,
    |D| / max(g1 d2, g2 d1) by fact (2) of the module docstring.

    Beyond this radius Psi is identically zero for a rational matrix, so
    exponent sampling there measures only the truncation.
    """
    return Fraction(abs(lat.D), max(lat.g1 * lat.d2, lat.g2 * lat.d1))


#: A lattice point as (m, n, x1, x2), with x1, x2 its coordinates scaled to
#: integers by the row denominators.
_Point = tuple[int, int, int, int]


def _axis_seed(lat: Lattice2) -> tuple[_Point, _Point]:
    """The minimum e on the x2 = 0 axis and the minimum r next to it; fact (2)."""
    g = lat.g2
    m, n = lat.B2 // g, -lat.A2 // g
    e = (m, n, lat.D // g, 0)
    v = pow(m, -1, abs(n)) if n else m
    u = (m * v - 1) // n if n else 0
    f1 = lat.A1 * u + lat.B1 * v  # and f2 = A2 u + B2 v = g (m v - n u) = g
    a = (2 * f1 + e[2]) // (2 * e[2])  # round(f1 / e1)
    return e, (u - a * m, v - a * n, f1 - a * e[2], g)


def _walk(p: _Point, q: _Point, t_num: int, t_den: int, d2: int) -> list[_Point]:
    """The relative minima beyond the consecutive minima p, q, |p1| > |q1|,
    by |x1| falling, up to the first with |x2|/d2 > t_num/t_den; fact (3)."""
    if p[2] < 0:
        p = (-p[0], -p[1], -p[2], -p[3])
    if q[2] < 0:
        q = (-q[0], -q[1], -q[2], -q[3])
    walked: list[_Point] = []
    while 0 < q[2] < p[2]:  # x1 falls strictly, so this ends
        a = p[2] // q[2]
        r = (p[0] - a * q[0], p[1] - a * q[1], p[2] - a * q[2], p[3] - a * q[3])
        if ratio_less(t_num, t_den, abs(r[3]), d2):
            break
        walked.append(r)
        p, q = q, r
    return walked


def minimum_profile(lat: Lattice2, t_max: Rat) -> list[ProfileRecord]:
    """All running-minimum records of the product up to sup-norm t_max.

    The candidates are the relative minima with sup-norm <= t_max, walked
    once from the x2 = 0 end of the chain and merged into sup-norm order
    (see the module docstring).
    """
    t_max = Fraction(t_max)
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    tn, td, d1, d2 = t_max.numerator, t_max.denominator, lat.d1, lat.d2
    e, r = _axis_seed(lat)
    # sup-norm <= t_max  iff  |x1|/d1 <= t_max and |x2|/d2 <= t_max
    chain = [
        p for p in (e, r, *_walk(e, r, tn, td, d2))
        if not ratio_less(tn, td, abs(p[2]), d1) and not ratio_less(tn, td, abs(p[3]), d2)
    ]
    # Fact (5): the sup-norm is |x1|/d1 on the first k points and |x2|/d2
    # after; each stretch goes on a stack whose top has the least sup-norm.
    k = 0
    while k < len(chain) and not ratio_less(abs(chain[k][2]), d1, abs(chain[k][3]), d2):
        k += 1
    falling = [(abs(p[2]), d1, abs(p[2] * p[3]), p) for p in chain[:k]]
    rising = [(abs(p[3]), d2, abs(p[2] * p[3]), p) for p in reversed(chain[k:])]
    den = d1 * d2
    records: list[ProfileRecord] = []
    while falling or rising:
        first = bool(falling)
        if falling and rising:  # by sup-norm x/d, then product, then point
            (xa, da, *ka), (xb, db, *kb) = falling[-1], rising[-1]
            first = ratio_less(xa, da, xb, db) or not ratio_less(xb, db, xa, da) and ka < kb
        x, d, prod, p = (falling if first else rising).pop()
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
    truncated = t_max is not None and t_max >= radius
    t_eff = radius * Fraction(4095, 4096) if t_max is None or truncated else Fraction(t_max)
    info: dict = {"degeneracy_radius": fraction_str(radius), "truncated": truncated,
                  "t_max": fraction_str(t_eff)}

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

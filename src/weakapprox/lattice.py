"""Two-dimensional lattices A*Z^2 and the product minimum Psi(t).

Psi(t) = min |x1 x2|^(1/2) over nonzero lattice points with sup-norm <= t.
Minima are compared through the exact product |x1 x2|, so no square roots
are ever taken; logarithms appear only in exponent estimates.

Rational lattices degenerate at large t: some point hits a coordinate axis
(the product vanishes) at the *degeneracy radius*, computable exactly from
the matrix entries.  All exponent sampling stays strictly below it.

``psi_lattice`` scans the whole box: exact for any nonsingular rational
matrix, cost growing with the box area, and the oracle of the tests.
``minimum_profile`` walks the chain of relative minima instead (Voronoi
1896; Cassels, *An Introduction to the Geometry of Numbers*, ch. V).

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
(2) The minima with sup-norm <= R are one contiguous stretch of the chain,
    the meet of its |x1| <= R end and its |x2| <= R end.  Whatever dominates
    a point of the box [-R, R]^2 lies in it, so the undominated points of an
    exhaustive scan of the box are exactly these minima: consecutive ones.
(3) Let p, q be consecutive, |p1| > |q1|, oriented so that p1, q1 > 0.  No
    nonzero lattice point has |y1| < p1 and |y2| < |q2|: the minimum that
    (1) finds for it would lie strictly between p and q.  So p, q is a basis
    (else some a p + b q with |a|, |b| <= 1/2, not both 0, is such a
    point), and p2 q2 <= 0 (else q - p is one).  The next minimum r has the
    least |y2| among the nonzero points with |y1| < q1, and r = +-(p - a q)
    as q, r is a basis too.  |p1 - a q1| < q1 leaves a = floor(p1/q1) or
    a + 1, and |p2 - a q2| = |p2| + a |q2| picks a = floor(p1/q1).  So
    r = p - floor(p1/q1) q with 0 <= r1 < q1: the continued-fraction
    algorithm on p1/q1, ending at an axis point, r1 = 0.  Swapping the
    coordinates walks the other way.
(4) Along a walk the falling coordinate stays below the seed's and the
    growing one rises strictly, so the walk may stop at its first point
    outside the box: every later minimum lies outside too.

``minimum_profile`` seeds the chain with an exhaustive core around the
origin, walks it both ways, and keeps the running minima, all on integer
coordinates over the row denominators.  The records keep those integers
unreduced: ``intmath.log_ratio`` depends only on the value of a quotient,
so the exponent estimates need no gcd, and only the tests build Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Union

from .cf import PartialQuotients, truncation_value
from .exponents import ExponentEstimate, _estimate
from .intmath import _rat_str, fraction_str, log_ratio, parse_fraction

__all__ = [
    "Lattice2",
    "LatticeMinimum",
    "ProfileRecord",
    "lattice_from_pair",
    "diag_scale",
    "degeneracy_radius",
    "psi_lattice",
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
        if self.det == 0:
            raise ValueError("matrix must be nonsingular")

    @property
    def det(self) -> Fraction:
        return self.a11 * self.a22 - self.a12 * self.a21

    @property
    def theta(self) -> Fraction:
        """Row ratio a12/a11 (requires a11 != 0)."""
        if self.a11 == 0:
            raise ValueError("theta undefined: a11 = 0")
        return self.a12 / self.a11

    @property
    def eta(self) -> Fraction:
        """Row ratio a21/a22 (requires a22 != 0)."""
        if self.a22 == 0:
            raise ValueError("eta undefined: a22 = 0")
        return self.a21 / self.a22

    def image(self, m: int, n: int) -> tuple[Fraction, Fraction]:
        """Coordinates of the lattice point for integer (m, n)."""
        return (self.a11 * m + self.a12 * n, self.a21 * m + self.a22 * n)

    def to_dict(self) -> dict:
        return {
            "a11": fraction_str(self.a11),
            "a12": fraction_str(self.a12),
            "a21": fraction_str(self.a21),
            "a22": fraction_str(self.a22),
        }

    @staticmethod
    def from_dict(data: dict) -> "Lattice2":
        return Lattice2(*(parse_fraction(data[k]) for k in ("a11", "a12", "a21", "a22")))


@dataclass(frozen=True)
class LatticeMinimum:
    """Minimizer of the coordinate product within the box of radius t.

    ``product_sq`` stores (x1 x2)^2 exactly, so Psi(t) = product_sq^(1/4);
    ``degenerate`` marks a vanishing product.
    """

    t: Fraction
    point: tuple[int, int]
    image: tuple[Fraction, Fraction]
    product_sq: Fraction
    degenerate: bool = False


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
    th = truncation_value(theta_pq)
    et = truncation_value(eta_pq)
    if th * et == 1:
        raise ValueError("theta * eta = 1 gives a singular matrix")
    return Lattice2(Fraction(1), th, et, Fraction(1))


def diag_scale(lat: Lattice2, d1: Rat, d2: Rat) -> Lattice2:
    """Row scaling diag(d1, d2) * A; the ratios theta, eta are unchanged."""
    d1, d2 = Fraction(d1), Fraction(d2)
    if d1 == 0 or d2 == 0:
        raise ValueError("scale factors must be nonzero")
    return Lattice2(d1 * lat.a11, d1 * lat.a12, d2 * lat.a21, d2 * lat.a22)


def _primitive_kernel(c1: Fraction, c2: Fraction) -> tuple[int, int] | None:
    """Primitive integer (m, n) with c1*m + c2*n = 0, or None if only (0,0)."""
    if c1 == 0 and c2 == 0:
        return None
    if c1 == 0:
        return (1, 0)
    if c2 == 0:
        return (0, 1)
    num = -(c2.numerator * c1.denominator)
    den = c2.denominator * c1.numerator
    g = gcd(abs(num), abs(den))
    return (num // g, den // g)


def degeneracy_radius(lat: Lattice2) -> Fraction:
    """Smallest sup-norm of a nonzero lattice point with zero product.

    Beyond this radius Psi is identically zero for a rational matrix, so
    exponent sampling there measures only the truncation.
    """
    radii: list[Fraction] = []
    for c1, c2, o1, o2 in (
        (lat.a11, lat.a12, lat.a21, lat.a22),
        (lat.a21, lat.a22, lat.a11, lat.a12),
    ):
        kern = _primitive_kernel(c1, c2)
        if kern is None:
            continue
        m, n = kern
        other = abs(o1 * m + o2 * n)
        if other != 0:
            radii.append(other)
    if not radii:
        raise ValueError("lattice has no zero-product point")
    return min(radii)


def _box_ranges(lat: Lattice2, t: Fraction) -> tuple[int, int]:
    """Bounds M, N with |m| <= M, |n| <= N for all points in the box [-t, t]^2."""
    det = abs(lat.det)
    m_bound = (abs(lat.a22) + abs(lat.a12)) * t / det
    n_bound = (abs(lat.a21) + abs(lat.a11)) * t / det
    return int(m_bound) + 1, int(n_bound) + 1


def _m_interval(lat: Lattice2, n: int, t: Fraction) -> tuple[int, int]:
    """Integer m-range with both |a11 m + a12 n| <= t and |a21 m + a22 n| <= t."""
    lo: Fraction | None = None
    hi: Fraction | None = None
    for c_m, c_n in ((lat.a11, lat.a12), (lat.a21, lat.a22)):
        if c_m == 0:
            if abs(c_n * n) > t:
                return 1, 0  # empty
            continue
        a = (-t - c_n * n) / c_m
        b = (t - c_n * n) / c_m
        if a > b:
            a, b = b, a
        lo = a if lo is None else max(lo, a)
        hi = b if hi is None else min(hi, b)
    if lo is None or hi is None:
        raise AssertionError("unreachable for a nonsingular matrix")
    return math.ceil(lo), math.floor(hi)


def psi_lattice(lat: Lattice2, t: Rat) -> LatticeMinimum:
    """Exact product minimum over the box of radius t, by exhaustive scan.

    Iterates n over its preimage range and intersects the two exact
    m-intervals given by |x1| <= t and |x2| <= t, so only points inside the
    box are visited.  A zero-product point inside the box wins outright and
    is returned with the degenerate flag.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    _, n_bound = _box_ranges(lat, t)

    best: LatticeMinimum | None = None
    for n in range(-n_bound, n_bound + 1):
        lo, hi = _m_interval(lat, n, t)
        for m in range(lo, hi + 1):
            if m == 0 and n == 0:
                continue
            x1, x2 = lat.image(m, n)
            sup = max(abs(x1), abs(x2))
            if sup > t or sup == 0:
                continue
            prod_sq = (x1 * x2) ** 2
            cand = LatticeMinimum(t, (m, n), (x1, x2), prod_sq, prod_sq == 0)
            if best is None or _better(cand, best):
                best = cand
    if best is None:
        raise ValueError(f"no nonzero lattice point with sup-norm <= {_rat_str(t)}")
    return best


def _better(a: LatticeMinimum, b: LatticeMinimum) -> bool:
    """Smaller product wins; ties prefer smaller sup-norm, then the point order."""
    if a.product_sq != b.product_sq:
        return a.product_sq < b.product_sq
    sa = max(abs(a.image[0]), abs(a.image[1]))
    sb = max(abs(b.image[0]), abs(b.image[1]))
    if sa != sb:
        return sa < sb
    return a.point < b.point


#: Sup-norm radius of the first exhaustive core in ``minimum_profile``.
_CORE_RADIUS = 8

#: A lattice point as (m, n, x1, x2), with x1, x2 its coordinates scaled to
#: integers by the row denominators.
_Point = tuple[int, int, int, int]


def _integer_rows(lat: Lattice2) -> tuple[int, int, int, int, int, int]:
    """(A1, B1, d1, A2, B2, d2) with row i of the matrix equal to (Ai, Bi) / di."""
    out: list[int] = []
    for a, b in ((lat.a11, lat.a12), (lat.a21, lat.a22)):
        d = math.lcm(a.denominator, b.denominator)
        out += (a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d)
    return tuple(out)


def _core_points(
    rows: tuple[int, int, int, int], x1_max: int, x2_max: int
) -> Iterator[_Point]:
    """Every nonzero lattice point with |x1| <= x1_max and |x2| <= x2_max."""
    A1, B1, A2, B2 = rows
    n_max = (abs(A1) * x2_max + abs(A2) * x1_max) // abs(A1 * B2 - B1 * A2)
    for n in range(-n_max, n_max + 1):
        lo, hi = -math.inf, math.inf
        for a, b, lim in ((A1, B1, x1_max), (A2, B2, x2_max)):
            c = b * n
            if a < 0:
                a, c = -a, -c
            if a:  # -lim <= a m + c <= lim
                lo = max(lo, -((lim + c) // a))
                hi = min(hi, (lim - c) // a)
            elif abs(c) > lim:
                hi = -math.inf
        for m in range(lo, hi + 1) if lo <= hi else ():
            if m or n:
                yield (m, n, A1 * m + B1 * n, A2 * m + B2 * n)


def _relative_minima(points: Iterable[_Point]) -> list[_Point]:
    """The points that no other point dominates, one for each absolute
    vector, by |x1| rising (and so |x2| falling)."""
    minima: list[_Point] = []
    for p in points:
        a1, a2 = abs(p[2]), abs(p[3])
        if not any(abs(q[2]) <= a1 and abs(q[3]) <= a2 for q in minima):
            minima = [q for q in minima if not (a1 <= abs(q[2]) and a2 <= abs(q[3]))]
            minima.append(p)
    return sorted(minima, key=lambda p: abs(p[2]))


def _walk(p: _Point, q: _Point, i: int, limit: int) -> list[_Point]:
    """The relative minima beyond the consecutive minima p, q on the side
    where coordinate i of the point tuple falls (i = 2 for x1, 3 for x2),
    up to the first whose other coordinate exceeds ``limit``; fact (3)."""
    j = 5 - i  # the growing coordinate
    if p[i] < 0:
        p = (-p[0], -p[1], -p[2], -p[3])
    if q[i] < 0:
        q = (-q[0], -q[1], -q[2], -q[3])
    walked: list[_Point] = []
    while 0 < q[i] < p[i]:  # the falling coordinate falls strictly, so this ends
        a = p[i] // q[i]
        r = (p[0] - a * q[0], p[1] - a * q[1], p[2] - a * q[2], p[3] - a * q[3])
        if abs(r[j]) > limit:
            break
        walked.append(r)
        p, q = q, r
    return walked


def minimum_profile(lat: Lattice2, t_max: Rat) -> list[ProfileRecord]:
    """All running-minimum records of the product up to sup-norm t_max.

    The candidates are the relative minima with sup-norm <= t_max: those of
    an exhaustive core, whose radius starts at ``_CORE_RADIUS`` and doubles
    until it holds two minima or reaches t_max, and those of the two walks
    from the ends of the core (see the module docstring).
    """
    t_max = Fraction(t_max)
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    A1, B1, d1, A2, B2, d2 = _integer_rows(lat)

    def limits(t: Fraction) -> tuple[int, int]:
        # sup-norm <= t  iff  |x1| <= t d1 and |x2| <= t d2
        return t.numerator * d1 // t.denominator, t.numerator * d2 // t.denominator

    radius = Fraction(_CORE_RADIUS)
    while True:
        core_t = min(radius, t_max)
        chain = _relative_minima(_core_points((A1, B1, A2, B2), *limits(core_t)))
        if len(chain) >= 2 or core_t == t_max:
            break
        radius *= 2
    x1_max, x2_max = limits(t_max)
    if len(chain) >= 2:
        walks = _walk(chain[1], chain[0], 2, x2_max), _walk(chain[-2], chain[-1], 3, x1_max)
        chain += walks[0] + walks[1]

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
        _estimate("omega_lattice", ord_all, None, 1, max),
        _estimate("omega_bar_lattice", uni_all, None, 1, min),
        info,
    )

"""Two-dimensional lattices A*Z^2 and the product minimum Psi(t).

Psi(t) = min |x1 x2|^(1/2) over nonzero lattice points with sup-norm <= t.
Minima are compared exactly as products |x1 x2|, so no square roots are
ever taken; logarithms appear only in exponent estimates.

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
    |D| / max(g1 d2, g2 d1).  Its terms are kept and printed as they are:
    their gcd would be the one gcd of record size left in a run, and no
    step needs the radius in lowest terms.
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

``minimum_profile`` is the one walker.  It takes the sup-norm bound as
two positive integer terms in any form, seeds the chain at its x2 = 0
end, walks it once, merges it by (5) and keeps the running minima, on the
integer rows of ``Lattice2``.  No step multiplies two coordinates: the box
test and the merge compare sup-norms with ``intmath.ratio_less``, and the
record test |x1 x2| < |y1 y2| is ``ratio_less(|x1|, |y2|, |y1|, |x2|)``,
both screened on bit lengths and then on 64-bit heads; so is the merge's
tie-break by product at equal sup-norms.  The records keep |x1|, |x2|,
d1 and d2 unreduced, and the estimates take log Psi^2 from
``intmath.log_product_ratio(|x1|, |x2|, d1, d2)``, which depends only on
the value and reads the factors' heads; so they need no gcd and no
product, and only the tests build Fractions.  ``lattice_exponents`` calls
``minimum_profile`` on an integer cap read off the unreduced radius, whose
terms only small gcds cancel, and decides truncation with ``ratio_less``;
with ``lattice_from_pair`` it takes no gcd whose arguments both have more
than 13 bits, and makes no ``Fraction`` of record size.

``lattice_from_pair`` knows the row gcds of a pair lattice (|n1| and |n2|
for row scales n/m, as p/q and r/s are in lowest terms) and passes them
to the ``Lattice2`` constructor as ``g1`` and ``g2``, which replace the
removed ``Lattice2.with_row_gcds`` (an API change); only a general matrix
takes the two gcds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Union

from .cf import PartialQuotients
from .exponents import ExponentEstimate, _estimate
from .intmath import (decimal_str, floor_divmod, log_product_ratio, log_ratio, ratio_less,
                      scale_decimal, to_decimal)

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
    rows: row i of A is (Ai, Bi)/di with di > 0, and gi = gcd(Ai, Bi).  A
    caller that knows g1 or g2 passes it; construction takes the gcd only
    of a row whose gi is not given, and keeps D = A1 B2 - B1 A2 of fact (2)
    of the module docstring as the attribute ``D``."""

    A1: int
    B1: int
    d1: int
    A2: int
    B2: int
    d2: int
    g1: int | None = None
    g2: int | None = None

    def __post_init__(self) -> None:
        if self.d1 <= 0 or self.d2 <= 0:
            raise ValueError("row denominators must be positive")
        object.__setattr__(self, "D", self.A1 * self.B2 - self.B1 * self.A2)
        if self.D == 0:
            raise ValueError("matrix must be nonsingular")
        if self.g1 is None:
            object.__setattr__(self, "g1", gcd(self.A1, self.B1))
        if self.g2 is None:
            object.__setattr__(self, "g2", gcd(self.A2, self.B2))


@dataclass(frozen=True)
class ProfileRecord:
    """One running-minimum record in the profile's unreduced integers: at
    sup-norm t = sup/sup_den (|x1|/d1 or |x2|/d2), Psi^2 drops to
    |x1| |x2| / (d1 d2), with ``coords`` = (|x1|, |x2|), the lattice point's
    coordinates scaled by the row denominators ``dens`` = (d1, d2)."""

    sup: int
    sup_den: int
    point: tuple[int, int]
    coords: tuple[int, int]
    dens: tuple[int, int]


def lattice_from_pair(
    theta_pq: PartialQuotients, eta_pq: PartialQuotients, d1: Rat = 1, d2: Rat = 1
) -> Lattice2:
    """The lattice diag(d1, d2) [[1, theta], [eta, 1]] of two prefixes whose
    last convergents are p/q and r/s, read from each prefix's analysis: rows
    d1 (q, p)/q and d2 (r, s)/s.  With d1 = n1/m1 in lowest terms the first
    row is (n1 q, n1 p)/(m1 q), whose gcd is |n1| as gcd(p, q) = 1; likewise
    the second."""
    theta, eta = theta_pq.analysis, eta_pq.analysis
    d1, d2 = Fraction(d1), Fraction(d2)
    n1, m1, n2, m2 = d1.numerator, d1.denominator, d2.numerator, d2.denominator
    return Lattice2(n1 * theta.q_n, n1 * theta.p_n, m1 * theta.q_n,
                    n2 * eta.p_n, n2 * eta.q_n, m2 * eta.q_n, abs(n1), abs(n2))


def degeneracy_radius(lat: Lattice2) -> tuple[int, int]:
    """Smallest sup-norm of a nonzero lattice point with zero product, as
    the integer pair (|D|, max(g1 d2, g2 d1)) of fact (2) of the module
    docstring, not reduced: at record size the gcd that would reduce it
    costs more than the rest of the profile, and every consumer reads the
    value through ``ratio_less`` or prints it.

    Beyond this radius Psi is identically zero for a rational matrix, so
    exponent sampling there measures only the truncation.
    """
    return abs(lat.D), max(lat.g1 * lat.d2, lat.g2 * lat.d1)


#: The default cap on the sampled range, as a fraction of the degeneracy radius.
_CAP_NUM, _CAP_DEN = 4095, 4096

#: A lattice point as (m, n, x1, x2), with x1, x2 its coordinates scaled to
#: integers by the row denominators.
_Point = tuple[int, int, int, int]


def _axis_seed(lat: Lattice2) -> tuple[_Point, _Point]:
    """The minimum e on the x2 = 0 axis and the minimum r next to it; fact (2)."""
    g = lat.g2
    m, n = lat.B2 // g, -lat.A2 // g
    e = (m, n, lat.D // g, 0)
    v = pow(m, -1, abs(n)) if n else m
    u = floor_divmod(m * v - 1, n)[0] if n else 0
    f1 = lat.A1 * u + lat.B1 * v  # and f2 = A2 u + B2 v = g (m v - n u) = g
    a, rest = floor_divmod(2 * f1 + e[2], 2 * e[2])  # a = round(f1 / e1)
    # 2 f1 + e1 = 2 e1 a + rest, so f1 - a e1 = (rest - e1) / 2 exactly.
    return e, (u - a * m, v - a * n, (rest - e[2]) // 2, g)


def _walk(p: _Point, q: _Point, t_num: int, t_den: int, d2: int) -> list[_Point]:
    """The relative minima beyond the consecutive minima p, q, |p1| > |q1|,
    by |x1| falling, up to the first with |x2|/d2 > t_num/t_den; fact (3)."""
    if p[2] < 0:
        p = (-p[0], -p[1], -p[2], -p[3])
    if q[2] < 0:
        q = (-q[0], -q[1], -q[2], -q[3])
    walked: list[_Point] = []
    while 0 < q[2] < p[2]:  # x1 falls strictly, so this ends
        a, x1 = floor_divmod(p[2], q[2])  # x1 = p1 - a q1
        r = (p[0] - a * q[0], p[1] - a * q[1], x1, p[3] - a * q[3])
        if ratio_less(t_num, t_den, abs(r[3]), d2):
            break
        walked.append(r)
        p, q = q, r
    return walked


def minimum_profile(lat: Lattice2, t_num: int, t_den: int = 1) -> list[ProfileRecord]:
    """All running-minimum records of the product up to the sup-norm
    t_num/t_den, given by positive integer terms in any form.

    The candidates are the relative minima with sup-norm <= t_num/t_den,
    walked once from the x2 = 0 end of the chain and merged into sup-norm
    order (see the module docstring).
    """
    if t_num <= 0 or t_den <= 0:
        raise ValueError("t_num and t_den must be positive")
    d1, d2 = lat.d1, lat.d2
    e, r = _axis_seed(lat)
    # sup-norm <= t  iff  |x1|/d1 <= t and |x2|/d2 <= t
    chain = [
        p for p in (e, r, *_walk(e, r, t_num, t_den, d2))
        if not ratio_less(t_num, t_den, abs(p[2]), d1)
        and not ratio_less(t_num, t_den, abs(p[3]), d2)
    ]
    # Fact (5): the sup-norm is |x1|/d1 on the first k points and |x2|/d2
    # after; each stretch goes on a stack whose top has the least sup-norm.
    k = 0
    while k < len(chain) and not ratio_less(abs(chain[k][2]), d1, abs(chain[k][3]), d2):
        k += 1
    falling = [(abs(p[2]), d1, p) for p in chain[:k]]
    rising = [(abs(p[3]), d2, p) for p in reversed(chain[k:])]
    dens = (d1, d2)
    records: list[ProfileRecord] = []
    while falling or rising:
        first = not rising or bool(falling) and _comes_first(falling[-1], rising[-1])
        x, d, p = (falling if first else rising).pop()
        x1, x2 = abs(p[2]), abs(p[3])
        if not records or _product_less(x1, x2, *records[-1].coords):
            records.append(ProfileRecord(x, d, (p[0], p[1]), (x1, x2), dens))
    return records


def _comes_first(a: tuple[int, int, _Point], b: tuple[int, int, _Point]) -> bool:
    """Whether the stack top a = (x, d, point) merges before b: by sup-norm
    x/d, then by product, then by point."""
    (xa, da, pa), (xb, db, pb) = a, b
    if ratio_less(xa, da, xb, db):
        return True
    if ratio_less(xb, db, xa, da):
        return False
    ka, kb = (abs(pa[2]), abs(pa[3])), (abs(pb[2]), abs(pb[3]))
    return _product_less(*ka, *kb) or not _product_less(*kb, *ka) and pa < pb


def _product_less(x1: int, x2: int, y1: int, y2: int) -> bool:
    """x1 x2 < y1 y2 for integers >= 0, without either product: for x2 and
    y2 nonzero it is x1/y2 < y1/x2, else a zero product decides."""
    if not x2 or not y2:
        return not x2 and y1 > 0 and y2 > 0
    return ratio_less(x1, y2, y1, x2)


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
    binds), with log Psi = log_product_ratio(|x1|, |x2|, d1, d2) / 2 and
    log T = log_ratio(sup, sup_den), straight from the unreduced record
    integers; the sample key is floor(T).  Ordinary estimate: sample
    max; uniform: sample min; both over the samples that
    ``exponents.apply_window`` schedules, as on the number side.  An input
    without a sample of each kind raises ``exponents.NotEstimable``.

    The records are ``minimum_profile``'s up to the cap.  The range is
    capped strictly below the degeneracy radius, at 4095/4096 of it by
    default; a requested t_max must be positive, and one at or beyond the
    radius is truncated to that cap and flagged in the info dict.  The
    info dict prints the radius unreduced, as ``degeneracy_radius`` gives
    it, and the cap from one conversion of the radius's terms.
    """
    n, d = degeneracy_radius(lat)
    truncated = False
    if t_max is not None:
        t_max = Fraction(t_max)
        if t_max <= 0:  # before ratio_less, which needs nonnegative terms
            raise ValueError("t_max must be positive")
        tn, td = t_max.numerator, t_max.denominator
        truncated = not ratio_less(tn, td, n, d)
    n_dec, d_dec = to_decimal(n), to_decimal(d)
    if t_max is None or truncated:
        # t = radius * 4095/4096 = (4095 n)/(4096 d).  The factor
        # g = gcd(n, 4096) gcd(4095, d) divides both terms, and cancelling
        # it takes no gcd of record size; the digits are n's and d's times
        # a short ratio.
        g = gcd(n, _CAP_DEN) * gcd(_CAP_NUM, d)
        tn, td = n * _CAP_NUM // g, d * _CAP_DEN // g
        t_text = f"{scale_decimal(n_dec, _CAP_NUM, g)}/{scale_decimal(d_dec, _CAP_DEN, g)}"
    else:
        t_text = f"{decimal_str(tn)}/{decimal_str(td)}"
    info: dict = {"degeneracy_radius": f"{n_dec}/{d_dec}", "truncated": truncated,
                  "t_max": t_text}

    records = minimum_profile(lat, tn, td)
    # Every record lies below the degeneracy radius, so its product is nonzero.
    log_psi = [log_product_ratio(*rec.coords, *rec.dens) / 2.0 for rec in records]
    ord_all: list[tuple[int, float]] = []
    uni_all: list[tuple[int, float]] = []
    for k, rec in enumerate(records):
        if rec.sup >= 2 * rec.sup_den:
            key, log_t = floor_divmod(rec.sup, rec.sup_den)[0], log_ratio(rec.sup, rec.sup_den)
            ord_all.append((key, 1.0 - log_psi[k] / log_t))
            if k > 0:
                uni_all.append((key, 1.0 - log_psi[k - 1] / log_t))
    info["records"] = len(records)
    return (
        _estimate("omega_lattice", ord_all, None, max),
        _estimate("omega_bar_lattice", uni_all, None, min),
        info,
    )

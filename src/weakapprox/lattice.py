"""Two-dimensional lattices A*Z^2 and the product minimum Psi(t).

Psi(t) = min |x1 x2|^(1/2) over nonzero lattice points with sup-norm <= t.
Minima are compared through the exact rational (x1 x2)^2, so no square
roots are ever taken; logarithms appear only in exponent estimates.

Rational lattices degenerate at large t: some point hits a coordinate axis
(the product vanishes) at the *degeneracy radius*, computable exactly from
the matrix entries.  All exponent sampling stays strictly below it.

Two evaluation strategies:

  * ``psi_lattice`` - exhaustive scan of the box preimage, exact for any
    nonsingular rational matrix; cost grows with the box area.
  * ``minimum_profile`` - the full running-minimum record profile up to
    huge radii, enumerating only candidate minimizers: a small exhaustive
    core plus, per coordinate, the integer points hugging that coordinate's
    zero line.  Once the running minimum is below 1 (the core guarantees
    that for the unit-diagonal lattices this is used on), every later
    record has a coordinate below 1 in absolute value and therefore lies on
    one of the two branch families.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Union

from .cf import PartialQuotients, truncation_value
from .exponents import ExponentEstimate, apply_window
from .intmath import fraction_str, log_fraction, parse_fraction

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
    """One running-minimum record: Psi^4 drops to product_sq at sup-norm t."""

    t: Fraction
    point: tuple[int, int]
    product_sq: Fraction


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
        raise ValueError(f"no nonzero lattice point with sup-norm <= {t}")
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


def _convergent_denominators(ratio: Fraction, cap: int) -> list[int]:
    """Denominators of the continued-fraction convergents of |ratio|, up to cap."""
    num = abs(ratio.numerator) % ratio.denominator
    den = ratio.denominator
    out: list[int] = []
    q_prev, q = 0, 1
    while num != 0 and q <= cap:
        a = den // num
        den, num = num, den % num
        q, q_prev = a * q + q_prev, q
        if q <= cap:
            out.append(q)
    return out


#: Generator range below which branch candidates are enumerated densely.
_DENSE_LIMIT = 4096


def _branch_generators(ratio: Fraction, cap: int) -> list[int]:
    """Generator values along one zero line: dense start, then the convergent
    denominators of the hugging ratio (where the running weak minimum can
    improve) with a +-1 neighbourhood."""
    dense_top = min(cap, _DENSE_LIMIT)
    gens = set(range(1, dense_top + 1))
    if cap > _DENSE_LIMIT:
        for q in _convergent_denominators(ratio, cap):
            for d in (-1, 0, 1):
                if 1 <= q + d <= cap:
                    gens.add(q + d)
    return sorted(gens)


class _Frontier:
    """Running-minimum records over increasing sup-norm, integer-keyed.

    Entries are (sup_scaled, psq_scaled, point) with shared denominators, so
    dominance tests are pure integer comparisons; only the O(#records)
    frontier is kept in memory while candidates stream through.  ``covers``
    rejects candidates from bit lengths alone, so the expensive exact keys
    (two huge-integer products) are computed only for genuine record
    contenders.
    """

    def __init__(self) -> None:
        self.entries: list[tuple[int, int, tuple[int, int]]] = []

    def covers(self, sup_bits_hi: int, psq_bits_lo: int) -> bool:
        """True if some record certainly has sup' <= 2^(sup_bits_hi - 2) and
        psq' < 2^psq_bits_lo, i.e. dominates any candidate with
        sup >= 2^(sup_bits_hi - 2) and psq >= 2^psq_bits_lo."""
        for sup_, psq_, _ in self.entries:
            if sup_.bit_length() > sup_bits_hi - 2:
                break  # sorted by sup; later entries are larger
            if psq_.bit_length() <= psq_bits_lo:
                return True
        return False

    def insert(self, sup: int, psq: int, pt: tuple[int, int]) -> None:
        sups = [e[0] for e in self.entries]
        i = bisect.bisect_right(sups, sup) - 1
        if i >= 0 and self.entries[i][1] <= psq:
            return  # dominated by an earlier-or-equal record
        pos = i + 1
        self.entries.insert(pos, (sup, psq, pt))
        k = pos + 1
        while k < len(self.entries) and self.entries[k][1] >= psq:
            del self.entries[k]
        # An equal-sup predecessor with a larger product is now redundant.
        if pos > 0 and self.entries[pos - 1][0] == sup:
            del self.entries[pos - 1]

    def records(self) -> list[tuple[int, int, tuple[int, int]]]:
        out: list[tuple[int, int, tuple[int, int]]] = []
        for sup, psq, pt in self.entries:
            if not out or psq < out[-1][1]:
                out.append((sup, psq, pt))
        return out


def minimum_profile(
    lat: Lattice2,
    t_max: Rat,
    core_radius: int = 8,
) -> list[ProfileRecord]:
    """All running-minimum records of the product up to sup-norm t_max.

    Candidate points: an exhaustive core (sup-norm <= core_radius) plus the
    two branch families m = floor(-theta n) + d and n = floor(-eta m) + d,
    d in {-1, 0, 1, 2}, with generators up to the exact preimage cap.  Large
    generators are restricted to convergent denominators of the row ratio
    (running minima of the hugging product improve only there); between
    consecutive records of the constructions this profiles, values drop by
    orders of magnitude, so the cross-term corrections (bounded by the
    opposite row entry) cannot create records elsewhere.  The exhaustive
    scan cross-validates this in the test suite.

    All candidate arithmetic runs on integers over the two row denominators;
    Fractions are materialized only for the returned records.
    """
    t_max = Fraction(t_max)
    if t_max <= 0:
        raise ValueError("t_max must be positive")

    # Integerized rows: a1j = (A1, B1) / d1, a2j = (A2, B2) / d2.
    d1 = lat.a11.denominator * lat.a12.denominator // gcd(
        lat.a11.denominator, lat.a12.denominator
    )
    d2 = lat.a21.denominator * lat.a22.denominator // gcd(
        lat.a21.denominator, lat.a22.denominator
    )
    A1 = int(lat.a11 * d1)
    B1 = int(lat.a12 * d1)
    A2 = int(lat.a21 * d2)
    B2 = int(lat.a22 * d2)
    tn, td = t_max.numerator, t_max.denominator
    sup_den = d1 * d2  # sup_scaled is over this denominator
    t_scaled = tn * sup_den // td  # sup <= t_scaled iff sup-norm <= t_max
    t_bits = t_scaled.bit_length()
    bd1, bd2 = d1.bit_length(), d2.bit_length()

    frontier = _Frontier()
    seen: set[tuple[int, int]] = set()

    def add(m: int, n: int) -> None:
        if (m, n) == (0, 0) or (m, n) in seen or (-m, -n) in seen:
            return
        seen.add((m, n))
        x1n = A1 * m + B1 * n
        x2n = A2 * m + B2 * n
        if x1n != 0 and x2n != 0:
            # Fast bit-length screens before any huge multiplication:
            # sup is in [2^(b_sup - 2), 2^b_sup).
            b_sup = max(x1n.bit_length() + bd2, x2n.bit_length() + bd1)
            if b_sup >= t_bits + 2:
                return  # certainly outside the box
            psq_lo = max(0, 2 * (x1n.bit_length() + x2n.bit_length()) - 4)
            if frontier.covers(b_sup, psq_lo):
                return  # certainly dominated by an existing record
        sup = max(abs(x1n) * d2, abs(x2n) * d1)
        if sup == 0 or sup > t_scaled:
            return
        frontier.insert(sup, (x1n * x2n) ** 2, (m, n))

    core_t = min(t_max, Fraction(core_radius))
    n_core = _box_ranges(lat, core_t)[1]
    for n in range(-n_core, n_core + 1):
        lo, hi = _m_interval(lat, n, core_t)
        for m in range(lo, hi + 1):
            add(m, n)

    det = abs(lat.det)
    if A1 != 0:
        # Branch hugging the x1 = 0 line; the free coordinate grows like
        # |det / a11| per unit n, shifted by at most 2 |a21|.
        n_cap = int((t_max * abs(lat.a11) + 2 * abs(lat.a21)) / det) + 2
        for n in _branch_generators(Fraction(B1, A1), n_cap):
            c = (-B1 * n) // A1
            for m in (c - 1, c, c + 1, c + 2):
                add(m, n)
    if B2 != 0:
        m_cap = int((t_max * abs(lat.a22) + 2 * abs(lat.a12)) / det) + 2
        for m in _branch_generators(Fraction(A2, B2), m_cap):
            c = (-A2 * m) // B2
            for n in (c - 1, c, c + 1, c + 2):
                add(m, n)

    records: list[ProfileRecord] = []
    for sup, psq, pt in frontier.records():
        records.append(
            ProfileRecord(
                Fraction(sup, sup_den),
                pt,
                Fraction(psq, (sup_den) ** 2),
            )
        )
    return records


def lattice_exponents(
    lat: Lattice2,
    t_max: Rat | None = None,
    window: tuple[int, int] | None = None,
    core_radius: int = 8,
    log_coverage: float = 0.35,
) -> tuple[ExponentEstimate, ExponentEstimate, dict]:
    """Ordinary and uniform lattice exponent estimates from the record profile.

    Sampling matches the normalization of the reduction to row-ratio
    exponents (ordinary lattice exponent = (max row-ratio ordinary + 1)/2,
    uniform = (mutual weak uniform + 1)/2): at a record of sup-norm T the
    ordinary sample is 1 - log Psi(T) / log T (the newly attained minimum,
    where the liminf envelope binds) and the uniform sample is
    1 - log Psi(T-) / log T (the left limit, where the limsup envelope
    binds), with log Psi = log(product_sq) / 4.  Ordinary estimate: sample
    max; uniform: sample min.

    Default schedule keeps records in the top (1 - log_coverage) fraction of
    the log-T range, dropping small-scale transients; an explicit ``window``
    indexes into the full sample lists instead.  The range is capped
    strictly below the degeneracy radius; a requested t_max at or beyond it
    is truncated and flagged in the info dict.
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

    records = minimum_profile(lat, t_eff, core_radius=core_radius)
    ord_all: list[tuple[int, float]] = []
    uni_all: list[tuple[int, float]] = []
    for k, rec in enumerate(records):
        if rec.t < 2 or rec.product_sq == 0:
            continue
        log_t = log_fraction(rec.t)
        key = int(rec.t)
        ord_all.append((key, 1.0 - log_fraction(rec.product_sq) / 4.0 / log_t))
        if k > 0 and records[k - 1].product_sq != 0:
            uni_all.append(
                (key, 1.0 - log_fraction(records[k - 1].product_sq) / 4.0 / log_t)
            )
    if not ord_all or not uni_all:
        raise ValueError("not enough nondegenerate records to sample")

    if window is not None:
        ord_picked, ord_win = apply_window(ord_all, window, minimum=1)
        uni_picked, uni_win = apply_window(uni_all, window, minimum=1)
    else:
        ord_picked, ord_win = _coverage_schedule(ord_all, log_coverage)
        uni_picked, uni_win = _coverage_schedule(uni_all, log_coverage)

    ordinary = ExponentEstimate(
        "omega_lattice", max(s for _, s in ord_picked), ord_win, tuple(ord_all)
    )
    uniform = ExponentEstimate(
        "omega_bar_lattice", min(s for _, s in uni_picked), uni_win, tuple(uni_all)
    )
    info["records"] = len(records)
    return ordinary, uniform, info


def _coverage_schedule(
    samples: list[tuple[int, float]], log_coverage: float
) -> tuple[list[tuple[int, float]], tuple[int, int]]:
    """Keep samples whose log T exceeds log_coverage * (largest log T),
    always retaining at least the last two."""
    t_top = samples[-1][0]
    threshold = log_coverage * math.log(t_top)
    lo = 0
    for k, (t, _) in enumerate(samples):
        if math.log(t) < threshold:
            lo = k + 1
    lo = min(lo, len(samples) - 2) if len(samples) >= 2 else 0
    picked = samples[lo:]
    return picked, (lo, len(samples))

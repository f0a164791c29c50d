"""Brute-force oracles: each quantity computed straight from its definition.

The library reads these quantities off continued fractions and the chain of
relative minima; the tests compare its answers with the scans here.
``convergents`` is the textbook (p_v, q_v) recurrence that the prefix
analysis, the truncation value and the ``cf`` artifact are checked against.
``exact_log_ratio`` is the definition the screened log kernel must match
bit for bit.  ``running_minimum_rows`` is the running minimum the measure
functions keep, on formed products.  ``from_entries`` and ``matrix_of``
convert between a rational matrix and the integer rows of a ``Lattice2``.
The ``record_*`` functions form the product, its denominator, the radius
t and Psi^4 of a ``ProfileRecord``, which keeps them as unreduced factors.
``dominated_controls`` turns a step pair into two that each break one
hypothesis of the interleaving lemma.
"""

import math
from fractions import Fraction

from weakapprox.intmath import nth_root_floor
from weakapprox.lattice import Lattice2
from weakapprox.lemma import StepPair
from weakapprox.measure import StepFunction


def convergents(pq) -> list[tuple[int, int]]:
    """(p_v, q_v) for v = 0..N by p_v = a_v p_{v-1} + p_{v-2} and
    q_v = a_v q_{v-1} + q_{v-2}, from (p_{-2}, q_{-2}) = (0, 1) and
    (p_{-1}, q_{-1}) = (1, 0)."""
    p_prev, q_prev, p, q = 0, 1, 1, 0
    out = []
    for a in (pq.a0, *pq.tail):
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append((p, q))
    return out


def evaluate_nested(pq) -> Fraction:
    """The value of a prefix [a0; a1, ..., aN], evaluated bottom-up."""
    x = Fraction(pq.tail[-1])
    for a in reversed(pq.tail[:-1]):
        x = a + 1 / x
    return pq.a0 + 1 / x


def dist_to_int(x: Fraction) -> Fraction:
    """||x||, the distance from x to the nearest integer."""
    r = x - math.floor(x)
    return min(r, 1 - r)


def brute_measure(x: Fraction, t: int, kind: str = "ordinary") -> Fraction:
    """min over q = 1..t of ||q x|| (ordinary) or of q ||q x|| (weak)."""
    assert kind in ("ordinary", "weak")
    return min((q if kind == "weak" else 1) * dist_to_int(q * x) for q in range(1, t + 1))


def running_minimum_rows(pq, weak: bool) -> list[int]:
    """The rows v <= N-2 where rho_v = q_N ||q_v x|| (psi), or the product
    q_v rho_v (upsilon), is below every earlier row's; q_v and p_N by the
    recurrence, rho_v from its definition, each product formed."""
    conv = convergents(pq)
    p, q = conv[-1]
    kept, best = [], None
    for v, (_, q_v) in enumerate(conv[:-2]):
        r = q_v * p % q
        num = min(r, q - r) * (q_v if weak else 1)
        if best is None or num < best:
            kept.append(v)
            best = num
    return kept


def full_round_div_root(base: int, num: int, den: int, c: int, s: int) -> int:
    """Nearest integer to (base**(num/den) - c) / s, ties up, with the root
    taken on the full power base**num: n = floor((r - c) / s) for
    r = floor(R), plus 1 iff 2c + (2n + 1) s <= 2R."""
    power = base**num
    n = (nth_root_floor(power, den) - c) // s
    v = 2 * c + (2 * n + 1) * s
    return n + 1 if v <= 0 or v**den <= power << den else n


def exact_log_ratio(num: int, den: int) -> float:
    """ln(num/den) as the library defines it, from the full quotient: the
    negated log of the inverse below 1; else, with e = floor(log2(num/den)),
    log1p of the rounded (num - den)/den for e = 0 and
    log(RN(num / (den 2^e))) + e ln 2 otherwise."""
    if num < den:
        return -exact_log_ratio(den, num)
    e = num.bit_length() - den.bit_length()
    if num < den << e:
        e -= 1
    if e == 0:
        return math.log1p((num - den) / den)
    return math.log(num / (den << e)) + e * math.log(2.0)


def from_entries(a11, a12, a21, a22) -> Lattice2:
    """The lattice of the rational matrix [[a11, a12], [a21, a22]], each row
    over the least common denominator of its entries."""
    rows = []
    for a, b in ((a11, a12), (a21, a22)):
        a, b = Fraction(a), Fraction(b)
        d = math.lcm(a.denominator, b.denominator)
        rows += (a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d)
    return Lattice2(*rows)


def matrix_of(lat: Lattice2) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The entries (a11, a12, a21, a22) of a lattice's matrix."""
    return (Fraction(lat.A1, lat.d1), Fraction(lat.B1, lat.d1),
            Fraction(lat.A2, lat.d2), Fraction(lat.B2, lat.d2))


def psi_lattice(lat, t):
    """The least (x1 x2)^2 over the nonzero points x = (a11 m + a12 n,
    a21 m + a22 n) of the lattice with sup-norm <= t, or None when the box
    [-t, t]^2 holds none.

    By Cramer's rule |n| <= (|a11| + |a21|) t / |det| in the box.  For each
    such n, every row with a nonzero m-coefficient bounds m to an interval,
    and the scan visits the integers in their intersection.
    """
    t = Fraction(t)
    a11, a12, a21, a22 = matrix_of(lat)
    rows = ((a11, a12), (a21, a22))
    n_max = math.floor((abs(a11) + abs(a21)) * t / abs(a11 * a22 - a12 * a21))
    best = None
    for n in range(-n_max, n_max + 1):
        ends = [sorted(((-t - b * n) / a, (t - b * n) / a)) for a, b in rows if a]
        lo, hi = max(e[0] for e in ends), min(e[1] for e in ends)
        for m in range(math.ceil(lo), math.floor(hi) + 1):
            x1, x2 = (a * m + b * n for a, b in rows)
            if (m or n) and max(abs(x1), abs(x2)) <= t:
                best = (x1 * x2) ** 2 if best is None else min(best, (x1 * x2) ** 2)
    return best


def record_product(rec) -> int:
    """|x1 x2| of a profile record, over ``record_product_den``."""
    return rec.coords[0] * rec.coords[1]


def record_product_den(rec) -> int:
    """d1 d2, the denominator of a profile record's product."""
    return rec.dens[0] * rec.dens[1]


def record_t(rec) -> Fraction:
    """The sup-norm t at which a profile record's drop happens."""
    return Fraction(rec.sup, rec.sup_den)


def record_product_sq(rec) -> Fraction:
    """(x1 x2)^2 = Psi(t)^4 of a profile record, as ``psi_lattice`` gives it."""
    return Fraction(record_product(rec), record_product_den(rec)) ** 2


def dominated_controls(pair: StepPair) -> tuple[StepPair, StepPair]:
    """(pair with u' = 2 v_1 + u, pair with v' = 2 u_1 + v).

    Each raised function lies above the other's largest value, so it is
    never strictly below the other: the first control breaks hypothesis (a),
    the second (b), and neither has a witness.
    """
    u, v = pair.u, pair.v

    def raised(f: StepFunction, lift) -> StepFunction:
        return StepFunction(f.breakpoints, tuple(lift + x for x in f.values), f.domain_end)

    return (StepPair(raised(u, 2 * v.values[0]), v, pair.window),
            StepPair(u, raised(v, 2 * u.values[0]), pair.window))

"""Brute-force oracles: each quantity computed straight from its definition.

The library reads these quantities off continued fractions and the chain of
relative minima; the tests compare its answers with the scans here.
"""

import math
from fractions import Fraction


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


def psi_lattice(lat, t):
    """The least (x1 x2)^2 over the nonzero points x = (a11 m + a12 n,
    a21 m + a22 n) of the lattice with sup-norm <= t, or None when the box
    [-t, t]^2 holds none.

    By Cramer's rule |n| <= (|a11| + |a21|) t / |det| in the box.  For each
    such n, every row with a nonzero m-coefficient bounds m to an interval,
    and the scan visits the integers in their intersection.
    """
    t = Fraction(t)
    rows = ((lat.a11, lat.a12), (lat.a21, lat.a22))
    n_max = math.floor((abs(lat.a11) + abs(lat.a21)) * t / abs(lat.det))
    best = None
    for n in range(-n_max, n_max + 1):
        ends = [sorted(((-t - b * n) / a, (t - b * n) / a)) for a, b in rows if a]
        lo, hi = max(e[0] for e in ends), min(e[1] for e in ends)
        for m in range(math.ceil(lo), math.floor(hi) + 1):
            x1, x2 = (a * m + b * n for a, b in rows)
            if (m or n) and max(abs(x1), abs(x2)) <= t:
                best = (x1 * x2) ** 2 if best is None else min(best, (x1 * x2) ** 2)
    return best

import random
from fractions import Fraction

import pytest

from weakapprox.cf import PartialQuotients
from weakapprox.construct import construct_thm3
from weakapprox.exponents import ordinary_exponent, uniform_exponent
from weakapprox.lattice import (
    Lattice2,
    degeneracy_radius,
    lattice_exponents,
    lattice_from_pair,
    minimum_profile,
)
from weakapprox.measure import min_step, upsilon_step
from oracles import from_entries, matrix_of, psi_lattice, record_product_sq, record_t


def brute_bound(lat, t):
    a11, a12, a21, a22 = matrix_of(lat)
    det = abs(a11 * a22 - a12 * a21)
    bound = 0
    for row in ((a22, a12), (a21, a11)):
        bound = max(bound, int((abs(row[0]) + abs(row[1])) * Fraction(t) / det) + 1)
    return bound


def brute_minimum(lat, t):
    """Dumb square-scan oracle over every |m|, |n| up to a safe bound.

    Integer arithmetic over the two row denominators keeps it affordable
    without changing the enumeration logic under test.
    """
    bound = brute_bound(lat, t)
    a1, b1, d1, a2, b2, d2 = lat.A1, lat.B1, lat.d1, lat.A2, lat.B2, lat.d2
    t1 = Fraction(t) * d1
    t2 = Fraction(t) * d2
    best = None
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            if m == 0 and n == 0:
                continue
            x1 = a1 * m + b1 * n
            x2 = a2 * m + b2 * n
            if x1 == 0 and x2 == 0:
                continue
            if abs(x1) > t1 or abs(x2) > t2:
                continue
            cand = Fraction((x1 * x2) ** 2, (d1 * d2) ** 2)
            if best is None or cand < best:
                best = cand
    return best


def pair_512(d1=1, d2=1):
    theta = PartialQuotients(0, (2, 2, 2))  # 5/12
    eta = PartialQuotients(0, (2, 2, 2))
    return lattice_from_pair(theta, eta, d1, d2)


class TestLattice2:
    def test_from_pair(self):
        lat = pair_512()
        _, a12, a21, _ = matrix_of(lat)
        assert a12 == Fraction(5, 12) and a21 == Fraction(5, 12)
        assert Fraction(lat.D, lat.d1 * lat.d2) == Fraction(119, 144)

    def test_singular_pair_rejected(self):
        half = PartialQuotients(0, (2,))     # 1/2
        two = PartialQuotients(1, (1,))      # 2
        with pytest.raises(ValueError):
            lattice_from_pair(half, two)
        with pytest.raises(ValueError):
            from_entries(1, 2, 2, 4)
        with pytest.raises(ValueError):  # row denominators must be positive
            Lattice2(1, 0, -1, 0, 1, 1)

    def test_zero_ratio_allowed_but_degenerate_early(self):
        # a vanishing off-diagonal entry is legal (det != 0) but the derived
        # ratio is rational zero and an axis point appears at sup-norm 1
        lat = from_entries(1, 0, Fraction(5, 12), 1)
        assert Fraction(*degeneracy_radius(lat)) <= 1
        assert psi_lattice(lat, 1) == 0

    def test_row_scales_preserve_ratios(self):
        a11, a12, a21, a22 = matrix_of(pair_512())
        s11, s12, s21, s22 = matrix_of(pair_512(3, Fraction(1, 2)))
        assert s12 / s11 == a12 / a11
        assert s21 / s22 == a21 / a22
        with pytest.raises(ValueError, match="nonsingular"):
            pair_512(0, 1)

    def test_unit_scale_identity(self):
        assert pair_512(Fraction(1), Fraction(1)) == from_entries(1, Fraction(5, 12),
                                                                   Fraction(5, 12), 1)


class TestPsiLattice:
    def test_integer_lattice_degenerates_immediately(self):
        lat = from_entries(1, 0, 0, 1)
        assert psi_lattice(lat, 1) == 0

    def test_sign_scale_invariance(self):
        lat = pair_512()
        flipped = pair_512(-1, 1)
        for t in (1, 3, 7):
            assert psi_lattice(lat, t) == psi_lattice(flipped, t)

    def test_against_brute_oracle_hand_lattice(self):
        lat = pair_512()
        for t in (1, 2, 5, 9):
            assert psi_lattice(lat, t) == brute_minimum(lat, t)

    def test_against_brute_oracle_random_lattices(self):
        rng = random.Random(60)
        checked = 0
        while checked < 50:
            entries = [
                Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(4)
            ]
            try:
                lat = from_entries(*entries)
            except ValueError:
                continue
            t = rng.randint(2, 200)
            while t > 2 and (2 * brute_bound(lat, t) + 1) ** 2 > 150_000:
                t = max(2, t // 2)  # cap the oracle's work, not its dumbness
            if (2 * brute_bound(lat, t) + 1) ** 2 > 150_000:
                continue
            assert psi_lattice(lat, t) == brute_minimum(lat, t)
            checked += 1

    def test_monotone_in_t(self):
        lat = pair_512()
        vals = [psi_lattice(lat, t) for t in (1, 2, 3, 5, 8, 11)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_below_first_point_rejected(self):
        lat = pair_512()
        assert psi_lattice(lat, Fraction(1, 100)) is None


class TestDegeneracyRadius:
    def test_pair_lattice_formula(self):
        lat = pair_512()
        # zero-product points: (-P, Q) and (Q, -P) with P/Q = 5/12; the other
        # coordinate is |Q - P^2/Q| = |(Q^2 - P^2)/Q| = 119/12, with the terms
        # |D| = 12^2 - 5^2 and max(g1 d2, g2 d1) = 12
        assert degeneracy_radius(lat) == (119, 12)

    def test_radius_point_is_degenerate(self):
        lat = pair_512()
        r = Fraction(*degeneracy_radius(lat))
        assert psi_lattice(lat, r) == 0
        assert psi_lattice(lat, r * Fraction(4095, 4096)) != 0


class TestMinimumProfile:
    def test_matches_exhaustive_scan(self):
        theta, eta = construct_thm3(Fraction(1), 4)
        lat = lattice_from_pair(theta, eta)
        t_top = 600
        records = minimum_profile(lat, t_top)
        assert records, "profile should find records"
        prev = None
        for rec in records:
            assert psi_lattice(lat, record_t(rec)) == record_product_sq(rec)
            if prev is not None:
                mid = (record_t(prev) + record_t(rec)) / 2
                assert psi_lattice(lat, mid) == record_product_sq(prev)
            prev = rec
        # strictly decreasing products at strictly increasing radii
        assert all(record_t(a) < record_t(b) for a, b in zip(records, records[1:]))
        assert all(record_product_sq(a) > record_product_sq(b)
                   for a, b in zip(records, records[1:]))

    def test_matches_exhaustive_scan_scaled(self):
        theta, eta = construct_thm3(Fraction(1), 4)
        lat = lattice_from_pair(theta, eta, 2, 3)
        records = minimum_profile(lat, 500)
        for rec in records:
            assert psi_lattice(lat, record_t(rec)) == record_product_sq(rec)


@pytest.fixture(scope="module")
def pair6():
    return construct_thm3(Fraction(1), 6)


class TestLatticeExponents:
    def test_reduction_consistency(self, pair6):
        theta, eta = pair6
        lat = lattice_from_pair(theta, eta)
        ordinary, uniform, info = lattice_exponents(lat)
        om = max(ordinary_exponent(theta).value, ordinary_exponent(eta).value)
        vu = uniform_exponent(
            min_step(upsilon_step(theta), upsilon_step(eta)), "varpi_upsilon"
        ).value
        assert abs(ordinary.value - (om + 1) / 2) < 0.15
        assert abs(uniform.value - (vu + 1) / 2) < 0.10
        assert uniform.value <= ordinary.value + 0.05
        assert not info["truncated"]

    def test_truncation_warning(self, pair6):
        theta, eta = pair6
        lat = lattice_from_pair(theta, eta)
        r = Fraction(*degeneracy_radius(lat))
        _, _, info = lattice_exponents(lat, t_max=r * 2)
        assert info["truncated"]

    def test_scaling_stability(self, pair6):
        theta, eta = pair6
        lat = lattice_from_pair(theta, eta)
        o1, u1, _ = lattice_exponents(lat)
        o2, u2, _ = lattice_exponents(lattice_from_pair(theta, eta, 2, 3))
        assert abs(o1.value - o2.value) < 0.1
        assert abs(u1.value - u2.value) < 0.1

import random
from fractions import Fraction

import pytest

from weakapprox.cf import PartialQuotients
from weakapprox.construct import construct_thm3
from weakapprox.exponents import ordinary_exponent, uniform_exponent
from weakapprox.lattice import (
    Lattice2,
    degeneracy_radius,
    diag_scale,
    lattice_exponents,
    lattice_from_pair,
    minimum_profile,
)
from weakapprox.measure import min_step, upsilon_step
from oracles import psi_lattice


def brute_bound(lat, t):
    det = abs(lat.det)
    bound = 0
    for row in ((lat.a22, lat.a12), (lat.a21, lat.a11)):
        bound = max(bound, int((abs(row[0]) + abs(row[1])) * Fraction(t) / det) + 1)
    return bound


def brute_minimum(lat, t):
    """Dumb square-scan oracle over every |m|, |n| up to a safe bound.

    Integer arithmetic over the two row denominators keeps it affordable
    without changing the enumeration logic under test.
    """
    bound = brute_bound(lat, t)
    d1 = lat.a11.denominator * lat.a12.denominator
    d2 = lat.a21.denominator * lat.a22.denominator
    a1, b1 = int(lat.a11 * d1), int(lat.a12 * d1)
    a2, b2 = int(lat.a21 * d2), int(lat.a22 * d2)
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


def pair_512():
    theta = PartialQuotients(0, (2, 2, 2))  # 5/12
    eta = PartialQuotients(0, (2, 2, 2))
    return lattice_from_pair(theta, eta)


class TestLattice2:
    def test_from_pair(self):
        lat = pair_512()
        assert lat.a12 == Fraction(5, 12) and lat.a21 == Fraction(5, 12)
        assert lat.det == Fraction(119, 144)

    def test_singular_pair_rejected(self):
        half = PartialQuotients(0, (2,))     # 1/2
        two = PartialQuotients(1, (1,))      # 2
        with pytest.raises(ValueError):
            lattice_from_pair(half, two)
        with pytest.raises(ValueError):
            Lattice2(Fraction(1), Fraction(2), Fraction(2), Fraction(4))

    def test_zero_ratio_allowed_but_degenerate_early(self):
        # a vanishing off-diagonal entry is legal (det != 0) but the derived
        # ratio is rational zero and an axis point appears at sup-norm 1
        lat = Lattice2(Fraction(1), Fraction(0), Fraction(5, 12), Fraction(1))
        assert degeneracy_radius(lat) <= 1
        assert psi_lattice(lat, 1) == 0

    def test_json_roundtrip(self):
        lat = diag_scale(pair_512(), 3, Fraction(1, 2))
        assert lat.to_dict() == {"a11": "3/1", "a12": "5/4", "a21": "5/24", "a22": "1/2"}

    def test_diag_scale_preserves_ratios(self):
        lat = pair_512()
        scaled = diag_scale(lat, 3, Fraction(1, 2))
        assert scaled.a12 / scaled.a11 == lat.a12 / lat.a11
        assert scaled.a21 / scaled.a22 == lat.a21 / lat.a22
        with pytest.raises(ValueError):
            diag_scale(lat, 0, 1)

    def test_unit_scale_identity(self):
        lat = pair_512()
        assert diag_scale(lat, 1, 1) == lat


class TestPsiLattice:
    def test_integer_lattice_degenerates_immediately(self):
        lat = Lattice2(Fraction(1), Fraction(0), Fraction(0), Fraction(1))
        assert psi_lattice(lat, 1) == 0

    def test_sign_scale_invariance(self):
        lat = pair_512()
        flipped = diag_scale(lat, -1, 1)
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
                lat = Lattice2(*entries)
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
        # coordinate is |Q - P^2/Q| = |(Q^2 - P^2)/Q| = 119/12
        assert degeneracy_radius(lat) == Fraction(119, 12)

    def test_radius_point_is_degenerate(self):
        lat = pair_512()
        r = degeneracy_radius(lat)
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
            assert psi_lattice(lat, rec.t) == rec.product_sq
            if prev is not None:
                mid = (prev.t + rec.t) / 2
                assert psi_lattice(lat, mid) == prev.product_sq
            prev = rec
        # strictly decreasing products at strictly increasing radii
        assert all(a.t < b.t for a, b in zip(records, records[1:]))
        assert all(a.product_sq > b.product_sq for a, b in zip(records, records[1:]))

    def test_matches_exhaustive_scan_scaled(self):
        theta, eta = construct_thm3(Fraction(1), 4)
        lat = diag_scale(lattice_from_pair(theta, eta), 2, 3)
        records = minimum_profile(lat, 500)
        for rec in records:
            assert psi_lattice(lat, rec.t) == rec.product_sq


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
        r = degeneracy_radius(lat)
        _, _, info = lattice_exponents(lat, t_max=r * 2)
        assert info["truncated"]

    def test_scaling_stability(self, pair6):
        theta, eta = pair6
        lat = lattice_from_pair(theta, eta)
        o1, u1, _ = lattice_exponents(lat)
        o2, u2, _ = lattice_exponents(diag_scale(lat, 2, 3))
        assert abs(o1.value - o2.value) < 0.1
        assert abs(u1.value - u2.value) < 0.1

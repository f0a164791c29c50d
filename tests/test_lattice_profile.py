"""The lattice record profile against the exhaustive oracle ``oracles.psi_lattice``.

``minimum_profile`` lists the records of Psi from the chain of relative
minima (see the ``lattice`` module docstring).  Three facts pin a profile
down completely, given that Psi is non-increasing in t: each record equals
Psi at its radius, Psi just below each record equals the previous record
(or there is no lattice point yet), and Psi at t_max equals the last
record.  They are checked here on random rational matrices, then on a pair
whose only record lies off the old convergent branches.  The closed-form
degeneracy radius is checked against the oracle, deep profiles against
their own capped profile, and the lattice exponent estimates are checked
to converge with depth.  The bound is taken as two positive integer terms
in any form, and ``lattice_exponents`` reads the profile at its own cap.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from weakapprox.bounds import check_theorem
from weakapprox.cf import PartialQuotients
from weakapprox.cli import EXIT_INAPPLICABLE, main
from weakapprox.construct import construct_thm2, construct_thm3, growth_rate_thm3
from weakapprox.intmath import decimal_str, log_ratio, parse_decimal
from weakapprox.lattice import (
    Lattice2,
    degeneracy_radius,
    lattice_exponents,
    lattice_from_pair,
    minimum_profile,
)
from oracles import (from_entries, matrix_of, psi_lattice, record_product,
                     record_product_den, record_product_sq, record_t)

profile_settings = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Points ``psi_lattice`` may visit per call; t is capped to keep within it.
ORACLE_POINTS = 1500

ENTRIES = st.builds(Fraction, st.integers(-400, 400), st.integers(1, 60))


def oracle_cap(lat: Lattice2) -> Fraction:
    """Largest t (in 16ths) at which one ``psi_lattice`` call visits at most
    about ORACLE_POINTS n-values and box points: the box holds about
    4 t^2 / |det| points over 2 (|a11| + |a21|) t / |det| + 3 values of n."""
    a11, a12, a21, a22 = matrix_of(lat)
    det = float(abs(a11 * a22 - a12 * a21))
    s = float(abs(a11) + abs(a21))
    # 4 t^2 / det + 2 s t / det + 3 <= ORACLE_POINTS
    a, b, c = 4 / det, 2 * s / det, 3 - ORACLE_POINTS
    root = (-b + math.sqrt(b * b - 4 * a * c)) / (2 * a)
    return Fraction(math.floor(root * 16), 16)


@st.composite
def radii(draw, lat: Lattice2) -> Fraction:
    """t_max up to about 40, or at or past the degeneracy radius, capped by
    the oracle's budget."""
    radius = Fraction(*degeneracy_radius(lat))
    den = draw(st.sampled_from((1, 3, 7, 8)))
    t = draw(
        st.one_of(
            st.builds(Fraction, st.integers(1, 40 * den), st.just(den)),
            st.just(radius),
            st.builds(lambda k: radius * Fraction(8 + k, 8), st.integers(1, 16)),
        )
    )
    cap = oracle_cap(lat)
    assume(cap > 0)
    return min(t, cap)


@st.composite
def unit_diagonal(draw):
    theta, eta = draw(ENTRIES), draw(ENTRIES)
    assume(theta * eta != 1)
    lat = from_entries(1, theta, eta, 1)
    return lat, draw(radii(lat))


@st.composite
def general(draw):
    entries = [draw(ENTRIES) for _ in range(4)]
    assume(entries[0] * entries[3] != entries[1] * entries[2])
    lat = from_entries(*entries)
    return lat, draw(radii(lat))


def assert_matches_oracle(lat: Lattice2, t_max: Fraction) -> None:
    records = minimum_profile(lat, t_max.numerator, t_max.denominator)
    # Sup-norms are multiples of 1/(d1 d2), so t - below is above every
    # sup-norm less than t.
    a11, a12, a21, a22 = matrix_of(lat)
    den = math.prod(x.denominator for x in (a11, a12, a21, a22))
    below = Fraction(1, 2 * den)
    previous = None
    for rec in records:
        assert record_t(rec) <= t_max
        m, n = rec.point
        x1, x2 = a11 * m + a12 * n, a21 * m + a22 * n
        assert max(abs(x1), abs(x2)) == record_t(rec)
        assert (x1 * x2) ** 2 == record_product_sq(rec)
        assert psi_lattice(lat, record_t(rec)) == record_product_sq(rec)
        assert psi_lattice(lat, record_t(rec) - below) == previous
        previous = record_product_sq(rec)
    assert psi_lattice(lat, t_max) == previous


@profile_settings
@given(unit_diagonal())
def test_unit_diagonal_profile_matches_oracle(case):
    assert_matches_oracle(*case)


@profile_settings
@given(general())
def test_general_profile_matches_oracle(case):
    assert_matches_oracle(*case)


@pytest.mark.parametrize(
    "entries",
    [
        # (1, +-1) and (1, -+1) share |x|: the chain holds a twin pair
        # between the axis points (2, 0) and (0, 2).
        (1, 1, 1, -1),
        # a12 = 0: the axis point (0, a22) ends the chain at once.
        (Fraction(3, 7), 0, Fraction(-5, 2), Fraction(2, 9)),
        # a21 = 0: the x2 = 0 axis point is (m, n) = (1, 0), completed to a
        # basis by (0, 1) without a modular inverse.
        (Fraction(2, 3), Fraction(-7, 5), 0, Fraction(3, 4)),
        # a11 = 0: the x1 = 0 end of the chain is (m, n) = (1, 0).
        (0, Fraction(5, 3), Fraction(-2, 7), Fraction(9, 4)),
        # A sup-norm tie across the two stretches of the walk: at t = 2 a
        # point of each has sup-norm 2, with products 2/5 and 2, so the merge
        # must take the smaller product first.
        (1, -3, 2, Fraction(-9, 5)),
    ],
)
def test_degenerate_chains_match_oracle(entries):
    lat = from_entries(*entries)
    for t in (Fraction(1, 2), 1, 2, Fraction(*degeneracy_radius(lat)), 6):
        assert_matches_oracle(lat, Fraction(t))


SMALL_ENTRIES = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@profile_settings
@given(st.lists(SMALL_ENTRIES, min_size=4, max_size=4))
def test_degeneracy_radius_matches_oracle(entries):
    """The closed form |D| / max(g1 d2, g2 d1): the box of radius r holds a
    zero-product point, the box just inside it none."""
    assume(entries[0] * entries[3] != entries[1] * entries[2])
    lat = from_entries(*entries)
    radius = Fraction(*degeneracy_radius(lat))
    assume(radius <= oracle_cap(lat))
    assert psi_lattice(lat, radius) == 0
    assert psi_lattice(lat, radius * Fraction(4095, 4096)) != 0


@profile_settings
@given(unit_diagonal(), st.integers(2, 10**30))
def test_profile_depends_only_on_the_value_of_its_bound(case, k):
    """The terms of the bound may share any factor: (k n, k d) gives the
    records of (n, d), in the same unreduced integers."""
    lat, t = case
    n, d = t.numerator, t.denominator
    assert minimum_profile(lat, k * n, k * d) == minimum_profile(lat, n, d)


@pytest.mark.parametrize("terms", [(0, 1), (-3, 2), (1, 0), (2, -1), (-1, -1)])
def test_profile_bound_terms_must_be_positive(terms):
    lat = lattice_from_pair(*construct_thm3(Fraction(1), 4))
    with pytest.raises(ValueError, match="positive"):
        minimum_profile(lat, *terms)


@pytest.mark.parametrize("t_max", [0, Fraction(-3, 2), -10**1000], ids=["0", "-3/2", "-1e1000"])
def test_exponent_cap_must_be_positive(t_max):
    """A requested cap is checked before the truncation test, so a negative
    one longer than the radius is not mistaken for one beyond it."""
    lat = lattice_from_pair(*construct_thm3(Fraction(1), 4))
    with pytest.raises(ValueError, match="t_max must be positive"):
        lattice_exponents(lat, t_max)


@pytest.mark.parametrize("t_max", [None, 1000, Fraction(10**6, 7), 10**1000],
                         ids=["cap", "1000", "1e6/7", "1e1000"])
@pytest.mark.parametrize("scale", [(1, 1), (2, 3)])
def test_lattice_exponents_read_the_profile_at_their_cap(scale, t_max):
    """``lattice_exponents`` counts exactly the records ``minimum_profile``
    gives at the cap it prints, default, requested or truncated."""
    lat = lattice_from_pair(*construct_thm3(Fraction(1), 8), *scale)
    _, _, info = lattice_exponents(lat, t_max)
    assert info["truncated"] == (t_max == 10**1000)
    num, _, den = info["t_max"].partition("/")
    assert info["records"] == len(minimum_profile(lat, parse_decimal(num), parse_decimal(den)))


@pytest.mark.parametrize(
    "pair, scale",
    [
        (construct_thm3(Fraction(1), 10), (1, 1)),
        (construct_thm3(Fraction(1), 10), (2, 3)),
        (construct_thm2(Fraction(13, 10), 10), (1, 1)),
    ],
)
def test_deep_profiles_are_prefixes_of_the_capped_profile(pair, scale):
    """On chains far beyond the oracle's reach, the profile at t is the
    capped profile's records up to t: the walk from the x2 = 0 axis point
    passes the minima outside the box of radius t and keeps those inside.
    Each record's own t is a radius too, where the box test is a tie."""
    lat = lattice_from_pair(*pair, *scale)
    n, d = degeneracy_radius(lat)
    cap = (4095 * n, 4096 * d)
    full = minimum_profile(lat, *cap)
    for terms in ((1, 1), (3, 1), (1000, 1), (10**20, 1), cap,
                  *((rec.sup, rec.sup_den) for rec in full)):
        t = Fraction(*terms)
        assert minimum_profile(lat, *terms) == [rec for rec in full if record_t(rec) <= t]


@pytest.mark.parametrize("depth", [6, 10])
@pytest.mark.parametrize(
    "scale",
    [(1, 1), (2, 3), (4096, 1), (Fraction(5, 7), Fraction(13, 8)), (3 * 4096, 7),
     (Fraction(1, 4096), Fraction(1, 4095))],
)
def test_radius_and_cap_print_as_their_fractions(depth, scale):
    """``info`` prints the radius as its unreduced terms
    |D| / max(g1 d2, g2 d1) and the cap, whether default or truncated, as a
    fraction equal to radius * 4095/4096; the scales put factors of 4096
    and of 4095 = 3^2 5 7 13 into the two terms, and depth 10 takes the
    numerator past the plain-``str`` size."""
    lat = lattice_from_pair(*construct_thm3(Fraction(1), depth), *scale)
    n, d = abs(lat.D), max(lat.g1 * lat.d2, lat.g2 * lat.d1)
    assert degeneracy_radius(lat) == (n, d)
    radius = Fraction(n, d)

    def value(text: str) -> Fraction:
        num, _, den = text.partition("/")
        return Fraction(parse_decimal(num), parse_decimal(den))

    for t_max in (None, radius, 2 * radius):
        _, _, info = lattice_exponents(lat, t_max)
        assert info["degeneracy_radius"] == f"{decimal_str(n)}/{decimal_str(d)}"
        assert value(info["degeneracy_radius"]) == radius
        assert value(info["t_max"]) == radius * Fraction(4095, 4096)


@pytest.mark.parametrize("scale", [(1, 1), (2, 3)])
def test_exponent_samples_depend_only_on_record_values(scale):
    """The estimates read the unreduced record integers; recomputing every
    sample from the reduced Fractions of the same records gives the same
    bits."""
    theta, eta = construct_thm3(Fraction(1), 6)
    lat = lattice_from_pair(theta, eta, *scale)
    ordinary, uniform, info = lattice_exponents(lat)
    num, _, den = info["t_max"].partition("/")
    records = minimum_profile(lat, parse_decimal(num), parse_decimal(den))
    # Some records are not in lowest terms, so reducing them changes the pairs.
    assert any(math.gcd(record_product(r), record_product_den(r)) > 1 for r in records)
    assert any(math.gcd(r.sup, r.sup_den) > 1 for r in records)

    def log(x: Fraction) -> float:
        return log_ratio(x.numerator, x.denominator)

    log_psi = [log(Fraction(record_product(r), record_product_den(r))) / 2.0 for r in records]
    ord_samples, uni_samples = [], []
    for k, rec in enumerate(records):
        t = record_t(rec)
        if t >= 2:
            ord_samples.append((int(t), 1.0 - log_psi[k] / log(t)))
            if k > 0:
                uni_samples.append((int(t), 1.0 - log_psi[k - 1] / log(t)))
    assert ordinary.samples == tuple(ord_samples)
    assert uniform.samples == tuple(uni_samples)


def roadmap_pair() -> Lattice2:
    theta, eta = PartialQuotients.parse("[26;1,1,3]"), PartialQuotients.parse("[49;2]")
    return lattice_from_pair(theta, eta)


def test_record_off_the_convergent_branches_api():
    lat = roadmap_pair()
    n, d = degeneracy_radius(lat)
    assert Fraction(n, d) == Fraction(18400, 7)
    records = minimum_profile(lat, 4095 * n, 4096 * d)
    assert [(record_t(r), record_product_sq(r)) for r in records] == [
        (Fraction(186, 7), Fraction(34596, 49))]


def test_record_off_the_convergent_branches_cli(capsys):
    code = main(["lattice", "--theta", "[26;1,1,3]", "--eta", "[49;2]"])
    captured = capsys.readouterr()
    assert code == EXIT_INAPPLICABLE
    assert captured.out == ""
    assert "omega_bar_lattice: 0 samples" in captured.err


@pytest.mark.parametrize(
    "gamma, depths", [(Fraction(1, 2), (6, 8, 10, 12)), (Fraction(1), (6, 8, 10))]
)
def test_lattice_exponents_converge_with_depth(gamma, depths):
    """|omega_lattice - (root + 1)/2| and |omega_bar_lattice - (gamma + 2)/2|
    both fall strictly with the depth of the thm3 pair, and |slack| of the
    T4 check never grows and is below 0.001 at the deepest depth."""
    ordinary_limit = (growth_rate_thm3(gamma) + 1) / 2
    uniform_limit = (float(gamma) + 2) / 2
    ordinary_err, uniform_err, slacks = [], [], []
    for depth in depths:
        ordinary, uniform, _ = lattice_exponents(lattice_from_pair(*construct_thm3(gamma, depth)))
        ordinary_err.append(abs(ordinary.value - ordinary_limit))
        uniform_err.append(abs(uniform.value - uniform_limit))
        estimates = {"omega_lattice": ordinary.value, "omega_bar_lattice": uniform.value}
        slacks.append(abs(check_theorem("T4", estimates).slack))
    assert all(a > b for a, b in zip(ordinary_err, ordinary_err[1:])), ordinary_err
    assert all(a > b for a, b in zip(uniform_err, uniform_err[1:])), uniform_err
    assert all(a >= b - 1e-9 for a, b in zip(slacks, slacks[1:])), slacks
    assert slacks[-1] < 0.001, slacks


@pytest.mark.parametrize("t_max", [None, 10**9, 10**100000], ids=["cap", "1e9", "1e100000"])
def test_lattice_exponents_take_no_record_sized_gcd(gcd_calls, t_max):
    """The pair lattice gets its row gcds from the scales, the records need
    no product or gcd, and the radius is printed unreduced: no gcd has both
    arguments above 64 bits (those left cancel the cap's factor 4095/4096).
    A t_max past the radius (10^100000) is truncated to that cap."""
    pair = construct_thm3(Fraction(1), 12)
    gcd_calls.clear()
    lat = lattice_from_pair(*pair)
    assert gcd_calls == []
    _, _, info = lattice_exponents(lat, t_max)
    assert info["truncated"] == (t_max == 10**100000)
    assert not [args for args in gcd_calls if min(a.bit_length() for a in args) > 64]


@profile_settings
@given(st.lists(st.integers(1, 10**6), min_size=2, max_size=8),
       st.lists(st.integers(1, 10**6), min_size=2, max_size=8),
       st.integers(-5, 5), st.integers(-5, 5), SMALL_ENTRIES, SMALL_ENTRIES)
def test_pair_lattice_row_gcds_are_the_scales(tail1, tail2, a0, b0, d1, d2):
    """``lattice_from_pair`` passes |n1|, |n2| for scales n/m as the row
    gcds; they equal the gcds a general matrix takes."""
    assume(d1 != 0 and d2 != 0)
    theta, eta = PartialQuotients(a0, tuple(tail1)), PartialQuotients(b0, tuple(tail2))
    try:
        lat = lattice_from_pair(theta, eta, d1, d2)
    except ValueError:  # theta * eta = 1
        return
    assert (lat.g1, lat.g2) == (math.gcd(lat.A1, lat.B1), math.gcd(lat.A2, lat.B2))
    assert lat == Lattice2(lat.A1, lat.B1, lat.d1, lat.A2, lat.B2, lat.d2)

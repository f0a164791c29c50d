"""Acceptance suite: each test runs one numbered criterion end to end at its
stated tolerance and prints one PASS/FAIL line (run with ``pytest -s`` to see
the lines as they appear).

Criterion 7 is split.  Its sweep prints a second identity,
G_y(1/(2-y)) = ((y-1)/(2-y))^2, that is off by a factor (y-1) for the
quadratic G_y(x) = x^2 - (y^2-2y+3)x + 1 it is stated for: the first
identity G_y(y) = (1-y)^3 pins the middle coefficient, which forces the
exact value (y-1)^3/(2-y)^2.  test_criterion_7b asserts that exact value,
in rational arithmetic, together with the erratum relation.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from weakapprox.bounds import G_frak, check_theorem, g_frak
from weakapprox.cf import PartialQuotients, qnorm_table
from weakapprox.cli import main as cli_main
from weakapprox.construct import construct_thm1, construct_thm2, construct_thm3
from weakapprox.exponents import ordinary_exponent, uniform_exponent
from weakapprox.lattice import (
    degeneracy_radius,
    lattice_exponents,
    lattice_from_pair,
)
from weakapprox.lemma import (
    StepPair,
    check_conditions,
    find_witnesses,
    random_step_pair,
    verify_witness,
)
from weakapprox.measure import min_step, psi_step, upsilon_step
from oracles import convergents, dominated_controls


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# shared constructions (computed once)

@pytest.fixture(scope="module")
def thm1_data():
    pq = construct_thm1(Fraction(3, 2), 14)
    return {
        "omega": ordinary_exponent(pq).value,
        "omega_bar": uniform_exponent(upsilon_step(pq), "omega_bar").value,
    }


@pytest.fixture(scope="module")
def thm2_data():
    theta, eta = construct_thm2(Fraction(13, 10), 20)
    psi_min = min_step(psi_step(theta), psi_step(eta))
    ups_min = min_step(upsilon_step(theta), upsilon_step(eta))
    return {
        "omega_theta": ordinary_exponent(theta).value,
        "omega_eta": ordinary_exponent(eta).value,
        "omega_bar_theta": uniform_exponent(upsilon_step(theta), "omega_bar").value,
        "omega_bar_eta": uniform_exponent(upsilon_step(eta), "omega_bar").value,
        "varpi_psi": uniform_exponent(psi_min, "varpi_psi").value,
        "varpi_upsilon": uniform_exponent(ups_min, "varpi_upsilon").value,
    }


@pytest.fixture(scope="module")
def thm3_data():
    theta, eta = construct_thm3(Fraction(1), 12)
    psi_min = min_step(psi_step(theta), psi_step(eta))
    ups_min = min_step(upsilon_step(theta), upsilon_step(eta))
    return {
        "omega_theta": ordinary_exponent(theta).value,
        "omega_eta": ordinary_exponent(eta).value,
        "omega_bar_theta": uniform_exponent(upsilon_step(theta), "omega_bar").value,
        "omega_bar_eta": uniform_exponent(upsilon_step(eta), "omega_bar").value,
        "varpi_psi": uniform_exponent(psi_min, "varpi_psi").value,
        "varpi_upsilon": uniform_exponent(ups_min, "varpi_upsilon").value,
    }


@pytest.fixture(scope="module")
def lattice_pair():
    return construct_thm3(Fraction(1), 6)


# ---------------------------------------------------------------------------
# criterion 1: exactness suite

def _capped_prefix(rng: random.Random, q_cap: int = 20_000) -> PartialQuotients:
    """Random prefix (depth <= 12, quotients <= 9) with a scan-friendly domain.

    Quotients are drawn freely and the tail is truncated at the deepest N
    with q_{N-1} <= q_cap, so the exhaustive scans stay affordable while the
    cap range is actually exercised.
    """
    while True:
        depth = rng.randint(2, 12)
        tail = tuple(rng.randint(1, 9) for _ in range(depth))
        q_prev, q = 0, 1
        keep = 0
        for k, a in enumerate(tail):
            q, q_prev = a * q + q_prev, q
            if k + 1 < depth and q <= q_cap:
                keep = k + 2  # N such that q_{N-1} stays capped
        keep = min(keep, depth)
        if keep < 2:
            continue
        pq = PartialQuotients(rng.randint(-2, 2), tail[:keep])
        if pq.analysis.q[-2] >= 2:
            return pq


def _scan_check(pq: PartialQuotients) -> None:
    """Exact, integer-only brute scan of both measure functions over the
    whole valid domain, compared piecewise against the step functions."""
    p_n, q_n = convergents(pq)[-1]
    psi = psi_step(pq)
    ups = upsilon_step(pq)

    def scaled(values):
        return [v.numerator * (q_n // v.denominator) for v in values]

    psi_scaled = scaled(psi.values)
    ups_scaled = scaled(ups.values)
    best_ord = best_weak = None
    pi = ui = 0
    for t in range(1, psi.domain_end):
        r = (t * p_n) % q_n
        d = min(r, q_n - r)
        if best_ord is None or d < best_ord:
            best_ord = d
        w = t * d
        if best_weak is None or w < best_weak:
            best_weak = w
        while pi + 1 < len(psi.breakpoints) and psi.breakpoints[pi + 1] <= t:
            pi += 1
        while ui + 1 < len(ups.breakpoints) and ups.breakpoints[ui + 1] <= t:
            ui += 1
        assert best_ord == psi_scaled[pi], f"psi mismatch at t={t} for {pq}"
        assert best_weak == ups_scaled[ui], f"upsilon mismatch at t={t} for {pq}"


def test_criterion_1_exactness_suite():
    start = time.time()
    rng = random.Random(20240)
    for _ in range(200):
        pq = _capped_prefix(rng)
        conv = convergents(pq)
        for k in range(1, len(conv)):
            (p, q), (p_prev, q_prev) = conv[k], conv[k - 1]
            assert p * q_prev - p_prev * q == (-1) ** (k - 1)
        for row in qnorm_table(pq):
            if not row.sandwich_ok:
                continue
            q_next = conv[row.index + 1][1]
            a_next = pq.tail[row.index]
            assert Fraction(1, 2 * q_next) < row.value < Fraction(1, q_next)
            assert Fraction(1, a_next + 2) < row.q * row.value < Fraction(1, a_next)
        _scan_check(pq)
    elapsed = time.time() - start
    ok = elapsed < 60.0
    report(1, ok, f"continuants, two-sided bounds, oracle equivalence on 200 "
                  f"prefixes in {elapsed:.1f}s (< 60s)")
    assert ok


# ---------------------------------------------------------------------------
# criteria 2-4: the three constructions

def test_criterion_2_single_number_construction(thm1_data):
    start = time.time()
    om, ob = thm1_data["omega"], thm1_data["omega_bar"]
    elapsed = time.time() - start
    ok = 1.85 <= om <= 2.15 and 1.40 <= ob <= 1.60
    report(2, ok, f"gamma=3/2 depth 14: omega={om:.4f} in [1.85,2.15], "
                  f"omega_bar={ob:.4f} in [1.40,1.60]")
    assert ok
    assert elapsed < 120.0


def test_criterion_3_pair_power_construction(thm2_data):
    d = thm2_data
    chk = check_theorem("T2", d)
    ok = (
        1.59 <= d["omega_theta"] <= 1.79
        and 1.59 <= d["omega_eta"] <= 1.79
        and 1.20 <= d["varpi_psi"] <= 1.40
        and chk.applicable
        and chk.satisfied
        and abs(chk.slack) <= 0.1
    )
    report(3, ok, f"gamma=13/10 depth 20: omega=({d['omega_theta']:.4f},"
                  f"{d['omega_eta']:.4f}) target 1.69, varpi_psi="
                  f"{d['varpi_psi']:.4f} target 1.3, T2 slack {chk.slack:+.4f}")
    assert ok


def test_criterion_4_pair_product_construction(thm3_data):
    d = thm3_data
    chk = check_theorem("T3", d)
    ok = (
        2.47 <= d["omega_theta"] <= 2.77
        and 2.47 <= d["omega_eta"] <= 2.77
        and 1.90 <= d["varpi_upsilon"] <= 2.10
        and chk.applicable
        and chk.satisfied
        and abs(chk.slack) <= 0.15
    )
    report(4, ok, f"gamma=1 depth 12: omega=({d['omega_theta']:.4f},"
                  f"{d['omega_eta']:.4f}) target 2.618, varpi_upsilon="
                  f"{d['varpi_upsilon']:.4f} target 2, T3 slack {chk.slack:+.4f}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: lattice consistency

def test_criterion_5_lattice_consistency(lattice_pair):
    start = time.time()
    theta, eta = lattice_pair
    lat = lattice_from_pair(theta, eta)
    radius_num, radius_den = degeneracy_radius(lat)
    ordinary, uniform, info = lattice_exponents(lat)

    om_max = max(ordinary_exponent(theta).value, ordinary_exponent(eta).value)
    ups_min = min_step(upsilon_step(theta), upsilon_step(eta))
    vu = uniform_exponent(ups_min, "varpi_upsilon").value
    target_ord = (om_max + 1) / 2
    target_uni = (vu + 1) / 2

    o2, u2, _ = lattice_exponents(lattice_from_pair(theta, eta, 2, 3))
    elapsed = time.time() - start

    checks = {
        "ordinary vs reduction": abs(ordinary.value - target_ord) <= 0.15,
        "uniform vs reduction": abs(uniform.value - target_uni) <= 0.10,
        "uniform <= ordinary": uniform.value <= ordinary.value + 1e-9,
        "scaling shift ordinary": abs(o2.value - ordinary.value) < 0.1,
        "scaling shift uniform": abs(u2.value - uniform.value) < 0.1,
        "capped below degeneracy": not info["truncated"],
        "radius printed unreduced": info["degeneracy_radius"] == f"{radius_num}/{radius_den}",
        "runtime": elapsed < 300.0,
    }
    ok = all(checks.values())
    report(5, ok, f"omega_lat={ordinary.value:.4f} vs {target_ord:.4f}, "
                  f"omega_bar_lat={uniform.value:.4f} vs {target_uni:.4f}, "
                  f"scaled=({o2.value:.4f},{u2.value:.4f}), radius~1e"
                  f"{len(str(radius_num)) - len(str(radius_den))}, "
                  f"{elapsed:.1f}s (< 300s)")
    assert ok, checks


# ---------------------------------------------------------------------------
# criterion 6: step-pair property suite

def test_criterion_6_step_pair_property_suite():
    start = time.time()
    witnessed = 0
    for seed in range(500):
        pair = random_step_pair(seed, pieces=10)
        rep = check_conditions(pair)
        assert rep.a_holds and rep.b_holds, f"hypotheses broken at seed {seed}"
        ws = find_witnesses(pair)
        verified = [w for w in ws if verify_witness(pair, w)]
        assert len(verified) >= 1, f"no verified witness at seed {seed}"
        assert len(verified) == len(ws)
        witnessed += len(verified)

    for seed in range(100):
        breaks_a, breaks_b = dominated_controls(random_step_pair(10_000 + seed, pieces=10))
        rep = check_conditions(breaks_a)
        assert not rep.a_holds and rep.b_holds
        rep = check_conditions(breaks_b)
        assert not rep.b_holds and rep.a_holds
        assert find_witnesses(breaks_a) == find_witnesses(breaks_b) == []

    elapsed = time.time() - start
    ok = elapsed < 30.0
    report(6, ok, f"500 alternating pairs all witnessed ({witnessed} witnesses), "
                  f"200 controls flagged, {elapsed:.1f}s (< 30s)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: polynomial identity sweep

def _sweep_points():
    rng = random.Random(77)
    return [Fraction(rng.randint(101, 199), 100) for _ in range(100)]


def test_criterion_7a_identities_and_roots():
    failures = []
    for y in _sweep_points():
        lhs = y * y - (y * y - 2 * y + 3) * y + 1
        if lhs != (1 - y) ** 3:
            failures.append(("first identity", y))
        yf = float(y)
        root = g_frak(yf)
        if not (yf < root < 1.0 / (2.0 - yf)):
            failures.append(("root location", y))
        big = G_frak(yf)
        resid = big * big - 2 * yf * big - 1.0
        scale = big * big + 2 * yf * big + 1.0
        if abs(resid) > 1e-12 * scale:
            failures.append(("second family residual", y))
    ok = not failures
    report(7, ok, "identity G(y)=(1-y)^3 exact, roots in (y, 1/(2-y)), "
                  "second-family residual < 1e-12 for 100 y in (1,2)")
    assert ok, failures


def test_criterion_7b_printed_identity_as_stated():
    # As printed, the sweep claims the value at 1/(2-y) equals
    # ((y-1)/(2-y))^2.  The first identity pins the middle coefficient to
    # y^2-2y+3, which forces the exact value (y-1)^3/(2-y)^2 instead: the
    # printed form is off by a factor (y-1).  G_y(1/(2-y)) > 0 and
    # 1/(2-y) > y, with G_y(y) < 0 from 7a, place g_frak(y) below 1/(2-y).
    failures = []
    for y in _sweep_points():
        z = 1 / (2 - y)
        value = z * z - (y * y - 2 * y + 3) * z + 1
        if value != (y - 1) ** 3 / (2 - y) ** 2:
            failures.append(("exact value", y))
        if value != (y - 1) * ((y - 1) / (2 - y)) ** 2:
            failures.append(("printed form times (y-1)", y))
        if not (value > 0 and z > y):
            failures.append(("g_frak(y) < 1/(2-y)", y))
    ok = not failures
    report(7, ok, "G(1/(2-y)) = (y-1)^3/(2-y)^2 = (y-1)((y-1)/(2-y))^2 > 0 "
                  "exact, 1/(2-y) > y for 100 y in (1,2) (printed form "
                  "((y-1)/(2-y))^2 lacks the factor (y-1))")
    assert ok, failures


# ---------------------------------------------------------------------------
# criterion 8: ordering invariants on every generated dataset

def test_criterion_8_ordering_invariants(thm1_data, thm2_data, thm3_data):
    datasets = {"thm1": thm1_data, "thm2": thm2_data, "thm3": thm3_data}
    golden_theta = PartialQuotients(1, (1,) * 25)
    golden_eta = PartialQuotients(0, (2,) + (1,) * 24)
    psi_min = min_step(psi_step(golden_theta), psi_step(golden_eta))
    ups_min = min_step(upsilon_step(golden_theta), upsilon_step(golden_eta))
    datasets["golden"] = {
        "omega_theta": ordinary_exponent(golden_theta).value,
        "omega_eta": ordinary_exponent(golden_eta).value,
        "omega_bar_theta": uniform_exponent(upsilon_step(golden_theta), "omega_bar").value,
        "varpi_psi": uniform_exponent(psi_min, "varpi_psi").value,
        "varpi_upsilon": uniform_exponent(ups_min, "varpi_upsilon").value,
    }

    problems = []
    for name, d in datasets.items():
        for key in ("omega_theta", "omega_eta"):
            if key in d and d[key] < 1 - 1e-9:
                problems.append((name, f"{key} below 1"))
        if "omega_bar_theta" in d and d["omega_theta"] < d["omega_bar_theta"] - 0.05:
            problems.append((name, "omega below omega_bar"))
        if "omega_bar_eta" in d and d["omega_eta"] < d["omega_bar_eta"] - 0.05:
            problems.append((name, "omega_eta below omega_bar_eta"))
        if "varpi_psi" in d:
            if not (1 - 0.05 <= d["varpi_psi"] <= d["varpi_upsilon"] + 0.05):
                problems.append((name, "varpi chain broken"))
    ok = not problems
    report(8, ok, f"orderings hold on {', '.join(datasets)} "
                  "(omega >= omega_bar - 0.05; 0.95 <= varpi_psi <= "
                  "varpi_upsilon + 0.05; omega >= 1 - 1e-9)")
    assert ok, problems


# ---------------------------------------------------------------------------
# criterion 9: CLI determinism

def test_criterion_9_cli_determinism(tmp_path, capsys):
    def run_all(tag: str) -> dict:
        paths = {}
        for name, argv in {
            "verify": ["verify", "--theorem", "T3", "--gamma", "1", "--depth", "8"],
            "construct": ["construct", "--scheme", "thm1", "--gamma", "3/2",
                          "--depth", "10"],
            "measure": ["measure", "--prefix", "[0;2,2,2]", "--kind", "upsilon"],
            "lemma1": ["lemma1", "--seed", "0", "--pairs", "5"],
        }.items():
            out = tmp_path / f"{name}-{tag}"
            code = cli_main(argv + ["--output", str(out)])
            assert code == 0, name
            paths[name] = out.read_bytes()
        csv = tmp_path / f"steps-{tag}.csv"
        cli_main(["measure", "--prefix", "[0;2,2,2]", "--output", str(csv)])
        svg = tmp_path / f"plot-{tag}.svg"
        code = cli_main(["plot", "--csv", str(csv), "--label", "psi",
                         "--annotate", "2", "--output", str(svg)])
        assert code == 0
        paths["plot"] = svg.read_bytes()
        return paths

    first = run_all("a")
    second = run_all("b")
    capsys.readouterr()
    same = {k: first[k] == second[k] for k in first}
    ok = all(same.values())
    report(9, ok, f"byte-identical artifacts across repeated runs: "
                  f"{', '.join(sorted(same))}")
    assert ok, same

import math
import random
from fractions import Fraction

import pytest

from weakapprox.bounds import BoundCheck, G_frak, check_theorem, g_frak


def poly_g(y, x):
    return x * x - (y * y - 2 * y + 3) * x + 1


def poly_h(y, x):
    return x * x - 2 * y * x - 1


class TestRoots:
    def test_known_values(self):
        assert abs(g_frak(2.0) - (3 + math.sqrt(5)) / 2) < 1e-12
        assert abs(g_frak(1.5) - 1.6403882032) < 1e-9
        assert abs(G_frak(1.0) - (1 + math.sqrt(2))) < 1e-12
        assert abs(G_frak(1.5) - 3.3027756377) < 1e-9

    def test_domains(self):
        with pytest.raises(ValueError):
            g_frak(1.0)
        with pytest.raises(ValueError):
            G_frak(0.0)

    def test_residuals_small(self):
        rng = random.Random(17)
        for _ in range(200):
            y = 1.0 + 0.999 * rng.random()
            x = g_frak(y)
            scale = x * x + (y * y - 2 * y + 3) * x + 1
            assert abs(poly_g(y, x)) <= 1e-12 * scale
            z = G_frak(y)
            scale2 = z * z + 2 * y * z + 1
            assert abs(poly_h(y, z)) <= 1e-12 * scale2

    def test_root_location(self):
        rng = random.Random(23)
        for _ in range(200):
            y = 1.0 + 0.998 * rng.random() + 1e-3
            x = g_frak(y)
            assert x > y
            assert x < 1.0 / (2.0 - y)
            assert G_frak(y) > y

    def test_exact_identities_in_rational_arithmetic(self):
        rng = random.Random(29)
        for _ in range(100):
            y = Fraction(rng.randint(101, 199), 100)
            assert poly_g(y, y) == (1 - y) ** 3
            z = 1 / (2 - y)
            assert poly_g(y, z) == (y - 1) ** 3 / (2 - y) ** 2

    def test_family_linking_identity(self):
        # largest root of the first family at 2u+1 is the square of the
        # positive root of the second family at u
        for u in (0.25, 0.5, 1.0, 2.0, 3.7):
            assert abs(g_frak(2 * u + 1) - G_frak(u) ** 2) < 1e-9 * G_frak(u) ** 2


class TestChecks:
    def test_t1_equality_case(self):
        chk = check_theorem("T1", {"omega_theta": 2.0001, "omega_bar_theta": 1.5})
        assert chk.applicable and chk.satisfied
        assert abs(chk.bound - 2.0) < 1e-12
        assert abs(chk.slack - 0.0001) < 1e-9

    def test_t1_blowup(self):
        chk = check_theorem("T1", {"omega_theta": 80.0, "omega_bar_theta": 2.0})
        assert chk.bound == math.inf
        assert chk.satisfied
        chk2 = check_theorem("T1", {"omega_theta": 3.0, "omega_bar_theta": 2.0})
        assert not chk2.satisfied

    def test_t2(self):
        chk = check_theorem(
            "T2", {"omega_theta": 1.70, "omega_eta": 1.71, "varpi_psi": 1.3}
        )
        assert chk.applicable and chk.satisfied
        assert abs(chk.bound - 1.69) < 1e-12
        assert abs(chk.slack - 0.01) < 1e-12

    def test_t3(self):
        chk = check_theorem(
            "T3", {"omega_theta": 2.62, "omega_eta": 2.60, "varpi_upsilon": 2.0}
        )
        assert chk.applicable and chk.satisfied
        assert abs(chk.bound - (3 + math.sqrt(5)) / 2) < 1e-9

    def test_t4_equality_case(self):
        chk = check_theorem(
            "T4", {"omega_lattice": 1.809, "omega_bar_lattice": 1.5}
        )
        assert chk.applicable and chk.satisfied
        assert abs(chk.bound - ((3 + math.sqrt(5)) / 2 + 1) / 2) < 1e-9
        assert abs(chk.slack) < 1e-3

    @pytest.mark.parametrize(
        "which, estimates, gate",
        [
            ("T2", {"omega_theta": 1.7, "omega_eta": 1.7, "varpi_psi": 0.99}, "varpi_psi"),
            ("T3", {"omega_theta": 2.6, "omega_eta": 2.6, "varpi_upsilon": 1.0},
             "varpi_upsilon"),
            ("T4", {"omega_lattice": 1.0, "omega_bar_lattice": 0.9}, "omega_bar_lattice"),
        ],
        ids=["T2", "T3", "T4"],
    )
    def test_ineligible(self, which, estimates, gate):
        chk = check_theorem(which, {**estimates, "unused": 5.0})
        assert not chk.applicable
        assert chk.satisfied is None and chk.lhs is None and chk.slack is None
        assert chk.inputs == estimates
        assert chk.note == f"{gate} <= 1"

    @pytest.mark.parametrize("which", ["T1", "T2", "T3", "T4"])
    def test_missing_inputs(self, which):
        complete = {"omega_theta": 3.0, "omega_bar_theta": 1.5, "omega_eta": 3.0,
                    "varpi_psi": 1.5, "varpi_upsilon": 1.5,
                    "omega_lattice": 2.0, "omega_bar_lattice": 1.5}
        assert check_theorem(which, complete).applicable
        # omega_theta or omega_lattice is an input of every check.
        partial = {k: v for k, v in complete.items() if k not in ("omega_theta", "omega_lattice")}
        chk = check_theorem(which, partial)
        assert not chk.applicable and chk.satisfied is None
        assert chk.inputs == partial
        assert chk.note == "missing inputs"

    def test_reads_only_its_own_keys(self):
        estimates = {"omega_theta": 1.70, "omega_eta": 1.71, "varpi_psi": 1.3}
        chk = check_theorem("T2", {**estimates, "varpi_upsilon": 0.5, "flags": []})
        assert chk.applicable and chk.inputs == estimates

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            check_theorem("T9", {})

    def test_json_form(self):
        chk = check_theorem("T1", {"omega_theta": 2.0, "omega_bar_theta": 1.5})
        d = chk.to_dict()
        assert d["theorem"] == "T1"
        assert isinstance(d["inputs"], dict)
        assert isinstance(chk, BoundCheck)

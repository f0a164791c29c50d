"""Bound polynomials, their roots, and the four inequality checks.

Two families of monic quadratics drive the lower bounds:

    G_y(x) = x^2 - (y^2 - 2y + 3) x + 1      (largest root g_frak(y), y > 1)
    H_y(x) = x^2 - 2 y x - 1                 (positive root G_frak(y), y > 0)

Useful exact facts, all verified in the test suite:
    G_y(y) = (1 - y)^3, so y sits strictly between the roots for y > 1;
    G_y(1/(2-y)) = (y-1)^3 / (2-y)^2 > 0, so g_frak(y) < 1/(2-y) on (1,2);
    g_frak(2u + 1) = G_frak(u)^2, linking the two families.

The checks consume finite-depth estimates, so "satisfied" is asymptotic
evidence, not proof; the slack is reported to make near-equality (the
extremal constructions) visible.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .cf import PartialQuotients
from .exponents import exponent_report
from .lattice import lattice_exponents, lattice_from_pair

__all__ = ["BoundCheck", "g_frak", "G_frak", "check_theorem", "check_prefixes"]

#: Default tolerance on asymptotic comparisons.
CHECK_TOL = 0.05
#: An ordinary-exponent estimate above this counts as "effectively infinite"
#: when the uniform estimate pins the bound at its blow-up point.
INFINITE_THRESHOLD = 50.0


def g_frak(y: float) -> float:
    """Largest root of x^2 - (y^2 - 2y + 3) x + 1, for y > 1.

    Exceeds y, and stays below 1/(2-y) for 1 < y < 2.  Evaluated with the
    cancellation-free form b^2 - 4 = (y-1)^2 ((y-1)^2 + 4).
    """
    if y <= 1:
        raise ValueError("g_frak requires y > 1")
    d = y - 1.0
    b = d * d + 2.0
    root = (b + d * math.sqrt(d * d + 4.0)) / 2.0
    # One Newton polish; derivative 2x - b is sqrt(b^2-4) > 0 at the root.
    fx = root * root - b * root + 1.0
    root -= fx / (2.0 * root - b)
    return root


def G_frak(y: float) -> float:
    """Positive root y + sqrt(y^2 + 1) of x^2 - 2 y x - 1, for y > 0."""
    if y <= 0:
        raise ValueError("G_frak requires y > 0")
    return y + math.sqrt(y * y + 1.0)


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of one theorem-style inequality check on estimates."""

    theorem: str
    lhs: float | None
    bound: float | None
    slack: float | None
    satisfied: bool | None
    applicable: bool
    tolerance: float
    inputs: dict
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


#: Per theorem: the estimate keys it reads, the key that must exceed 1 for
#: the bound to apply (None: always applies), the left side and the bound as
#: functions of the keys' values in order, and the note of an applicable check.
_THEOREMS = {
    "T1": (("omega_theta", "omega_bar_theta"), None,
           lambda o, w: o, lambda o, w: math.inf if w >= 2.0 else 1.0 / (2.0 - w), ""),
    "T2": (("omega_theta", "omega_eta", "varpi_psi"), "varpi_psi",
           lambda a, b, vp: min(a, b), lambda a, b, vp: vp * vp, ""),
    "T3": (("omega_theta", "omega_eta", "varpi_upsilon"), "varpi_upsilon",
           lambda a, b, vu: max(a, b), lambda a, b, vu: g_frak(vu), ""),
    "T4": (("omega_lattice", "omega_bar_lattice"), "omega_bar_lattice",
           lambda o, w: o, lambda o, w: (g_frak(2.0 * w - 1.0) + 1.0) / 2.0,
           "bound = (g_frak(2w-1)+1)/2 = G_frak(w-1)*(w-1)+1"),
}


def check_theorem(which: str, estimates: dict, tolerance: float = CHECK_TOL) -> BoundCheck:
    """Evaluate one of the four lower-bound inequalities on estimates.

    T1: omega >= 1/(2 - omega_bar) for one number (infinite bound at
        omega_bar = 2, checked against ``INFINITE_THRESHOLD``).
    T2: min(omega_theta, omega_eta) >= varpi_psi^2, needs varpi_psi > 1.
    T3: max(omega_theta, omega_eta) >= g_frak(varpi_upsilon), needs
        varpi_upsilon > 1.
    T4: lattice form of T3.  The lattice estimates use the normalization in
        which omega_lattice = (max omega + 1)/2 and omega_bar_lattice =
        (varpi_upsilon + 1)/2, so the bound is
        (g_frak(2*omega_bar_lattice - 1) + 1)/2, which equals
        G_frak(w - 1) * (w - 1) + 1 at w = omega_bar_lattice via the root
        identity g_frak(2u + 1) = G_frak(u)^2.  Needs omega_bar_lattice > 1.

    Only the theorem's own keys are read from ``estimates``.  Missing or
    ineligible inputs give an inapplicable (not failed) check.  A tolerance
    that is not finite and >= 0 raises ``ValueError``.
    """
    if not 0 <= tolerance < math.inf:  # also false for nan
        raise ValueError(f"tolerance must be finite and >= 0, not {tolerance!r}")
    if which not in _THEOREMS:
        raise ValueError(f"unknown theorem id {which!r}")
    keys, gate, lhs_of, bound_of, note = _THEOREMS[which]
    tol = tolerance
    if any(k not in estimates for k in keys):
        return BoundCheck(which, None, None, None, None, False, tol, estimates, "missing inputs")
    inputs = {k: estimates[k] for k in keys}
    if gate is not None and inputs[gate] <= 1.0:
        return BoundCheck(which, None, None, None, None, False, tol, inputs, f"{gate} <= 1")
    values = inputs.values()
    lhs, bound = lhs_of(*values), bound_of(*values)
    if bound == math.inf:
        return BoundCheck(
            which, lhs, bound, None, lhs >= INFINITE_THRESHOLD, True, tol, inputs,
            f"uniform estimate at blow-up point; threshold {INFINITE_THRESHOLD}",
        )
    slack = lhs - bound
    return BoundCheck(which, lhs, bound, slack, slack >= -tol, True, tol, inputs, note)


def check_prefixes(which: str, theta: PartialQuotients, eta: PartialQuotients | None = None,
                   tolerance: float = CHECK_TOL) -> tuple[dict, BoundCheck, list[str]]:
    """Check theorem ``which`` on a prefix or a pair (T2-T4 need a pair, or
    are inapplicable); return ``exponent_report``'s report, the check and the
    report's flags.  T4 checks the pair lattice's two estimates, and nests
    the report as ``number_side`` beside their ``lattice_info``."""
    report = estimates = exponent_report(theta, eta)
    flags = report["flags"]
    if which == "T4" and eta is not None:
        ordinary, uniform, info = lattice_exponents(lattice_from_pair(theta, eta))
        estimates = {"omega_lattice": ordinary.value, "omega_bar_lattice": uniform.value}
        report = {"number_side": report, "lattice_info": info}
    return report, check_theorem(which, estimates, tolerance), flags

"""Exact-arithmetic laboratory for two-dimensional Diophantine approximation.

Continued-fraction prefixes stand in for irrational numbers; measure
functions, exponent estimates, lattice product minima, and the step-pair
combinatorics are all computed in exact rational arithmetic on top of them.
"""

from .bounds import BoundCheck, G_frak, check_prefixes, check_theorem, g_frak
from .cf import (
    ExactDistance,
    PartialQuotients,
    qnorm_table,
    truncation_value,
)
from .construct import (
    GuardExceeded,
    InterleavingError,
    construct_thm1,
    construct_thm2,
    construct_thm3,
    growth_rate_thm3,
)
from .exponents import (
    ExponentEstimate,
    exponent_report,
    ordinary_exponent,
    uniform_exponent,
)
from .lattice import (
    Lattice2,
    degeneracy_radius,
    lattice_exponents,
    lattice_from_pair,
    minimum_profile,
)
from .lemma import (
    StepPair,
    Witness,
    check_conditions,
    find_witnesses,
    random_step_pair,
    verify_witness,
)
from .measure import StepFunction, min_step, psi_step, upsilon_step

__version__ = "0.1.0"

__all__ = [
    "BoundCheck",
    "ExactDistance",
    "ExponentEstimate",
    "G_frak",
    "GuardExceeded",
    "InterleavingError",
    "Lattice2",
    "PartialQuotients",
    "StepFunction",
    "StepPair",
    "Witness",
    "check_conditions",
    "check_prefixes",
    "check_theorem",
    "construct_thm1",
    "construct_thm2",
    "construct_thm3",
    "degeneracy_radius",
    "exponent_report",
    "find_witnesses",
    "g_frak",
    "growth_rate_thm3",
    "lattice_exponents",
    "lattice_from_pair",
    "min_step",
    "minimum_profile",
    "ordinary_exponent",
    "psi_step",
    "qnorm_table",
    "random_step_pair",
    "truncation_value",
    "uniform_exponent",
    "upsilon_step",
    "verify_witness",
]

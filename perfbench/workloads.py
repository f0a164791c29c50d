"""The benchmark's workloads: inputs and the CLI op list of one pass.

Every op is one ``weakapprox`` command line.  No two ops of a pass read the
same input, so a result memoised across calls cannot stand in for work.
Why each workload exists, and which layers it is meant to stress, is
recorded in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from tracer import prefix_digits

#: Depth and quotient range of the deep-bounded prefixes.
DEEP_DEPTH = 2000
DEEP_QUOTIENTS = (1, 2, 3, 4)

#: lemma-sweep: (ops, pairs per op, pieces per pair) for the two parts.
LEMMA_SMALL = (60, 20, 10)
LEMMA_LARGE = (5, 2, 600)

#: The alternating generator puts exactly one v-breakpoint inside each
#: u-interval, so every u-breakpoint the witness scan visits yields exactly
#: one witness.  The scan window starts at s_1, which leaves pieces - 1
#: u-breakpoints, and skips the CLI's default margin of 2 at each end.
LEMMA_MARGIN = 2

#: Seed stride between lemma1 ops, larger than any op's pair count, so the
#: seed ranges of two ops never overlap.
LEMMA_SEED_STRIDE = 1000


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its artifact must satisfy.

    ``argv`` omits ``--output``; the runner appends a per-pass artifact
    path built from ``output``.  ``check`` names a checker in checks.py and
    ``expect`` holds its parameters.
    """

    label: str
    argv: tuple[str, ...]
    output: str
    check: str
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Inputs:
    """The op list of one workload plus the sizes of what it feeds in."""

    ops: tuple[Op, ...]
    sizes: dict


def thm3_root(gamma: Fraction) -> float:
    """Largest root of x^2 - (gamma^2 + 2) x + 1, the thm3 ordinary limit."""
    g2 = float(gamma) ** 2 + 2
    return (g2 + math.sqrt(g2 * g2 - 4)) / 2


def near(target: float, tol: float) -> tuple[float, float]:
    return (target - tol, target + tol)


def _write_prefix(path: Path, a0: int, tail) -> None:
    path.write_text(
        json.dumps({"a0": str(a0), "tail": [str(a) for a in tail]}, sort_keys=True),
        encoding="utf-8",
    )


def constructions(wa, seed: int, indir: Path) -> Inputs:
    """Huge-row analysis: T1..T3 and the thm1 d=20 exponents (fixed inputs).

    T3 runs at depth 11 because T4, in lattice-profile, analyses the thm3
    gamma=1 depth-12 pair.
    """
    theta = wa.construct.construct_thm1(Fraction(3, 2), 20)
    path = indir / "thm1_g3-2_d20.json"
    path.write_text(theta.to_json() + "\n", encoding="utf-8")
    r3 = thm3_root(Fraction(1))
    ops = (
        Op("verify-T1", ("verify", "--theorem", "T1", "--gamma", "3/2", "--depth", "18"),
           "verify_t1.json", "verify",
           {"ranges": {"report.omega_theta": near(2.0, 0.15),
                       "report.omega_bar_theta": near(1.5, 0.10)}}),
        Op("verify-T2", ("verify", "--theorem", "T2", "--gamma", "13/10", "--depth", "20"),
           "verify_t2.json", "verify",
           {"ranges": {"report.omega_theta": near(1.69, 0.10),
                       "report.omega_eta": near(1.69, 0.10),
                       "report.varpi_psi": near(1.3, 0.10)}}),
        Op("verify-T3", ("verify", "--theorem", "T3", "--gamma", "1", "--depth", "11"),
           "verify_t3.json", "verify",
           {"ranges": {"report.omega_theta": near(r3, 0.15),
                       "report.omega_eta": near(r3, 0.15),
                       "report.varpi_upsilon": near(2.0, 0.10)}}),
        Op("exponents-thm1-d20", ("exponents", "--theta", str(path)),
           "exponents_thm1.json", "exponents",
           {"ranges": {"omega_theta": near(2.0, 0.15),
                       "omega_bar_theta": near(1.5, 0.10)}}),
    )
    return Inputs(ops, {"depth": 20, "max_digits": prefix_digits(theta.tail), "pieces": 0})


#: lattice-profile pairs: (gamma, depth, d1, d2).  The scaled pair sits at a
#: depth no other op uses.
LATTICE_PAIRS = (
    (Fraction(3, 2), 8, "1", "1"),
    (Fraction(1, 2), 12, "1", "1"),
    (Fraction(1), 10, "2", "3"),
)


def lattice_profile(wa, seed: int, indir: Path) -> Inputs:
    """Lattice record profile: T4 plus three thm3 pairs (fixed inputs)."""
    r1 = thm3_root(Fraction(1))
    ops = [
        Op("verify-T4", ("verify", "--theorem", "T4", "--gamma", "1", "--depth", "12"),
           "verify_t4.json", "verify",
           {"ranges": {"report.number_side.omega_theta": near(r1, 0.15),
                       "report.number_side.omega_eta": near(r1, 0.15),
                       "report.number_side.varpi_upsilon": near(2.0, 0.10),
                       "check.inputs.omega_lattice": near((r1 + 1) / 2, 0.15),
                       "check.inputs.omega_bar_lattice": near(1.5, 0.10)}}),
    ]
    digits = 0
    for gamma, depth, d1, d2 in LATTICE_PAIRS:
        theta, eta = wa.construct.construct_thm3(gamma, depth)
        tag = f"g{gamma.numerator}-{gamma.denominator}_d{depth}"
        paths = []
        for side, pq in (("theta", theta), ("eta", eta)):
            p = indir / f"thm3_{tag}_{side}.json"
            p.write_text(pq.to_json() + "\n", encoding="utf-8")
            paths.append(str(p))
            digits = max(digits, prefix_digits(pq.tail))
        root = thm3_root(gamma)
        ops.append(
            Op(f"lattice-{tag}-{d1}x{d2}",
               ("lattice", "--theta", paths[0], "--eta", paths[1], "--d1", d1, "--d2", d2),
               f"lattice_{tag}.json", "lattice",
               {"ranges": {"omega_lattice.value": near((root + 1) / 2, 0.15),
                           "omega_bar_lattice.value": near((float(gamma) + 2) / 2, 0.10)}})
        )
    return Inputs(tuple(ops), {"depth": 12, "max_digits": digits, "pieces": 0})


def deep_bounded(wa, seed: int, indir: Path) -> Inputs:
    """Thousands of moderate rows: five bounded-quotient prefixes.

    Each prefix is a seeded shuffle of one fixed multiset of quotients, so
    the seed changes every input while the size profile (and so the cost)
    stays put.
    """
    rng = random.Random(f"deep-bounded:{seed}")
    base = [DEEP_QUOTIENTS[k % len(DEEP_QUOTIENTS)] for k in range(DEEP_DEPTH)]
    paths = []
    digits = 0
    for name in ("cf", "measure", "exp_theta", "exp_eta", "plot"):
        tail = base[:]
        rng.shuffle(tail)
        p = indir / f"bounded_{name}.json"
        _write_prefix(p, 0, tail)
        paths.append(str(p))
        digits = max(digits, prefix_digits(tail))
    near_one = near(1.0, 0.10)
    ops = (
        Op("cf", ("cf", "--prefix", paths[0]), "cf.json", "cf", {"prefix": paths[0]}),
        Op("measure-upsilon", ("measure", "--prefix", paths[1], "--kind", "upsilon"),
           "upsilon.csv", "measure", {"prefix": paths[1]}),
        Op("exponents-pair", ("exponents", "--theta", paths[2], "--eta", paths[3]),
           "exponents_pair.json", "exponents",
           # Bounded quotients have every exponent equal to 1.  The uniform
           # estimates get there at this depth; the ordinary ones are window
           # maxima that approach 1 from above too slowly to pin down.
           {"ranges": {"omega_theta": (1.0, math.inf), "omega_eta": (1.0, math.inf),
                       "omega_bar_theta": near_one, "omega_bar_eta": near_one,
                       "varpi_psi": near_one, "varpi_upsilon": near_one}}),
        Op("plot-prefix", ("plot", "--prefix", paths[4]), "plot.svg", "plot",
           {"prefix": paths[4]}),
    )
    return Inputs(ops, {"depth": DEEP_DEPTH, "max_digits": digits, "pieces": 0})


def lemma_sweep(wa, seed: int, indir: Path) -> Inputs:
    """Seeded lemma1 runs: many 10-piece pairs beside a few 600-piece ones."""
    rng = random.Random(f"lemma-sweep:{seed}")
    next_seed = rng.randrange(10 ** 9)
    ops = []
    for part, (count, pairs, pieces) in (("small", LEMMA_SMALL), ("large", LEMMA_LARGE)):
        for k in range(count):
            ops.append(
                Op(f"lemma1-{part}-{k}",
                   ("lemma1", "--seed", str(next_seed), "--pairs", str(pairs),
                    "--pieces", str(pieces)),
                   f"lemma1_{part}_{k}.json", "lemma1",
                   {"seed": next_seed, "pairs": pairs,
                    "witnesses": pieces - 1 - 2 * LEMMA_MARGIN})
            )
            next_seed += LEMMA_SEED_STRIDE
    return Inputs(tuple(ops), {"depth": 0, "max_digits": 0, "pieces": LEMMA_LARGE[2]})


def joined(*parts):
    """One workload that runs the op lists of ``parts`` back to back."""
    def build(wa, seed: int, indir: Path) -> Inputs:
        built = [part(wa, seed, indir) for part in parts]
        sizes = {key: max(b.sizes[key] for b in built) for key in built[0].sizes}
        return Inputs(tuple(op for b in built for op in b.ops), sizes)
    return build


#: Two workloads of two parts each.  Host CPU speed drifts by tens of
#: percent over seconds to minutes, so each run must be long to average it
#: out, and the run budget allows long runs only for two workloads.
WORKLOADS = {
    "reference": joined(constructions, lattice_profile),
    "seeded": joined(deep_bounded, lemma_sweep),
}

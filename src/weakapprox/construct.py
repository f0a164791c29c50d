"""Prefix generators realizing the extremal growth constructions.

Three schemes, each taking a rational parameter gamma = u/v so that every
"nearest integer to a rational power" step is exact integer root-taking:

  thm1: one number whose partial quotients grow like
        a_{v+1} ~ q_v^((gamma-1)/(2-gamma)), 1 < gamma < 2.  Its ordinary
        exponent tends to 1/(2-gamma) and its weak uniform exponent to gamma.

  thm2: a pair (theta, eta) with denominators interleaved as
        s_1 < q_1 < s_2 < q_2 < ... and coupled by q_v ~ s_v^gamma,
        s_{v+1} ~ q_v^gamma (gamma > 1).  Both ordinary exponents tend to
        gamma^2 and the mutual ordinary uniform exponent to gamma.

  thm3: a pair coupled multiplicatively, s_{v+1} ~ q_v^gamma * s_v,
        q_{v+1} ~ s_{v+1}^gamma * q_v (gamma > 0).  Denominator logs obey a
        linear recurrence with matrix [[gamma^2+1, gamma], [gamma, 1]]; both
        ordinary exponents tend to the largest root of
        x^2 - (gamma^2+2) x + 1 and the mutual weak uniform exponent to
        gamma + 1.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .cf import PartialQuotients
from .intmath import decimal_str, digits_of, round_div_root, round_root

__all__ = [
    "GuardExceeded",
    "InterleavingError",
    "construct_thm1",
    "construct_thm2",
    "construct_thm3",
    "growth_rate_thm3",
    "DIGIT_GUARD_ENV",
]

#: Hard ceiling on denominator digit counts; override via environment.
DEFAULT_DIGIT_GUARD = 10 ** 6
DIGIT_GUARD_ENV = "WEAKAPPROX_DIGIT_GUARD"


class GuardExceeded(RuntimeError):
    """A construction grew past the configured digit guard."""


class InterleavingError(ValueError):
    """Generated denominators failed the required strict interleaving."""

    def __init__(self, index: int, message: str):
        super().__init__(f"interleaving failed at index {index}: {message}")
        self.index = index


def _digit_guard() -> int:
    env = os.environ.get(DIGIT_GUARD_ENV)
    return int(env) if env else DEFAULT_DIGIT_GUARD


def _check_guard(q: int, guard: int) -> None:
    if digits_of(q) > guard:
        raise GuardExceeded(f"denominator reached ~{digits_of(q)} digits (guard {guard})")


def _checked(scheme: str, gamma, depth: int) -> Fraction:
    """gamma as a Fraction, once gamma and depth are valid for the scheme."""
    gamma = Fraction(gamma)
    in_domain, domain = {
        "thm1": (1 < gamma < 2, "1 < gamma < 2"),
        "thm2": (gamma > 1, "gamma > 1"),
        "thm3": (gamma > 0, "gamma > 0"),
    }[scheme]
    if not in_domain:
        raise ValueError(f"{scheme} requires {domain}")
    if depth < 3:
        raise ValueError("depth must be >= 3")
    return gamma


def construct_thm1(
    gamma: Fraction,
    depth: int,
    seed: tuple[int, ...] = (0, 1),
) -> PartialQuotients:
    """Single-number scheme: a_{v+1} = max(1, round(q_v^e)), e = (gamma-1)/(2-gamma).

    The exponent e is rational, so the rounding is done by exact integer
    root-taking.  seed = (a0, a1, ...) provides the first quotients.
    """
    gamma = _checked("thm1", gamma, depth)
    if len(seed) < 2:
        raise ValueError("seed must provide a0 and at least a1")
    guard = _digit_guard()
    e = (gamma - 1) / (2 - gamma)
    a0, tail = seed[0], list(seed[1:depth + 1])
    q_prev, q = 0, 1
    for a in tail:
        q, q_prev = a * q + q_prev, q
    while len(tail) < depth:
        a_next = max(1, round_root(q, e.numerator, e.denominator))
        tail.append(a_next)
        q, q_prev = a_next * q + q_prev, q
        _check_guard(q, guard)
    return PartialQuotients(a0, tuple(tail))


def _interleaved_pair(
    gamma: Fraction,
    depth: int,
    seed_theta: tuple[int, ...],
    seed_eta: tuple[int, ...],
    coupled: bool,
) -> tuple[PartialQuotients, PartialQuotients]:
    """Common driver for the two pair schemes.

    coupled=False (thm2): b_{v+1} = round((q_v^gamma - s_{v-1}) / s_v) and
    a_{v+1} = round((s_{v+1}^gamma - q_{v-1}) / q_v), so s_{v+1} ~ q_v^gamma
    and q_{v+1} ~ s_{v+1}^gamma.

    coupled=True (thm3): b_{v+1} = round(q_v^gamma) and
    a_{v+1} = round(s_{v+1}^gamma), so s_{v+1} ~ q_v^gamma * s_v and
    q_{v+1} ~ s_{v+1}^gamma * q_v.

    Both enforce the strict interleaving s_1 < q_1 < s_2 < q_2 < ...
    """
    guard = _digit_guard()
    u, v = gamma.numerator, gamma.denominator

    a0, a_tail = seed_theta[0], list(seed_theta[1:])
    b0, b_tail = seed_eta[0], list(seed_eta[1:])
    if len(a_tail) != 1 or len(b_tail) != 1:
        raise ValueError("pair seeds must provide exactly (x0, x1) each")

    q_prev, q = 1, a_tail[0]   # q_0 = 1, q_1 = a_1
    s_prev, s = 1, b_tail[0]   # s_0 = 1, s_1 = b_1
    if not s < q:
        raise InterleavingError(1, f"seeds give s_1 = {decimal_str(s)} >= q_1 = {decimal_str(q)}")

    while len(a_tail) < depth:
        nu = len(a_tail)  # current index v with q_v, s_v known
        if coupled:
            b_next = max(1, round_root(q, u, v))
        else:
            b_next = max(1, round_div_root(q, u, v, c=s_prev, s=s))
        s, s_prev = b_next * s + s_prev, s
        b_tail.append(b_next)
        if not q < s:
            raise InterleavingError(
                nu, f"q_{nu} = {decimal_str(q)} >= s_{nu + 1} = {decimal_str(s)}"
            )
        _check_guard(s, guard)

        if coupled:
            a_next = max(1, round_root(s, u, v))
        else:
            a_next = max(1, round_div_root(s, u, v, c=q_prev, s=q))
        q, q_prev = a_next * q + q_prev, q
        a_tail.append(a_next)
        if not s < q:
            raise InterleavingError(
                nu + 1, f"s_{nu + 1} = {decimal_str(s)} >= q_{nu + 1} = {decimal_str(q)}"
            )
        _check_guard(q, guard)

    return (
        PartialQuotients(a0, tuple(a_tail)),
        PartialQuotients(b0, tuple(b_tail)),
    )


def construct_thm2(
    gamma: Fraction,
    depth: int,
    seed_theta: tuple[int, ...] = (0, 3),
    seed_eta: tuple[int, ...] = (0, 2),
) -> tuple[PartialQuotients, PartialQuotients]:
    """Pair scheme with q_v ~ s_v^gamma and s_{v+1} ~ q_v^gamma, gamma > 1."""
    gamma = _checked("thm2", gamma, depth)
    return _interleaved_pair(gamma, depth, seed_theta, seed_eta, False)


def construct_thm3(
    gamma: Fraction,
    depth: int,
    seed_theta: tuple[int, ...] = (0, 3),
    seed_eta: tuple[int, ...] = (0, 2),
) -> tuple[PartialQuotients, PartialQuotients]:
    """Pair scheme with s_{v+1} ~ q_v^gamma s_v and q_{v+1} ~ s_{v+1}^gamma q_v."""
    gamma = _checked("thm3", gamma, depth)
    return _interleaved_pair(gamma, depth, seed_theta, seed_eta, True)


def growth_rate_thm3(gamma: Fraction | float) -> float:
    """Largest root of x^2 - (gamma^2 + 2) x + 1, the common log-growth rate
    of both denominator sequences in the thm3 scheme."""
    g2 = float(gamma) ** 2 + 2
    return (g2 + (g2 * g2 - 4) ** 0.5) / 2

"""Finite-depth estimators of Diophantine exponents.

All exponents are asymptotic quantities; what can be computed from a prefix
is a window of local samples.  For the ordinary (liminf-type) exponent the
local sample at a convergent denominator q_v is

    -log ||q_v x|| / log q_v,

and the estimate is the window maximum.  For the uniform (limsup-type)
exponents the binding constraint of "sup t^c f(t) < infinity" for a
non-increasing step function sits at the left limits of its breakpoints, so
the sample at a stored breakpoint t_k is -log f(t_k-) / log t_k, shifted by
+1 for the weak kinds (their definitions normalize by t^(c-1)), and the
estimate is the window minimum.

Samples at denominator 1 are skipped (log 1 = 0), and every estimate here
and in ``lattice`` keeps the samples that ``apply_window`` schedules: those
whose log t is at least ``_LOG_COVERAGE`` of the last sample's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .cf import TABLE_DEPTH_ERROR, PartialQuotients
from .cf import qnorm_table  # noqa: F401 - perfbench looks it up here
from .intmath import _decimal_text, log_int, log_product_ratio, log_ratio
from .measure import StepFunction, min_step, psi_step, upsilon_step

__all__ = [
    "ExponentEstimate",
    "ordinary_exponent",
    "uniform_exponent",
    "exponent_report",
    "apply_window",
    "NotEstimable",
]

#: Tolerance for exact-arithmetic comparisons in consistency flags.
EXACT_TOL = 1e-9
#: Tolerance for asymptotic (finite-depth) comparisons in consistency flags.
ASYMPTOTIC_TOL = 0.05

#: The default schedule keeps the samples whose log t is at least this
#: fraction of the last sample's log t.
_LOG_COVERAGE = 0.35
#: The uniform kinds and the shift of their samples: +1 for those whose
#: defining normalization is t^(c-1).
_WEAK_SHIFT = {"omega_bar": 1.0, "varpi_psi": 0.0, "varpi_upsilon": 1.0}


@dataclass(frozen=True)
class ExponentEstimate:
    """One finite-depth exponent estimate with its samples.

    ``value`` is the max of the samples for ordinary (liminf-type) kinds and
    the min for uniform (limsup-type) kinds; ``window`` records the sample
    range used, as (first, last) positions in the full eligible sample list.
    """

    kind: str
    value: float
    window: tuple[int, int]
    samples: tuple[tuple[int, float], ...] = field(repr=False)

    def to_dict(self, text: dict[int, str] | None = None) -> dict:
        """The estimate as JSON-ready values, sample keys as decimal strings.

        ``text`` maps keys already printed to their digits, and takes the
        new ones: estimates written into one artifact share one, so that a
        key they share is converted once.
        """
        text = {} if text is None else text
        return {
            "kind": self.kind,
            "value": self.value,
            "window": list(self.window),
            "samples": [[_decimal_text(t, text), s] for t, s in self.samples],
        }


class NotEstimable(ValueError):
    """A well-formed input without a sample for an estimate."""


def apply_window(
    samples: list[tuple[int, float]], window: tuple[int, int] | None
) -> tuple[list[tuple[int, float]], tuple[int, int]]:
    """The samples inside ``window`` and its bounds (lo, hi).

    ``samples`` are (t, value) pairs in increasing t.  The default window
    keeps the samples with log t >= ``_LOG_COVERAGE`` * log t_last, and at
    least the last two, and drops nothing at the tail.  On the extremal
    constructions log q_v grows geometrically, at ratio omega, so this keeps
    about the last ceil(log_omega(1 / _LOG_COVERAGE)) samples: the last 2 for
    thm1 gamma=3/2 and about the last 4 for thm1 gamma=5/4, where an early
    small-q sample would otherwise stay the window maximum at every depth.
    On bounded quotients log q_v grows linearly, so it keeps the top 65% of
    the samples.  A fixed count at the front could do neither.

    An explicit (lo, hi) window is clipped to the sample range; an empty
    selection is an error.
    """
    if window is None:
        lo, hi = 0, len(samples)
        if hi > 2:
            threshold = _LOG_COVERAGE * log_int(samples[-1][0])
            lo = min(hi - 2, sum(log_int(t) < threshold for t, _ in samples))
    else:
        lo, hi = max(0, window[0]), min(len(samples), window[1])
    picked = samples[lo:hi]
    if not picked:
        raise ValueError(f"window ({lo}, {hi}) selects no samples")
    return picked, (lo, hi)


def _estimate(
    kind: str,
    samples: list[tuple[int, float]],
    window: tuple[int, int] | None,
    take: Callable[[Iterable[float]], float],
) -> ExponentEstimate:
    """``take`` (max or min) of the scheduled samples, as an estimate of ``kind``.

    No sample at all raises ``NotEstimable``.
    """
    if not samples:
        raise NotEstimable(f"{kind}: 0 samples, need at least 1")
    picked, win = apply_window(samples, window)
    return ExponentEstimate(kind, take(s for _, s in picked), win, tuple(samples))


def ordinary_exponent(
    pq: PartialQuotients, window: tuple[int, int] | None = None
) -> ExponentEstimate:
    """Estimate the ordinary exponent: sup of c with ||q x|| < q^-c infinitely often.

    Samples -log||q_v x|| / log q_v over interior indices v <= N-2 with
    q_v >= 2, logging the unreduced pair (rho_v, q_N); each is within o(1)
    of log q_{v+1} / log q_v.  Window max.
    """
    if pq.depth < 2:
        raise ValueError(TABLE_DEPTH_ERROR)
    an = pq.analysis
    samples: list[tuple[int, float]] = []
    for v in range(pq.depth - 1):
        q = an.q[v]
        if q >= 2:
            samples.append((q, -log_ratio(an.rho[v], an.q_n) / log_int(q)))
    return _estimate("omega", samples, window, max)


def uniform_exponent(
    f: StepFunction,
    kind: str,
    window: tuple[int, int] | None = None,
) -> ExponentEstimate:
    """Estimate a uniform (limsup-type) exponent from a merged step function.

    kind: "omega_bar" (weak function of one number), "varpi_psi" (minimum of
    two ordinary functions), "varpi_upsilon" (minimum of two weak functions).
    Samples at left limits of stored breakpoints >= 2 plus the left limit at
    the domain end (the binding point when the function rarely improves);
    window min.  A function without a sample raises ``NotEstimable``.

    The left limit at breakpoints[k] is value k - 1, and at domain_end it
    is the last value, so value k is sampled at the next breakpoint, or at
    the domain end for the last, if that point is >= 2.  Each value
    (x, y, d) is logged on its factors as log_product_ratio(x, y, d, 1),
    the bits of log_ratio(x y, d) without the product.
    """
    if kind not in _WEAK_SHIFT:
        raise ValueError(f"unknown uniform kind {kind!r}")
    shift = _WEAK_SHIFT[kind]
    ends = (*f.breakpoints[1:], f.domain_end)
    samples = [(t, shift - log_product_ratio(*v, 1) / log_int(t))
               for t, v in zip(ends, f.factors) if t >= 2]
    return _estimate(kind, samples, window, min)


def _one_number(
    pq: PartialQuotients, name: str, window: tuple[int, int] | None, flags: list[str]
) -> tuple[ExponentEstimate, ExponentEstimate, StepFunction]:
    """omega, omega_bar and upsilon of one prefix; appends the prefix's two
    ordering flags to ``flags``."""
    omega = ordinary_exponent(pq, window)
    upsilon = upsilon_step(pq)
    omega_bar = uniform_exponent(upsilon, "omega_bar", window)
    if not omega.value >= 1 - EXACT_TOL:
        flags.append(f"omega_{name} below 1")
    if not omega.value >= omega_bar.value - ASYMPTOTIC_TOL:
        flags.append(f"omega_{name} below omega_bar_{name}")
    return omega, omega_bar, upsilon


def exponent_report(
    theta: PartialQuotients,
    eta: PartialQuotients | None = None,
    window: tuple[int, int] | None = None,
) -> dict:
    """All number exponents for one prefix or a pair, with ordering flags.

    Flags report violations of the ordering relations
    omega >= omega_bar, 1 <= varpi_psi <= varpi_upsilon, omega >= 1;
    they must never fire on valid data.
    """
    flags: list[str] = []
    text: dict[int, str] = {}  # the sample keys, shared by all estimates (many are q_v)
    omega_t, omega_bar_t, upsilon_t = _one_number(theta, "theta", window, flags)
    report: dict = {
        "omega_theta": omega_t.value,
        "omega_bar_theta": omega_bar_t.value,
        "samples": {
            "omega_theta": omega_t.to_dict(text)["samples"],
            "omega_bar_theta": omega_bar_t.to_dict(text)["samples"],
        },
    }
    if eta is not None:
        omega_e, omega_bar_e, upsilon_e = _one_number(eta, "eta", window, flags)
        psi_min = min_step(psi_step(theta), psi_step(eta))
        varpi_psi = uniform_exponent(psi_min, "varpi_psi", window)
        ups_min = min_step(upsilon_t, upsilon_e)
        varpi_ups = uniform_exponent(ups_min, "varpi_upsilon", window)
        report.update(
            {
                "omega_eta": omega_e.value,
                "omega_bar_eta": omega_bar_e.value,
                "varpi_psi": varpi_psi.value,
                "varpi_upsilon": varpi_ups.value,
            }
        )
        report["samples"]["varpi_psi"] = varpi_psi.to_dict(text)["samples"]
        report["samples"]["varpi_upsilon"] = varpi_ups.to_dict(text)["samples"]
        if not varpi_psi.value >= 1 - ASYMPTOTIC_TOL:
            flags.append("varpi_psi below 1")
        if not varpi_psi.value <= varpi_ups.value + ASYMPTOTIC_TOL:
            flags.append("varpi_psi above varpi_upsilon")

    report["flags"] = flags
    return report

from fractions import Fraction

import pytest

import weakapprox.svgplot as svgplot
from weakapprox.cf import PartialQuotients
from weakapprox.intmath import log_product_ratio
from weakapprox.measure import StepFunction, psi_step, upsilon_step
from weakapprox.svgplot import plot_steps


def hand_functions():
    u = StepFunction((1, 4, 10), (Fraction(1), Fraction(3, 10), Fraction(1, 10)), 20)
    v = StepFunction((2, 6, 15), (Fraction(1, 2), Fraction(1, 5), Fraction(1, 20)), 20)
    return [("u", u), ("v", v)]


def test_single_constant_function():
    f = StepFunction((1,), (Fraction(1, 3),), 9)
    svg = plot_steps([("f", f)])
    assert svg.startswith("<svg")
    assert svg.count("<line") >= 1
    assert svg.count("<circle") == 2  # one closed, one open endpoint


def test_two_traces_with_witness_lines():
    svg = plot_steps(hand_functions(), annotations=[4, 6, 10])
    assert svg.count("stroke-dasharray") == 3
    assert ">u<" in svg and ">v<" in svg


def test_deterministic_bytes():
    a = plot_steps(hand_functions(), annotations=[4, 6, 10])
    b = plot_steps(hand_functions(), annotations=[4, 6, 10])
    assert a == b


def test_psi_upsilon_canvas():
    pq = PartialQuotients(0, (2, 2, 2))
    svg = plot_steps([("psi", psi_step(pq)), ("upsilon", upsilon_step(pq))])
    assert svg.rstrip().endswith("</svg>")


def test_rejects_empty_and_disjoint():
    with pytest.raises(ValueError):
        plot_steps([])
    f = StepFunction((1, 2), (Fraction(2), Fraction(1)), 3)
    g = StepFunction((5, 6), (Fraction(2), Fraction(1)), 8)
    with pytest.raises(ValueError):
        plot_steps([("f", f), ("g", g)])


def test_linear_axes_variant():
    svg = plot_steps(hand_functions(), log_axes=False, title="steps")
    assert ">t<" in svg or "steps" in svg


@pytest.mark.parametrize("f", [
    StepFunction((1, 2**1100), (Fraction(1), Fraction(1, 2)), 2**1101),  # an x beyond a double
    StepFunction((1,), (Fraction(2**1100),), 9),  # a y beyond a double
])
def test_linear_axes_reject_a_coordinate_beyond_a_double(f):
    """Log axes draw it; linear axes raise a ValueError that names them
    instead of leaking float's OverflowError."""
    assert plot_steps([("f", f)]).rstrip().endswith("</svg>")
    with pytest.raises(ValueError, match="linear axes"):
        plot_steps([("f", f)], log_axes=False)


def test_each_plotted_piece_takes_one_log(monkeypatch):
    """The bounds and the drawing share one log10 per piece in the window."""
    calls = []

    def counted(*args):
        calls.append(args)
        return log_product_ratio(*args)

    monkeypatch.setattr(svgplot, "log_product_ratio", counted)
    functions = hand_functions() + [("w", StepFunction((1, 3), (Fraction(2), Fraction(1)), 30))]
    plot_steps(functions, annotations=[4, 6, 10])
    lo = max(f.domain_start for _, f in functions)
    hi = min(f.domain_end for _, f in functions)
    pieces = [p for _, f in functions for p in f.pieces() if lo < p[1] and p[0] < hi]
    assert len(calls) == len(pieces) == 8

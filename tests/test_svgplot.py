from fractions import Fraction

import pytest

from weakapprox.cf import PartialQuotients
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

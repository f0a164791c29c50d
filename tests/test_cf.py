import json
import random
from fractions import Fraction

import pytest

from weakapprox.cf import PartialQuotients, qnorm_table, truncation_value
from weakapprox.cli import main
from oracles import convergents, evaluate_nested


def random_prefix(rng, max_depth=50, max_quot=9):
    depth = rng.randint(2, max_depth)
    return PartialQuotients(
        rng.randint(-3, 3), tuple(rng.randint(1, max_quot) for _ in range(depth))
    )


def test_fibonacci_denominators():
    pq = PartialQuotients(1, (1, 1, 1, 1))
    assert pq.analysis.q == (1, 1, 2, 3, 5)


def test_hand_run_recurrence():
    pq = PartialQuotients(0, (2, 2, 2))
    assert convergents(pq) == [(0, 1), (1, 2), (2, 5), (5, 12)]
    assert (pq.analysis.q, pq.analysis.p_n) == ((1, 2, 5, 12), 5)


def test_empty_tail_rejected():
    with pytest.raises(ValueError):
        PartialQuotients(3, ())


def test_nonpositive_tail_rejected():
    with pytest.raises(ValueError):
        PartialQuotients(0, (2, 0, 2))
    with pytest.raises(ValueError):
        PartialQuotients(0, (-1,))


def test_truncation_values():
    assert truncation_value(PartialQuotients(0, (2, 2, 2))) == Fraction(5, 12)
    assert truncation_value(PartialQuotients(7, (1,))) == 8
    assert truncation_value(PartialQuotients(1, (1, 1, 1, 1))) == Fraction(8, 5)


def test_truncation_matches_nested_evaluation():
    rng = random.Random(2024)
    for _ in range(1000):
        pq = random_prefix(rng)
        assert truncation_value(pq) == evaluate_nested(pq)


def corner_prefixes() -> list[PartialQuotients]:
    """Random prefixes, and prefixes at depth 1, with a1 = 1, with a_N = 1
    and with a negative a0."""
    rng = random.Random(17)
    prefixes = [PartialQuotients(a0, tail) for a0 in (-5, -1, 0, 3)
                for tail in ((1,), (2,), (1, 1), (1, 4, 1), (7, 1))]
    for _ in range(400):
        tail = tuple(rng.choice((1, 2, rng.randint(1, 10**9))) for _ in range(rng.randint(1, 40)))
        prefixes.append(PartialQuotients(rng.randint(-10**9, 10**9), tail))
    return prefixes


def test_analysis_numerator_is_the_last_convergent_numerator():
    """``analyse`` takes p_N = a0 q_N + r_0 without a numerator recurrence,
    and ``truncation_value`` reads it: both agree with the recurrence."""
    for pq in corner_prefixes():
        conv = convergents(pq)
        assert (pq.analysis.q, pq.analysis.p_n) == (tuple(q for _, q in conv), conv[-1][0])
        x = truncation_value(pq)
        assert (x.numerator, x.denominator) == conv[-1]


def test_cf_prints_the_recurrence(capsys):
    """The ``cf`` artifact prints every p_v and q_v of the recurrence, and
    p_N/q_N as the value, on the same prefixes."""
    for pq in corner_prefixes():
        assert main(["cf", "--prefix", pq.to_json()]) == 0
        doc = json.loads(capsys.readouterr().out)
        conv = convergents(pq)
        assert [(c["index"], int(c["p"]), int(c["q"])) for c in doc["convergents"]] == [
            (v, p, q) for v, (p, q) in enumerate(conv)]
        assert doc["value"] == "{}/{}".format(*conv[-1])


def test_continuant_identity():
    rng = random.Random(99)
    for _ in range(300):
        conv = convergents(random_prefix(rng, max_depth=30))
        for k in range(1, len(conv)):
            (p, q), (p_prev, q_prev) = conv[k], conv[k - 1]
            assert p * q_prev - p_prev * q == (-1) ** (k - 1)


def test_qnorm_values_example():
    pq = PartialQuotients(0, (2, 2, 2))
    table = qnorm_table(pq)
    assert table[1].q == 2 and table[1].value == Fraction(1, 6)
    # two-sided bounds at that index: 1/10 < 1/6 < 1/5
    assert Fraction(1, 10) < table[1].value < Fraction(1, 5)


def test_qnorm_nearest_integer_at_unit_denominator():
    # 8/5: the nearest integer to it is 2, not the zeroth convergent value 1.
    pq = PartialQuotients(1, (1, 1, 1, 1))
    table = qnorm_table(pq)
    assert table[0].q == 1 and table[0].value == Fraction(2, 5)
    assert not table[0].sandwich_ok  # duplicated denominator q0 = q1 = 1
    assert table[1].sandwich_ok


def test_qnorm_tail_row_is_zero_and_degenerate():
    pq = PartialQuotients(0, (2, 2, 2))
    table = qnorm_table(pq)
    assert table[-1].tail_degenerate
    assert table[-1].value == 0
    assert not table[-1].sandwich_ok
    assert len(table) == pq.depth + 1


def test_qnorm_requires_depth_two():
    with pytest.raises(ValueError):
        qnorm_table(PartialQuotients(0, (5,)))


def test_sandwich_inequalities_exact():
    rng = random.Random(31337)
    for _ in range(250):
        pq = random_prefix(rng, max_depth=12)
        for row in qnorm_table(pq):
            if not row.sandwich_ok:
                continue
            q_next = pq.analysis.q[row.index + 1]
            a_next = pq.tail[row.index]  # a_{index+1}
            assert Fraction(1, 2 * q_next) < row.value < Fraction(1, q_next)
            assert Fraction(1, a_next + 2) < row.q * row.value < Fraction(1, a_next)


def test_json_roundtrip_with_huge_entries():
    pq = PartialQuotients(0, (3, 7, 10**5000 + 7, 2))
    again = PartialQuotients.from_json(pq.to_json())
    assert again == pq


def test_json_numbers_of_any_length(default_int_limit):
    # Quotients written as JSON numbers, one of them past the interpreter's
    # default 4,300-digit int<->str limit, parse like string ones.
    text = '{"a0": -2, "tail": [3, "7", 1' + "0" * 4999 + '7, 2]}'
    assert PartialQuotients.from_json(text) == PartialQuotients(-2, (3, 7, 10**5000 + 7, 2))
    with pytest.raises(ValueError):
        PartialQuotients.from_json('{"a0": 1.5, "tail": [1]}')


def test_parse_bracket_notation():
    pq = PartialQuotients.parse("[0;2,2,2]")
    assert pq == PartialQuotients(0, (2, 2, 2))
    with pytest.raises(ValueError):
        PartialQuotients.parse("0,2,2")

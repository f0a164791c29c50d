"""Correctness checks on op artifacts, run outside the timed region.

Each checker gets the parsed artifact and the op's ``expect`` parameters
and returns a list of problems; an empty list means the op passed.  The
deep-bounded artifacts are compared with an independent integer oracle:
for x = p_N / q_N, ||q_v x|| = min(r, q_N - r) / q_N with
r = q_v p_N mod q_N, which never touches the library.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path


@contextlib.contextmanager
def unlimited_int_str():
    """Lift the int<->str digit limit for the block, then restore it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _lookup(doc, dotted: str):
    for key in dotted.split("."):
        doc = doc[key]
    return doc


def _ranges(doc, ranges: dict) -> list[str]:
    problems = []
    for path, (lo, hi) in ranges.items():
        value = _lookup(doc, path)
        if not lo <= value <= hi:
            problems.append(f"{path} = {value} outside [{lo}, {hi}]")
    return problems


def _flags(flags) -> list[str]:
    return [f"flags raised: {flags}"] if flags else []


def check_verify(doc, expect) -> list[str]:
    problems = []
    if doc["check"]["applicable"] is not True:
        problems.append("check not applicable")
    if doc["check"]["satisfied"] is not True:
        problems.append("check not satisfied")
    report = doc["report"]
    problems += _flags(report["number_side"]["flags"] if "number_side" in report
                       else report["flags"])
    return problems + _ranges(doc, expect["ranges"])


def check_exponents(doc, expect) -> list[str]:
    return _flags(doc["flags"]) + _ranges(doc, expect["ranges"])


def check_lattice(doc, expect) -> list[str]:
    problems = _flags(doc["flags"]) + _ranges(doc, expect["ranges"])
    if doc["info"]["truncated"]:
        problems.append("profile truncated at the degeneracy radius")
    return problems


def check_lemma1(doc, expect) -> list[str]:
    problems = []
    if doc["failures"] != 0:
        problems.append(f"{doc['failures']} failing pairs")
    seeds = [row["seed"] for row in doc["pairs"]]
    if seeds != list(range(expect["seed"], expect["seed"] + expect["pairs"])):
        problems.append("pair seeds differ from the requested range")
    for row in doc["pairs"]:
        if not (row["a_holds"] and row["b_holds"]):
            problems.append(f"seed {row['seed']}: hypotheses do not hold")
        if row["witnesses"] != expect["witnesses"]:
            problems.append(f"seed {row['seed']}: {row['witnesses']} witnesses,"
                            f" expected {expect['witnesses']}")
    return problems


class PrefixOracle:
    """Convergents and exact nearest-integer distances of a prefix artifact."""

    def __init__(self, prefix_path: str) -> None:
        data = json.loads(Path(prefix_path).read_text(encoding="utf-8"))
        self.a0 = int(data["a0"])
        self.tail = [int(a) for a in data["tail"]]
        p_prev, q_prev, p, q = 1, 0, self.a0, 1
        self.conv = [(p, q)]
        for a in self.tail:
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q
            self.conv.append((p, q))
        p_n, q_n = self.conv[-1]
        self.q_n = q_n
        # Distances scaled by q_N: ||q_v x|| = dist[v] / q_N.
        self.dist = []
        for _, q_v in self.conv:
            r = q_v * p_n % q_n
            self.dist.append(min(r, q_n - r))

    def _merged(self, values) -> list[tuple[int, Fraction]]:
        """Keep strict drops only, over v <= N-2 (the measure domain)."""
        out: list[tuple[int, Fraction]] = []
        for (_, q_v), val in zip(self.conv[: len(self.tail) - 1], values):
            if not out or val < out[-1][1]:
                out.append((q_v, val))
        return out

    def psi(self) -> list[tuple[int, Fraction]]:
        return self._merged(Fraction(d, self.q_n) for d in self.dist)

    def upsilon(self) -> list[tuple[int, Fraction]]:
        best = None
        running = []
        for (_, q_v), d in zip(self.conv, self.dist):
            cand = Fraction(q_v * d, self.q_n)
            best = cand if best is None or cand < best else best
            running.append(best)
        return self._merged(running)


def check_cf(doc, expect) -> list[str]:
    oracle = PrefixOracle(expect["prefix"])
    n = len(oracle.tail)
    problems = []
    p_n, q_n = oracle.conv[-1]
    if doc["value"] != f"{p_n}/{q_n}":
        problems.append("truncation value differs from the last convergent")
    got = [(int(c["p"]), int(c["q"])) for c in doc["convergents"]]
    if got != oracle.conv:
        problems.append("convergents differ from the recurrence")
    rows = doc["distances"]
    if len(rows) != n + 1:
        return problems + [f"{len(rows)} distance rows, expected {n + 1}"]
    for v, row in enumerate(rows):
        value = Fraction(oracle.dist[v], q_n)
        eligible = (v <= n - 2 and not (v == 0 and oracle.tail[0] == 1)
                    and not (v == n - 2 and oracle.tail[-1] == 1))
        if (row["value"] != f"{value.numerator}/{value.denominator}"
                or row["sandwich_ok"] != eligible or row["tail_degenerate"] != (v == n)):
            problems.append(f"distance row {v} differs from the oracle")
            break
    return problems


def check_measure(text: str, expect) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["t", "value_num", "value_den"]:
        return ["missing CSV header"]
    got = [(int(t), Fraction(int(num), int(den))) for t, num, den in rows[1:]]
    if got != PrefixOracle(expect["prefix"]).upsilon():
        return ["upsilon rows differ from the oracle"]
    return []


#: Canvas of the CLI's default plot style: width, height, margin (pixels).
PLOT_CANVAS = (720, 480, 56)
SVG = "{http://www.w3.org/2000/svg}"


def _log10(x) -> float:
    x = Fraction(x)
    return math.log10(x.numerator) - math.log10(x.denominator)


def check_plot(text: str, expect) -> list[str]:
    """Every step segment of psi and upsilon sits where log axes put it.

    Coordinates are recomputed from the oracle's pieces and compared to
    the drawn ones within the 2-decimal rounding of the SVG.
    """
    root = ET.fromstring(text)
    if root.tag != f"{SVG}svg":
        return [f"root element {root.tag} is not svg"]
    oracle = PrefixOracle(expect["prefix"])
    end = oracle.conv[len(oracle.tail) - 1][1]
    pieces = []
    for steps in (oracle.psi(), oracle.upsilon()):
        bounds = [t for t, _ in steps[1:]] + [end]
        pieces += [(t, e, v) for (t, v), e in zip(steps, bounds)]
    xs = [_log10(t) for b, e, _ in pieces for t in (b, e)]
    ys = [_log10(v) for _, _, v in pieces]
    w, h, m = PLOT_CANVAS
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)

    def px(x):
        return m + (x - x0) * (w - 2 * m) / (x1 - x0)

    def py(y):
        return h - m - (y - y0) * (h - 2 * m) / (y1 - y0)

    want = [(px(_log10(b)), py(_log10(v)), px(_log10(e))) for b, e, v in pieces]
    got = [tuple(float(line.get(k)) for k in ("x1", "y1", "x2"))
           for line in root.iter(f"{SVG}line")]
    if len(got) != len(want):
        return [f"{len(got)} step segments drawn, expected {len(want)}"]
    for k, (g, e) in enumerate(zip(got, want)):
        if max(abs(a - b) for a, b in zip(g, e)) > 0.011:
            return [f"step segment {k} drawn at {g}, expected {e}"]
    return []


#: Checkers of JSON artifacts (get the parsed document) and of text ones.
JSON_CHECKS = {
    "verify": check_verify,
    "exponents": check_exponents,
    "lattice": check_lattice,
    "lemma1": check_lemma1,
    "cf": check_cf,
}
TEXT_CHECKS = {
    "measure": check_measure,
    "plot": check_plot,
}


def check_artifact(op, exit_code, path: Path) -> list[str]:
    """All problems with one op's exit code and artifact."""
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    if not path.is_file():
        return ["no artifact written"]
    try:
        with unlimited_int_str():
            text = path.read_text(encoding="utf-8")
            if op.check in JSON_CHECKS:
                return JSON_CHECKS[op.check](json.loads(text), op.expect)
            return TEXT_CHECKS[op.check](text, op.expect)
    except (ValueError, KeyError, TypeError, IndexError, ET.ParseError) as exc:
        return [f"artifact does not parse as expected: {exc!r}"]

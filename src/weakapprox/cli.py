"""Command-line front end: experiment orchestration and artifact I/O.

Exit codes: 0 all checks passed, 1 a bound or oracle check failed, 2 usage
error or a file that cannot be read or written, 3 resource guard exceeded,
4 nothing was checked: the ``verify`` bound is inapplicable to the
estimates (for example varpi_psi <= 1 for T2) and no consistency flag
fired, or a well-formed input is too short or too degenerate to estimate
(``NotEstimable``).

Everything is deterministic for a fixed invocation: one seed drives all
randomness, JSON is emitted with sorted keys, and the SVG writer formats
floats with a fixed pattern.

``_COMMANDS`` is the one table of commands.  A call builds only its own
command's parser from it; the full parser, from the same table, is built
only for help, the version, a missing or unknown command and a left-over
argument, so every message reads as the full parser words it.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bounds import CHECK_TOL, check_theorem
from .cf import PartialQuotients, qnorm_table, truncation_value
from .construct import GuardExceeded, _digit_guard, construct_thm1, construct_thm2, construct_thm3
from .exponents import ASYMPTOTIC_TOL, NotEstimable, exponent_report
from .intmath import _decimal_text, fraction_str, parse_decimal
from .lattice import lattice_exponents, lattice_from_pair
from .lemma import (BOUNDARY_MARGIN, StepPair, check_conditions, find_witnesses,
                    random_step_pair, verify_witness)
from .measure import StepFunction, measure_csv, psi_step, upsilon_step
from .svgplot import plot_steps

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_INAPPLICABLE = 4

#: The construction each bound is checked on; T4 is T3's lattice form.
_SCHEME_OF = {"T1": "thm1", "T2": "thm2", "T3": "thm3", "T4": "thm3"}


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _load_prefix(arg: str) -> PartialQuotients:
    """Accept '[a0;a1,...]' or a JSON artifact, inline or as a file path.

    A prefix whose q_N certainly exceeds the digit guard raises
    ``GuardExceeded`` (exit 3) before anything analyses it.
    """
    p = Path(arg)
    try:
        is_file = p.is_file()
    except OSError:  # an inline prefix longer than the longest file name
        is_file = False
    text = p.read_text(encoding="utf-8") if is_file else arg.strip()
    if is_file or text.startswith("{"):
        pq = PartialQuotients.from_json(text)
    else:
        pq = PartialQuotients.parse(text)
    digits, guard = pq.min_q_digits(), _digit_guard()
    if digits > guard:
        raise GuardExceeded(f"prefix q_N has at least {digits} digits (guard {guard})")
    return pq


#: Characters of a bad option value that an error message echoes.
_ECHO_CHARS = 60

#: "n" or "n/d" in ASCII digits, a sign only on n: what ``Fraction`` refuses
#: only for its length.
_LONG_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _echo(text: str) -> str:
    """A bad option value in short, so a huge one does not flood stderr."""
    shown = text[:_ECHO_CHARS]
    return repr(text) if shown == text else f"{shown!r}... ({len(text)} characters)"


def _rational(text: str) -> Fraction:
    """argparse type of a rational option such as 3/2; a bad one exits 2.

    ``Fraction`` reads every form it knows (3/2, 1.5, 2e3).  A text it
    refuses that matches ``_LONG_RATIONAL``, one past the interpreter's
    int<->str digit limit, is read by ``parse_decimal``.
    """
    try:
        try:
            return Fraction(text)
        except ValueError:
            parts = _LONG_RATIONAL.fullmatch(text)
            if parts is None:
                raise
            num, den = parts.groups()
            return Fraction(parse_decimal(num), parse_decimal(den) if den else 1)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational: {_echo(text)}") from None


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1; a bad one exits 2."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text!r}")
    return n


def _integers(shape: str, count: int | None = None):
    """argparse type of comma-separated integers, exactly ``count`` of them
    if given; a bad one exits 2 with ``shape`` in its message."""
    def parse(text: str) -> tuple[int, ...]:
        try:
            values = tuple(int(x) for x in text.split(","))
        except ValueError:
            values = ()
        if not values or count is not None and len(values) != count:
            raise argparse.ArgumentTypeError(f"invalid {shape}: {_echo(text)}")
        return values
    return parse


_window = _integers("window (not lo,hi)", 2)
_int_list = _integers("integer list (not a,b,...)")


def _build(scheme: str, gamma: Fraction, depth: int,
           seeds: dict[str, tuple[int, ...]]) -> tuple[PartialQuotients, ...]:
    """The prefix (thm1) or the (theta, eta) pair (thm2, thm3) of one scheme."""
    if scheme == "thm1":
        if "seed_eta" in seeds:
            raise ValueError("--seed-eta applies only to the pair schemes thm2 and thm3")
        return (construct_thm1(gamma, depth, seeds.get("seed_theta", (0, 1))),)
    builder = construct_thm2 if scheme == "thm2" else construct_thm3
    return builder(gamma, depth, **seeds)


def cmd_cf(args) -> int:
    pq = _load_prefix(args.prefix)
    table = qnorm_table(pq) if pq.depth >= 2 else []
    text: dict[int, str] = {}  # every q_v is printed twice, and q_N in most rows

    def dec(n: int) -> str:
        return _decimal_text(n, text)

    def frac(x: Fraction) -> str:
        return f"{dec(x.numerator)}/{dec(x.denominator)}"

    # Only this artifact prints the numerators p_v, so their recurrence
    # p_v = a_v p_{v-1} + p_{v-2}, from (p_{-2}, p_{-1}) = (0, 1), runs here.
    conv, p_prev, p = [], 0, 1
    for v, (a, q) in enumerate(zip((pq.a0, *pq.tail), pq.analysis.q)):
        p, p_prev = a * p + p_prev, p
        conv.append({"index": v, "p": dec(p), "q": dec(q)})
    out = {
        "prefix": {"a0": dec(pq.a0), "tail": [dec(a) for a in pq.tail]},
        "value": frac(truncation_value(pq)),
        "convergents": conv,
        "distances": [
            {
                "index": row.index,
                "q": dec(row.q),
                "value": frac(row.value),
                "sandwich_ok": row.sandwich_ok,
                "tail_degenerate": row.tail_degenerate,
            }
            for row in table
        ],
    }
    _emit(_json_dump(out), args.output)
    return EXIT_OK


def cmd_construct(args) -> int:
    seeds = {
        name: seed
        for name, seed in (("seed_theta", args.seed_theta), ("seed_eta", args.seed_eta))
        if seed is not None
    }
    built = _build(args.scheme, args.gamma, args.depth, seeds)
    if len(built) == 1:
        _emit(built[0].to_json() + "\n", args.output)
        return EXIT_OK
    theta, eta = built
    out = {
        "theta": json.loads(theta.to_json()),
        "eta": json.loads(eta.to_json()),
    }
    _emit(_json_dump(out), args.output)
    return EXIT_OK


def cmd_measure(args) -> int:
    pq = _load_prefix(args.prefix)
    _emit(measure_csv(pq, weak=args.kind == "upsilon"), args.output)
    return EXIT_OK


def cmd_exponents(args) -> int:
    theta = _load_prefix(args.theta)
    eta = _load_prefix(args.eta) if args.eta else None
    report = exponent_report(theta, eta, window=args.window)
    _emit(_json_dump(report), args.output)
    return EXIT_CHECK_FAILED if report["flags"] else EXIT_OK


def cmd_lattice(args) -> int:
    theta = _load_prefix(args.theta)
    eta = _load_prefix(args.eta)
    lat = lattice_from_pair(theta, eta, args.d1, args.d2)
    ordinary, uniform, info = lattice_exponents(lat, args.t_max)
    # diag(d1, d2) [[1, theta], [eta, 1]]: each product cancels only gcds
    # of a short scale term with a term of theta or eta.
    d1, d2 = Fraction(args.d1), Fraction(args.d2)
    matrix = {"a11": d1, "a12": d1 * truncation_value(theta),
              "a21": d2 * truncation_value(eta), "a22": d2}
    text: dict[int, str] = {}  # the uniform sample keys are ordinary ones
    out = {
        "lattice": {name: fraction_str(x) for name, x in matrix.items()},
        "omega_lattice": ordinary.to_dict(text),
        "omega_bar_lattice": uniform.to_dict(text),
        "info": info,
        "flags": [],
    }
    if uniform.value > ordinary.value + ASYMPTOTIC_TOL:
        out["flags"].append("uniform estimate above ordinary estimate")
    _emit(_json_dump(out), args.output)
    return EXIT_CHECK_FAILED if out["flags"] else EXIT_OK


def cmd_lemma1(args) -> int:
    csv_mode = [a is not None for a in (args.u_csv, args.v_csv, args.u_end, args.v_end)]
    if any(csv_mode) and not all(csv_mode):
        raise ValueError("CSV mode needs all of --u-csv, --v-csv, --u-end and --v-end")
    if all(csv_mode):
        u = StepFunction.from_csv(Path(args.u_csv).read_text(encoding="utf-8"),
                                  domain_end=args.u_end)
        v = StepFunction.from_csv(Path(args.v_csv).read_text(encoding="utf-8"),
                                  domain_end=args.v_end)
        pair = StepPair(u, v)
        report = check_conditions(pair)
        witnesses = find_witnesses(pair, margin=args.margin)
        out = {
            "a_holds": report.a_holds,
            "b_holds": report.b_holds,
            "witnesses": [w.to_dict() for w in witnesses],
            "all_verified": all(verify_witness(pair, w) for w in witnesses),
        }
        _emit(_json_dump(out), args.output)
        ok = (not report.a_holds or not report.b_holds) or (
            witnesses and out["all_verified"]
        )
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    results = []
    failures = 0
    for k in range(args.pairs):
        pair = random_step_pair(args.seed + k, pieces=args.pieces)
        report = check_conditions(pair)
        witnesses = find_witnesses(pair, margin=args.margin)
        verified = [w for w in witnesses if verify_witness(pair, w)]
        # Every witness found must verify, not just one of them.
        ok = report.a_holds and report.b_holds and 1 <= len(verified) == len(witnesses)
        if not ok:
            failures += 1
        results.append(
            {
                "seed": args.seed + k,
                "a_holds": report.a_holds,
                "b_holds": report.b_holds,
                "witnesses": len(verified),
            }
        )
    out = {"pairs": results, "failures": failures}
    _emit(_json_dump(out), args.output)
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def cmd_verify(args) -> int:
    if not 0 <= args.tolerance < float("inf"):  # also false for nan
        raise ValueError("--tolerance must be finite and >= 0")
    pair = _build(_SCHEME_OF[args.theorem], args.gamma, args.depth, {})
    report = exponent_report(*pair)
    flags = report["flags"]
    estimates = report
    if args.theorem == "T4":
        ordinary, uniform, info = lattice_exponents(lattice_from_pair(*pair))
        estimates = {"omega_lattice": ordinary.value, "omega_bar_lattice": uniform.value}
        report = {"number_side": report, "lattice_info": info}
    check = check_theorem(args.theorem, estimates, tolerance=args.tolerance)

    out = {
        "theorem": args.theorem,
        "gamma": str(args.gamma),
        "depth": args.depth,
        "check": check.to_dict(),
        "report": report,
    }
    _emit(_json_dump(out), args.output)
    if check.applicable:
        return EXIT_OK if check.satisfied else EXIT_CHECK_FAILED
    return EXIT_CHECK_FAILED if flags else EXIT_INAPPLICABLE


def cmd_plot(args) -> int:
    functions = []
    labels = args.label or []
    for k, path in enumerate(args.csv or []):
        text = Path(path).read_text(encoding="utf-8")
        f = StepFunction.from_csv(text)
        label = labels[k] if k < len(labels) else Path(path).stem
        functions.append((label, f))
    if args.prefix:
        pq = _load_prefix(args.prefix)
        psi = psi_step(pq)
        ups = upsilon_step(pq)
        functions.append(("psi", psi))
        functions.append(("upsilon", ups))
    if not functions:
        raise ValueError("plot needs --csv or --prefix")
    svg = plot_steps(functions, list(args.annotate or ()), log_axes=not args.linear,
                     title=args.title)
    _emit(svg, args.output)
    return EXIT_OK


#: Each command's help line, handler and options as (flag, add_argument keywords).
_COMMANDS = {
    "cf": ("convergents and exact distances of a prefix", cmd_cf, (
        ("--prefix", dict(required=True, help="'[a0;a1,...]' or JSON artifact path")),
    )),
    "construct": ("generate an extremal prefix or pair", cmd_construct, (
        ("--scheme", dict(required=True, choices=("thm1", "thm2", "thm3"))),
        ("--gamma", dict(type=_rational, required=True, help="rational, e.g. 3/2")),
        ("--depth", dict(type=int, required=True)),
        ("--seed-theta", dict(type=_int_list, help="comma-separated a0,a1,...")),
        ("--seed-eta", dict(type=_int_list, help="comma-separated b0,b1,...")),
    )),
    "measure": ("export a measure function as CSV", cmd_measure, (
        ("--prefix", dict(required=True)),
        ("--kind", dict(choices=("psi", "upsilon"), default="psi")),
    )),
    "exponents": ("exponent estimates and ordering flags", cmd_exponents, (
        ("--theta", dict(required=True)),
        ("--eta", dict()),
        ("--window", dict(type=_window, help="explicit sample window 'lo,hi'")),
    )),
    "lattice": ("lattice exponent estimates for a pair", cmd_lattice, (
        ("--theta", dict(required=True)),
        ("--eta", dict(required=True)),
        ("--t-max", dict(type=_rational, help="rational cap; defaults to the degeneracy radius")),
        ("--d1", dict(type=_rational, default=1, help="diagonal row scale for the first row")),
        ("--d2", dict(type=_rational, default=1, help="diagonal row scale for the second row")),
    )),
    "lemma1": ("step-pair hypothesis checks and witnesses", cmd_lemma1, (
        ("--seed", dict(type=int, default=0)),
        ("--pairs", dict(type=_positive_int, default=20)),
        ("--pieces", dict(type=int, default=10)),
        ("--u-csv", dict(help="CSV for the first function")),
        ("--v-csv", dict(help="CSV for the second function")),
        ("--u-end", dict(type=int, help="domain end for the first CSV")),
        ("--v-end", dict(type=int, help="domain end for the second CSV")),
        ("--margin", dict(type=int, default=BOUNDARY_MARGIN,
                          help="breakpoints at each window edge left out of the witness scan")),
    )),
    "verify": ("build a construction and check its bound", cmd_verify, (
        ("--theorem", dict(required=True, choices=("T1", "T2", "T3", "T4"))),
        ("--gamma", dict(type=_rational, required=True)),
        ("--depth", dict(type=int, default=12)),
        ("--tolerance", dict(type=float, default=CHECK_TOL)),
    )),
    "plot": ("render step functions to SVG", cmd_plot, (
        ("--csv", dict(action="append", help="repeatable CSV input")),
        ("--label", dict(action="append", help="repeatable trace label")),
        ("--prefix", dict(help="plot psi and upsilon of this prefix")),
        ("--annotate", dict(type=_int_list, help="comma-separated vertical marker positions")),
        ("--title", dict(default="")),
        ("--linear", dict(action="store_true", help="linear instead of log axes")),
    )),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give ``parser`` the options of command ``name``, ``--output`` and its handler."""
    _, handler, options = _COMMANDS[name]
    for flag, kwargs in options:
        parser.add_argument(flag, **kwargs)
    parser.add_argument("--output")
    parser.set_defaults(func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser: the root options and one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="weakapprox",
        description="Exact-arithmetic experiments with continued fractions, "
        "irrationality measure functions, Diophantine exponents, and "
        "two-dimensional lattice products.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_line), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    left_over = True
    if argv and argv[0] in _COMMANDS:
        # The full parser hands the same argv[1:] to this command's subparser.
        parser = _add_command(argparse.ArgumentParser(prog=f"weakapprox {argv[0]}"), argv[0])
        args, left_over = parser.parse_known_args(argv[1:])
    if left_over:  # help, version, a missing or unknown command, or an extra argument
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GuardExceeded as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except NotEstimable as exc:
        print(f"not estimable: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weakapprox.cli as cli
from weakapprox.bounds import BoundCheck, check_theorem
from weakapprox.cf import PartialQuotients
from weakapprox.cli import EXIT_INAPPLICABLE, EXIT_USAGE, main
from weakapprox.construct import DIGIT_GUARD_ENV, construct_thm1, construct_thm2, construct_thm3
from weakapprox.exponents import exponent_report
from weakapprox.intmath import decimal_str, fraction_str, parse_decimal
from weakapprox.lattice import lattice_exponents, lattice_from_pair
from weakapprox.measure import StepFunction
from oracles import matrix_of


#: A small thm3-like pair with a nonsingular lattice.
PAIR_THETA, PAIR_ETA = "[0;3,7,156]", "[0;2,3,22]"
#: A longer one, with enough records to estimate.
WIDE_THETA, WIDE_ETA = "[0;3,7,156,535867,986372083990945]", "[0;2,3,22,3435,1840703167]"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestCf:
    def test_convergents_json(self, capsys):
        code, out = run(["cf", "--prefix", "[0;2,2,2]"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["value"] == "5/12"
        assert [c["q"] for c in data["convergents"]] == ["1", "2", "5", "12"]

    def test_file_input(self, tmp_path, capsys):
        p = tmp_path / "prefix.json"
        p.write_text('{"a0": "0", "tail": ["2", "2", "2"]}')
        code, out = run(["cf", "--prefix", str(p)], capsys)
        assert code == 0
        assert json.loads(out)["value"] == "5/12"


class TestConstruct:
    def test_single_scheme_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "theta.json"
        code, _ = run(
            ["construct", "--scheme", "thm1", "--gamma", "3/2", "--depth", "10",
             "--output", str(out_path)],
            capsys,
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["tail"][:5] == ["1", "1", "2", "5", "27"]

    def test_pair_scheme(self, capsys):
        code, out = run(
            ["construct", "--scheme", "thm3", "--gamma", "1", "--depth", "5"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"theta", "eta"}

    def test_seeds_reach_the_scheme(self, capsys):
        code, out = run(
            ["construct", "--scheme", "thm2", "--gamma", "3/2", "--depth", "4",
             "--seed-theta", "0,5", "--seed-eta", "1,3"],
            capsys,
        )
        assert code == 0
        theta, eta = construct_thm2(Fraction(3, 2), 4, seed_theta=(0, 5), seed_eta=(1, 3))
        data = json.loads(out)
        assert data == {"theta": json.loads(theta.to_json()), "eta": json.loads(eta.to_json())}

    def test_guard_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv(DIGIT_GUARD_ENV, "50")
        code, _ = run(
            ["construct", "--scheme", "thm1", "--gamma", "3/2", "--depth", "14"], capsys
        )
        assert code == 3

    @pytest.mark.parametrize("argv", [
        pytest.param(["construct", "--scheme", "bogus", "--gamma", "1", "--depth", "5"],
                     id="bad-scheme"),
        pytest.param(["construct", "--scheme", "thm1", "--gamma", "1/0", "--depth", "5"],
                     id="gamma-zero-denominator"),
        pytest.param(["lattice", "--theta", PAIR_THETA, "--eta", PAIR_ETA, "--t-max", "1/0"],
                     id="t-max-zero-denominator"),
        pytest.param(["lattice", "--theta", PAIR_THETA, "--eta", PAIR_ETA, "--d1", "1/0"],
                     id="d1-zero-denominator"),
        pytest.param(["lattice", "--theta", PAIR_THETA, "--eta", PAIR_ETA, "--d1", "0"],
                     id="d1-zero"),
        pytest.param(["verify", "--theorem", "T1", "--gamma", "3/+2"],
                     id="gamma-signed-denominator"),
        pytest.param(["verify", "--theorem", "T1", "--gamma=-3/-2"],
                     id="gamma-two-signs"),
        pytest.param(["lattice", "--theta", PAIR_THETA, "--eta", PAIR_ETA, "--d1", "1/+2"],
                     id="d1-signed-denominator"),
        pytest.param(["lattice", "--theta", PAIR_THETA, "--eta", PAIR_ETA,
                      "--t-max", "7" * 5000 + "/+3"], id="long-t-max-signed-denominator"),
        pytest.param(["verify", "--theorem", "T1", "--gamma", "3/2", "--tolerance", "nan"],
                     id="tolerance-nan"),
        pytest.param(["verify", "--theorem", "T1", "--gamma", "3/2", "--tolerance", "inf"],
                     id="tolerance-inf"),
        pytest.param(["verify", "--theorem", "T1", "--gamma", "3/2", "--tolerance", "-0.5"],
                     id="tolerance-negative"),
        pytest.param(["cf", "--prefix", '{"a0": 0}'], id="prefix-without-tail"),
        pytest.param(["cf", "--prefix", '{"tail": [1, 2]}'], id="prefix-without-a0"),
        pytest.param(["cf", "--prefix", '{"a0": 0, "tail": 5}'], id="prefix-tail-not-a-list"),
        pytest.param(["plot", "--csv", "no-such-dir/missing.csv"], id="missing-csv"),
        pytest.param(["plot", "--csv", "header.csv"], id="header-only-csv"),
        pytest.param(["lemma1", "--pairs", "0"], id="pairs-zero"),
        pytest.param(["lemma1", "--pairs", "-3"], id="pairs-negative"),
        pytest.param(["exponents", "--theta", "[0;2,2,2,2]", "--window", "5"],
                     id="window-without-comma"),
        pytest.param(["exponents", "--theta", "[0;2,2,2,2]", "--window", "x,y"],
                     id="window-not-integers"),
        pytest.param(["bogus"], id="unknown-command"),
        pytest.param(["cf", "--prefix", "[0;2,2]", "--bogus"], id="unknown-option"),
    ])
    def test_usage_error_exit_code(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "header.csv").write_text("t,value_num,value_den\n", encoding="utf-8")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err.strip() and "Traceback" not in captured.err

    @pytest.mark.parametrize("option", ["--t-max", "--d1"])
    def test_long_bad_rational_is_echoed_in_short(self, option, capsys):
        text = "7" * 4999 + "x"
        with pytest.raises(SystemExit) as exc:
            main(["lattice", "--theta", PAIR_THETA, "--eta", PAIR_ETA, option, text])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_USAGE
        assert "invalid rational" in err and "(5000 characters)" in err
        assert len(err) < 400

    @pytest.mark.parametrize("option, num, den", [
        ("--t-max", "7" * 5000, None),
        ("--t-max", "7" * 5001, "3" * 5000),
        ("--d1", "7" * 5000, "3" * 5001),
    ])
    def test_long_rational_is_accepted(self, option, num, den, capsys):
        """Rationals past the interpreter's 4,300-digit int<->str limit."""
        text = num if den is None else f"{num}/{den}"
        want = Fraction(parse_decimal(num), 1 if den is None else parse_decimal(den))
        assert cli._rational(text) == want
        assert main(["lattice", "--theta", PAIR_THETA, "--eta", PAIR_ETA, option, text]) == 0
        assert capsys.readouterr().err == ""

    def test_eta_seed_of_the_single_scheme_is_a_usage_error(self, capsys):
        code = main(["construct", "--scheme", "thm1", "--gamma", "3/2", "--depth", "5",
                     "--seed-eta", "0,5"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert "--seed-eta" in captured.err

    def test_theta_seed_of_the_single_scheme(self, capsys):
        code, out = run(["construct", "--scheme", "thm1", "--gamma", "3/2", "--depth", "5",
                         "--seed-theta", "0,2"], capsys)
        assert code == 0
        assert json.loads(out) == json.loads(construct_thm1(Fraction(3, 2), 5, (0, 2)).to_json())


class TestMeasureAndPlot:
    def test_csv_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "psi.csv"
        code, _ = run(
            ["measure", "--prefix", "[0;2,2,2]", "--kind", "psi",
             "--output", str(out_path)],
            capsys,
        )
        assert code == 0
        f = StepFunction.from_csv(out_path.read_text(), domain_end=5)
        assert f.breakpoints == (1, 2)

    def test_plot_svg(self, tmp_path, capsys):
        psi_path = tmp_path / "psi.csv"
        ups_path = tmp_path / "ups.csv"
        run(["measure", "--prefix", "[0;2,2,2]", "--kind", "psi",
             "--output", str(psi_path)], capsys)
        run(["measure", "--prefix", "[0;2,2,2]", "--kind", "upsilon",
             "--output", str(ups_path)], capsys)
        svg_path = tmp_path / "steps.svg"
        code, _ = run(
            ["plot", "--csv", str(psi_path), "--csv", str(ups_path),
             "--label", "psi", "--label", "upsilon",
             "--annotate", "2", "--output", str(svg_path)],
            capsys,
        )
        assert code == 0
        svg = svg_path.read_text()
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") >= 8  # closed and open endpoints per piece

    def test_plot_without_input_names_the_options(self, capsys):
        assert main(["plot"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "--csv" in captured.err and "--prefix" in captured.err

    def test_plot_linear_of_a_deep_prefix_is_a_usage_error(self, capsys):
        """q_{N-1} of 900 twos is above 2^1024: no double holds it."""
        prefix = "[0;" + ",".join(["2"] * 900) + "]"
        assert main(["plot", "--prefix", prefix, "--linear"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "linear axes" in captured.err

    def test_plot_escapes_title_and_labels(self, tmp_path, capsys):
        psi_path = tmp_path / "psi.csv"
        run(["measure", "--prefix", "[0;2,2,2]", "--output", str(psi_path)], capsys)
        code, out = run(["plot", "--prefix", "[0;2,2,2,2,2,2]", "--title", "a<b & c",
                         "--csv", str(psi_path), "--label", "<psi>"], capsys)
        assert code == 0
        texts = [el.text for el in ET.fromstring(out).iter("{http://www.w3.org/2000/svg}text")]
        assert "a<b & c" in texts and "<psi>" in texts

    def test_plot_deterministic(self, tmp_path, capsys):
        psi_path = tmp_path / "psi.csv"
        run(["measure", "--prefix", "[1;1,1,1,1]", "--output", str(psi_path)], capsys)
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        run(["plot", "--csv", str(psi_path), "--output", str(a)], capsys)
        run(["plot", "--csv", str(psi_path), "--output", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()


class TestExponentsCommand:
    def test_pair_report(self, capsys):
        code, out = run(
            ["exponents", "--theta", "[0;2,3,2,3,2,3,2,3]",
             "--eta", "[0;3,2,3,2,3,2,3,2]"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["flags"] == []
        assert "varpi_upsilon" in data

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            # the only interior denominator is q_0 = 1, so omega has no sample
            (["--theta", "[0;1,1]"], EXIT_INAPPLICABLE, "omega: 0 samples"),
            (["--theta", "[0;2,2,2,2,2,2]", "--window", "9,12"], EXIT_USAGE,
             "selects no samples"),
        ],
        ids=["unestimable-input", "empty-explicit-window"],
    )
    def test_no_samples(self, capsys, argv, code, message):
        assert main(["exponents", *argv]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("window", ["5", "x,y", "1,2,3", "7" * 100])
    def test_bad_window_names_the_option(self, window, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exponents", "--theta", "[0;2,2,2,2]", "--window", window])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_USAGE
        assert "argument --window: invalid window (not lo,hi): " in err
        assert cli._echo(window) in err and len(err) < 400


class TestIntegerListOptions:
    """--seed-theta, --seed-eta and plot --annotate."""

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["construct", "--scheme", "thm3", "--gamma", "1", "--depth", "5",
              "--seed-theta", "0,x"], "--seed-theta"),
            (["construct", "--scheme", "thm3", "--gamma", "1", "--depth", "5",
              "--seed-eta", "0,"], "--seed-eta"),
            (["construct", "--scheme", "thm1", "--gamma", "3/2", "--depth", "5",
              "--seed-theta", ""], "--seed-theta"),
            (["plot", "--prefix", "[0;2,2,2,2]", "--annotate", "1,x"], "--annotate"),
            (["plot", "--prefix", "[0;2,2,2,2]", "--annotate", "1," * 60 + "x"], "--annotate"),
        ],
        ids=["seed-theta-not-integer", "seed-eta-empty-entry", "seed-theta-empty",
             "annotate-not-integer", "annotate-long"],
    )
    def test_bad_integer_list_names_the_option(self, argv, option, capsys):
        """Seeds and markers share the comma-separated integer type of
        --window: a bad one, the empty text included, exits 2 naming the
        option and the expected form."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE and captured.out == ""
        assert f"argument {option}: invalid integer list (not a,b,...): " in captured.err
        assert cli._echo(argv[-1]) in captured.err and len(captured.err) < 600

    def test_annotations_are_read_as_integers(self, capsys):
        code, out = run(["plot", "--prefix", "[0;2,2,2,2,2,2]", "--annotate", "2,5"], capsys)
        assert code == 0
        assert '>2</text>' in out and '>5</text>' in out


class TestLatticeCommand:
    def test_pair_lattice_report(self, capsys, tmp_path):
        pair_path = tmp_path / "pair.json"
        run(["construct", "--scheme", "thm3", "--gamma", "1", "--depth", "5",
             "--output", str(pair_path)], capsys)
        pair = json.loads(pair_path.read_text())
        t_path = tmp_path / "t.json"
        e_path = tmp_path / "e.json"
        t_path.write_text(json.dumps(pair["theta"]))
        e_path.write_text(json.dumps(pair["eta"]))
        code, out = run(
            ["lattice", "--theta", str(t_path), "--eta", str(e_path)], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["flags"] == []
        assert 1.0 < data["omega_bar_lattice"]["value"] < data["omega_lattice"]["value"] + 0.05

    @pytest.mark.parametrize("d1, d2, a11, a22", [("1", "1", "1/1", "1/1"),
                                                  ("3", "1/2", "3/1", "1/2"),
                                                  ("4/9", "10", "4/9", "10/1")])
    def test_matrix_prints_the_scaled_entries(self, capsys, d1, d2, a11, a22):
        """The matrix diag(d1, d2) [[1, theta], [eta, 1]] prints in lowest
        terms: the entries of the lattice's integer rows, reduced.  4/9
        cancels against theta = p/q (2 | q, 3 | p), 10 against eta's
        denominator (5 | s)."""
        code, out = run(["lattice", "--theta", WIDE_THETA, "--eta", WIDE_ETA,
                         "--d1", d1, "--d2", d2], capsys)
        assert code == 0
        theta, eta = PartialQuotients.parse(WIDE_THETA), PartialQuotients.parse(WIDE_ETA)
        lat = lattice_from_pair(theta, eta, Fraction(d1), Fraction(d2))
        matrix = json.loads(out)["lattice"]
        assert matrix == {name: fraction_str(x)
                          for name, x in zip(("a11", "a12", "a21", "a22"), matrix_of(lat))}
        assert (matrix["a11"], matrix["a22"]) == (a11, a22)

    def test_singular_pair_is_a_usage_error(self, capsys):
        # theta * eta = (1/2) * 2 = 1 makes [[1, theta], [eta, 1]] singular.
        code = main(["lattice", "--theta", "[0;2]", "--eta", "[1;1]"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == "error: matrix must be nonsingular\n"


@pytest.fixture
def csv_options(tmp_path):
    """The four CSV-mode options of lemma1, for a pair with one witness at margin 0."""
    (tmp_path / "u.csv").write_text("t,value_num,value_den\n1,1,1\n4,3,10\n10,1,10\n")
    (tmp_path / "v.csv").write_text("t,value_num,value_den\n2,1,2\n6,1,5\n15,1,20\n")
    return {"--u-csv": str(tmp_path / "u.csv"), "--v-csv": str(tmp_path / "v.csv"),
            "--u-end": "20", "--v-end": "20"}


def flat(options):
    return [word for item in options.items() for word in item]


class TestLemmaCommand:
    def test_seeded_run(self, capsys):
        code, out = run(["lemma1", "--seed", "0", "--pairs", "10"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["failures"] == 0

    @pytest.mark.parametrize("argv, digest", [
        (["--seed", "0", "--pairs", "2", "--pieces", "600"],
         "f9f3fad485d200711195678df5a5d5592003b120bbc53c53e2619eec1eec3542"),
        (["--seed", "0", "--pairs", "20"],
         "b3f4f3b586b4087b0e3d437e9a6a4351b4ce43f367d4907b80b8651211a78a4d"),
    ])
    def test_seeded_artifact_is_pinned(self, argv, digest, capsys):
        # The verdicts and witness counts depend only on the order of the
        # generated values, so these digests outlive any change of levels.
        code, out = run(["lemma1", *argv], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_csv_pair(self, csv_options, capsys):
        code, out = run(["lemma1", *flat(csv_options), "--margin", "0"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["a_holds"] and data["b_holds"]
        assert data["all_verified"] and len(data["witnesses"]) == 1

    def test_generator_margin_zero(self, capsys):
        # Every u-breakpoint but the last (no q_{nu+1}) and the first, which
        # lies before the window's start s_1, yields one witness.
        code, out = run(["lemma1", "--seed", "0", "--pairs", "3", "--pieces", "10",
                         "--margin", "0"], capsys)
        assert code == 0
        assert [row["witnesses"] for row in json.loads(out)["pairs"]] == [8, 8, 8]

    def test_unverifiable_witness_fails_the_run(self, capsys, monkeypatch):
        # One bogus witness beside the good ones must not pass as verified.
        real = cli.find_witnesses

        def with_bogus(pair, margin):
            found = real(pair, margin=margin)
            return [*found, dataclasses.replace(found[0], nu_star=found[0].nu_star + 1)]

        monkeypatch.setattr(cli, "find_witnesses", with_bogus)
        code, out = run(["lemma1", "--seed", "0", "--pairs", "3", "--pieces", "10"], capsys)
        assert code == 1
        data = json.loads(out)
        assert data["failures"] == 3
        assert [row["witnesses"] for row in data["pairs"]] == [5, 5, 5]

    def test_negative_margin_is_a_usage_error(self, csv_options, capsys):
        for extra in (["--seed", "0", "--pairs", "2"], flat(csv_options)):
            code, out = run(["lemma1", "--margin", "-1", *extra], capsys)
            assert code == 2 and out == ""

    def test_csv_mode_needs_all_four_options(self, csv_options, capsys):
        for k in range(1, 4):
            for names in itertools.combinations(csv_options, k):
                code = main(["lemma1", *flat({name: csv_options[name] for name in names})])
                captured = capsys.readouterr()
                assert (code, captured.out) == (EXIT_USAGE, ""), names
                assert captured.err == (
                    "error: CSV mode needs all of --u-csv, --v-csv, --u-end and --v-end\n"
                )


class TestVerifyCommand:
    def test_t3_small_depth(self, capsys):
        code, out = run(
            ["verify", "--theorem", "T3", "--gamma", "1", "--depth", "8"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["check"]["satisfied"] is True
        assert abs(data["check"]["slack"]) < 0.15

    def test_t1(self, capsys):
        code, out = run(
            ["verify", "--theorem", "T1", "--gamma", "3/2", "--depth", "10"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["check"]["satisfied"] is True

    def test_t4(self, capsys):
        code, out = run(
            ["verify", "--theorem", "T4", "--gamma", "1", "--depth", "6"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["check"]["satisfied"] is True
        assert abs(data["check"]["slack"]) < 0.15


    @pytest.mark.parametrize(
        "theorem, gamma, depth",
        [("T1", "3/2", 8), ("T2", "13/10", 8), ("T3", "1/2", 7), ("T4", "1", 6)],
    )
    def test_artifact_matches_direct_pipeline(self, capsys, theorem, gamma, depth):
        """The artifact equals the one assembled from the library calls, each
        theorem on its own construction and with its own estimate keys."""
        g = Fraction(gamma)
        if theorem == "T1":
            report = exponent_report(construct_thm1(g, depth))
            estimates = {k: report[k] for k in ("omega_theta", "omega_bar_theta")}
        elif theorem == "T2":
            report = exponent_report(*construct_thm2(g, depth))
            estimates = {k: report[k] for k in ("omega_theta", "omega_eta", "varpi_psi")}
        elif theorem == "T3":
            report = exponent_report(*construct_thm3(g, depth))
            estimates = {k: report[k] for k in ("omega_theta", "omega_eta", "varpi_upsilon")}
        else:
            pair = construct_thm3(g, depth)
            ordinary, uniform, info = lattice_exponents(lattice_from_pair(*pair))
            estimates = {"omega_lattice": ordinary.value, "omega_bar_lattice": uniform.value}
            report = {"number_side": exponent_report(*pair), "lattice_info": info}
        check = check_theorem(theorem, estimates)
        expected = {"theorem": theorem, "gamma": gamma, "depth": depth,
                    "check": check.to_dict(), "report": report}
        code, out = run(["verify", "--theorem", theorem, "--gamma", gamma,
                         "--depth", str(depth)], capsys)
        assert check.applicable and code == (0 if check.satisfied else 1)
        assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("flags", [[], ["omega_theta below 1"]])
    def test_inapplicable_check_is_not_a_pass(self, capsys, monkeypatch, flags):
        def inapplicable(which, estimates, tolerance):
            return BoundCheck(which, None, None, None, None, False, tolerance, estimates,
                              "varpi_psi <= 1")

        real_report = cli.exponent_report
        monkeypatch.setattr(cli, "check_theorem", inapplicable)
        monkeypatch.setattr(cli, "exponent_report",
                            lambda *a, **k: {**real_report(*a, **k), "flags": flags})
        code, out = run(
            ["verify", "--theorem", "T2", "--gamma", "13/10", "--depth", "8"], capsys
        )
        assert json.loads(out)["check"]["applicable"] is False
        assert code == (1 if flags else EXIT_INAPPLICABLE)


def test_version_runs():
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


def full_parser_main(argv):
    """``main`` on the full parser alone, the reference for every call."""
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


def outcome(entry, argv, capsys):
    """(exit code, stdout, stderr) of one call."""
    try:
        code = entry(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserPaths:
    """``main`` builds only the named command's parser, and the full one
    only for help, version and errors; either way it reads as before."""

    @pytest.fixture(autouse=True)
    def _fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.fixture
    def parsers_built(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        return built

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_command_help_is_the_subparser_help(self, name, capsys):
        action = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
        want = action.choices[name].format_help()
        assert outcome(main, [name, "--help"], capsys) == (0, want, "")

    def test_a_valid_call_builds_one_parser(self, parsers_built, capsys):
        assert main(["cf", "--prefix", "[0;2,2]"]) == 0
        assert parsers_built == ["weakapprox cf"]

    def test_a_left_over_argument_builds_the_full_parser(self, parsers_built, capsys):
        cli.build_parser()
        full = len(parsers_built)
        parsers_built.clear()
        assert outcome(main, ["cf", "--prefix", "[0;2,2]", "extra"], capsys)[0] == EXIT_USAGE
        assert len(parsers_built) == 1 + full and parsers_built[1] == "weakapprox"

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["--version"], ["bogus"], ["cf"], ["cf", "-h"], ["cf", "--version"],
        ["cf", "--prefix", "[0;2,2]", "--bogus"], ["cf", "--prefix", "[0;2,2]", "extra"],
        ["verify", "--theorem", "T9", "--gamma", "3/2"],
    ])
    def test_output_matches_the_full_parser(self, argv, capsys):
        assert outcome(main, argv, capsys) == outcome(full_parser_main, argv, capsys)


class TestLoadGuard:
    """A loaded prefix whose q_N certainly exceeds the digit guard exits 3."""

    FIB_300 = "[0;" + ",".join(["1"] * 300) + "]"  # q_N = F_301 has 63 digits

    @pytest.mark.parametrize(
        "prefix, guard, code",
        [
            ("[0;" + "1" + "0" * 60 + "]", "50", 3),  # one 61-digit quotient
            (FIB_300, "62", 3),
            (FIB_300, "63", 0),
            ("[0;2,2,2]", "1", 0),
        ],
        ids=["quotient", "fibonacci-over", "fibonacci-at", "small"],
    )
    def test_inline_prefix(self, capsys, monkeypatch, prefix, guard, code):
        monkeypatch.setenv(DIGIT_GUARD_ENV, guard)
        assert main(["cf", "--prefix", prefix]) == code
        err = capsys.readouterr().err
        assert ("resource guard" in err) == (code == 3)

    def test_json_artifact(self, tmp_path, capsys, monkeypatch):
        theta, eta = construct_thm2(Fraction(3, 2), 6)
        paths = []
        for name, pq in (("theta", theta), ("eta", eta)):
            p = tmp_path / f"{name}.json"
            p.write_text(pq.to_json(), encoding="utf-8")
            paths.append(str(p))
        digits = max(len(str(pq.analysis.q_n)) for pq in (theta, eta))
        argv = ["exponents", "--theta", paths[0], "--eta", paths[1]]
        monkeypatch.setenv(DIGIT_GUARD_ENV, str(digits))
        assert run(argv, capsys)[0] == 0
        monkeypatch.setenv(DIGIT_GUARD_ENV, "2")
        assert run(argv, capsys)[0] == 3

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(st.integers(1, 3), st.integers(1, 10**40)), min_size=1, max_size=200
        )
    )
    def test_digit_bound_never_exceeds_q(self, tail):
        pq = PartialQuotients(0, tuple(tail))
        assert pq.min_q_digits() <= len(str(pq.analysis.q_n))


class TestNoGlobalIntStrLimit:
    """Huge prefixes go in and out without the interpreter-wide int<->str limit.

    The prefix has five 5,000-digit quotients, more than the default
    4,300-digit limit allows ``int``/``str`` to convert, and q_N has about
    25,000 digits.
    """

    BIG = [10**4999 + 7 * i + 1 for i in range(5)]
    TAIL = (1, BIG[0], 2, BIG[1], 3, BIG[2], 1, BIG[3], 2, BIG[4], 3, 1)
    INLINE = "[0;" + ",".join(decimal_str(a) for a in TAIL) + "]"

    def _inputs(self, tmp_path):
        path = tmp_path / "prefix.json"
        path.write_text(PartialQuotients(0, self.TAIL).to_json(), encoding="utf-8")
        return (self.INLINE, str(path))

    def test_q_n_exceeds_the_default_limit(self):
        q_n = PartialQuotients(0, self.TAIL).analysis.q_n
        assert len(decimal_str(q_n)) > 20_000

    @pytest.mark.parametrize("command, flag", [("cf", "--prefix"), ("exponents", "--theta")])
    def test_limit_unchanged(self, tmp_path, capsys, default_int_limit, command, flag):
        outputs = []
        for prefix in self._inputs(tmp_path):
            code, out = run([command, flag, prefix], capsys)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert sys.get_int_max_str_digits() == default_int_limit

    def test_subprocess_at_default_limit(self, tmp_path, capsys):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out_path = tmp_path / "cf.json"
        proc = subprocess.run(
            [sys.executable, "-m", "weakapprox", "cf", "--prefix", self.INLINE,
             "--output", str(out_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, out = run(["cf", "--prefix", self.INLINE], capsys)
        assert code == 0
        assert out_path.read_text(encoding="utf-8") == out

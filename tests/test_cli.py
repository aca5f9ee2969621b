"""The command line front end, run through main(argv) in process, and its
start-up in a fresh interpreter."""
import argparse
import io
import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath import mpf

from momentlab import distributions as dist
from momentlab import cli, seqfile, stieltjes
from momentlab.cli import build_parser, main
from momentlab.divisibility import pmf_from_rates
from momentlab.exceptions import SequenceFileError
from momentlab.moment_algebra import classical_convolve

import brute_force
from conftest import fresh_env

F = Fraction


def lattice_file(tmp_path, q=2, upto=6):
    path = tmp_path / "lattice.json"
    assert main(["moments", "lattice", "--q", str(q), "--upto", str(upto),
                 "-o", str(path)]) == 0
    return path


def lognormal_file(tmp_path):
    path = tmp_path / "lognormal.json"
    assert main(["moments", "lognormal", "--upto", "6", "-o", str(path)]) == 0
    return path


class TestMoments:
    def test_truncated_conditional_file(self, tmp_path):
        path = tmp_path / "cond.json"
        assert main(["moments", "truncated", "--logb", "-0.5", "--upto", "4",
                     "--conditional", "-o", str(path)]) == 0
        m = seqfile.load_json(str(path))
        assert not m.exact and m.precision_bits == 128 and len(m) == 5
        res = dist.truncated_lognormal_moments(
            dist.LognormalSpec(0, 1), -0.5, 4, dist.Precision(128))
        with mpmath.workprec(128):
            assert m[0] == 1
            for n in range(1, 5):
                assert abs(m[n] * res.surviving_mass / res.moments[n] - 1) < mpf("1e-35")


    def test_exact_values_past_the_int_string_limit(self, tmp_path, capsys):
        """mu_120 = 2^14400 of the q = 2 lattice has 4335 digits, past
        Python's 4300-digit int-string limit: a run writes it and reads it
        back, and the caller's limit holds again after each run."""
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        path = tmp_path / "deep.json"
        assert main(["moments", "lattice", "--q", "2", "--upto", "120", "-o", str(path)]) == 0
        assert main(["analyze", str(path), "--stieltjes-depth", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["stieltjes"]["kind"] == "strictly-positive"
        assert main(["compose", str(path), "--op", "classical", "--upto", "4"]) == 0
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        # Decimal reads a string of any length without the int conversion
        assert Decimal(json.loads(path.read_text())["values"][120]) == 2 ** 14400

    def test_nan_logb_exits_2(self, capsys):
        for source in (["truncated"], ["mixed-poisson", "--N", "5", "--kmax", "4"]):
            assert main(["moments", *source, "--logb", "nan"]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")

    def test_unreachable_abs_tol_exits_3(self, capsys):
        for source in (["truncated", "--logb", "-1"], ["gap", "--a", "0.5", "--b", "2"],
                       ["mixed-poisson", "--logb", "-1", "--N", "5", "--kmax", "12"],
                       ["lognormal"], ["truncated", "--logb", "-1", "--conditional"]):
            assert main(["moments", *source, "--abs-tol", "1e-300"]) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("numerical failure: ")

    def test_zero_abs_tol_exits_3(self, capsys):
        # 0 is a target no entry can meet, not a malformed one
        for source in (["lognormal"], ["mixed-poisson", "--logb", "-1", "--N", "5"]):
            assert main(["moments", *source, "--abs-tol", "0"]) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("numerical failure: ")

    def test_rounding_bound_above_the_recorded_tolerance_exits_3(self, capsys):
        # mu_12 = e^72 and the conditional mu_6 behind a cut at log b = 8
        # round by more than the default 1e-20 at 128 bits
        for source in (["lognormal", "--upto", "12"],
                       ["truncated", "--logb", "8", "--upto", "6", "--conditional"]):
            assert main(["moments", *source]) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and "rounding bound" in captured.err
        assert main(["moments", "truncated", "--logb", "8", "--upto", "6"]) == 0

    def test_leipnik_checks_its_rounding_bound(self, capsys):
        # the lognormal's moments, so the lognormal's refusal: mu_7 = e^24.5
        # rounds by 1.28e-28 at 128 bits
        assert main(["moments", "leipnik", "--upto", "12", "--abs-tol", "1e-30"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "rounding bound of entry 7" in captured.err

    def test_lattice_takes_rational_q_above_one(self, capsys):
        assert main(["moments", "lattice", "--q", "3/2", "--upto", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["values"] == [
            "1", "3/2", "81/16", "19683/512"]
        assert main(["moments", "lattice", "--q", "1"]) == 2
        assert "q must exceed 1" in capsys.readouterr().err


SOURCES = {"lognormal": [], "lattice": ["--q", "2"], "truncated": ["--logb", "-1"],
           "gap": ["--a", "0.5", "--b", "2"], "leipnik": [],
           "mixed-poisson": ["--logb", "-1", "--N", "5", "--kmax", "4"]}


def options_read(argv) -> set:
    """The option names a run of argv reads from its parsed arguments."""
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    args = build_parser().parse_args(argv, namespace=Recording())
    func = args.func
    read.clear()
    assert func(args) == 0
    return {name for name in read if not name.startswith("_")} - {"command", "source"}


@pytest.mark.parametrize("source", list(SOURCES))
def test_moments_help_lists_exactly_the_options_read(source, capsys):
    """An option a source accepts but never reads would change no output."""
    with pytest.raises(SystemExit):
        main(["moments", source, "--help"])
    listed = {opt[2:].replace("-", "_")
              for opt in re.findall(r"--[A-Za-z][\w-]*", capsys.readouterr().out)} - {"help"}
    assert listed == options_read(["moments", source, *SOURCES[source]])


@pytest.mark.parametrize("source", list(SOURCES))
def test_every_listed_form_reads_back(source, tmp_path, capsys):
    """Each form a source's help lists writes a file that the reader of its
    kind loads: analyze for moments, katti for the pmf."""
    with pytest.raises(SystemExit):
        main(["moments", source, "--help"])
    forms = [[]] + ([["--csv"]] if "--csv" in capsys.readouterr().out else [])
    reader = ["katti"] if source == "mixed-poisson" else ["analyze", "--tolerance", "1e-10"]
    for form in forms:
        path = tmp_path / f"{source}{''.join(form)}"
        assert main(["moments", source, *SOURCES[source], *form, "-o", str(path)]) == 0
        assert main([reader[0], str(path), *reader[1:]]) == 0, form


class TestCompose:
    def test_mb_symbolic_matches_occupancy_sum(self, tmp_path, capsys):
        path = lattice_file(tmp_path)
        capsys.readouterr()
        assert main(["compose", str(path), "--op", "mb", "--symbolic"]) == 0
        rep = json.loads(capsys.readouterr().out)
        vals = [F(2) ** (n * n) for n in range(7)]
        assert rep["upto"] == 6
        assert rep["coefficients"] == [[str(c) for c in brute_force.composed_polynomial(vals, n)]
                                       for n in range(7)]

    def test_mb_symbolic_writes_to_output(self, tmp_path, capsys):
        path = lattice_file(tmp_path)
        capsys.readouterr()
        assert main(["compose", str(path), "--op", "mb", "--symbolic"]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "sym.json"
        assert main(["compose", str(path), "--op", "mb", "--symbolic", "-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8") == printed

    def test_mb_symbolic_refuses_csv(self, tmp_path, capsys):
        path = lattice_file(tmp_path)
        capsys.readouterr()
        assert main(["compose", str(path), "--op", "mb", "--symbolic", "--csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--csv" in captured.err

    def test_mb_t_serves_decimal_files(self, tmp_path, capsys):
        """On a decimal file, --op mb --t 2 writes the values of --k 2 byte
        for byte, and a fractional t is served too."""
        path = tmp_path / "lognormal.json"
        assert main(["moments", "lognormal", "--upto", "6", "-o", str(path)]) == 0
        capsys.readouterr()
        reports = []
        for param in (["--k", "2"], ["--t", "2"]):
            assert main(["compose", str(path), "--op", "mb", *param]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        by_k, by_t = reports
        assert by_t["backend"] == "decimal"
        assert by_t["params"].pop("t") == "2" and by_k["params"].pop("k") == 2
        assert by_t == by_k
        assert main(["compose", str(path), "--op", "mb", "--t", "1/3"]) == 0

    def test_mb_k_two_is_classical_self_convolution(self, tmp_path):
        path = lattice_file(tmp_path)
        out = tmp_path / "mbk.json"
        assert main(["compose", str(path), "--op", "mb", "--k", "2", "-o", str(out)]) == 0
        m = seqfile.load_json(str(path))
        assert seqfile.load_json(str(out)).values == classical_convolve(m, m).values


    def test_boolean_k_zero_is_the_identity(self, tmp_path, capsys):
        path = lattice_file(tmp_path)
        capsys.readouterr()
        assert main(["compose", str(path), "--op", "boolean", "--k", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["values"] == ["1"] + ["0"] * 6


class TestAnalyze:
    def test_suffixless_csv(self, tmp_path, capsys):
        path = tmp_path / "moments"
        path.write_text("index,value\n" + "".join(f"{k},{2 ** (k * k)}\n" for k in range(7)),
                        encoding="utf-8")
        assert main(["analyze", str(path)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["input"] == {"backend": "exact", "length": 7}
        assert rep["stieltjes"]["kind"] == "strictly-positive"

    def test_decimal_logconvex(self, tmp_path, capsys):
        path = lognormal_file(tmp_path)
        capsys.readouterr()
        assert main(["analyze", str(path), "--logconvex", "--tolerance", "1e-20"]) == 0
        rep = json.loads(capsys.readouterr().out)["logconvex"]
        assert rep["verdict"] == "strictly-log-convex"
        with mpmath.workprec(128):
            assert all(abs(mpf(th) - mpmath.exp(-1)) < mpf("1e-29") for th in rep["theta"])

    def test_decimal_logconvex_without_tolerance(self, tmp_path, capsys):
        # log-convexity is no Hankel report: without --tolerance it runs at
        # DEFAULT_TOLERANCE and prints the same bytes
        path = lognormal_file(tmp_path)
        assert stieltjes.DEFAULT_TOLERANCE == F(1, 1099511627776)
        capsys.readouterr()
        assert main(["analyze", str(path), "--logconvex"]) == 0
        plain = capsys.readouterr().out
        assert main(["analyze", str(path), "--logconvex", "--tolerance", "1/1099511627776"]) == 0
        assert capsys.readouterr().out == plain
        assert json.loads(plain)["logconvex"]["verdict"] == "strictly-log-convex"

    @pytest.mark.parametrize("reports", [[], ["--stieltjes-depth", "2"], ["--fekete", "2"],
                                         ["--indeterminacy", "2"], ["--mu1-threshold", "2"],
                                         ["--logconvex", "--fekete", "1"]])
    def test_decimal_hankel_reports_run_without_tolerance(self, reports, tmp_path, capsys):
        """A decimal file's Hankel verdicts come from its precision_bits:
        they run without --tolerance, and no --tolerance moves a byte of
        them (it is the --logconvex margin only)."""
        path = lognormal_file(tmp_path)
        capsys.readouterr()
        assert main(["analyze", str(path), *reports]) == 0
        def hankel(text):  # the margin may move only the logconvex report
            if "--logconvex" not in reports:
                return text
            return {k: v for k, v in json.loads(text).items() if k != "logconvex"}

        plain = capsys.readouterr().out
        if not reports:  # the deepest verdict seven entries allow
            assert json.loads(plain)["stieltjes"] == {
                "depth": 2, "kind": "strictly-positive", "witness": None, "witness_value": None}
        for tol in ("1e-20", "1/2", "0"):
            assert main(["analyze", str(path), *reports, "--tolerance", tol]) == 0
            assert hankel(capsys.readouterr().out) == hankel(plain), tol

    def test_decimal_report_keeps_the_file_digits(self, tmp_path, capsys):
        path = tmp_path / "lognormal256.json"
        assert main(["moments", "lognormal", "--upto", "6", "--precision", "256",
                     "-o", str(path)]) == 0
        def significant(text):
            return len(text.replace(".", "").lstrip("0"))

        values = json.loads(path.read_text(encoding="utf-8"))["values"]
        capsys.readouterr()
        assert main(["analyze", str(path), "--logconvex", "--tolerance", "1e-60"]) == 0
        theta = json.loads(capsys.readouterr().out)["logconvex"]["theta"]
        assert [significant(th) for th in theta] == [significant(values[1])] * 5 == [80] * 5
        with mpmath.workprec(256):
            assert all(abs(mpf(th) - mpmath.exp(-1)) < mpf("1e-70") for th in theta)

    def test_indeterminacy_depth_gives_the_mu1_threshold_sequence(self, tmp_path, capsys):
        # --mu1-threshold defaults to the --indeterminacy depth
        path = lattice_file(tmp_path, upto=10)
        capsys.readouterr()
        assert main(["analyze", str(path), "--indeterminacy", "4"]) == 0
        rep = json.loads(capsys.readouterr().out)
        m = seqfile.load_json(str(path))
        assert rep["mu1_threshold"]["values"] == [
            str(v) for v in stieltjes.mu1_threshold_sequence(m, 4).values]

    def test_mu1_threshold_depth_wins_over_indeterminacy(self, tmp_path, capsys):
        """--mu1-threshold D reports D thresholds, with or without an
        --indeterminacy depth N below or above D, exact and decimal alike."""
        lattice_file(tmp_path, upto=11)
        lognormal_file(tmp_path)
        # N, and the deepest D the file's length allows
        for name, n, deepest, extra in (("lattice.json", 3, 5, []),
                                        ("lognormal.json", 1, 2, ["--tolerance", "1e-20"])):
            path = str(tmp_path / name)
            for d in range(deepest + 1):
                assert main(["analyze", path, "--mu1-threshold", str(d), *extra]) == 0
                alone = json.loads(capsys.readouterr().out)["mu1_threshold"]
                assert len(alone["values"]) == d
                assert main(["analyze", path, "--indeterminacy", str(n),
                             "--mu1-threshold", str(d), *extra]) == 0
                both = json.loads(capsys.readouterr().out)
                assert both["mu1_threshold"] == alone, (name, d)
                assert both["indeterminacy"]["upto"] == n

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        for text in ('{"schema_version": ', "index,value\n0,1\n1,x/y\n", "1,2,3\n"):
            path = tmp_path / "bad.json"
            path.write_text(text, encoding="utf-8")
            assert main(["analyze", str(path)]) == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_csv_indices_must_run_in_order(self, tmp_path, capsys):
        for indices in ((0, 2), (1, 2), (1, 0), ("0", "x")):
            text = "index,value\n" + "".join(f"{i},1\n" for i in indices)
            with pytest.raises(SequenceFileError):
                seqfile.read_csv(io.StringIO(text))
            path = tmp_path / "gap.csv"
            path.write_text(text, encoding="utf-8")
            assert main(["analyze", str(path)]) == 2
            assert "index" in capsys.readouterr().err


class TestKatti:
    def test_table_of_rates_past_float_range(self, tmp_path, capsys):
        """Exact rates beyond float range (r_0 = 10^400, r_1 = 2 - 10^800)
        are tabled to 12 digits with their exact text, r_1 flagged."""
        path = tmp_path / "pmf.json"
        seqfile.dump_json(dist.DiscretePMF((1, 10 ** 400, 1)), str(path))
        assert main(["katti", str(path), "--table"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["certified_negative"] == [1]
        assert err.splitlines() == [
            "  k  r_k",
            f"  0  +1e+400 ({10 ** 400})",
            f"  1  -1e+800 ({2 - 10 ** 800})  <-- certified negative"]

    def test_table_of_decimal_rates(self, tmp_path, capsys):
        """Decimal rates are tabled by mpmath to 12 significant digits."""
        path = tmp_path / "pmf.json"
        assert main(["moments", "mixed-poisson", "--logb", "-1", "--N", "5", "--kmax", "8",
                     "-o", str(path)]) == 0
        assert main(["katti", str(path), "--table"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["backend"] == "decimal"
        assert err.splitlines()[:4] == [
            "  k  r_k", "  0  0.286104883344", "  1  0.766714367983", "  2  1.0728780287"]

    def test_error_past_p0_is_a_numerical_failure(self, tmp_path, capsys):
        """An entry error of 0.2 on p_0 = 0.1 leaves the recursion nothing
        to divide by: exit 3 with one line."""
        path = tmp_path / "pmf.json"
        with mpmath.workprec(64):
            pmf = dist.DiscretePMF(tuple(mpf(x) for x in ("0.1", "0.3", "0.2")), exact=False,
                                   precision_bits=64, entry_error=F(1, 5))
        seqfile.dump_json(pmf, str(path))
        assert main(["katti", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical failure: p_0 - error does not exceed 0; "
                                "cannot run the recursion\n")


class TestScan:
    def test_failing_cells_report_their_verdict_as_witness(self, monkeypatch, capsys):
        """A failing cell reads "fail" with its verdict record as witness;
        the lattice family never fails, so verdicts are planted. Once the
        closed form and the float certificate refuse, each row takes one
        exact verdict on its cumulants; a planted refusal of that verdict,
        on the rows 1/9 and 1/4, sends their cells to the exact path, where
        two cell verdicts are planted."""
        from momentlab import semigroup
        refused = stieltjes.PositivityVerdict("semi-definite", 3, stieltjes.HankelQuery(0, 3),
                                              F(0))
        # calls in order: row 1/16; row 1/9, its cells; row 1/4, its cells
        planted = {1: refused,
                   3: stieltjes.PositivityVerdict("not-stieltjes", 3,
                                                  stieltjes.HankelQuery(1, 2), F(-3, 7)),
                   4: refused, 5: refused}
        calls = []

        def verdict(m, depth):
            calls.append(depth)
            return planted.get(len(calls) - 1) or stieltjes.stieltjes_verdict(m, depth)

        monkeypatch.setattr(semigroup, "stieltjes_verdict", verdict)
        monkeypatch.setattr(semigroup, "_closed_form_row", lambda q: False)
        monkeypatch.setattr(stieltjes, "_certified_positive", lambda *args: False)
        assert main(["scan", "--depth", "3", "--theta-grid", "1/4,1/9,1/16",
                     "--t-grid", "1/3,2/3"]) == 0
        assert calls == [3] * 7
        rep = json.loads(capsys.readouterr().out)

        def ok(theta, t):
            return {"theta": theta, "t": t, "verdict": "stieltjes-ok"}

        assert rep["pass_matrix"] == [
            [ok("1/16", "1/3"), ok("1/16", "2/3")],
            [ok("1/9", "1/3"),
             {"theta": "1/9", "t": "2/3", "verdict": "fail",
              "witness": {"kind": "not-stieltjes", "depth": 3,
                          "witness": {"shift": 1, "size": 2}, "witness_value": "-3/7"}}],
            [{"theta": "1/4", "t": "1/3", "verdict": "fail",
              "witness": {"kind": "semi-definite", "depth": 3,
                          "witness": {"shift": 0, "size": 3}, "witness_value": "0"}},
             ok("1/4", "2/3")]]
        assert rep["empirical_theta_max"] == "1/16"
        assert rep["kind"] == "theta-scan" and rep["theta_grid"] == ["1/16", "1/9", "1/4"]


class TestNegativeValues:
    """Option values that start with '-' and a digit are values, not options.
    argparse decides this with its private _negative_number_matcher, which
    cli._Parser replaces; these tests pin that it still takes effect."""

    def test_parse(self):
        parser = build_parser()
        args = parser.parse_args(["compose", "f.json", "--op", "boolean", "--t", "-1/2"])
        assert args.t == F(-1, 2)
        args = parser.parse_args(["simulate", "spectrum", "--lognormal-jumps", "-0.5:1",
                                  "--a", "0.5", "--b", "2", "--n", "2", "--trials", "10",
                                  "--seed", "1", "--rate", "2"])
        assert args.lognormal_jumps == "-0.5:1"
        args = parser.parse_args(["scan", "--t-grid", "-1/2,1/2"])
        assert args.t_grid == [F(-1, 2), F(1, 2)]

    def test_run(self, tmp_path, capsys):
        assert main(["simulate", "spectrum", "--lognormal-jumps", "-0.5:1", "--a", "0.5",
                     "--b", "2", "--n", "2", "--trials", "200", "--seed", "3"]) == 0
        law = json.loads(capsys.readouterr().out)["report"]["spec"]["jump_law"]
        assert law == {"kind": "lognormal", "alpha": -0.5, "sigma2": 1.0}
        path = lattice_file(tmp_path)
        capsys.readouterr()
        assert main(["compose", str(path), "--op", "mb", "--t", "-1/2"]) == 0
        m = seqfile.load_json(str(path))
        assert json.loads(capsys.readouterr().out)["values"] == [
            str(brute_force.composed_moment(m.values, F(-1, 2), n)) for n in range(7)]
        assert main(["compose", str(path), "--op", "boolean", "--t", "-1/2"]) == 2
        assert "t >= 0" in capsys.readouterr().err


def _doc(**fields):
    doc = {"schema_version": 1, "kind": "moments", "backend": "exact",
           "values": ["1", "2", "16", "512"]}
    doc.update(fields)
    return json.dumps({k: v for k, v in doc.items() if v is not ...})


def _pmf(**fields):
    return _doc(**{"kind": "pmf", "backend": "decimal", "precision_bits": 128,
                   "values": ["0.5", "0.25", "0.125"], "entry_error": "1e-30",
                   "tail_mass": "0.125", **fields})


BAD_FILES = {
    "lattice.json": _doc(),
    "decimal.json": _doc(backend="decimal", precision_bits=128,
                         values=["1", "1.5", "3.5", "10"]),
    "pmf.json": _pmf(),
    "nan.csv": "index,value\n0,1\n1,nan\n2,3\n3,4\n",
    "inf.csv": "index,value\n0,1\n1,-inf\n2,3\n3,4\n",
    "nan.json": _doc(backend="decimal", precision_bits=128, values=["1", "nan", "3", "4"]),
    "inf.json": _doc(backend="decimal", precision_bits=128, values=["1", "2", "+inf", "4"]),
    "garbage.json": _doc(backend="decimal", precision_bits=128, values=["1", "x", "3", "4"]),
    "schema.json": _doc(schema_version=2),
    "no-schema.json": _doc(schema_version=...),
    "kind.json": _doc(kind="histogram"),
    "backend.json": _doc(backend="float"),
    "values-object.json": _doc(values={"0": "1"}),
    "values-numbers.json": _doc(values=[1, 2]),
    "values-empty.json": _doc(values=[]),
    "zero-den.json": _doc(values=["1", "1/0", "3", "4"]),
    "mu0.json": _doc(values=["2", "1", "3", "4"]),
    "no-bits.json": _doc(backend="decimal", values=["1", "2.5"]),
    "bits-string.json": _doc(backend="decimal", precision_bits="128", values=["1", "2.5"]),
    "top-list.json": "[1, 2]",
    "empty.csv": "",
    "pmf-error-nan.json": _pmf(entry_error="nan"),
    "pmf-tail-inf.json": _pmf(tail_mass="-inf"),
    "pmf-error-number.json": _pmf(entry_error=1e-30),
    "pmf-error-null.json": _pmf(entry_error=None),
    "pmf-exact-zero.json": _doc(kind="pmf", values=["0", "0", "1"]),
    "pmf-exact-negative.json": _doc(kind="pmf", values=["-1", "1"]),
    "pmf-one-mass.json": _pmf(values=["0.5"], tail_mass="0.5"),
    "pmf-exact-one-mass.json": _doc(kind="pmf", values=["1"]),
    "bits-low.json": _doc(backend="decimal", precision_bits=63, values=["1", "2.5"]),
    "bits-huge.json": _doc(backend="decimal", precision_bits=10 ** 8,
                           values=["1", "1.5", "3.5", "10"]),
    "pmf-bits-huge.json": _pmf(precision_bits=2 ** 16 + 1),
    "decimal.csv": "index,value\n0,1\n1,1.5\n2,3.5\n3,10\n",
}

SIM = ["--a", "0.5", "--b", "2", "--n", "2", "--trials", "50", "--seed", "1"]

MALFORMED = [
    # non-finite entries: a certificate on nan once exited 0
    ["analyze", "{d}/nan.csv", "--stieltjes-depth", "1", "--tolerance", "1e-10"],
    ["analyze", "{d}/inf.csv", "--tolerance", "1e-10"],
    ["analyze", "{d}/nan.json", "--tolerance", "1e-10"],
    ["analyze", "{d}/inf.json", "--tolerance", "1e-10"],
    ["katti", "{d}/pmf-error-nan.json"],
    ["katti", "{d}/pmf-tail-inf.json"],
    # bad fields and wrong kinds
    *[["analyze", "{d}/" + name] for name in (
        "garbage.json", "schema.json", "no-schema.json", "kind.json", "backend.json",
        "values-object.json", "values-numbers.json", "values-empty.json", "zero-den.json",
        "mu0.json", "no-bits.json", "bits-string.json", "top-list.json", "empty.csv",
        "missing.json", "pmf.json")],
    ["analyze", "{d}"],
    ["katti", "{d}/lattice.json"],
    ["katti", "{d}/pmf-error-number.json"],
    ["katti", "{d}/pmf-error-null.json"],
    ["katti", "{d}/pmf-exact-zero.json"],
    ["katti", "{d}/pmf-exact-negative.json"],
    ["katti", "{d}/pmf-one-mass.json"],
    ["katti", "{d}/pmf-exact-one-mass.json"],
    ["katti", "{d}/zero-den.json"],
    ["compose", "{d}/pmf.json", "--op", "classical"],
    ["compose", "{d}/schema.json", "--op", "classical"],
    ["compose", "{d}/decimal.json", "--op", "mb", "--symbolic"],
    # zero denominators
    ["analyze", "{d}/lattice.json", "--tolerance", "1/0"],
    ["compose", "{d}/lattice.json", "--op", "mb", "--t", "1/0"],
    ["moments", "lattice", "--q", "1/0"],
    ["scan", "--theta-grid", "1/0"],
    ["scan", "--delta", "1/0"],  # no such option: exit 2 as well
    # negative sizes and depths
    ["analyze", "{d}/lattice.json", "--indeterminacy", "-1"],
    ["analyze", "{d}/lattice.json", "--mu1-threshold", "-2"],
    ["analyze", "{d}/lattice.json", "--indeterminacy", "1", "--mu1-threshold", "-2"],
    ["analyze", "{d}/lattice.json", "--stieltjes-depth", "-1"],
    ["analyze", "{d}/lattice.json", "--fekete", "-1"],
    ["katti", "{d}/pmf.json", "--kmax", "-1"],
    ["compose", "{d}/lattice.json", "--op", "classical", "--upto", "-1"],
    ["compose", "{d}/lattice.json", "--op", "mb", "--k", "2", "--upto", "-3"],
    ["moments", "lattice", "--q", "2", "--upto", "-1"],
    ["moments", "lognormal", "--upto", "-1"],
    ["moments", "gap", "--a", "0.5", "--b", "2", "--upto", "-1"],
    ["moments", "leipnik", "--upto", "-1"],
    ["moments", "mixed-poisson", "--logb", "-1", "--N", "5", "--kmax", "-1"],
    ["scan", "--depth", "-1"],
    ["simulate", "spectrum", "--atoms", "1:1", "--a", "0.5", "--b", "2", "--n", "-1",
     "--trials", "50", "--seed", "1"],
    ["simulate", "spectrum", "--atoms", "1:1", "--a", "0.5", "--b", "2", "--n", "2",
     "--trials", "-1", "--seed", "1"],
    # windows and values out of range
    ["analyze", "{d}/lattice.json", "--fekete", "9"],
    ["analyze", "{d}/lattice.json", "--stieltjes-depth", "9"],
    ["analyze", "{d}/lattice.json", "--tolerance", "-1"],
    ["analyze", "{d}/lattice.json", "--tolerance", "abc"],
    ["compose", "{d}/lattice.json", "--op", "classical", "--upto", "99"],
    ["compose", "{d}/lattice.json", "--op", "boolean", "--t", "-1/2"],
    ["compose", "{d}/lattice.json", "--op", "boolean"],
    ["compose", "{d}/lattice.json", "--op", "mb"],
    ["moments", "lattice", "--q", "1"],
    ["moments", "lattice", "--q", "2", "--r", "0"],
    ["moments", "lognormal", "--sigma2", "-1"],
    ["moments", "lognormal", "--sigma2", "nan"],
    ["moments", "lognormal", "--alpha", "inf"],
    ["moments", "lognormal", "--precision", "10"],
    ["moments", "lognormal", "--abs-tol", "abc"],
    ["moments", "lognormal", "--abs-tol", "nan"],
    ["moments", "lognormal", "--abs-tol=nan"],
    ["moments", "lognormal", "--abs-tol=-1"],
    ["moments", "mixed-poisson", "--logb", "-1", "--N", "5", "--abs-tol=inf"],
    ["moments", "truncated", "--logb", "inf"],
    ["moments", "gap", "--a", "2", "--b", "1"],
    ["moments", "leipnik", "--sigma2", "0"],
    ["moments", "mixed-poisson", "--logb", "-1", "--N", "0"],
    ["moments", "lattice", "--q", "2", "-o", "{d}/no-such-dir/out.json"],
    # options that no run reads are not accepted
    ["moments", "lattice", "--q", "2", "--precision", "5"],
    ["moments", "lattice", "--q", "2", "--abs-tol", "banana"],
    ["moments", "mixed-poisson", "--logb", "-1", "--N", "5", "--upto", "99"],
    ["moments", "mixed-poisson", "--logb", "-1", "--N", "5", "--csv"],
    ["katti", "{d}/pmf.json", "--precision", "128"],
    *[["compose", "{d}/lattice.json", "--op", "classical", *opt]
      for opt in (["--t", "1/2"], ["--k", "2"], ["--symbolic"])],
    ["compose", "{d}/lattice.json", "--op", "boolean", "--t", "1/2", "--symbolic"],
    ["compose", "{d}/lattice.json", "--op", "boolean", "--t", "1/2", "--k", "2"],
    *[["compose", "{d}/lattice.json", "--op", "mb", *opt]
      for opt in (["--t", "1/2", "--k", "2"], ["--k", "2", "--symbolic"],
                  ["--t", "1/2", "--symbolic"])],
    ["analyze", "{d}/lattice.json", "--fekete-shift", "1"],
    # working precisions outside 64 .. 2^16 bits, from a file or an option:
    # 10^8 bits once kept analyze busy past any timeout
    ["analyze", "{d}/bits-huge.json", "--tolerance", "1e-10"],
    ["analyze", "{d}/bits-low.json", "--tolerance", "1e-10"],
    ["katti", "{d}/pmf-bits-huge.json"],
    ["analyze", "{d}/decimal.csv", "--tolerance", "1e-10", "--precision", "100000000"],
    ["analyze", "{d}/decimal.csv", "--tolerance", "1e-10", "--precision", "63"],
    ["compose", "{d}/decimal.csv", "--op", "classical", "--precision", "65537"],
    ["katti", "{d}/decimal.csv", "--precision", "100000000"],
    ["moments", "lognormal", "--precision", "100000000"],
    ["moments", "mixed-poisson", "--logb", "-1", "--N", "5", "--precision", "65537"],
    ["scan", "--theta-grid", "2"],
    ["scan", "--theta-grid", "1/3"],
    ["scan", "--theta-grid", ""],
    ["scan", "--t-grid", "0"],
    ["scan", "--t-grid", "-1/2"],
    ["scan", "--t-grid", ","],
    ["simulate", "spectrum", *SIM],
    ["simulate", "spectrum", "--atoms", "1:1", "--poisson-jumps", "1", *SIM],
    ["simulate", "spectrum", "--lognormal-jumps", "x:y", *SIM],
    ["simulate", "spectrum", "--lognormal-jumps", "0:nan", *SIM],
    ["simulate", "spectrum", "--atoms", "1:-1", *SIM],
    ["simulate", "spectrum", "--atoms", "nan:1", *SIM],
    ["simulate", "spectrum", "--poisson-jumps", "-1", *SIM],
    ["simulate", "spectrum", "--atoms", "1:1", "--rate", "nan", *SIM],
    ["simulate", "spectrum", "--atoms", "1:1", "--epsilon", "nan", *SIM],
    ["simulate", "spectrum", "--atoms", "1:1", "--level", "2", *SIM],
    ["simulate", "spectrum", "--atoms", "1:1", "--a", "2", "--b", "1", "--n", "2",
     "--trials", "50", "--seed", "1"],
    ["simulate", "epsilon", "--atoms", "1:1", "--eps-grid", "", "--trials", "50", "--seed", "1"],
    ["simulate", "epsilon", "--atoms", "1:1", "--eps-grid", "nan", "--trials", "50",
     "--seed", "1"],
    ["simulate", "epsilon", "--atoms", "1:1", "--eps-grid", "0.1", "--eta", "-1",
     "--trials", "50", "--seed", "1"],
    # non-finite parameters: these once printed the non-JSON token Infinity
    # or ended in numpy's own messages
    ["moments", "gap", "--a", "0.5", "--b", "inf"],
    ["moments", "gap", "--a", "nan", "--b", "2"],
    ["simulate", "spectrum", "--atoms", "1:1", "--a", "0.5", "--b", "inf", "--n", "2",
     "--trials", "50", "--seed", "1"],
    ["simulate", "spectrum", "--atoms", "1:1", "--censor-gap", "1", "inf", *SIM],
    ["simulate", "epsilon", "--atoms", "1:1", "--eps-grid", "0.1", "--eta", "inf",
     "--trials", "50", "--seed", "1"],
    *[["simulate", "spectrum", "--atoms", "1:1", "--t", t, *SIM] for t in ("-1", "nan", "inf")],
    *[["simulate", "epsilon", "--atoms", "1:1", "--eps-grid", "0.1", "--t", t,
       "--trials", "50", "--seed", "1"] for t in ("-1", "nan", "inf")],
    # rate * t past numpy's Poisson limit, refused before any sampling
    *[["simulate", "spectrum", "--atoms", "1:1", option, "1e300", *SIM]
      for option in ("--t", "--rate")],
    *[["simulate", "epsilon", "--atoms", "1:1", "--eps-grid", "0.1", option, "1e300",
       "--trials", "50", "--seed", "1"] for option in ("--t", "--rate")],
]


@pytest.fixture(scope="module")
def bad_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("malformed")
    for name, text in BAD_FILES.items():
        (d / name).write_text(text, encoding="utf-8")
    return d


@pytest.mark.parametrize("argv", MALFORMED, ids=lambda argv: " ".join(argv))
def test_malformed_input_exits_2_or_3(argv, bad_dir, capsys):
    """Every malformed input ends in exit 2 (input error) or 3 (numerical
    failure) with a message, never in a traceback or a report."""
    try:
        code = main([a.format(d=bad_dir) for a in argv])
    except SystemExit as exc:  # argparse refusing an option value
        code = exc.code
    captured = capsys.readouterr()
    assert code in (2, 3)
    assert captured.out == ""
    assert "error" in captured.err or "numerical failure" in captured.err
    assert "Traceback" not in captured.err


def test_allocation_past_any_address_space_exits_2(capsys):
    """10^15 trials ask numpy for 7 PiB at once, which it refuses before
    touching memory: exit 2 with one line, never a MemoryError traceback."""
    assert main(["simulate", "spectrum", "--a", "0.5", "--b", "1", "--n", "2", "--atoms", "1",
                 "--trials", str(10 ** 15), "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_an_error_without_a_message_is_named(monkeypatch, capsys):
    """MemoryError() has an empty message; stderr names its class rather
    than end at a bare "error: "."""
    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_scan", out_of_memory)
    assert main(["scan", "--depth", "3000", "--theta-grid", "1/9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: MemoryError\n"


# argv whose parse ends in argparse's help or its error, at every level
PARSER_EXITS = [
    *[[*path, "--help"] for path in ([], *[[c] for c in cli.COMMANDS],
                                     *[["moments", s] for s in cli.SOURCES],
                                     *[["simulate", m] for m in cli.MODES])],
    [], ["bogus"], ["-x", "scan"], ["--", "scan"], ["scan", "extra"], ["scan", "--bogus"],
    ["moments"], ["moments", "bogus"], ["moments", "--upto", "3", "lognormal"],
    ["moments", "lognormal", "extra"], ["moments", "lattice"], ["simulate"],
    ["simulate", "spectrum"], ["simulate", "epsilon", "--help", "extra"], ["compose"],
    ["compose", "f.json"], ["compose", "f.json", "--op", "free"], ["analyze", "-h", "scan"],
]


@pytest.mark.parametrize("argv", PARSER_EXITS + MALFORMED, ids=lambda argv: " ".join(argv))
def test_per_path_parser_reads_as_the_full_one(argv, bad_dir, capsys, monkeypatch):
    """main builds only the subparsers that argv names; its help, its
    errors and every run's stderr and exit code are those of the full tree."""
    argv = [a.format(d=bad_dir) for a in argv]

    def outcome():
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    per_path = outcome()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: full())
    assert outcome() == per_path


def test_per_path_parser_holds_only_the_named_path():
    parser = build_parser(["moments", "gap", "--a", "1"])
    with pytest.raises(SystemExit):
        parser.parse_args(["scan"])
    with pytest.raises(SystemExit):
        parser.parse_args(["moments", "lattice", "--q", "2"])
    assert parser.parse_args(["moments", "gap", "--a", "1", "--b", "2"]).b == 2.0
    assert build_parser().parse_args(["scan"]).depth == 5


def test_reports_are_strict_about_types():
    """jsonable converts the types reports hold and refuses any other, as
    doc_to_json refuses nan, rather than print its str()."""
    assert seqfile.jsonable({"a": (F(1, 3), 2.5, None, True)}) == {"a": ["1/3", 2.5, None, True]}
    for value in (object(), {1, 2}, np.int64(3), np.bool_(True), 1j):
        with pytest.raises(TypeError, match="no JSON form"):
            seqfile.jsonable({"a": [value]})


class TestNonFiniteEntries:
    """nan and inf are refused when a file is read, from CSV and JSON alike."""

    def test_csv(self, bad_dir, capsys):
        for name in ("nan.csv", "inf.csv"):
            with open(bad_dir / name, encoding="utf-8") as fh, \
                    pytest.raises(SequenceFileError, match="not finite"):
                seqfile.read_csv(fh)
            assert main(["analyze", str(bad_dir / name), "--stieltjes-depth", "1",
                         "--tolerance", "1e-10"]) == 2
            assert "not finite" in capsys.readouterr().err

    def test_json(self, bad_dir, capsys):
        for name in ("nan.json", "inf.json", "pmf-error-nan.json", "pmf-tail-inf.json"):
            with pytest.raises(SequenceFileError, match="not finite"):
                seqfile.load_json(str(bad_dir / name))
        assert seqfile.load_json(str(bad_dir / "pmf.json")).tail_mass == mpf("0.125")


class TestParameterMessages:
    """A refused parameter is named in the message; t = 0 is not refused."""

    @pytest.mark.parametrize("argv, message", [
        (["moments", "gap", "--a", "0.5", "--b", "inf"], "b must be finite"),
        (["simulate", "spectrum", "--atoms", "1:1", *SIM, "--b", "inf"], "b must be finite"),
        (["simulate", "spectrum", "--atoms", "1:1", *SIM, "--t", "nan"],
         "t must be >= 0 and finite"),
        (["simulate", "epsilon", "--atoms", "1:1", "--eps-grid", "0.1", "--t", "-1",
          "--trials", "50", "--seed", "1"], "t must be >= 0 and finite"),
        (["simulate", "epsilon", "--atoms", "1:1", "--eps-grid", "0.1", "--eta", "inf",
          "--trials", "50", "--seed", "1"], "eta must be positive and finite"),
        (["scan", "--depth", "-1"], "depth must be >= 0"),
        (["simulate", "spectrum", "--atoms", "1:1", *SIM, "--t", "1e300"],
         "rate * t must be finite and at most 9.223e+18, got 1e+300"),
        (["simulate", "epsilon", "--atoms", "1:1", "--eps-grid", "0.1", "--rate", "1e300",
          "--trials", "50", "--seed", "1"],
         "rate * t must be finite and at most 9.223e+18, got 1e+300"),
        (["compose", "{d}/lattice.json", "--op", "boolean", "--t", "1/2", "--k", "2"],
         "--op boolean takes one of --t, --k, got --t, --k"),
        (["analyze", "{d}/lattice.json", "--fekete-shift", "0"], "--fekete-shift needs --fekete"),
        *[(["moments", *source, f"--abs-tol={tol}"],
           f"abs_tol must be finite and non-negative, got {tol}")
          for source, tol in ((["lognormal"], "nan"), (["lognormal"], "-1"),
                              (["mixed-poisson", "--logb", "-1", "--N", "5"], "inf"))],
        (["katti", "{d}/pmf-one-mass.json"], "katti needs masses p_0 and p_1, got p_0 only"),
        (["katti", "{d}/pmf-exact-one-mass.json", "--kmax", "0"],
         "katti needs masses p_0 and p_1, got p_0 only"),
    ])
    def test_message_names_the_field(self, argv, message, bad_dir, capsys):
        assert main([a.format(d=bad_dir) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_zero_time_is_a_report(self, capsys):
        assert main(["simulate", "spectrum", "--atoms", "1:1", *SIM, "--t", "0"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["t"] == 0 and report["count_ab"] == 0


def fresh_python(*args, cwd=None, buffered=False, check=True, **popen):
    """Run a new interpreter that finds this checkout's momentlab first.
    buffered drops PYTHONUNBUFFERED, so its stdout is block-buffered as in
    a plain shell; popen (stdout, preexec_fn, ...) goes to subprocess.run,
    which by default captures both streams."""
    env = fresh_env()
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    popen = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **popen}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, text=True,
                          timeout=120, check=check, **popen)


CLI = ("-m", "momentlab.cli")
SMALL_LATTICE = ("moments", "lattice", "--q", "2", "--upto", "4")


class TestProcessEntry:
    """A `python -m momentlab.cli` process ends in cli.run(): main(), a
    flush of both streams, then os._exit, with no interpreter teardown.
    The processes run with stdout block-buffered, as in a plain shell, so
    the flush has the report to write."""

    def test_run_exits_with_mains_code(self, monkeypatch, capsys):
        exits = []
        monkeypatch.setattr(cli.os, "_exit", exits.append)
        for argv, code in ((SMALL_LATTICE, 0), (("moments", "lattice", "--q", "-1"), 2)):
            monkeypatch.setattr(sys, "argv", ["momentlab", *argv])
            cli.run()
            assert exits.pop() == code
        assert capsys.readouterr().out.startswith("{")

    def test_failed_flush_leaves_the_exit_to_the_interpreter(self, monkeypatch):
        class Full(io.StringIO):
            def flush(self):
                raise OSError(28, "No space left on device")
        monkeypatch.setattr(cli.os, "_exit", lambda code: pytest.fail("os._exit reached"))
        monkeypatch.setattr(sys, "argv", ["momentlab", *SMALL_LATTICE])
        monkeypatch.setattr(sys, "stdout", Full())
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 0

    def test_output_past_a_pipe_buffer_is_whole(self, capsys):
        argv = ["moments", "lattice", "--q", "2", "--r", str(10 ** 40), "--upto", "66"]
        assert main(argv) == 0
        expect = capsys.readouterr().out
        assert len(expect) > 100_000
        out = fresh_python(*CLI, *argv, buffered=True)
        assert out.stdout == expect and out.stderr == ""

    def test_closed_stdout_with_an_output_file(self, tmp_path):
        path = tmp_path / "m.json"
        out = fresh_python(*CLI, *SMALL_LATTICE, "-o", str(path), buffered=True,
                           preexec_fn=lambda: os.close(1))
        assert out.returncode == 0 and out.stderr == ""
        assert seqfile.load_json(str(path)).values == tuple(2 ** (n * n) for n in range(5))

    @pytest.mark.parametrize("unbuffered", (None, "1"))
    def test_closed_pipe_exits_141_quietly(self, unbuffered):
        """A reader that stops after 100 bytes of a ~117 kB report, more than
        a 64 kB pipe holds, closes the pipe under a pending write: with
        stdout block-buffered or not, the process ends as SIGPIPE would,
        with 141 and nothing on stderr."""
        env = fresh_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        argv = ["moments", "lattice", "--q", "2", "--r", str(10 ** 40), "--upto", "66"]
        with subprocess.Popen([sys.executable, *CLI, *argv], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(100).startswith(b"{")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 141
        assert err == b""

    def test_closed_stdout_without_an_output_file(self):
        """With fd 1 closed sys.stdout is None: a report meant for it is an
        input error, exit 2 with one line, not a traceback."""
        out = fresh_python(*CLI, *SMALL_LATTICE, buffered=True, check=False,
                           preexec_fn=lambda: os.close(1))
        assert out.returncode == 2
        assert out.stderr.splitlines() == ["error: standard output is closed"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_is_reported_by_the_interpreter(self):
        with open("/dev/full", "w") as full:
            out = fresh_python(*CLI, *SMALL_LATTICE, buffered=True, check=False, stdout=full)
        assert out.returncode == 120
        assert "Exception ignored in: <_io.TextIOWrapper name='<stdout>'" in out.stderr
        assert "No space left on device" in out.stderr

    def test_usage_error_exits_2(self):
        out = fresh_python(*CLI, "moments", "lattice", "--upto", "4", buffered=True, check=False)
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.startswith("usage: momentlab moments lattice")
        assert "the following arguments are required: --q" in out.stderr

    def test_numerical_failure_exits_3(self):
        out = fresh_python(*CLI, "moments", "truncated", "--logb", "-1", "--upto", "10",
                           buffered=True, check=False)
        assert out.returncode == 3 and out.stdout == ""
        assert out.stderr.startswith("numerical failure: rounding bound of entry 10")


def heavy(names):
    return sorted(n for n in names if n.split(".")[0] in ("numpy", "scipy"))


LAYERS = ("momentlab.stieltjes", "momentlab.semigroup", "momentlab.divisibility")

# Runs main on its arguments, writes the loaded module names as the last
# line of stderr and exits with main's exit code.
RUN_AND_LIST = ("import json, sys\nfrom momentlab.cli import main\n"
                "code = main(sys.argv[1:])\n"
                "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
                "raise SystemExit(code)")


def loaded_after(tmp_path, argv):
    """The modules loaded by a successful run of argv in a fresh interpreter."""
    out = fresh_python("-c", RUN_AND_LIST, *argv, cwd=tmp_path)
    return json.loads(out.stderr.splitlines()[-1])


def mpmath_submodules(names):
    """mpmath itself may sit in sys.modules unloaded; a submodule means it ran."""
    return [n for n in names if n.startswith("mpmath.")]


class TestStartup:
    """Each subcommand loads the layers it calls and no other: only
    `simulate` needs numpy, no subcommand loads scipy, and exact input
    never runs mpmath."""

    def test_import_loads_neither_numpy_nor_scipy(self):
        # semigroup alone is what the theta scan imports
        for module in ("momentlab.cli", "momentlab.semigroup"):
            out = fresh_python("-c", f"import sys, {module}; print('\\n'.join(sys.modules))")
            assert module in out.stdout.split()
            assert heavy(out.stdout.split()) == []

    def test_moments_run_loads_neither(self):
        out = fresh_python("-X", "importtime", "-m", "momentlab.cli",
                           "moments", "lattice", "--q", "2", "--upto", "4")
        assert json.loads(out.stdout)["values"] == [str(2 ** (n * n)) for n in range(5)]
        # each importtime line ends in "| <module>"
        loaded = [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()
                  if line.startswith("import time:")]
        assert "momentlab.distributions" in loaded
        assert heavy(loaded) == []

    def test_import_loads_no_layer_and_no_mpmath(self):
        out = fresh_python("-c", "import sys, momentlab.cli; print('\\n'.join(sys.modules))")
        names = out.stdout.split()
        assert [n for n in names if n in LAYERS] == []
        assert mpmath_submodules(names) == []
        # the quadrature imports mpmath's libmp only when a pmf is computed
        out = fresh_python("-c", "import sys, momentlab.distributions; "
                                 "print('\\n'.join(sys.modules))")
        assert mpmath_submodules(out.stdout.split()) == []

    def test_exact_input_never_runs_mpmath(self, tmp_path):
        lattice_file(tmp_path)
        seqfile.dump_json(pmf_from_rates([1, F(-1, 2)], 6), str(tmp_path / "pmf.json"))
        for argv in (["moments", "lattice", "--q", "3", "--upto", "5"],
                     ["katti", "pmf.json", "--logconvex"],
                     ["katti", "pmf.json", "--table"],
                     ["compose", "lattice.json", "--op", "classical"],
                     ["compose", "lattice.json", "--op", "boolean", "--t", "1/3"],
                     ["compose", "lattice.json", "--op", "mb", "--t", "1/3"],
                     ["compose", "lattice.json", "--op", "mb", "--symbolic"],
                     ["analyze", "lattice.json", "--indeterminacy", "2", "--logconvex"],
                     ["scan", "--depth", "3"]):
            names = loaded_after(tmp_path, argv)
            assert mpmath_submodules(names) == [], argv
            if argv[0] in ("moments", "compose"):
                assert [n for n in names if n in LAYERS] == [], argv

    def test_decimal_and_simulate_load_no_other_layer(self, tmp_path):
        lognormal_file(tmp_path)
        for argv in (["moments", "lognormal", "--upto", "4"],
                     ["compose", "lognormal.json", "--op", "boolean", "--k", "2"]):
            names = loaded_after(tmp_path, argv)
            assert [n for n in names if n in LAYERS] == [], argv
            assert mpmath_submodules(names) != [], argv
        # neither simulation runs mpmath: the Clopper-Pearson solve of
        # `simulate spectrum` runs on the decimal module
        sim = ["--lognormal-jumps", "0:1", "--trials", "2000", "--seed", "3"]
        for argv in (["simulate", "epsilon", "--eps-grid", "0.1", *sim],
                     ["simulate", "spectrum", "--a", "0.5", "--b", "1", "--n", "2", *sim]):
            names = loaded_after(tmp_path, argv)
            assert [n for n in names if n in LAYERS] == [], argv
            assert mpmath_submodules(names) == [], argv

    def test_no_run_loads_dataclasses(self, tmp_path):
        """Records derive from moment_algebra.Record, so no start-up pays for
        the dataclass module and the inspect and ast it loads. simulate is
        left out, since numpy itself imports inspect."""
        out = fresh_python("-c", "import sys, momentlab.cli; print('\\n'.join(sys.modules))")
        assert "dataclasses" not in out.stdout.split()
        lattice_file(tmp_path)
        lognormal_file(tmp_path)
        for argv in (["moments", "lattice", "--q", "2", "--upto", "4"],
                     ["moments", "lognormal", "--upto", "4"],
                     ["analyze", "lattice.json", "--indeterminacy", "2", "--logconvex",
                      "--fekete", "2"],
                     ["analyze", "lognormal.json", "--tolerance", "1e-20", "--logconvex"],
                     ["moments", "mixed-poisson", "--logb", "-1", "--N", "5", "--kmax", "6",
                      "-o", "pmf.json"],
                     ["katti", "pmf.json", "--logconvex"],
                     ["compose", "lattice.json", "--op", "mb", "--symbolic"],
                     ["scan", "--depth", "3"]):
            assert "dataclasses" not in loaded_after(tmp_path, argv), argv

    def test_katti_loads_divisibility_and_no_other_layer(self, tmp_path):
        assert main(["moments", "mixed-poisson", "--logb", "-1", "--N", "5", "--kmax", "6",
                     "-o", str(tmp_path / "pmf.json")]) == 0
        names = loaded_after(tmp_path, ["katti", "pmf.json", "--logconvex"])
        assert [n for n in names if n in LAYERS] == ["momentlab.divisibility"]

    def test_mpmath_loads_on_first_decimal_value_in_one_process(self, tmp_path):
        """An exact run, then two decimal ones, in one interpreter: mpmath
        is loaded by the second, divisibility's `from mpmath import iv`
        then reads it through the lazy binding, and every run prints what
        it prints in a process of its own."""
        lattice_file(tmp_path)
        lognormal_file(tmp_path)
        assert main(["moments", "mixed-poisson", "--logb", "-1", "--N", "5", "--kmax", "6",
                     "-o", str(tmp_path / "pmf.json")]) == 0
        runs = [["compose", "lattice.json", "--op", "mb", "--t", "1/3"],
                ["analyze", "lognormal.json", "--tolerance", "1e-20"],
                ["katti", "pmf.json", "--logconvex"]]
        script = ("import contextlib, io, json, sys\nfrom momentlab.cli import main\n"
                  "out = []\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    buf = io.StringIO()\n"
                  "    with contextlib.redirect_stdout(buf):\n"
                  "        code = main(argv)\n"
                  "    out.append([code, buf.getvalue(), 'mpmath.libmp' in sys.modules])\n"
                  "print(json.dumps(out))")
        together = json.loads(fresh_python("-c", script, json.dumps(runs), cwd=tmp_path).stdout)
        assert [loaded for _, _, loaded in together] == [False, True, True]
        for argv, (code, stdout, _) in zip(runs, together):
            alone = fresh_python("-m", "momentlab.cli", *argv, cwd=tmp_path)
            assert code == 0
            assert stdout == alone.stdout
        assert json.loads(together[2][1])["backend"] == "decimal"

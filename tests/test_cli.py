"""The command line front end, run through main(argv) in process, and its
start-up in a fresh interpreter."""
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

import momentlab
from momentlab import distributions as dist
from momentlab import seqfile, stieltjes
from momentlab.cli import main
from momentlab.exceptions import SequenceFileError
from momentlab.moment_algebra import classical_convolve

import brute_force

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

    def test_rounding_bound_above_the_recorded_tolerance_exits_3(self, capsys):
        # mu_12 = e^72 and the conditional mu_6 behind a cut at log b = 8
        # round by more than the default 1e-20 at 128 bits
        for source in (["lognormal", "--upto", "12"],
                       ["truncated", "--logb", "8", "--upto", "6", "--conditional"]):
            assert main(["moments", *source]) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and "rounding bound" in captured.err
        assert main(["moments", "truncated", "--logb", "8", "--upto", "6"]) == 0


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

    def test_indeterminacy_runs_each_shift_once(self, tmp_path, capsys, monkeypatch):
        # the mu1_threshold block reuses the shift-1 ratios of the
        # indeterminacy block, so shifts 1 and 3 are not passed over again
        path = lattice_file(tmp_path, upto=10)
        capsys.readouterr()
        shifts = []
        minors = stieltjes._hankel_minors

        def recording(vals, scaled, shift, size):
            shifts.append(shift)
            return minors(vals, scaled, shift, size)

        monkeypatch.setattr(stieltjes, "_hankel_minors", recording)
        assert main(["analyze", str(path), "--indeterminacy", "4"]) == 0
        assert sorted(shifts) == [0, 1, 2, 3]
        rep = json.loads(capsys.readouterr().out)
        m = seqfile.load_json(str(path))
        assert rep["mu1_threshold"]["values"] == [
            str(v) for v in stieltjes.mu1_threshold_sequence(m, 4).values]

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


def fresh_python(*args):
    """Run a new interpreter that finds this checkout's momentlab first."""
    src = os.path.dirname(os.path.dirname(momentlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)


def heavy(names):
    return sorted(n for n in names if n.split(".")[0] in ("numpy", "scipy"))


class TestStartup:
    """Only `simulate` needs numpy; no subcommand loads scipy."""

    def test_import_loads_neither_numpy_nor_scipy(self):
        out = fresh_python("-c", "import sys, momentlab.cli; print('\\n'.join(sys.modules))")
        assert "momentlab.cli" in out.stdout.split()
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

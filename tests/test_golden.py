"""Golden output per subcommand: each case runs `python -m momentlab.cli` in a
fresh interpreter and must reproduce, byte for byte, the stored standard
output, the `-o` file and the exit code under tests/golden/.

A case that reads a file gets it from another case's stored output, so every
case runs on its own. To rewrite the goldens from the checkout on
PYTHONPATH (only after a change that is meant to alter output), run

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

which rewrites the named cases and their exit codes only, or every case
when no name is given.
"""
import difflib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import fresh_env

GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

SIM = ["--lognormal-jumps", "0:1", "--rate", "1.5", "--trials", "300", "--seed", "7"]

# name -> (argv, {input file: stored output it is copied from})
CASES = {
    "moments-lognormal": (["moments", "lognormal", "--upto", "6", "-o", "lognormal.json"], {}),
    "moments-lognormal-csv": (["moments", "lognormal", "--sigma2", "0.5", "--upto", "4",
                               "--precision", "96", "--csv"], {}),
    "moments-lattice": (["moments", "lattice", "--q", "2", "--r", "3/2", "--upto", "8",
                         "-o", "lattice.json"], {}),
    "moments-lattice-csv": (["moments", "lattice", "--q", "3", "--upto", "6", "--csv"], {}),
    "moments-truncated": (["moments", "truncated", "--logb", "-1", "--upto", "6",
                           "-o", "truncated.json"], {}),
    "moments-truncated-conditional": (["moments", "truncated", "--logb", "0.5", "--upto", "5",
                                       "--conditional"], {}),
    "moments-gap": (["moments", "gap", "--a", "0.5", "--b", "2", "--upto", "6",
                     "-o", "gap.json"], {}),
    "moments-leipnik": (["moments", "leipnik", "--sigma2", "0.8", "--upto", "6"], {}),
    "moments-mixed-poisson": (["moments", "mixed-poisson", "--logb", "-1", "--N", "5",
                               "--kmax", "8", "-o", "pmf.json"], {}),
    "analyze-exact": (["analyze", "lattice.json", "--stieltjes-depth", "3",
                       "--indeterminacy", "3", "--fekete", "3", "--logconvex"],
                      {"lattice.json": "moments-lattice.output"}),
    "analyze-exact-default": (["analyze", "lattice.json", "--mu1-threshold", "3"],
                              {"lattice.json": "moments-lattice.output"}),
    "analyze-exact-csv": (["analyze", "lattice.csv"],
                          {"lattice.csv": "moments-lattice-csv.stdout"}),
    "analyze-decimal": (["analyze", "lognormal.json", "--stieltjes-depth", "2",
                         "--mu1-threshold", "2", "--logconvex", "--tolerance", "1e-20"],
                        {"lognormal.json": "moments-lognormal.output"}),
    "analyze-decimal-fekete": (["analyze", "gap.json", "--fekete", "2",
                                "--tolerance", "1e-20"],
                               {"gap.json": "moments-gap.output"}),
    "analyze-decimal-no-tolerance": (["analyze", "lognormal.json"],
                                     {"lognormal.json": "moments-lognormal.output"}),
    "katti-logconvex": (["katti", "pmf.json", "--logconvex"],
                        {"pmf.json": "moments-mixed-poisson.output"}),
    "compose-classical": (["compose", "lattice.json", "--op", "classical",
                           "-o", "classical.json"],
                          {"lattice.json": "moments-lattice.output"}),
    "compose-classical-decimal": (["compose", "truncated.json", "--op", "classical"],
                                  {"truncated.json": "moments-truncated.output"}),
    "compose-boolean": (["compose", "lattice.json", "--op", "boolean", "--t", "1/3",
                         "--csv"], {"lattice.json": "moments-lattice.output"}),
    "compose-boolean-decimal": (["compose", "lognormal.json", "--op", "boolean", "--t", "1/3"],
                                {"lognormal.json": "moments-lognormal.output"}),
    "compose-mb-t": (["compose", "lattice.json", "--op", "mb", "--t", "2/5", "--upto", "6",
                      "-o", "mb.json"], {"lattice.json": "moments-lattice.output"}),
    "compose-mb-k": (["compose", "lattice.json", "--op", "mb", "--k", "2"],
                     {"lattice.json": "moments-lattice.output"}),
    "compose-mb-k-decimal": (["compose", "truncated.json", "--op", "mb", "--k", "3"],
                             {"truncated.json": "moments-truncated.output"}),
    "compose-mb-symbolic": (["compose", "lattice.json", "--op", "mb", "--symbolic",
                             "--upto", "5"], {"lattice.json": "moments-lattice.output"}),
    "scan": (["scan"], {}),
    "scan-depth-8": (["scan", "--depth", "8", "--theta-grid", "1/4,1/9,1/25",
                      "--t-grid", "1/3,2/3"], {}),
    "simulate-spectrum": (["simulate", "spectrum", "--a", "0.5", "--b", "2", "--n", "2",
                           "--censor-gap", "0.9", "1.2", *SIM], {}),
    "simulate-epsilon": (["simulate", "epsilon", "--eps-grid", "0.05,0.1,0.2", *SIM], {}),
    # drift rows on the spec's own cut law: the rows at or below 0.5 read 0
    "simulate-epsilon-cut": (["simulate", "epsilon", "--eps-grid", "0.2,0.6,1.0",
                              "--epsilon", "0.5", *SIM], {}),
    # the benchmark's pmf, and a Clopper-Pearson solve on a long continued fraction
    "moments-mixed-poisson-kmax-12": (["moments", "mixed-poisson", "--alpha", "0",
                                       "--sigma2", "1", "--logb", "-1", "--N", "5",
                                       "--kmax", "12"], {}),
    "simulate-spectrum-100k": (["simulate", "spectrum", "--a", "0.5", "--b", "1.0", "--n", "2",
                                "--censor-gap", "0.9", "1.2", "--lognormal-jumps", "0:1",
                                "--rate", "1.0", "--trials", "100000", "--seed", "19"], {}),
    # the default grid at a depth where the exact minors run on integers of thousands of bits
    "scan-depth-20": (["scan", "--depth", "20"], {}),
    # a q that is not an integer: the lattice family's integer scale c is b^upto, not 1
    "moments-lattice-rational-q": (["moments", "lattice", "--q", "7/3", "--r", "2/5",
                                    "--upto", "8"], {}),
    "scan-rational-q": (["scan", "--theta-grid", "9/49,4/9", "--t-grid", "1/3,3/4",
                         "--depth", "6"], {}),
    # the t-power polynomials at a scale c > 1: every coefficient a reduced Fraction
    "compose-mb-symbolic-rational-q": (["compose", "lattice.json", "--op", "mb", "--symbolic"],
                                       {"lattice.json": "moments-lattice-rational-q.stdout"}),
    # the default grid where the t-powers' integers run to tens of thousands of bits
    "scan-depth-60": (["scan", "--depth", "60"], {}),
    # made by the exact path; the float certificate must reach the same verdicts at this depth
    "scan-depth-100": (["scan", "--depth", "100"], {}),
    # rows whose cumulant ratios take the exact path (q = 11/10, 9/8), a t whose
    # float is 0 and a t whose float is 1.0
    "scan-close-to-one": (["scan", "--theta-grid", "100/121,64/81,1/4", "--t-grid",
                           "1e-400,1/3,99999999999999999999/100000000000000000000",
                           "--depth", "8"], {}),
    # rows with q above 2.53, proved at every depth from q alone; made by the
    # float certificate before that proof
    "scan-closed-form-depth-300": (["scan", "--theta-grid", "1/9,1/25,1/100",
                                    "--depth", "300"], {}),
    # rows with q from 20/9 to 12/5, below 2.53, proved at every depth from q
    # and six exact cumulant ratios; made by the float certificate before that proof
    "scan-closed-form-band-depth-200": (["scan", "--theta-grid", "81/400,16/81,9/49,25/144",
                                         "--depth", "200"], {}),
    # a row close to 1 (q = 11/10) at a depth where the float cumulant ratios
    # refuse; made by the per-cell exact path before one exact row verdict
    "scan-close-to-one-depth-74": (["scan", "--theta-grid", "100/121", "--t-grid", "1/2",
                                    "--depth", "74"], {}),
}


def run_case(name, workdir):
    """(exit code, stdout bytes, -o file bytes or None) of one case run in
    workdir by a fresh interpreter that finds this momentlab first."""
    argv, inputs = CASES[name]
    for target, source in inputs.items():
        (workdir / target).write_bytes((GOLDEN / source).read_bytes())
    proc = subprocess.run([sys.executable, "-m", "momentlab.cli", *argv], cwd=workdir,
                          env=fresh_env(), capture_output=True, timeout=120)
    output = None
    if "-o" in argv and proc.returncode == 0:
        output = (workdir / argv[argv.index("-o") + 1]).read_bytes()
    return proc.returncode, proc.stdout, output


def unified_diff(expected, actual, label: str) -> str:
    """The unified diff from the stored bytes to the actual ones, None
    standing for a file that is not there."""
    def lines(data):
        return [] if data is None else data.decode("utf-8", "replace").splitlines(keepends=True)
    return "\n" + "".join(difflib.unified_diff(lines(expected), lines(actual),
                                               f"golden/{label}", f"actual/{label}"))


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_golden(name, tmp_path):
    code, stdout, output = run_case(name, tmp_path)
    assert code == json.loads(EXIT_CODES.read_text(encoding="utf-8"))[name]
    expected = (GOLDEN / f"{name}.stdout").read_bytes()
    assert stdout == expected, unified_diff(expected, stdout, f"{name}.stdout")
    stored = GOLDEN / f"{name}.output"
    expected = stored.read_bytes() if stored.exists() else None
    assert output == expected, unified_diff(expected, output, f"{name}.output")


def regenerate(names=()):
    """Rewrite the stored output and exit code of each named case, or of
    every case when none is named; other cases keep theirs."""
    import tempfile

    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"no such case: {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    codes = json.loads(EXIT_CODES.read_text(encoding="utf-8")) if names else {}
    for name in names or CASES:
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, output = run_case(name, Path(tmp))
        codes[name] = code
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)
        if output is not None:
            (GOLDEN / f"{name}.output").write_bytes(output)
    codes = {name: codes[name] for name in CASES if name in codes}
    EXIT_CODES.write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate(sys.argv[1:])

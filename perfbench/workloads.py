"""The benchmark workloads.

Each workload builds its inputs from the seed, names one round of jobs and
checks the outputs of that round against `oracle`. Every round repeats the
same jobs on the same inputs, so a run attempts whole rounds of identical
operations. The seed moves the values; the sizes (depths, lengths, bit
lengths of the rationals, precisions) are fixed by the workload, so that
two seeds cost about the same and a run's medians do not depend on which
seed it drew.

Jobs call momentlab through its module objects (`ml.st.stieltjes_verdict`),
never through names bound at import, so the traced run sees its wrappers.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
from mpmath import mpf

import oracle


@dataclass
class Job:
    label: str
    run: Callable


def _ratio(rng, lo, hi, dens=(11, 13)):
    """A rational in (lo, hi] whose denominator is one of `dens`. The
    denominators are prime, so the fraction never reduces and its bit length
    does not depend on the draw."""
    den = rng.choice(dens)
    return Fraction(rng.randint(int(lo * den) + 1, int(hi * den)), den)


def _cold_quadrature():
    """Drop mpmath's tanh-sinh node caches, so each job computes its nodes
    the way a fresh process does."""
    mpmath.mp._tanh_sinh.clear()


class Workload:
    name = ""
    modules = ()  # the momentlab modules its jobs and checks call

    def __init__(self, ml, seed: int, workdir: str):
        self.ml = ml
        self.rng = random.Random(seed)
        self.workdir = workdir

    def warm_up(self):
        """First-call costs (lru caches, mpmath constants) paid in set-up."""

    def before_job(self):
        """Untimed preparation before every job."""

    def jobs(self, in_process: bool) -> list:
        raise NotImplementedError

    def failed(self, label, out) -> bool:
        return isinstance(out, BaseException)

    def failure_note(self, out) -> str:
        return repr(out)[:300]

    def check(self, outs) -> list:
        """Problems found in one round's outputs, as readable strings."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# compose-scan


class ComposeScan(Workload):
    """theta_threshold_scan at depth 6 plus t-composition batteries at N = 14
    on a lattice, a Touchard (Poisson) and a random log-convex sequence.
    The 2^(n-1) composition enumeration inside mb_compose_t does nearly all
    of the work."""

    name = "compose-scan"
    modules = ("moment_algebra", "semigroup")
    DEPTH = 6
    N = 14
    # theta = 1/q^2; the grid is fixed because the scan's cost follows the
    # bit length of q. 7/3 puts one row just above the 1/6 reference line.
    Q_GRID = (Fraction(7, 3), 3, 5, 7, 11)
    # r, lambda and c are p/d with p and d primes of 7 and 6 bits: a fraction
    # that never reduces, of the same size for every seed (an even d would
    # cancel against the powers of 2 in the lattice and shrink every entry)
    NUMERATORS = (67, 71, 73, 79)
    DENOMINATORS = (53, 59, 61)
    GROWTH = (17, 19, 23, 29, 31)

    def __init__(self, ml, seed, workdir):
        super().__init__(ml, seed, workdir)
        rng = self.rng
        self.thetas = [1 / Fraction(q) ** 2 for q in self.Q_GRID]
        self.ts = [_ratio(rng, lo, hi)
                   for lo, hi in ((0.15, 0.35), (0.4, 0.6), (0.65, 0.85))]
        n = self.N

        def draw():
            return Fraction(rng.choice(self.NUMERATORS), rng.choice(self.DENOMINATORS))
        r = draw()
        lattice = [r ** k * Fraction(2) ** (k * k) for k in range(n + 1)]
        touchard = oracle.touchard(draw(), n)
        c = draw()
        logconvex = [Fraction(1)]
        for _ in range(n):
            logconvex.append(logconvex[-1] * c)
            c *= 1 + Fraction(1, rng.choice(self.GROWTH))
        self.batteries = []
        for label, vals in (("lattice", lattice), ("touchard", touchard),
                            ("log-convex", logconvex)):
            theta = max(vals[k] ** 2 / (vals[k - 1] * vals[k + 1]) for k in range(1, n - 1))
            t = _ratio(rng, 0.2, 0.8)
            self.batteries.append((label, vals, ml.ma.MomentSequence.from_exact(vals), t, theta))

    def warm_up(self):
        self.ml.ma.mb_compose_t(self.ml.ma.MomentSequence.from_exact([1] * (self.N + 1)))

    def _scan(self):
        return self.ml.sg.theta_threshold_scan(self.thetas, self.ts, self.DEPTH)

    def _battery(self, m, t, theta):
        ma, sg = self.ml.ma, self.ml.sg
        n = self.N
        return (ma.mb_compose_t(m, n), sg.mb_semigroup_identity(m, n - 1),
                sg.alternation_check(m, t, n - 1), sg.envelope_bounds_check(m, theta, t, n - 1))

    def jobs(self, in_process=True):
        out = [Job("scan", self._scan)]
        for label, _, m, t, theta in self.batteries:
            out.append(Job("battery-" + label,
                           lambda m=m, t=t, theta=theta: self._battery(m, t, theta)))
        return out

    def check(self, outs):
        problems = check_scan(outs[0], self.thetas, self.ts, self.DEPTH)
        for (label, vals, _, t, theta), out in zip(self.batteries, outs[1:]):
            problems += [f"{label}: {p}" for p in self._check_battery(vals, t, theta, out)]
        return problems

    def _check_battery(self, vals, t, theta, out):
        polys, ident, alt, env = out
        n = self.N
        mine = oracle.t_power_polys(vals, n)
        problems = []
        if [list(p.coeffs) for p in polys] != mine:
            problems.append("mb_compose_t differs from the cumulant recursion")
        if not (ident.holds and ident.depth == n - 1 and ident.first_failure is None):
            problems.append(f"semigroup identity reported {ident}")
        d = n - 1
        terms = [oracle.gen_binom(t, j) * s
                 for j, s in enumerate(oracle.composition_sums(vals, d), start=1)]
        if list(alt.terms) != terms:
            problems.append("alternation terms differ from C(t,j) S_j(n)")
        if sum(terms) != oracle.poly_eval(mine[d], t):
            problems.append("alternation terms do not sum to the composed moment")
        moduli = [abs(x) for x in terms]
        flags = (terms[0] == t * vals[d],
                 all(x != 0 and (x > 0) == (j % 2 == 0) for j, x in enumerate(terms)),
                 all(a >= b for a, b in zip(moduli, moduli[1:])),
                 all(abs(sum(terms[j:])) <= moduli[j - 1] for j in range(1, d)))
        if (alt.leading_matches, alt.signs_alternate, alt.moduli_nonincreasing,
                alt.tails_bounded) != flags or alt.leading_term != t * vals[d]:
            problems.append("alternation flags differ from the recomputed terms")
        kind, witness = "holds", None
        for k in range(1, d + 1):
            value = oracle.poly_eval(mine[k], t)
            upper = t * vals[k]
            lower = (1 - theta) * upper
            if not lower < value <= upper:
                kind, witness = "violated", (k, lower, value, upper)
                break
        if (env.kind, env.witness) != (kind, witness):
            problems.append(f"envelope {env.kind} {env.witness}, expected {kind} {witness}")
        return problems


def check_scan(res, thetas, ts, depth):
    """Every scan cell against the oracle's minors of the composed lattice."""
    problems = []
    thetas = sorted(thetas)
    if list(res.theta_grid) != thetas or list(res.t_grid) != list(ts) or res.depth != depth:
        return [f"scan grid or depth differs: {res.theta_grid} {res.t_grid} {res.depth}"]
    passed = []
    for theta, row in zip(thetas, res.pass_matrix):
        q = oracle.isqrt_exact(1 / theta)
        mu = [q ** (k * k) for k in range(2 * depth + 2)]
        marks = []
        for t, cell in zip(ts, row):
            kind, where, value = oracle.expected_verdict(
                oracle.t_power_at(mu, t, 2 * depth + 1), depth)
            v = cell.verdict
            got = (v.kind, None if v.witness is None else (v.witness.shift, v.witness.size),
                   v.witness_value)
            if got != (kind, where, value):
                problems.append(f"scan cell theta={theta} t={t}: {got}, expected {kind} {where}")
            marks.append(kind == "strictly-positive")
        passed.append(marks)
    best = None
    for theta, marks in zip(thetas, passed):
        if all(marks):
            best = theta
    if res.empirical_theta_max != best:
        problems.append(f"empirical_theta_max {res.empirical_theta_max}, expected {best}")
    if [r[1] for r in res.ratio_bounds] != [th / (1 - th) ** 2 for th in thetas]:
        problems.append("ratio bounds differ from theta/(1-theta)^2")
    return problems


# ---------------------------------------------------------------------------
# cli-session


@dataclass
class CliResult:
    code: int
    stdout: bytes
    output: bytes  # the -o file, or stderr if the invocation failed


@contextlib.contextmanager
def _stdin_from(path):
    """Point file descriptor 0 at `path`, so /dev/stdin reads it in-process."""
    fd = os.open(path, os.O_RDONLY)
    saved = os.dup(0)
    try:
        os.dup2(fd, 0)
        yield
    finally:
        os.dup2(saved, 0)
        os.close(saved)
        os.close(fd)


# Invocations that fail on every run today: label -> (exit status, message).
# A fix makes them exit 0, and their reports are then checked like the rest.
KNOWN_FAULTS = {
    # stieltjes.log_convexity_report compares mpf thetas with a Fraction tolerance
    "analyze-logconvex-decimal": (1, "TypeError: '<' not supported between instances of "
                                     "'mpf' and 'Fraction'"),
    # cli._load_sequence picks the input format by file suffix only
    "analyze-stdin-csv": (2, "not valid JSON"),
}


class CliSession(Workload):
    """A seeded script of `python -m momentlab.cli` invocations, each a fresh
    process: generate files with `moments`, read them with `analyze`,
    `katti` and `compose`, then `scan` and `simulate`. The two KNOWN_FAULTS
    end in their fault every time and are counted as failed."""

    name = "cli-session"
    # the checks call cli, seqfile, distributions and divisibility in process
    modules = ("moment_algebra", "distributions", "divisibility", "seqfile", "cli")
    TRIALS = 100_000
    CHILD_TIMEOUT_S = 120

    def __init__(self, ml, seed, workdir):
        super().__init__(ml, seed, workdir)
        rng = self.rng
        self.q = rng.choice((2, 3))
        self.r = Fraction(rng.randint(5, 9), rng.randint(2, 4))
        self.t = _ratio(rng, 0.2, 0.8)
        # fixed: the quadrature cost of the pmf jumps by up to 40% between
        # parameter sets 1% apart (where tanh-sinh stops changes)
        self.pmf_args = (0.0, 1.0, -1.0, 5)
        self.thetas = [Fraction(1, rng.choice(pair) ** 2) for pair in ((2, 3), (4, 5), (6, 8))]
        self.ts = [_ratio(rng, 0.2, 0.45), _ratio(rng, 0.55, 0.8)]
        rate = round(rng.uniform(0.8, 1.2), 3)
        sim_seed = rng.randint(1, 2 ** 31)
        f = self._path
        alpha, sigma2, log_b, n_scale = self.pmf_args
        sim = ["--lognormal-jumps", "0:1", "--rate", str(rate),
               "--trials", str(self.TRIALS), "--seed", str(sim_seed)]
        self.script = [
            ("moments-lattice", ["moments", "lattice", "--q", str(self.q), "--r", str(self.r),
                                 "--upto", "12", "-o", f("lattice.json")]),
            ("moments-lognormal", ["moments", "lognormal", "--alpha", "0", "--sigma2", "1",
                                   "--upto", "6", "-o", f("lognormal.json")]),
            ("moments-truncated", ["moments", "truncated", "--alpha", "0", "--sigma2", "1",
                                   "--logb", "-1", "--upto", "6", "-o", f("truncated.json")]),
            ("moments-gap", ["moments", "gap", "--alpha", "0", "--sigma2", "1", "--a", "0.5",
                             "--b", "2", "--upto", "6", "-o", f("gap.json")]),
            ("moments-mixed-poisson", ["moments", "mixed-poisson", "--alpha", str(alpha),
                                       "--sigma2", str(sigma2), "--logb", str(log_b),
                                       "--N", str(n_scale), "--kmax", "12",
                                       "-o", f("pmf.json")]),
            ("analyze-exact", ["analyze", f("lattice.json"), "--stieltjes-depth", "5",
                               "--indeterminacy", "5", "--fekete", "4"]),
            ("analyze-decimal", ["analyze", f("lognormal.json"), "--stieltjes-depth", "2",
                                 "--tolerance", "1e-20"]),
            ("katti", ["katti", f("pmf.json"), "--logconvex"]),
            ("compose-classical", ["compose", f("lattice.json"), "--op", "classical",
                                   "-o", f("classical.json")]),
            ("compose-boolean", ["compose", f("lattice.json"), "--op", "boolean",
                                 "--t", str(self.t), "-o", f("boolean.json")]),
            ("compose-mb", ["compose", f("lattice.json"), "--op", "mb", "--t", str(self.t),
                            "--upto", "8", "-o", f("mb.json")]),
            ("compose-mb-k", ["compose", f("lattice.json"), "--op", "mb", "--k", "2",
                              "--upto", "8", "-o", f("mbk.json")]),
            ("scan", ["scan", "--depth", "4",
                      "--theta-grid", ",".join(str(x) for x in self.thetas),
                      "--t-grid", ",".join(str(x) for x in self.ts)]),
            ("simulate-spectrum", ["simulate", "spectrum", "--a", "0.5", "--b", "1.0",
                                   "--n", "2", "--censor-gap", "0.9", "1.2"] + sim),
            ("simulate-epsilon", ["simulate", "epsilon", "--eps-grid", "0.05,0.1,0.2"] + sim),
            # the two KNOWN_FAULTS
            ("analyze-logconvex-decimal", ["analyze", f("lognormal.json"), "--logconvex",
                                           "--tolerance", "1e-20"]),
            ("analyze-stdin-csv", ["analyze", "/dev/stdin"]),
        ]
        self.stdin_csv = f("stdin.csv")
        with open(self.stdin_csv, "w", encoding="utf-8") as fh:
            fh.write("index,value\n" + "".join(f"{k},{2 ** (k * k)}\n" for k in range(7)))
        self.env = dict(os.environ)

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def before_job(self):
        _cold_quadrature()

    def _stdin(self, label):
        return self.stdin_csv if label == "analyze-stdin-csv" else None

    @staticmethod
    def _output(argv):
        if "-o" not in argv:
            return b""
        with open(argv[argv.index("-o") + 1], "rb") as fh:
            return fh.read()

    def spawn(self, label, argv):
        stdin = self._stdin(label)
        with contextlib.ExitStack() as stack:
            fin = stack.enter_context(open(stdin, "rb")) if stdin else subprocess.DEVNULL
            proc = subprocess.run([sys.executable, "-m", "momentlab.cli"] + argv,
                                  stdin=fin, capture_output=True, env=self.env,
                                  timeout=self.CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            return CliResult(proc.returncode, proc.stdout, proc.stderr)
        return CliResult(0, proc.stdout, self._output(argv))

    def call(self, label, argv):
        """The same invocation through momentlab.cli.main in this process."""
        out, err = io.StringIO(), io.StringIO()
        stdin = self._stdin(label)
        with contextlib.ExitStack() as stack:
            if stdin:
                stack.enter_context(_stdin_from(stdin))
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            try:
                code = self.ml.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an uncaught exception is exit 1 in a process
                code, err = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
        if code != 0:
            return CliResult(code, out.getvalue().encode(), err.getvalue().encode())
        return CliResult(0, out.getvalue().encode(), self._output(argv))

    def jobs(self, in_process):
        run = self.call if in_process else self.spawn
        return [Job(label, lambda label=label, argv=argv: run(label, argv))
                for label, argv in self.script]

    def failed(self, label, out):
        return isinstance(out, BaseException) or out.code != 0

    def failure_note(self, out):
        if isinstance(out, BaseException):
            return repr(out)
        lines = out.output.decode(errors="replace").strip().splitlines()
        return f"exit {out.code}: {lines[-1] if lines else ''}"

    def check(self, outs):
        """A nonzero exit is a problem unless it is one of KNOWN_FAULTS, with
        its exit status and message."""
        problems = []
        for (label, argv), out in zip(self.script, outs):
            if isinstance(out, BaseException):
                problems.append(f"{label}: {out!r}")
                continue
            if out.code != 0:
                code, message = KNOWN_FAULTS.get(label, (None, None))
                if out.code != code or message.encode() not in out.output:
                    problems.append(f"{label}: unexpected failure, {self.failure_note(out)}")
                continue
            try:
                problems += [f"{label}: {p}" for p in self._check_one(label, argv, out)]
            except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
                problems.append(f"{label}: unreadable output ({exc})")
        return problems

    def _check_one(self, label, argv, out):
        q, r = self.q, self.r
        lattice = [r ** k * Fraction(q) ** (k * k) for k in range(13)]
        if label == "moments-lattice":
            return [] if _values(out.output) == lattice else ["values differ from r^n q^(n^2)"]
        if label == "moments-lognormal":
            doc = json.loads(out.output)
            with mpmath.workprec(192):
                bad = [n for n, s in enumerate(doc["values"])
                       if abs(mpf(s) - oracle.lognormal_moment(0, 1, n))
                       > mpf(2) ** -120 * oracle.lognormal_moment(0, 1, n)]
            return [f"mu_{n} off e^(n^2/2)" for n in bad]
        if label == "moments-truncated":
            with mpmath.workprec(192):
                bad = [n for n, s in enumerate(json.loads(out.output)["values"][1:], start=1)
                       if abs(mpf(s) - oracle.truncated_moment(0, 1, -1, n)) > mpf("1e-20")]
            return [f"mu_{n} off the closed form" for n in bad]
        if label == "moments-gap":
            with mpmath.workprec(192):
                bad = [n for n, s in enumerate(json.loads(out.output)["values"][1:], start=1)
                       if abs(mpf(s) - oracle.gap_moment(0, 1, 0.5, 2, n)) > mpf("1e-20")]
            return [f"mu_{n} off the closed form" for n in bad]
        if label == "moments-mixed-poisson":
            return self._check_pmf_file(out.output)
        if label == "analyze-exact":
            return _check_analysis(json.loads(out.stdout), lattice, 5, 5, 4)
        if label == "analyze-decimal":
            kind = json.loads(out.stdout)["stieltjes"]["kind"]
            return ["genuine measure refuted"] if kind == "not-stieltjes" else []
        if label == "katti":
            return self._check_katti(json.loads(out.stdout))
        if label == "compose-classical":
            return [] if _values(out.output) == oracle.classical_self_convolution(lattice, 12) \
                else ["classical self-convolution differs"]
        if label == "compose-boolean":
            return [] if _values(out.output) == oracle.boolean_power(lattice, self.t, 12) \
                else ["Boolean power differs"]
        if label == "compose-mb":
            return [] if _values(out.output) == oracle.t_power_at(lattice, self.t, 8) \
                else ["t-composition differs from the cumulant recursion"]
        if label == "compose-mb-k":
            return [] if _values(out.output) == oracle.classical_self_convolution(lattice, 8) \
                else ["mb power k = 2 differs from the classical self-convolution"]
        if label == "scan":
            return _check_scan_report(json.loads(out.stdout), self.thetas, self.ts, 4)
        if label.startswith("simulate"):
            again = self.call(label, argv)
            if again.stdout != out.stdout:
                return ["a second run with the same seed printed different bytes"]
            rep = json.loads(out.stdout)["report"]
            return [] if rep["trials"] == self.TRIALS else ["trial count differs"]
        if label == "analyze-logconvex-decimal":
            with open(self._path("lognormal.json"), encoding="utf-8") as fh:
                vals = [Fraction(s) for s in json.load(fh)["values"]]
            return _check_logconvex(json.loads(out.stdout)["logconvex"], vals,
                                    Fraction(argv[argv.index("--tolerance") + 1]))
        if label == "analyze-stdin-csv":
            # no analysis requested: the deepest verdict 7 entries allow
            rep = json.loads(out.stdout)["stieltjes"]
            w = rep["witness"]
            got = (rep["kind"], None if w is None else (w["shift"], w["size"]),
                   _frac_or_none(rep["witness_value"]))
            expected = oracle.expected_verdict([Fraction(2) ** (k * k) for k in range(7)], 2)
            return [] if got == expected else [f"stieltjes {got}, expected {expected}"]
        raise KeyError(f"no check for {label}")

    def _check_pmf_file(self, text):
        alpha, sigma2, log_b, n_scale = self.pmf_args
        dist = self.ml.dist
        _cold_quadrature()
        ref = dist.mixed_poisson_pmf(dist.LognormalSpec(alpha, sigma2), log_b, n_scale, 12)
        doc = json.loads(text)
        problems = []
        with mpmath.workprec(ref.precision_bits):
            err = mpf(doc["entry_error"])
            got = [mpf(s) for s in doc["values"]]
            tail = mpf(doc["tail_mass"])
            if len(got) != len(ref.masses) or \
                    any(abs(g - m) > err for g, m in zip(got, ref.masses)):
                problems.append("pmf file differs from mixed_poisson_pmf in this process")
            if any(g < -err for g in got):
                problems.append("a pmf mass is certified negative")
            if tail < -len(got) * err or abs(sum(got) + tail - 1) > (len(got) + 1) * err:
                problems.append("pmf masses and tail mass do not sum to 1")
        return problems

    def _check_katti(self, rep):
        pmf = self.ml.sf.load_json(self._path("pmf.json"))
        mine = self.ml.dv.katti_r(pmf)
        problems = []
        if rep["verdict"] != mine.verdict:
            problems.append(f"verdict {rep['verdict']}, in-process {mine.verdict}")
        with mpmath.workprec(pmf.precision_bits):
            if any(abs(mpf(s) - v) > w + abs(v) * mpf(10) ** -28
                   for s, v, w in zip(rep["r"], mine.r, mine.radii)):
                problems.append("rates differ from katti_r in this process")
        hull = oracle.katti_intervals(pmf.masses, pmf.entry_error, pmf.precision_bits)
        problems += [f"r_{k} reported certified negative, but its interval reaches {hull[k].b}"
                     for k in rep["certified_negative"] if not hull[k].b < 0]
        return problems


def _values(text):
    return [Fraction(s) for s in json.loads(text)["values"]]


def _frac_or_none(s):
    return None if s is None else Fraction(s)


def _check_analysis(rep, vals, depth, indeterminacy, fekete_size):
    problems = []
    v = rep["stieltjes"]
    w = v["witness"]
    got = (v["kind"], None if w is None else (w["shift"], w["size"]),
           _frac_or_none(v["witness_value"]))
    if got != oracle.expected_verdict(vals, depth):
        problems.append(f"stieltjes {got}")
    s0, s1 = oracle.expected_ratios(vals, indeterminacy)
    ind = rep["indeterminacy"]
    if [_frac_or_none(x) for x in ind["shift0"]] != s0 or \
            [_frac_or_none(x) for x in ind["shift1"]] != s1:
        problems.append("indeterminacy ratios differ from the oracle's minors")
    thresholds = [_frac_or_none(x) for x in rep["mu1_threshold"]["values"]]
    if thresholds != oracle.expected_mu1(vals, indeterminacy):
        problems.append("mu1 thresholds differ from the oracle's minors")
    for size, c in enumerate(thresholds, start=1):
        if c is not None and oracle.minor_with_mu1(vals, c, size) != 0:
            problems.append(f"mu1 threshold at depth {size} leaves a nonzero minor")
    f = rep["fekete"]
    kind, checked, where, value = oracle.expected_fekete(vals, 0, fekete_size)
    got = (f["kind"], f["minors_checked"], None if f["witness"] is None else tuple(f["witness"]),
           _frac_or_none(f["witness_value"]))
    if got != (kind, checked, where, value):
        problems.append(f"fekete {got}")
    return problems


def _check_logconvex(rep, vals, tol):
    """theta_n against the exact ratios of the decimal file's values, within
    the invocation's tolerance relative (a theta less accurate than that
    cannot be compared with 1 +- tol); the verdict against those ratios."""
    theta = [vals[n] ** 2 / (vals[n - 1] * vals[n + 1]) for n in range(1, len(vals) - 1)]
    got = [Fraction(x) for x in rep["theta"]]
    problems = []
    if len(got) != len(theta) or any(abs(g - e) > e * tol for g, e in zip(got, theta)):
        problems.append("theta differs from the ratios of the file's values by more than "
                        "the tolerance")
    if all(th < 1 - tol for th in theta):
        verdict = "strictly-log-convex"
    elif all(th <= 1 + tol for th in theta):
        verdict = "log-convex"
    else:
        verdict = "not-log-convex"
    if rep["verdict"] != verdict:
        problems.append(f"verdict {rep['verdict']}, expected {verdict}")
    return problems


def _check_scan_report(rep, thetas, ts, depth):
    problems = []
    thetas = sorted(thetas)
    for theta, row in zip(thetas, rep["pass_matrix"]):
        q = oracle.isqrt_exact(1 / theta)
        mu = [q ** (k * k) for k in range(2 * depth + 2)]
        for t, cell in zip(ts, row):
            kind, _, _ = oracle.expected_verdict(oracle.t_power_at(mu, t, 2 * depth + 1), depth)
            if (cell["verdict"] == "stieltjes-ok") != (kind == "strictly-positive"):
                problems.append(f"scan cell theta={theta} t={t}: {cell['verdict']}, expected {kind}")
    return problems


WORKLOADS = {w.name: w for w in (ComposeScan, CliSession)}

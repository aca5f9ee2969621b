"""The seeded compound-Poisson simulator and its Clopper-Pearson quantile."""
import json
import math
import random
import subprocess
import sys
import tracemalloc
from decimal import localcontext
from statistics import NormalDist

import mpmath
import numpy as np
import pytest
from mpmath import mpf

from momentlab import simulator
from momentlab.cli import main
from momentlab.simulator import (_BERNOULLI, _HALF_LOG_2PI, AtomJumps, JumpSpec,
                                 LognormalJumps, PoissonJumps, _clopper_pearson_lower,
                                 _log_gamma, _poisson_pmf, _replication_lower,
                                 epsilon_truncation_drift, make_rng, sample_compound_poisson,
                                 spectrum_gap_test)

import brute_force
from conftest import fresh_env

ALPHAS = (1e-6, 1e-3, 0.01, 0.05, 0.5)


def grid(sizes):
    """(count, trials) pairs with count = 1, 2, 17, trials // 3, trials - 1
    and trials, where those lie in 1..trials."""
    for n in sizes:
        for c in sorted({1, 2, 17, n // 3, n - 1, n} & set(range(1, n + 1))):
            yield c, n


def cases(pairs):
    """(count, trials, level, alpha) with alpha the tail the quantile solves
    for: 1 - level as a float, as the simulator computes it."""
    for c, n in pairs:
        for a in ALPHAS:
            level = 1 - a
            yield c, n, level, 1 - level


class TestClopperPearson:
    def test_matches_scipy(self):
        beta = pytest.importorskip("scipy.stats").beta
        pairs = [*grid((1, 7, 1000, 10 ** 5, 10 ** 6)), (7817, 10 ** 5), (3000, 10 ** 5)]
        for c, n, level, alpha in cases(pairs):
            q = _clopper_pearson_lower(c, n, level)
            ref = beta.ppf(alpha, c, n - c + 1)
            assert abs(q - ref) <= 1e-12 * ref, (c, n, alpha, q, ref)

    def test_closed_forms_at_the_ends(self):
        # I_x(1, n) = 1 - (1 - x)^n and I_x(n, 1) = x^n
        sizes = (1, 2, 7, 1000, 10 ** 6)
        for c, n, level, alpha in cases([(1, n) for n in sizes] + [(n, n) for n in sizes]):
            with mpmath.workprec(200):
                alpha = mpf(alpha)
                exact = -mpmath.expm1(mpmath.log1p(-alpha) / n) if c == 1 else alpha ** (mpf(1) / n)
            assert abs(_clopper_pearson_lower(c, n, level) - exact) <= 1e-15 * exact, (c, n, alpha)

    def test_residual_against_betainc(self):
        for c, n, level, alpha in cases(grid((1, 2, 7, 50, 1000))):
            q = _clopper_pearson_lower(c, n, level)
            with mpmath.workprec(200):
                def cdf(x):
                    return mpmath.betainc(c, n - c + 1, 0, x, regularized=True)
                assert abs(cdf(q) - mpf(alpha)) < 1e-14, (c, n, alpha)
                # and q is within one float of the root
                assert cdf(math.nextafter(q, 0)) <= mpf(alpha) <= cdf(math.nextafter(q, 1))

    def test_rejects_bad_input(self):
        for c, n, level in ((0, 10, 0.99), (11, 10, 0.99), (1, 10, 1.0), (1, 10, 0.0)):
            with pytest.raises(ValueError):
                _clopper_pearson_lower(c, n, level)

    def test_same_float_as_the_mpmath_solve(self):
        """The decimal solve returns the float that the same algorithm gives
        in mpmath at 128 bits (brute_force.clopper_pearson_lower_mpf)."""
        rnd = random.Random(19)
        draws = [(9353, 10 ** 5, 0.99), (7817, 10 ** 5, 0.99), (10 ** 5, 10 ** 5, 0.99),
                 (1, 1, 0.5), (10 ** 6, 10 ** 6, 1 - 1e-12), (1, 10 ** 6, 0.999999)]
        while len(draws) < 220:
            n = rnd.choice((1, 2, 7, 60, 1000, 10 ** 5, rnd.randint(1, 10 ** 6)))
            c = rnd.choice((1, 2, n - 1, n, rnd.randint(1, n)))
            level = rnd.choice((0.5, 0.9, 0.99, 0.999, 1 - 1e-9, rnd.random()))
            if 1 <= c <= n and 0 < 1 - level < 1:
                draws.append((c, n, level))
        for c, n, level in draws:
            assert _clopper_pearson_lower(c, n, level) == \
                brute_force.clopper_pearson_lower_mpf(c, n, level), (c, n, level)


class TestLogGamma:
    def test_constants(self):
        for j, (num, den) in enumerate(_BERNOULLI, 1):
            assert mpmath.bernfrac(2 * j) == (num, den), 2 * j
        with mpmath.workdps(70):
            assert abs(mpf(_HALF_LOG_2PI) - mpmath.log(2 * mpmath.pi) / 2) < mpf("1e-58")

    def test_exact_and_stirling_branches(self):
        # 59 is the last exact ln((n - 1)!), 60 the first Stirling series
        for n in (1, 2, 3, 30, 59, 60, 61, 1000, 92184, 10 ** 6 + 1, 10 ** 9):
            with localcontext() as ctx:
                ctx.prec = 40
                got = _log_gamma(n)
            with mpmath.workdps(60):
                exact = mpmath.loggamma(n)
                assert abs(mpf(str(got)) - exact) <= mpf("1e-38") * max(1, abs(exact)), n


def poisson_pmf_mpf(lam, m):
    """The Poisson(lam) pmf at m in mpmath at 200 bits."""
    with mpmath.workprec(200):
        lam_ = mpf(lam)
        return mpmath.exp(m * mpmath.log(lam_) - lam_ - mpmath.loggamma(m + 1))


def within_an_ulp(got, want):
    """A float within one ulp of the mpf want, or within the smallest
    subnormal of it."""
    with mpmath.workprec(200):
        return abs(mpf(got) - want) <= want * mpf(2) ** -52 + mpf(2) ** -1074


class TestPoissonPmf:
    """_poisson_pmf, the pmf PoissonJumps.tail_prob starts from, and
    _replication_lower, the spectrum check's bound on the same log-pmf,
    against a 200-bit mpmath evaluation."""

    # m far below lam, at and about the mode and far above it, with lam from
    # tiny to past exp(-lam) underflow
    GRID = [(lam, m) for lam in (1e-300, 1e-3, 0.5, 1.5, 30.0, 1000.0, 1e6)
            for m in (1, 2, 7, 30, 100, 999, 1000, 2001,
                      10 ** 6 - 5000, 10 ** 6, 10 ** 6 + 3000)]

    @pytest.mark.parametrize("lam, m", GRID)
    def test_grid(self, lam, m):
        want = poisson_pmf_mpf(lam, m)
        got = _poisson_pmf(lam, m)
        assert within_an_ulp(got, want), (lam, m, got, want)

    def test_underflow_and_zero_rate(self):
        assert 0 < poisson_pmf_mpf(1.0, 10 ** 5) and _poisson_pmf(1.0, 10 ** 5) == 0.0
        assert _poisson_pmf(1e6, 1) == 0.0
        # the m ln(lam) term is dropped at m = 0, where it would be 0 * -Infinity
        assert _poisson_pmf(0.0, 0) == 1.0
        for m in (1, 2, 50):
            assert _poisson_pmf(0.0, m) == 0.0
            assert _replication_lower(0.0, m, 2, 0.5) == 0.0

    @pytest.mark.parametrize("lam, m, n, q", [
        (1.5, 1, 2, 0.2), (1.0, 1, 2, 0.171), (7.0, 3, 3, 1e-4), (1000.0, 1000, 2, 1e-3),
        (0.01, 1, 4, 0.009),
        # pi_m underflows a float; q / pi_m > 1 caps at 1
        (2000.0, 500, 4, 1e-3)])
    def test_replication_lower(self, lam, m, n, q):
        pi_m, pi_nm = poisson_pmf_mpf(lam, m), poisson_pmf_mpf(lam, n * m)
        with mpmath.workprec(200):
            want = pi_nm * min(mpf(q) / pi_m, 1) ** n
        assert want > 0 and within_an_ulp(_replication_lower(lam, m, n, q), want)


SPEC = JumpSpec(1.0, LognormalJumps(0.0, 1.0))


class TestDeterminism:
    def test_samples_depend_on_seed_only(self):
        a = sample_compound_poisson(SPEC, 1.0, seed=5, count=2000)
        b = sample_compound_poisson(SPEC, 1.0, seed=5, count=2000)
        assert a.tobytes() == b.tobytes()
        other = sample_compound_poisson(SPEC, 1.0, seed=6, count=2000)
        assert other.tobytes() != a.tobytes()

    def test_reports_repeat(self):
        args = (SPEC, 0.5, 1.0, 2, 20_000, 11)
        assert spectrum_gap_test(*args, censor_gap=(0.9, 1.2)) == \
            spectrum_gap_test(*args, censor_gap=(0.9, 1.2))
        spec = JumpSpec(3.0, PoissonJumps(0.5))
        assert epsilon_truncation_drift(spec, [0.5, 1.5], 5000, 2) == \
            epsilon_truncation_drift(spec, [0.5, 1.5], 5000, 2)

    def test_gap_censoring_violation(self):
        # censored to mass near 1 and none near 2, the law is not compound Poisson
        res = spectrum_gap_test(JumpSpec(0.5, LognormalJumps(0.0, 0.01)), 0.9, 1.1, 2,
                                20_000, 1, censor_gap=(1.5, 3.0))
        assert res.verdict == "violation" and res.count_nanb == 0
        assert res.replication_lower_bound > res.upper_bound_nanb


class TestBlocks:
    """The reports and the sampler stream the jump field in blocks of paths;
    the one-shot references in brute_force draw it whole. Every field and
    every byte agrees at any block size, with trial counts that are not a
    multiple of it."""

    # (spec, a, b, censor gap): atoms; Poisson jumps below lam = 10 and at
    # it or above, where numpy switches to its rejection sampler; lognormal
    # jumps; each at epsilon 0 and above it
    CASES = (
        (JumpSpec(1.5, AtomJumps(((1.0, 1.0), (2.5, 2.0)))), 0.5, 3.0, (2.2, 2.8)),
        (JumpSpec(1.5, AtomJumps(((1.0, 1.0), (2.5, 2.0))), 1.0), 2.0, 3.0, (4.0, 5.5)),
        (JumpSpec(2.0, PoissonJumps(2.0)), 1.5, 4.5, (2.5, 3.5)),
        (JumpSpec(2.0, PoissonJumps(2.0), 1.5), 1.5, 4.5, (2.5, 3.5)),
        (JumpSpec(1.0, PoissonJumps(13.5)), 10.0, 16.0, (30.0, 40.0)),
        (JumpSpec(1.0, PoissonJumps(13.5), 12.0), 10.0, 16.0, (30.0, 40.0)),
        (JumpSpec(1.0, LognormalJumps(0.0, 1.0)), 0.5, 2.0, (0.9, 1.2)),
        (JumpSpec(1.0, LognormalJumps(0.0, 1.0), 0.3), 0.5, 2.0, (0.9, 1.2)),
    )

    @pytest.mark.parametrize("block, trials", [(1, 37), (7, 1000), (64, 1000), (8192, 20_001)])
    def test_same_reports_and_samples_as_one_draw(self, monkeypatch, block, trials):
        monkeypatch.setattr(simulator, "_BLOCK", block)
        seen_modal = set()
        for spec, a, b, gap in self.CASES:
            for censor_gap in (None, gap):
                args = (spec, a, b, 2, trials, 5, 0.9, 1.5, censor_gap)
                got, want = spectrum_gap_test(*args), brute_force.spectrum_gap_test(*args)
                assert got == want and repr(got) == repr(want), (spec, censor_gap)
                seen_modal.add(got.modal_jump_count)
            args = (spec, [0.0, 0.5, 1.0, 2.0, 12.0], trials, 5, 1.5, 1.5, 0.9)
            got = epsilon_truncation_drift(*args)
            want = brute_force.epsilon_truncation_drift(*args)
            assert got == want and repr(got) == repr(want), spec
            assert sample_compound_poisson(spec, 1.5, 5, trials).tobytes() == \
                brute_force.sample_compound_poisson(spec, 1.5, 5, trials).tobytes(), spec
        # the modal count is read from the histogram, not always the first bin
        assert len(seen_modal - {0}) >= 2

    @pytest.mark.parametrize("law", [LognormalJumps(0.0, 1.0), PoissonJumps(2.0),
                                     AtomJumps(((0.05, 1.0), (1.0, 1.0)))])
    def test_traced_peak_below_12_mb_at_a_million_trials(self, law):
        # the Poisson counts take 8 MB; the rest is one block's jumps
        spec = JumpSpec(1.0, law, 0.1)
        runs = (lambda: spectrum_gap_test(spec, 0.5, 2.0, 2, 10 ** 6, 3, censor_gap=(0.9, 1.2)),
                lambda: epsilon_truncation_drift(spec, [0.05, 0.1, 0.2], 10 ** 6, 3))
        for run in runs:
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 12 * 2 ** 20, (law, peak)


class TestEpsilonCut:
    """spectrum_gap_test at epsilon > 0: jumps at or below epsilon leave the
    samples, and the compound rate is rate * P[jump > epsilon] from the jump
    law's tail_prob."""

    def test_tail_probs_match_closed_forms(self):
        for lam, eps in ((2.0, 0.0), (2.0, 1.5), (0.5, 3.0)):
            # P[Y > eps] = 1 - P[Y <= floor(eps)], a Poisson law on the integers
            want = 1 - sum(math.exp(-lam) * lam ** i / math.factorial(i)
                           for i in range(math.floor(eps) + 1))
            assert PoissonJumps(lam).tail_prob(eps) == pytest.approx(want, rel=1e-12)
        for alpha, sigma2, eps in ((0.0, 1.0, 0.5), (-1.0, 0.25, 2.0)):
            want = 1 - NormalDist(alpha, math.sqrt(sigma2)).cdf(math.log(eps))
            assert LognormalJumps(alpha, sigma2).tail_prob(eps) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("lam, eps", [(1000.0, 2000.0), (800.0, 1200.0), (800.0, 400.0),
                                          (10.0 ** 4, 1.1e4), (1e6, 1e6 + 3000), (30.0, 29.5)])
    def test_poisson_tails_past_exp_underflow(self, lam, eps):
        # exp(-lam) underflows from lam ~ 745 on; the tail summed in mpmath
        # on the side of floor(eps) with less mass, to a 2^-150 cut
        k = math.floor(eps)
        with mpmath.workprec(200):
            side = range(k + 1, 10 ** 9) if k + 1 > lam else range(k, -1, -1)
            total = mpf(0)
            for m in side:
                total += poisson_pmf_mpf(lam, m)
                if poisson_pmf_mpf(lam, m) < total * mpf(2) ** -150:
                    break
            want = total if k + 1 > lam else 1 - total
        assert PoissonJumps(lam).tail_prob(eps) == pytest.approx(float(want), rel=1e-12)

    def test_poisson_tails_at_the_ends(self):
        assert PoissonJumps(1000.0).tail_prob(2000.0) == pytest.approx(1.5275715025500e-170,
                                                                      rel=1e-12)
        assert PoissonJumps(2.0).tail_prob(1e12) == 0.0
        assert PoissonJumps(1e6).tail_prob(1e5) == 1.0
        assert PoissonJumps(1e-300).tail_prob(0.0) == pytest.approx(1e-300, rel=1e-12)

    def test_far_epsilon_runs_quickly(self):
        # the sum starts at floor(eps) + 1, so a cut at 10^12 costs one term
        proc = subprocess.run([sys.executable, "-m", "momentlab.cli", "simulate", "spectrum",
                               "--poisson-jumps", "2", "--epsilon", "1e12", "--a", "0.5",
                               "--b", "1", "--n", "2", "--trials", "10", "--seed", "1"],
                              env=fresh_env(), capture_output=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["report"]["count_ab"] == 0

    # (law, epsilon, a, b): every path with a value in (a, b) has exactly one
    # kept jump, so the modal count is 1 and its hit count is count_ab
    CASES = ((PoissonJumps(2.0), 1.5, 1.5, 2.5), (LognormalJumps(0.0, 1.0), 0.5, 0.6, 1.0))

    def test_samples_lose_the_small_jumps(self):
        for law, eps, _, _ in self.CASES:
            cut = sample_compound_poisson(JumpSpec(1.5, law, eps), 1.0, 3, 5000)
            full = sample_compound_poisson(JumpSpec(1.5, law), 1.0, 3, 5000)
            assert ((cut == 0) | (cut > eps)).all()
            assert (cut <= full).all() and (cut < full).any()
            if isinstance(law, PoissonJumps):
                # the kept jumps are the integers from 2 on
                assert (cut == np.round(cut)).all() and not ((cut > 0) & (cut < 2)).any()

    def test_lower_bound_reads_the_effective_rate(self):
        rate, trials, level = 1.5, 5000, 0.99
        for law, eps, a, b in self.CASES:
            res = spectrum_gap_test(JumpSpec(rate, law, eps), a, b, 2, trials, 3, level)
            x = sample_compound_poisson(JumpSpec(rate, law, eps), 1.0, 3, trials)
            assert res.count_ab == int(((x > a) & (x < b)).sum()) > 0
            assert res.count_nanb == int(((x > 2 * a) & (x < 2 * b)).sum())
            assert res.modal_jump_count == 1 and res.spec["epsilon"] == eps
            lam = rate * law.tail_prob(eps)
            pi1, pi2 = lam * math.exp(-lam), lam ** 2 / 2 * math.exp(-lam)
            want = pi2 * min(_clopper_pearson_lower(res.count_ab, trials, level) / pi1, 1) ** 2
            assert res.replication_lower_bound == pytest.approx(want, rel=1e-12)


class TestOneCut:
    """_path_blocks applies the spec's epsilon cut as it draws, and every
    report reads that kept field: the drift table too, whose rows measure
    what a larger cut discards from the spec's own cut law."""

    @pytest.mark.parametrize("spec", [
        JumpSpec(1.5, LognormalJumps(0.0, 1.0)), JumpSpec(1.5, LognormalJumps(0.0, 1.0), 0.5),
        JumpSpec(1.5, AtomJumps(((0.5, 1.0), (0.7, 1.0), (1.2, 1.0))), 0.5),
        JumpSpec(2.0, PoissonJumps(0.7)), JumpSpec(2.0, PoissonJumps(2.0), 1.5)])
    @pytest.mark.parametrize("block", [7, 8192])
    def test_blocks_hold_no_jump_at_or_below_epsilon(self, monkeypatch, spec, block):
        # a Poisson jump of size 0 is at or below epsilon = 0, so it is cut too
        monkeypatch.setattr(simulator, "_BLOCK", block)
        paths = 0
        for counts, jumps, owner in simulator._path_blocks(spec, 1.0, make_rng(5), 1000):
            assert (jumps > spec.epsilon).all()
            assert np.array_equal(counts, np.bincount(owner, minlength=len(counts)))
            assert len(owner) == len(jumps) == counts.sum()
            paths += len(counts)
        assert paths == 1000

    @pytest.mark.parametrize("law", [LognormalJumps(0.0, 1.0),
                                     AtomJumps(((0.3, 1.0), (0.5, 1.0), (0.7, 2.0), (1.2, 1.0)))])
    @pytest.mark.parametrize("seed", [3, 19])
    def test_drift_on_a_cut_law(self, law, seed):
        eps0, eta, trials = 0.5, 0.6, 5000
        spec = JumpSpec(1.5, law, eps0)
        grid_ = [0.0, 0.3, 0.5, 0.6, 0.8, 1.0, 2.0]
        table = epsilon_truncation_drift(spec, grid_, trials, seed, eta=eta)
        jumps, owner = brute_force.jump_field(spec, 1.0, make_rng(seed), trials)
        for row in table.rows:
            if row.epsilon <= eps0:
                assert row.count == 0, row
                continue
            # the paths whose jumps in (eps0, eps] sum past eta
            mid = (jumps > eps0) & (jumps <= row.epsilon)
            sums = np.bincount(owner[mid], weights=jumps[mid], minlength=trials)
            assert row.count == np.count_nonzero(sums > eta), row
        assert table.rows[-1].count > 0

    def test_cli_drift_reads_the_epsilon_option(self, capsys):
        argv = ["simulate", "epsilon", "--eps-grid", "0.05,0.1,0.2", "--lognormal-jumps", "0:1",
                "--rate", "1.5", "--trials", "300", "--seed", "7"]
        counts = {}
        for eps in ("0", "0.5"):
            assert main([*argv, "--epsilon", eps]) == 0
            report = json.loads(capsys.readouterr().out)["report"]
            assert report["spec"]["epsilon"] == float(eps)
            counts[eps] = [row["count"] for row in report["rows"]]
        # every epsilon of the grid is at or below 0.5, so that cut leaves none to discard
        assert counts == {"0": [0, 0, 19], "0.5": [0, 0, 0]}


class TestGapCensor:
    """gap_censor_samples moves the samples strictly inside (a, b) to 0,
    leaves its input as it was, refuses a gap that is not 0 < a < b < inf,
    and is the censoring spectrum_gap_test applies."""

    def test_only_the_open_gap_moves(self):
        xs = np.array([0.0, 0.5, 0.9, 0.9000001, 1.0, 1.1999999, 1.2, 1.5, 3.0])
        before = xs.copy()
        out = simulator.gap_censor_samples(xs, 0.9, 1.2)
        assert out.tolist() == [0.0, 0.5, 0.9, 0.0, 0.0, 0.0, 1.2, 1.5, 3.0]
        assert np.array_equal(xs, before) and out is not xs

    @pytest.mark.parametrize("gap", [(1.2, 0.9), (1.0, 1.0), (0.0, 1.0), (-1.0, 1.0),
                                     (0.5, math.inf), (math.inf, math.inf), (math.nan, 1.0),
                                     (0.5, math.nan)])
    def test_bad_gaps_refused(self, gap):
        with pytest.raises(ValueError):
            simulator.gap_censor_samples(np.array([1.0]), *gap)
        with pytest.raises(ValueError):
            spectrum_gap_test(JumpSpec(1.0, LognormalJumps()), 0.5, 1.0, 2, 10, 1,
                              censor_gap=gap)

    @pytest.mark.parametrize("seed", [3, 19])
    def test_is_the_censoring_of_the_spectrum_test(self, seed):
        spec, gap, trials = JumpSpec(1.0, LognormalJumps(0.0, 1.0)), (0.9, 1.2), 5000
        res = spectrum_gap_test(spec, 0.5, 1.0, 2, trials, seed, censor_gap=gap)
        xs = simulator.gap_censor_samples(sample_compound_poisson(spec, 1.0, seed, trials), *gap)
        assert res.count_ab == np.count_nonzero((xs > 0.5) & (xs < 1.0)) > 0
        assert res.count_nanb == np.count_nonzero((xs > 1.0) & (xs < 2.0))
        assert not np.any((xs > 0.9) & (xs < 1.2))


class TestEpsilonDrift:
    @pytest.mark.parametrize("spec, grid_, eta", [
        (JumpSpec(5.0, LognormalJumps(-2.0, 1.0)), [0.3, 0.01, 0.1, 0.05, 0.2, 0.0], 0.05),
        # a Poisson jump of size 0 adds weight 0 to the discarded sum
        (JumpSpec(3.0, PoissonJumps(0.7)), [2.0, 0.0, 1.0, 0.5, 1.0, 3.0], 1.5),
        # a spec with an epsilon cut of its own
        (JumpSpec(5.0, LognormalJumps(-2.0, 1.0), 0.05), [0.2, 0.1, 0.02, 0.1, 0.3], 0.05),
    ])
    def test_pathwise_monotone(self, spec, grid_, eta):
        """A larger epsilon adds non-negative jumps to every path's discarded
        sum, so no count falls as epsilon grows, and a repeated epsilon
        repeats its row; a grid is reported in its own order."""
        table = epsilon_truncation_drift(spec, grid_, 20_000, 7, eta=eta)
        assert [r.epsilon for r in table.rows] == grid_
        by_eps = sorted(table.rows, key=lambda r: r.epsilon)
        for x, y in zip(by_eps, by_eps[1:]):
            assert x.count <= y.count
            assert x.epsilon < y.epsilon or x == y
        assert by_eps[-1].count > 0
        if by_eps[0].epsilon == 0:
            assert by_eps[0].count == 0
        # one coupled sample: a row does not depend on the rest of the grid
        alone = epsilon_truncation_drift(spec, [grid_[2]], 20_000, 7, eta=eta)
        assert alone.rows[0] == table.rows[2]

    def test_bands_follow_level(self):
        spec = JumpSpec(5.0, LognormalJumps(-2.0, 1.0))
        for level, z in ((0.9, 1.6449), (0.99, 2.5758)):
            table = epsilon_truncation_drift(spec, [0.2], 2000, 7, eta=0.05, level=level)
            row, = table.rows
            assert 0 < row.ci_low and row.ci_high < 1
            assert (row.ci_high - row.ci_low) / 2 / row.se == pytest.approx(z, abs=5e-5)


class TestInputErrors:
    def test_make_rng_word_range(self):
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError):
                make_rng(seed)
        assert isinstance(make_rng(2 ** 64 - 1), np.random.Generator)

    def test_trials_and_level(self):
        with pytest.raises(ValueError):
            spectrum_gap_test(SPEC, 0.5, 1.0, 2, 0, 1)
        with pytest.raises(ValueError):
            spectrum_gap_test(SPEC, 0.5, 1.0, 2, 100, 1, level=1.0)
        with pytest.raises(ValueError):
            epsilon_truncation_drift(SPEC, [0.1], 0, 1)
        with pytest.raises(ValueError):
            epsilon_truncation_drift(SPEC, [0.1], 100, 1, level=1.0)

    def test_censor_gap_refused_before_sampling(self, monkeypatch, capsys):
        def no_sampling(seed):
            raise AssertionError("sampling started")

        monkeypatch.setattr(simulator, "make_rng", no_sampling)
        for gap in ((2.0, 1.0), (0.0, 1.0), (1.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="censor gap"):
                spectrum_gap_test(SPEC, 0.5, 1.0, 2, 10 ** 7, 1, censor_gap=gap)
        argv = ["simulate", "spectrum", "--lognormal-jumps", "0:1", "--a", "0.5", "--b", "1",
                "--n", "2", "--censor-gap", "2", "1", "--trials", "10000000", "--seed", "1"]
        assert main(argv) == 2
        assert "censor gap" in capsys.readouterr().err

    def test_cli_exits_2(self, capsys):
        common = ["--lognormal-jumps", "0:1"]
        modes = (["spectrum", "--a", "0.5", "--b", "1", "--n", "2"],
                 ["epsilon", "--eps-grid", "0.1"])
        for mode in modes:
            for seed, trials in (("-1", "100"), (str(2 ** 64), "100"), ("1", "0")):
                argv = ["simulate", *mode, *common, "--seed", seed, "--trials", trials]
                assert main(argv) == 2, argv
                assert capsys.readouterr().err.startswith("error: ")

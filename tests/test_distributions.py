"""Moment generators and pmfs against closed forms and naive quadrature."""
import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from momentlab.distributions import (
    CensorSpec,
    DiscretePMF,
    LognormalSpec,
    Precision,
    gap_censored_lognormal_moments,
    geometric_pmf,
    lattice_lognormal_moments,
    leipnik_discrete_moments,
    leipnik_weights,
    lognormal_moments,
    mixed_poisson_pmf,
    poisson_moments,
    poisson_pmf,
    poisson_weights,
    psi,
    truncated_lognormal_moments,
)
from momentlab.exceptions import QuadratureError
from momentlab.moment_algebra import CumulantSequence, moments_from_cumulants

F = Fraction
P128 = Precision(128)


ORACLE_DPS = 45
ORACLE_TOL = mpf("1e-30")


def naive_lognormal_integral(alpha, s2, n, lo=None, hi=None, dps=ORACLE_DPS, tol=ORACLE_TOL):
    """Plain tanh-sinh of e^{n x} phi_{alpha, sigma}(x) over a finite window.

    The window is [alpha - 60 sigma, mode + 60 sigma] with mode =
    alpha + n sigma^2, unless lo or hi replace an end. The Gaussian peak is
    narrow against that window, so the quadrature is split at the mode and
    at mode +- 4 sigma and mode +- 8 sigma (the points inside the window),
    and runs at ``dps`` digits: 45 keeps the rounding of m_4 = e^18 at
    (alpha, sigma^2) = (0.5, 2) far below 1e-24. At 45 dps the measured
    errors against the program are at most 4e-32 for the plain lognormal
    (n <= 4), 3e-35 for the truncated one and 3e-43 for the gap differences.

    There is no tail certification; this is an independent oracle for the
    certified routines. It asserts that mpmath's own error estimate plus
    the rounding floor at ``dps`` is below ``tol``, so an oracle that has
    not converged fails here rather than in the comparison.
    """
    with mpmath.workdps(dps):
        s = mpmath.sqrt(s2)
        mode = mpf(alpha) + n * s2
        lo_x = mpf(lo) if lo is not None else mpf(alpha) - 60 * s
        hi_x = mpf(hi) if hi is not None else mode + 60 * s
        inner = [mode + k * s for k in (-8, -4, 0, 4, 8)]
        pts = [lo_x] + [x for x in inner if lo_x < x < hi_x] + [hi_x]

        def f(x):
            z = (x - alpha) / s
            return mpmath.exp(n * x - z * z / 2) / (s * mpmath.sqrt(2 * mpmath.pi))

        val, err = mpmath.quad(f, pts, error=True)
        floor = abs(val) * mpmath.eps
        assert err + floor < tol, (
            f"naive oracle not converged at n={n}: error estimate {err}, "
            f"rounding floor {floor}")
        return val


def naive_mixed_poisson_mass(alpha, s2, log_b, N, k, dps, tol):
    """p_k by plain tanh-sinh, one integral per k, as an oracle for the
    one-pass pmf.

    The window runs from log b in unit steps to 6 past ln((k+1)/N), where
    N e^x exceeds 400 (k+1), so the integrand e^{k x - N e^x} phi(x) and
    its tail are below e^-400 of their peak. It shares no split point or
    precision with the program, and asserts that mpmath's error estimate,
    scaled by N^k/k!, is below ``tol``.
    """
    with mpmath.workdps(dps):
        s = mpmath.sqrt(s2)
        lo = mpf(log_b)
        hi = max(lo, mpmath.log(mpf(k + 1) / N)) + 6
        pts = mpmath.linspace(lo, hi, int(hi - lo) + 2)

        def f(x):
            return mpmath.exp(k * x - N * mpmath.exp(x) - (x - alpha) ** 2 / (2 * s2))

        val, err = mpmath.quad(f, pts, error=True)
        scale = mpf(N) ** k / mpmath.factorial(k) / (s * mpmath.sqrt(2 * mpmath.pi))
        assert scale * err < tol, f"naive pmf oracle not converged at k={k}: {scale * err}"
        mass = scale * val
        if k == 0:
            mass += mpmath.ncdf((lo - alpha) / s)
        return mass


class TestLognormalMoments:
    def test_closed_form(self):
        m = lognormal_moments(LognormalSpec(0, 1), 6, P128)
        with mpmath.workprec(128):
            for n in range(7):
                assert abs(m[n] - mpmath.exp(n * n / mpf(2))) < mpf("1e-30")

    def test_against_naive_quadrature(self):
        m = lognormal_moments(LognormalSpec(0.5, 2), 4, P128)
        for n in range(5):
            oracle = naive_lognormal_integral(0.5, 2.0, n)
            assert abs(m[n] - oracle) < mpf("1e-24")

    def test_psi_at_zero(self):
        with mpmath.workprec(128):
            assert abs(psi(mpf(0), P128) - mpmath.sqrt(mpmath.pi / 2)) < mpf("1e-35")

    def test_psi_matches_erfc(self):
        with mpmath.workprec(128):
            for x in (-3, -1, 0, 2, 11):
                expect = mpmath.sqrt(mpmath.pi / 2) * mpmath.erfc(mpf(x) / mpmath.sqrt(2))
                assert abs(psi(mpf(x), P128) - expect) < mpf("1e-35")


class TestLatticeAndPoisson:
    def test_lattice_exact_values(self):
        m = lattice_lognormal_moments(2, 1, 4)
        assert m.values == (1, 2, 16, 512, 65536)

    def test_lattice_r_scaling(self):
        m = lattice_lognormal_moments(2, F(1, 3), 3)
        assert m[3] == F(1, 27) * 512

    def test_poisson_touchard(self):
        m = poisson_moments(1, 6)
        assert m.values == (1, 1, 2, 5, 15, 52, 203)

    def test_poisson_matches_cumulant_route(self):
        lam = F(7, 3)
        m = poisson_moments(lam, 6)
        via_kappa = moments_from_cumulants(CumulantSequence((lam,) * 6))
        assert m.values == via_kappa.values


class TestTruncatedLognormal:
    def test_quadrature_matches_closed_form(self):
        res = truncated_lognormal_moments(LognormalSpec(0, 1),
                                          CensorSpec.left_truncate(-1.4), 6, P128)
        for n in range(1, 7):
            oracle = naive_lognormal_integral(0, 1, n, lo=-1.4)
            assert abs(res.moments[n] - oracle) <= P128.tol, n

    def test_against_naive_quadrature(self):
        res = truncated_lognormal_moments(LognormalSpec(0, 1),
                                          CensorSpec.left_truncate(-1.0), 4, P128)
        for n in range(1, 5):
            oracle = naive_lognormal_integral(0, 1, n, lo=-1.0)
            assert abs(res.moments[n] - oracle) < mpf("1e-24")

    def test_conditional_normalization(self):
        res = truncated_lognormal_moments(LognormalSpec(0, 1),
                                          CensorSpec.left_truncate(-1.4), 4, P128)
        with mpmath.workprec(128):
            for n in range(1, 5):
                assert abs(res.conditional_form[n] * res.surviving_mass
                           - res.moments[n]) < mpf("1e-30")

    def test_censoring_only_removes_mass(self):
        plain = lognormal_moments(LognormalSpec(0, 1), 5, P128)
        res = truncated_lognormal_moments(LognormalSpec(0, 1),
                                          CensorSpec.left_truncate(-0.5), 5, P128)
        for n in range(1, 6):
            assert res.moments[n] < plain[n]

    def test_mu0_is_one(self):
        res = truncated_lognormal_moments(LognormalSpec(0, 1),
                                          CensorSpec.left_truncate(-2.0), 3, P128)
        assert res.moments[0] == 1


class TestGapCensoring:
    def test_tiny_gap_changes_little(self):
        plain = lognormal_moments(LognormalSpec(0, 1), 4, P128)
        gapped = gap_censored_lognormal_moments(LognormalSpec(0, 1),
                                                1.0, 1.000001, 4, P128)
        for n in range(1, 5):
            assert abs(gapped[n] - plain[n]) < mpf("1e-5")
            assert gapped[n] < plain[n]

    def test_wide_gap_removes_mass(self):
        plain = lognormal_moments(LognormalSpec(0, 1), 3, P128)
        gapped = gap_censored_lognormal_moments(LognormalSpec(0, 1),
                                                0.5, 4.0, 3, P128)
        assert gapped[0] == 1
        for n in range(1, 4):
            assert gapped[n] < plain[n]
        # the gap straddles the bulk, so the first moment loses over half
        assert gapped[1] < plain[1] / 2

    def test_matches_difference_of_naive_integrals(self):
        gapped = gap_censored_lognormal_moments(LognormalSpec(0, 1),
                                                1.0, 2.0, 3, P128)
        dps = ORACLE_DPS
        with mpmath.workdps(dps):
            for n in range(1, 4):
                whole = naive_lognormal_integral(0, 1, n, dps=dps)
                inside = naive_lognormal_integral(0, 1, n, lo=0, hi=mpmath.log(2),
                                                  dps=dps)
                assert abs(gapped[n] - (whole - inside)) < mpf("1e-24")


class TestLeipnik:
    def test_weights_sum_to_one(self):
        points, weights, n_cut = leipnik_weights(1.0, P128)
        assert len(points) == len(weights) == 2 * n_cut + 1
        with mpmath.workprec(128):
            assert abs(sum(weights) - 1) < mpf("1e-35")
        assert all(w > 0 for w in weights)

    def test_matches_lognormal_moments(self):
        m = leipnik_discrete_moments(1.0, 0.0, 6, P128)
        ln = lognormal_moments(LognormalSpec(0, 1), 6, P128)
        for n in range(1, 7):
            assert abs(m[n] / ln[n] - 1) < mpf("1e-15")

    def test_alpha_shift(self):
        m = leipnik_discrete_moments(1.0, 0.5, 4, P128)
        ln = lognormal_moments(LognormalSpec(0.5, 1), 4, P128)
        for n in range(1, 5):
            assert abs(m[n] / ln[n] - 1) < mpf("1e-15")

    def test_mu0_exactly_one(self):
        m = leipnik_discrete_moments(2.0, 0.0, 3, P128)
        assert m[0] == 1

    def test_high_orders_keep_their_digits(self):
        # the k-th summand peaks near n = k, so the cut must grow with upto
        m = leipnik_discrete_moments(1.05, 0.07, 10, P128)
        with mpmath.workprec(256):
            for k in range(1, 11):
                closed = mpmath.exp(k * mpf(0.07) + k * k * mpf(1.05) / 2)
                assert abs(m[k] / closed - 1) < mpf("1e-30"), k


class TestMixedPoissonPmf:
    def test_frozen_leading_mass(self):
        pmf = mixed_poisson_pmf(LognormalSpec(0, 1), -1.4, 10, 16, P128)
        assert abs(pmf[0] - mpf("0.0861553522325146479")) < mpf("1e-15")
        assert all(p > 0 for p in pmf.masses)

    def test_mass_accounting(self):
        pmf = mixed_poisson_pmf(LognormalSpec(0, 1), -1.4, 10, 16, P128)
        with mpmath.workprec(128):
            total = sum(pmf.masses) + pmf.tail_mass
            assert abs(total - 1) < 20 * pmf.entry_error + mpf("1e-25")
        assert mpf("0.31") < pmf.tail_mass < mpf("0.32")

    def test_entry_error_certified_small(self):
        pmf = mixed_poisson_pmf(LognormalSpec(0, 1), -1.4, 10, 8, P128)
        assert pmf.entry_error < mpf("1e-19")

    def test_zero_intensity_atom_included(self):
        # the collapsed intensity contributes its whole mass to p_0
        pmf = mixed_poisson_pmf(LognormalSpec(0, 1), -1.4, 10, 6, P128)
        below = mpf(1) - psi(mpf(-1.4), P128) / mpmath.sqrt(2 * mpmath.pi)
        assert pmf[0] > below > 0


class TestSimplePmfs:
    def test_geometric_exact(self):
        pmf = geometric_pmf(F(1, 3), 5)
        assert pmf.exact
        assert pmf[0] == F(2, 3)
        assert pmf[3] == F(2, 3) * F(1, 27)
        assert pmf.tail_mass == F(1, 3) ** 6

    def test_geometric_range_validated(self):
        with pytest.raises(ValueError):
            geometric_pmf(F(3, 2), 5)

    def test_poisson_weights_unnormalized_exact(self):
        w = poisson_weights(F(2), 4)
        assert w.exact
        assert w.masses == (1, 2, 2, F(4, 3), F(2, 3))

    def test_poisson_pmf_normalized(self):
        pmf = poisson_pmf(1.0, 12, P128)
        with mpmath.workprec(128):
            expect = mpmath.exp(mpf(-1))
            assert abs(pmf[0] - expect) < mpf("1e-30")
            assert abs(pmf[1] - expect) < mpf("1e-30")
        assert pmf.entry_error > 0


P192 = Precision(192, "1e-40")


class TestCertifiedAgainstOracle:
    """Every entry of the certified generators within its stated error of
    an independent high-precision oracle; the first parameter set of each
    generator is the benchmark's cli-session one."""

    @pytest.mark.parametrize("alpha, s2, log_b, upto, p, dps", [
        (0, 1, -1, 6, P128, ORACLE_DPS),
        (0.5, 2, 0.3, 4, P192, 60),
    ])
    def test_truncated(self, alpha, s2, log_b, upto, p, dps):
        res = truncated_lognormal_moments(LognormalSpec(alpha, s2),
                                          CensorSpec.left_truncate(log_b), upto, p)
        assert res.moments[0] == 1
        for n in range(1, upto + 1):
            oracle = naive_lognormal_integral(alpha, s2, n, lo=log_b, dps=dps,
                                              tol=p.tol / 1000)
            assert abs(res.moments[n] - oracle) <= p.tol, n

    @pytest.mark.parametrize("alpha, s2, a, b, upto, p, dps", [
        (0, 1, 0.5, 2, 6, P128, ORACLE_DPS),
        (0.2, 0.25, 1, 3, 6, P192, 60),
    ])
    def test_gap(self, alpha, s2, a, b, upto, p, dps):
        gapped = gap_censored_lognormal_moments(LognormalSpec(alpha, s2), a, b, upto, p)
        assert gapped[0] == 1
        with mpmath.workdps(dps):
            la, lb = mpmath.log(mpf(a)), mpmath.log(mpf(b))
            for n in range(1, upto + 1):
                whole = naive_lognormal_integral(alpha, s2, n, dps=dps, tol=p.tol / 1000)
                inside = naive_lognormal_integral(alpha, s2, n, lo=la, hi=lb, dps=dps,
                                                  tol=p.tol / 1000)
                assert abs(gapped[n] - (whole - inside)) <= p.tol, n

    @pytest.mark.parametrize("alpha, s2, log_b, N, kmax, p", [
        (0, 1, -1, 5, 12, P128),
        (0.3, 0.5, -0.5, 3, 10, Precision(192, "1e-45")),
    ])
    def test_mixed_poisson(self, alpha, s2, log_b, N, kmax, p):
        pmf = mixed_poisson_pmf(LognormalSpec(alpha, s2), log_b, N, kmax, p)
        assert pmf.entry_error == p.tol
        digits = -int(mpmath.log10(p.tol)) + 12
        for k in range(kmax + 1):
            oracle = naive_mixed_poisson_mass(alpha, s2, log_b, N, k, digits, p.tol / 1000)
            assert abs(pmf[k] - oracle) <= pmf.entry_error, k


class TestFailureContracts:
    """An abs_tol the precision cannot deliver, or a NaN input, ends in an
    exception, never in a file of NaNs or of uncertified numbers."""

    def test_abs_tol_below_rounding(self):
        p = Precision(128, "1e-300")
        spec = LognormalSpec(0, 1)
        with pytest.raises(QuadratureError, match="rounding bound"):
            truncated_lognormal_moments(spec, CensorSpec.left_truncate(-1), 6, p)
        with pytest.raises(QuadratureError, match="rounding bound"):
            gap_censored_lognormal_moments(spec, 0.5, 2, 6, p)
        with pytest.raises(QuadratureError, match="rounding bound"):
            mixed_poisson_pmf(spec, -1, 5, 12, p)

    def test_high_moments_need_more_bits(self):
        # mu_10 is about 5e21, so 128 bits leave it a rounding error of 1.5e-17
        spec, cut = LognormalSpec(0, 1), CensorSpec.left_truncate(-1)
        with pytest.raises(QuadratureError, match="entry 10"):
            truncated_lognormal_moments(spec, cut, 10, P128)
        with pytest.raises(QuadratureError, match="entry 10"):
            gap_censored_lognormal_moments(spec, 0.5, 2, 10, P128)
        res = truncated_lognormal_moments(spec, cut, 10, Precision(192))
        oracle = naive_lognormal_integral(0, 1, 10, lo=-1, dps=60, tol=mpf("1e-25"))
        assert abs(res.moments[10] - oracle) <= P128.tol

    def test_nan_inputs_rejected(self):
        nan = float("nan")
        with pytest.raises(ValueError):
            CensorSpec.left_truncate(nan)
        with pytest.raises(ValueError):
            LognormalSpec(nan, 1)
        with pytest.raises(ValueError):
            LognormalSpec(0, nan)
        with pytest.raises(ValueError):
            mixed_poisson_pmf(LognormalSpec(0, 1), nan, 5, 4, P128)
        with pytest.raises(ValueError):
            gap_censored_lognormal_moments(LognormalSpec(0, 1), nan, 2, 4, P128)


class TestPrecisionKnobs:
    def test_precision_tol_property(self):
        p = Precision(256, "1e-55")
        assert p.bits == 256
        with mpmath.workprec(256):
            assert p.tol < mpf("1e-54")

    def test_higher_precision_refines(self):
        lo = truncated_lognormal_moments(LognormalSpec(0, 1),
                                         CensorSpec.left_truncate(-1.4), 3,
                                         Precision(128))
        hi = truncated_lognormal_moments(LognormalSpec(0, 1),
                                         CensorSpec.left_truncate(-1.4), 3,
                                         Precision(192, "1e-40"))
        with mpmath.workprec(192):
            for n in range(1, 4):
                assert abs(lo.moments[n] - hi.moments[n]) < mpf("1e-19")

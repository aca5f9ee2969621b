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


def naive_lognormal_integral(alpha, s2, n, lo=None, hi=None, dps=ORACLE_DPS):
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
    the rounding floor at ``dps`` is below ORACLE_TOL, so an oracle that
    has not converged fails here rather than in the comparison.
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
        assert err + floor < ORACLE_TOL, (
            f"naive oracle not converged at n={n}: error estimate {err}, "
            f"rounding floor {floor}")
        return val


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
        spec = LognormalSpec(0, 1)
        res = truncated_lognormal_moments(spec, CensorSpec.left_truncate(-1.4),
                                          6, P128)
        assert res.max_abs_diff < P128.tol

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
                           - res.closed_form[n]) < mpf("1e-30")

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

"""Moment generators and pmfs against closed forms and naive quadrature."""
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mpf

from momentlab.distributions import (
    DiscretePMF,
    _lattice_ints,
    _tanh_sinh_error,
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
    truncated_lognormal_moments,
)
from momentlab.exceptions import QuadratureError
from momentlab.moment_algebra import CumulantSequence, _isobaric_scale, moments_from_cumulants
from momentlab.semigroup import lattice_family

import brute_force

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

    @pytest.mark.parametrize("lam", [F(1), F(7, 3), F(1, 10), 5, "2/9"])
    def test_poisson_matches_stirling_oracle(self, lam):
        m = poisson_moments(lam, 10)
        assert m.exact
        assert m.values == tuple(brute_force.touchard(F(lam), n) for n in range(11))
        assert poisson_moments(lam, 0).values == (1,)

    @pytest.mark.parametrize("q", [F(3, 2), 2, F(10, 3)])
    def test_lattice_family_is_the_lattice_generator(self, q):
        m = lattice_lognormal_moments(q, 1, 7)
        assert lattice_family(q, 7) == m
        assert m.values == tuple(F(q) ** (n * n) for n in range(8))

    def test_lattice_takes_rational_q_above_one(self):
        assert lattice_lognormal_moments(F(5, 2), F(2, 3), 2).values == (
            1, F(5, 3), F(625, 36))
        for q, r in ((1, 1), (F(1, 2), 1), (0, 1), (2, 0), (2, F(-1, 3))):
            with pytest.raises(ValueError):
                lattice_lognormal_moments(q, r, 3)
            if r == 1:
                with pytest.raises(ValueError):
                    lattice_family(q, 3)


class TestLatticeInts:
    """_lattice_ints against the Fractions r^n q^(n^2): integers over c^n,
    with c = w b^upto for q = a/b and r = u/w, the isobaric scale of the
    Fractions when r = 1."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40), st.integers(1, 40),
           st.integers(0, 20))
    def test_integers_over_powers_of_c(self, b, step, u, w, upto):
        q, r = F(b + step, b), F(u, w)
        c, ints = _lattice_ints(q, r, upto)
        assert c == r.denominator * q.denominator ** upto
        assert len(ints) == upto + 1
        assert all(type(x) is int for x in ints)
        assert ints == [c ** n * r ** n * q ** (n * n) for n in range(upto + 1)]
        assert lattice_lognormal_moments(q, r, upto).values == tuple(
            r ** n * q ** (n * n) for n in range(upto + 1))
        c1, _ = _lattice_ints(q, 1, upto)
        assert c1 == _isobaric_scale([q ** (n * n) for n in range(upto + 1)])


class TestTruncatedLognormal:
    def test_quadrature_matches_closed_form(self):
        res = truncated_lognormal_moments(LognormalSpec(0, 1), -1.4, 6, P128)
        for n in range(1, 7):
            oracle = naive_lognormal_integral(0, 1, n, lo=-1.4)
            assert abs(res.moments[n] - oracle) <= P128.tol, n

    def test_against_naive_quadrature(self):
        res = truncated_lognormal_moments(LognormalSpec(0, 1), -1.0, 4, P128)
        for n in range(1, 5):
            oracle = naive_lognormal_integral(0, 1, n, lo=-1.0)
            assert abs(res.moments[n] - oracle) < mpf("1e-24")

    def test_conditional_normalization(self):
        res = truncated_lognormal_moments(LognormalSpec(0, 1), -1.4, 4, P128)
        with mpmath.workprec(128):
            for n in range(1, 5):
                assert abs(res.conditional_form[n] * res.surviving_mass
                           - res.moments[n]) < mpf("1e-30")

    def test_censoring_only_removes_mass(self):
        plain = lognormal_moments(LognormalSpec(0, 1), 5, P128)
        res = truncated_lognormal_moments(LognormalSpec(0, 1), -0.5, 5, P128)
        for n in range(1, 6):
            assert res.moments[n] < plain[n]

    def test_mu0_is_one(self):
        res = truncated_lognormal_moments(LognormalSpec(0, 1), -2.0, 3, P128)
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


    @pytest.mark.parametrize("alpha, s2, a, b, upto, p", [
        (0, 1, 0.5, 2, 6, P128),
        (0.2, 0.25, 1, 3, 6, Precision(192, "1e-40")),
        (-0.7, 2.3, 0.01, 40, 4, Precision(256, "1e-50")),
    ])
    def test_gap_is_lognormal_minus_two_truncations(self, alpha, s2, a, b, upto, p):
        # the gap keeps the whole law, less its part above a, plus its part above b
        spec = LognormalSpec(alpha, s2)
        gap = gap_censored_lognormal_moments(spec, a, b, upto, p)
        plain = lognormal_moments(spec, upto, p)
        with mpmath.workprec(2 * p.bits):
            below_a = truncated_lognormal_moments(spec, mpmath.log(a), upto, p).moments
            below_b = truncated_lognormal_moments(spec, mpmath.log(b), upto, p).moments
            for n in range(upto + 1):
                terms = (plain[n], below_a[n], below_b[n])
                bound = sum(mpmath.ldexp(abs(v), -p.bits) for v in terms)
                assert abs(gap[n] - (plain[n] - below_a[n] + below_b[n])) <= bound, n


class TestLeipnik:
    def test_weights_sum_to_one(self):
        points, weights, n_cut = leipnik_weights(1.0, 6, P128)
        assert len(points) == len(weights) == 2 * n_cut + 1
        with mpmath.workprec(128):
            assert abs(sum(weights) - 1) < mpf("1e-35")
        assert all(w > 0 for w in weights)

    def test_matches_lognormal_moments(self):
        m = leipnik_discrete_moments(1.0, 0.0, 6, P128)
        assert m.values == lognormal_moments(LognormalSpec(0, 1), 6, P128).values

    def test_alpha_shift(self):
        m = leipnik_discrete_moments(1.0, 0.5, 4, P128)
        assert m.values == lognormal_moments(LognormalSpec(0.5, 1), 4, P128).values

    @pytest.mark.parametrize("sigma2, alpha, upto, p", [
        (1.0, 0.0, 6, P128),
        (0.8, 0.5, 6, P128),
        (2.0, -0.3, 4, P128),
        # the k-th summand peaks near n = k, so the cut must grow with upto
        (1.05, 0.07, 10, Precision(192, "1e-30")),
    ])
    def test_lattice_sum_is_the_oracle(self, sigma2, alpha, upto, p):
        # e^{k alpha} sum_n w_n x_n^k over the cut lattice: the shift-invariance
        # of sum_n e^{-(n-k)^2 sigma2/2} makes it the lognormal's k-th moment
        m = leipnik_discrete_moments(sigma2, alpha, upto, p)
        points, weights, _ = leipnik_weights(sigma2, upto, p)
        with mpmath.workprec(p.bits + 20):
            for k in range(upto + 1):
                lattice = mpmath.exp(k * mpf(alpha)) * sum(w * x ** k
                                                           for x, w in zip(points, weights))
                assert abs(m[k] - lattice) <= p.tol, k

    def test_mu0_exactly_one(self):
        m = leipnik_discrete_moments(2.0, 0.0, 3, P128)
        assert m[0] == 1

    def test_high_orders_keep_their_digits(self):
        # from entry 9 on, the rounding bound at 128 bits exceeds the default
        # abs_tol 1e-20 and the checked path refuses it, so run at 192 bits
        m = leipnik_discrete_moments(1.05, 0.07, 10, Precision(192))
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
        with mpmath.workprec(128):
            below = mpmath.ncdf(mpf(-1.4))
        assert pmf[0] > below > 0


    def test_kmax_must_be_non_negative(self):
        with pytest.raises(ValueError, match="kmax"):
            mixed_poisson_pmf(LognormalSpec(0, 1), -1.4, 10, -1, P128)


def column_truncation_bound(kmax: int, p: Precision):
    """An upper bound on the integer columns' documented truncation term
    columns fac_k 2^-scale_k: fac_k 2^-scale_k <= 2^-(prec + 64) with
    prec = bits + 20, and there are at most kmax + 1 intervals, each taking
    the standard nodes of every degree once, plus the tail's column."""
    prec = p.bits + 20
    rule = mpmath.mp._tanh_sinh
    nodes = sum(len(rule.get_nodes(-1, 1, degree, prec))
                for degree in range(1, rule.guess_degree(prec) + 1))
    return mpmath.ldexp(1 + (kmax + 1) * nodes, -(prec + 64))


class TestMixedPoissonIntegerColumns:
    """The integer column kernel against the mpf one it replaced
    (brute_force.mixed_poisson_pmf_mpf): every mass within its relative
    rounding 2^-bits plus the truncation of the integer columns."""

    @settings(max_examples=12, deadline=None)
    @given(alpha=st.sampled_from([-1, -0.25, 0, 0.3, 1]),
           s2=st.sampled_from([0.25, 0.5, 1, 2]),
           log_b=st.sampled_from([-3, -1, -0.5, 0.7, 2, 4]),
           N=st.integers(1, 20), kmax=st.integers(0, 20),
           p=st.sampled_from([P128, Precision(192, "1e-40")]))
    # N = 20 at kmax = 20 puts fac_20 near 2^25, where one absolute
    # scale for every k would show; log b = 4 at N = 1 gives masses
    # near 1e-31, far below abs_tol, where only the truncation shows
    @example(alpha=0, s2=1, log_b=-1, N=20, kmax=20, p=P128)
    @example(alpha=0, s2=0.5, log_b=4, N=1, kmax=16, p=P128)
    # too narrow a Gaussian for the last degree: both refuse the certificate
    @example(alpha=0, s2=0.0001, log_b=-3, N=5, kmax=4, p=P128)
    def test_matches_mpf_columns(self, alpha, s2, log_b, N, kmax, p):
        spec = LognormalSpec(alpha, s2)
        try:
            old = brute_force.mixed_poisson_pmf_mpf(spec, log_b, N, kmax, p)
        except QuadratureError:
            with pytest.raises(QuadratureError):
                mixed_poisson_pmf(spec, log_b, N, kmax, p)
            return
        new = mixed_poisson_pmf(spec, log_b, N, kmax, p)
        assert new.entry_error == old.entry_error
        with mpmath.workprec(p.bits + 20):
            trunc = column_truncation_bound(kmax, p)
            for k, (a, b) in enumerate(zip(new.masses, old.masses)):
                assert abs(a - b) <= mpmath.ldexp(abs(b), -p.bits) + trunc, k


@st.composite
def level_triples(draw):
    """(prec, [I1, I2, I3]): three level sums whose differences are drawn
    among zero, exact powers of ten, 10^-k at prec and drawn values."""
    prec = draw(st.sampled_from([84, 148, 276, 532]))
    with mpmath.workprec(prec):
        def step():
            kind = draw(st.sampled_from(["zero", "ten", "tenth", "drawn"]))
            k = draw(st.integers(0, 60))
            sign = draw(st.sampled_from([1, -1]))
            if kind == "zero":
                return mpf(0)
            if kind == "ten":
                return sign * mpf(10) ** min(k, 6)
            if kind == "tenth":
                return sign * mpf(10) ** -k
            return sign * mpf(draw(st.floats(0.1, 10))) * mpf(10) ** -k
        base = draw(st.sampled_from([mpf(0), mpf(1) / 3, mpf("0.75"), mpf(-12)]))
        first = base + step()
        return prec, [base, first, first + step()]


class TestTanhSinhError:
    """_tanh_sinh_error returns what mpmath's TanhSinh.estimate_error
    returns, which the quadrature's refinement and certificate read; where
    mpmath divides by a zero log10 (a difference of exactly 1), both raise."""

    rule = mpmath.mp._tanh_sinh

    def assert_same(self, results, prec):
        def outcome(estimate, *args):
            try:
                return estimate(*args)
            except ZeroDivisionError as exc:
                return type(exc)
        with mpmath.workprec(prec):
            assert (outcome(_tanh_sinh_error, self.rule, results, prec)
                    == outcome(self.rule.estimate_error, results, prec, mpmath.eps))

    @settings(max_examples=400, deadline=None)
    @given(case=level_triples())
    def test_equals_estimate_error(self, case):
        self.assert_same(case[1], case[0])

    def test_equal_values_and_exact_powers_of_ten(self):
        with mpmath.workprec(148):
            cases = ([mpf(2)] * 3, [mpf(1), mpf(2), mpf(2)], [mpf(2), mpf(1), mpf(2)],
                     [mpf(0), mpf(10), mpf(110)], [mpf(0), mpf(1000), mpf(1010)],
                     [mpf(0), mpf(1), mpf(1)],
                     [mpf(0), mpf(10) ** -20, mpf(10) ** -20 + mpf(10) ** -30])
        for results in cases:
            self.assert_same(results, 148)

    def test_typical_triple_skips_the_logs(self, monkeypatch):
        monkeypatch.setattr(self.rule, "estimate_error", None)
        with mpmath.workprec(148):
            results = [mpf("0.3125"), mpf("0.3125") + mpf("3.7e-9"),
                       mpf("0.3125") + mpf("3.7e-9") + mpf("1.3e-17")]
            assert _tanh_sinh_error(self.rule, results, 148) == mpf(10) ** -33


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
        w = brute_force.poisson_weights(F(2), 4)
        assert w.exact
        assert w.masses == (1, 2, 2, F(4, 3), F(2, 3))

    def test_poisson_pmf_normalized(self):
        pmf = poisson_pmf(1.0, 12, P128)
        with mpmath.workprec(128):
            expect = mpmath.exp(mpf(-1))
            assert abs(pmf[0] - expect) < mpf("1e-30")
            assert abs(pmf[1] - expect) < mpf("1e-30")
        assert pmf.entry_error > 0

    @pytest.mark.parametrize("lam, kmax", [(0.05, 12), (0.5, 40), (20, 5)])
    def test_poisson_tail_mass(self, lam, kmax):
        # at 64 bits 1 - sum(masses) gives -1.03e-25 at (0.05, 12), where the
        # tail is 1.87e-27, and exactly 0 at (0.5, 40), which
        # logconvex_pmf_check would read as a whole law
        tail = poisson_pmf(lam, kmax, Precision(64)).tail_mass
        with mpmath.workprec(200):
            lam_ = mpf(lam)
            want = sum(mpmath.exp(m * mpmath.log(lam_) - lam_ - mpmath.loggamma(m + 1))
                       for m in range(kmax + 1, kmax + 300))
            assert tail > 0 and abs(tail - want) <= want * mpf(2) ** -40, (tail, want)


class TestPmfTailMass:
    """tail_mass is on the pmf's backend, as its masses and entry_error are."""

    def test_exact_pmf_refuses_an_mpf_tail(self):
        with pytest.raises(TypeError):
            DiscretePMF((F(1, 2), F(1, 4)), exact=True, tail_mass=mpf("0.5"))
        assert DiscretePMF((F(1, 2),), exact=True, tail_mass=1).tail_mass == F(1)

    def test_decimal_pmf_tail_is_an_mpf_at_its_precision(self):
        pmf = DiscretePMF((mpf("0.5"),), exact=False, precision_bits=64, tail_mass=F(1, 3))
        assert isinstance(pmf.tail_mass, mpf)
        with mpmath.workprec(64):
            assert pmf.tail_mass == mpf(1) / 3
        assert pmf.tail_mass != F(1, 3)

    def test_no_tail_stays_none(self):
        assert DiscretePMF((F(1, 2),)).tail_mass is None
        assert DiscretePMF((mpf("0.5"),), exact=False, precision_bits=64).tail_mass is None


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
        res = truncated_lognormal_moments(LognormalSpec(alpha, s2), log_b, upto, p)
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
            truncated_lognormal_moments(spec, -1, 6, p)
        with pytest.raises(QuadratureError, match="rounding bound"):
            gap_censored_lognormal_moments(spec, 0.5, 2, 6, p)
        with pytest.raises(QuadratureError, match="rounding bound"):
            mixed_poisson_pmf(spec, -1, 5, 12, p)

    @pytest.mark.parametrize("abs_tol", ["nan", "-1", "-1e-30", "inf", "+inf", float("nan"),
                                         -0.5, float("inf")])
    def test_abs_tol_must_be_finite_and_non_negative(self, abs_tol):
        with pytest.raises(ValueError, match="abs_tol must be finite and non-negative"):
            Precision(128, abs_tol)

    def test_zero_abs_tol_is_uncertifiable(self):
        # a target of 0 is a valid request that no entry can meet
        p = Precision(128, "0")
        with pytest.raises(QuadratureError, match="above abs_tol"):
            lognormal_moments(LognormalSpec(0, 1), 2, p)
        with pytest.raises(QuadratureError):
            mixed_poisson_pmf(LognormalSpec(0, 1), -1, 5, 3, p)

    def test_high_moments_need_more_bits(self):
        # mu_10 is about 5e21, so 128 bits leave it a rounding error of 1.5e-17
        spec, cut = LognormalSpec(0, 1), -1
        with pytest.raises(QuadratureError, match="entry 10"):
            truncated_lognormal_moments(spec, cut, 10, P128)
        with pytest.raises(QuadratureError, match="entry 10"):
            gap_censored_lognormal_moments(spec, 0.5, 2, 10, P128)
        res = truncated_lognormal_moments(spec, cut, 10, Precision(192))
        oracle = naive_lognormal_integral(0, 1, 10, lo=-1, dps=60, tol=mpf("1e-25"))
        assert abs(res.moments[10] - oracle) <= P128.tol

    def test_lognormal_moments_certified(self):
        # mu_10 = e^50 is about 5e21: 128 bits leave it a rounding error of
        # 1.5e-17 (mu_12 one of 5.5e-8), so a 1e-20 target is refused
        # rather than written
        spec = LognormalSpec(0, 1)
        with pytest.raises(QuadratureError, match="entry 10"):
            lognormal_moments(spec, 12, P128)
        m = lognormal_moments(spec, 12, Precision(256))
        with mpmath.workprec(600):
            for n in range(13):
                assert abs(m[n] - mpmath.exp(mpf(n * n) / 2)) <= P128.tol

    def test_conditional_moments_certified(self):
        # a cut at log b = 8 leaves surviving mass Phi_bar(8) ~ 6e-16, so the
        # conditional mu_6 ~ 2.4e21 carries a rounding bound of 7e-18
        spec, cut = LognormalSpec(0, 1), 8
        res = truncated_lognormal_moments(spec, cut, 6, P128)
        with pytest.raises(QuadratureError, match="entry 6"):
            res.conditional_moments(P128)
        p = Precision(256, "1e-20")
        m = truncated_lognormal_moments(spec, cut, 6, p).conditional_moments(p)
        assert m.precision_bits == 256 and m[0] == 1
        with mpmath.workprec(600):
            for n in range(1, 7):
                exact = (mpmath.exp(mpf(n * n) / 2) * mpmath.ncdf(n - 8) / mpmath.ncdf(-8))
                assert abs(m[n] - exact) <= p.tol

    def test_nan_inputs_rejected(self):
        nan = float("nan")
        with pytest.raises(ValueError):
            truncated_lognormal_moments(LognormalSpec(0, 1), nan, 4, P128)
        with pytest.raises(ValueError):
            LognormalSpec(nan, 1)
        with pytest.raises(ValueError):
            LognormalSpec(0, nan)
        with pytest.raises(ValueError):
            mixed_poisson_pmf(LognormalSpec(0, 1), nan, 5, 4, P128)
        with pytest.raises(ValueError):
            gap_censored_lognormal_moments(LognormalSpec(0, 1), nan, 2, 4, P128)

    def test_rational_spec_parameters(self):
        # alpha and sigma2 may be Fractions, read at the working precision
        spec = LognormalSpec(F(-1, 2), F(1, 4))
        assert lognormal_moments(spec, 4, P128) == lognormal_moments(
            LognormalSpec(-0.5, 0.25), 4, P128)
        pmf = mixed_poisson_pmf(spec, -1, 5, 4, P128)
        assert pmf == mixed_poisson_pmf(LognormalSpec(-0.5, 0.25), -1, 5, 4, P128)
        for alpha, s2 in ((0, F(0)), (0, F(-1, 4))):
            with pytest.raises(ValueError):
                LognormalSpec(alpha, s2)


    @pytest.mark.parametrize("log_b", [float("nan"), float("inf"), float("-inf")])
    def test_truncation_needs_a_finite_cut(self, log_b):
        with pytest.raises(ValueError, match="finite"):
            truncated_lognormal_moments(LognormalSpec(0, 1), log_b, 4, P128)


class TestPrecisionKnobs:
    def test_precision_tol_property(self):
        p = Precision(256, "1e-55")
        assert p.bits == 256
        with mpmath.workprec(256):
            assert p.tol < mpf("1e-54")

    def test_higher_precision_refines(self):
        lo = truncated_lognormal_moments(LognormalSpec(0, 1), -1.4, 3, Precision(128))
        hi = truncated_lognormal_moments(LognormalSpec(0, 1), -1.4, 3,
                                         Precision(192, "1e-40"))
        with mpmath.workprec(192):
            for n in range(1, 4):
                assert abs(lo.moments[n] - hi.moments[n]) < mpf("1e-19")

"""Katti rates and the log-convexity certificate of decimal pmfs,
certified at the pmf's own precision, and exact round trips through the
Katti recursion."""
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv, mpf

from momentlab.distributions import (DiscretePMF, LognormalSpec, Precision, geometric_pmf,
                                     mixed_poisson_pmf, poisson_pmf)
from momentlab.divisibility import katti_r, logconvex_pmf_check, pmf_from_rates
from momentlab.exceptions import PrecisionError
from momentlab.moment_algebra import _exact
from momentlab.seqfile import pmf_to_doc, sequence_from_doc

import brute_force

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=30)
positive = st.fractions(min_value=Fraction(1, 30), max_value=5, max_denominator=30)


@pytest.fixture(scope="module")
def pmf():
    return mixed_poisson_pmf(LognormalSpec(0, 1), -1, 5, 16, Precision(128))


def decimal_pmf(masses, error):
    """A 64-bit decimal pmf of the given mass strings and entry error."""
    with mpmath.workprec(64):
        return DiscretePMF(tuple(mpf(m) for m in masses), exact=False, precision_bits=64,
                           entry_error=Fraction(error))


def point_rates(masses, kmax):
    """The Katti recursion on the point masses, at 400 bits."""
    with mpmath.workprec(400):
        p = [mpf(v) for v in masses]
        r = []
        for j in range(kmax + 1):
            acc = (j + 1) * p[j + 1]
            for k in range(j):
                acc -= p[j - k] * r[k]
            r.append(acc / p[0])
    return r


def interval_rates(pmf, kmax):
    """The recursion on the masses widened by their error, in 400-bit
    interval arithmetic: (low, high) ends of each rate."""
    saved = iv.prec
    try:
        iv.prec = 400
        # mp.prec too: negating the error and reading the ends round at it
        with mpmath.workprec(400):
            e = mpf(pmf.entry_error)
            err = iv.mpf([-e, e])
            p = [iv.mpf(v) + err for v in pmf.masses]
            r = []
            for j in range(kmax + 1):
                acc = (j + 1) * p[j + 1]
                for k in range(j):
                    acc -= p[j - k] * r[k]
                r.append(acc / p[0])
            return [(mpf(x.a), mpf(x.b)) for x in r]
    finally:
        iv.prec = saved


class TestKattiInterval:
    def test_rates_within_their_radii(self, pmf):
        # the point masses lie inside the widened intervals, so the rates
        # they give must lie within the reported radii of the midpoints
        rep = katti_r(pmf)
        with mpmath.workprec(400):
            assert abs(rep.r[0] - pmf.masses[1] / pmf.masses[0]) <= rep.radii[0]
            for k, exact in enumerate(point_rates(pmf.masses, rep.kmax)):
                assert abs(rep.r[k] - exact) <= rep.radii[k], k
        assert rep.error_bound == max(rep.radii)

    def test_radii_are_tight_at_pmf_precision(self, pmf):
        # each radius reaches both ends of the rate's interval, and exceeds
        # the half width by no more than the rounding of the midpoint
        rep = katti_r(pmf)
        with mpmath.workprec(400):
            for k, (lo, hi) in enumerate(interval_rates(pmf, rep.kmax)):
                mid, rad = rep.r[k], rep.radii[k]
                assert mid - rad <= lo and hi <= mid + rad, k
                assert rad <= (hi - lo) / 2 + abs(mid) * mpf(2) ** (1 - pmf.precision_bits), k

    def test_error_swamping_every_rate_is_inconclusive(self):
        # midpoints near 0.90 and -0.08, error bound near 2.7: no sign is certified
        rep = katti_r(decimal_pmf(("0.5", "0.3", "0.2"), "0.2"))
        assert all(abs(v) <= rep.error_bound for v in rep.r)
        assert rep.certified_negative == () and rep.verdict == "inconclusive"

    def test_error_past_p0_refuses_the_recursion(self):
        with pytest.raises(PrecisionError, match="p_0 - error does not exceed 0"):
            katti_r(decimal_pmf(("0.1", "0.3", "0.2"), "0.2"))


class TestPmfBackend:
    """A pmf's masses go through the backend its `exact` names, as a
    MomentSequence's values do."""

    def test_exact_pmf_refuses_precision_bits(self):
        with pytest.raises(ValueError, match="precision_bits"):
            DiscretePMF((1, 2), exact=True, precision_bits=128)

    def test_decimal_pmf_reads_fractions(self):
        masses = tuple(Fraction(1, 3 ** k) for k in range(6))
        pmf = DiscretePMF(masses, exact=False, precision_bits=128,
                          entry_error=Fraction(1, 3 * 10 ** 30))
        with mpmath.workprec(128):
            assert pmf.masses == tuple(mpf(1) / 3 ** k for k in range(6))
        # the error bound is rounded up, by less than one unit in its last place
        error = _exact(pmf.entry_error)
        assert Fraction(1, 3 * 10 ** 30) < error < Fraction(1, 3 * 10 ** 30) * (1 + Fraction(1, 2 ** 127))
        rep = katti_r(pmf)
        with mpmath.workprec(128):
            assert abs(rep.r[0] - mpf(1) / 3) <= rep.radii[0]
        back = sequence_from_doc(pmf_to_doc(pmf))
        assert back.masses == pmf.masses and back.entry_error == pmf.entry_error


class TestLogConvexCertificate:
    def test_small_violation_is_not_certified(self):
        # p_1^2 - p_0 p_2 = +6.7e-26 against an entry error of 1e-40
        with mpmath.workprec(128):
            masses = [mpf(1) / 3 ** k for k in range(6)]
            masses[1] += mpf("1e-25")
            pmf = DiscretePMF(tuple(masses), exact=False, precision_bits=128,
                              entry_error=mpf("1e-40"))
        verdict = logconvex_pmf_check(pmf)
        assert (verdict.kind, verdict.witness) == ("not-log-convex", 1)
        assert not verdict.certifies_id

    def test_error_wider_than_the_margin_is_uncertified(self):
        # p_k^2 = p_{k-1} p_{k+1} at every k: the widened masses decide neither way
        verdict = logconvex_pmf_check(decimal_pmf(("0.4", "0.2", "0.1", "0.05"), "1e-3"))
        assert (verdict.kind, verdict.witness) == ("uncertified", 1)
        assert not verdict.certifies_id

    def test_mixed_poisson_verdict(self, pmf):
        verdict = logconvex_pmf_check(pmf)
        assert (verdict.kind, verdict.witness) == ("not-log-convex", 2)

    @pytest.mark.parametrize("masses, witness", [
        ((Fraction(1, 2),) * 2, 2),  # Bernoulli(1/2)
        ((Fraction(1, 3),) * 3, 3),  # uniform on {0, 1, 2}
    ])
    def test_whole_finite_law_is_inapplicable(self, masses, witness):
        # exact masses that sum to 1 are the whole law, so p_(kmax+1) = 0;
        # a stated tail mass of 0 says the same. Bounded support, so not ID
        for pmf in (DiscretePMF(masses), DiscretePMF(masses, tail_mass=0)):
            verdict = logconvex_pmf_check(pmf)
            assert (verdict.kind, verdict.witness) == ("inapplicable", witness)
            assert not verdict.certifies_id


class TestRoundTrips:
    @settings(max_examples=40, deadline=None)
    @given(rates=st.lists(fractions, min_size=1, max_size=8))
    def test_rates_come_back_exactly(self, rates):
        rep = katti_r(pmf_from_rates(rates, len(rates)))
        assert rep.exact and rep.r == tuple(rates)
        assert rep.certified_negative == tuple(k for k, r in enumerate(rates) if r < 0)

    @settings(max_examples=30, deadline=None)
    @given(lam=positive, kmax=st.integers(1, 12))
    def test_poisson_weights_have_one_rate(self, lam, kmax):
        rep = katti_r(brute_force.poisson_weights(lam, kmax + 1))
        assert rep.r == (lam,) + (0,) * kmax
        assert rep.verdict == "no-certified-negative"

    @settings(max_examples=30, deadline=None)
    @given(rho=st.fractions(min_value=Fraction(1, 50), max_value=Fraction(49, 50),
                            max_denominator=50), kmax=st.integers(2, 12))
    def test_geometric_rates_are_powers(self, rho, kmax):
        pmf = geometric_pmf(rho, kmax + 1)
        assert katti_r(pmf).r == tuple(rho ** (k + 1) for k in range(kmax + 1))
        assert logconvex_pmf_check(pmf).certifies_id

    @settings(max_examples=25, deadline=None)
    @given(lam=st.floats(min_value=0.05, max_value=20), kmax=st.integers(2, 24),
           bits=st.sampled_from((64, 128, 256)))
    def test_decimal_poisson_never_certified_negative(self, lam, kmax, bits):
        rep = katti_r(poisson_pmf(lam, kmax, Precision(bits)))
        assert rep.certified_negative == ()
        with mpmath.workprec(bits):
            assert abs(rep.r[0] - mpf(lam)) <= rep.radii[0]

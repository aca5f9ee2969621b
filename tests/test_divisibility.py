"""Katti rates and the log-convexity certificate of decimal pmfs,
certified at the pmf's own precision."""
import mpmath
import pytest
from mpmath import iv, mpf

from momentlab.distributions import DiscretePMF, LognormalSpec, Precision, mixed_poisson_pmf
from momentlab.divisibility import katti_r, logconvex_pmf_check


@pytest.fixture(scope="module")
def pmf():
    return mixed_poisson_pmf(LognormalSpec(0, 1), -1, 5, 16, Precision(128))


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

    def test_mixed_poisson_verdict(self, pmf):
        verdict = logconvex_pmf_check(pmf)
        assert (verdict.kind, verdict.witness) == ("not-log-convex", 2)

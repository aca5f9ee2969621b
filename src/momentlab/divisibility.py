"""Infinite-divisibility tests for lattice distributions.

The recursion test recovers the compound-Poisson jump rates (r_k) implied by
a pmf: a distribution on the non-negative integers is infinitely divisible
exactly when its probability generating function is exp(lambda (Q(z) - 1))
with Q a pgf, which forces

    (j + 1) p_{j+1} = sum_{k=0}^{j} p_{j-k} r_k,      r_k >= 0.

Solving for r_k (Katti's test) and finding a certified negative entry
therefore disproves infinite divisibility. On exact pmfs the recursion runs
in rational arithmetic; on approximate pmfs every p_k is widened to an
interval of its stated error and the recursion runs in outward-rounded
interval arithmetic, so a sign claim survives any error assignment within
the bounds. The recursion is scale invariant, so unnormalized exact weights
are fine. mpmath comes through moment_algebra's lazy binding, so an exact
pmf never runs it.

The companion check is the classical sufficient condition: a pmf with
everywhere-positive masses that is log-convex (p_k^2 <= p_{k-1} p_{k+1}) is
infinitely divisible. Failing it says nothing. It reads the masses through
kmax, so on a prefix a pass certifies ID only for a law that stays
log-convex past kmax; a whole law (no mass past kmax) has a zero mass at
kmax + 1, and the condition does not apply to it.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from .distributions import DiscretePMF
from .exceptions import PrecisionError
from .moment_algebra import Record, _exact, mpmath


class KattiReport(Record):
    """Recovered rates r_0..r_kmax with certified radii.

    error_bound is the largest radius; following the conservative reading,
    an entry counts as negative only when r_k + error_bound < 0. verdict is
    "not-infinitely-divisible" when a certified negative exists,
    "inconclusive" when the error bound swamps every entry's sign, and
    "no-certified-negative" otherwise (a finite prefix cannot certify ID).
    """

    r: tuple
    radii: tuple
    error_bound: Union[Fraction, mpmath.mpf]
    kmax: int
    exact: bool

    @property
    def certified_negative(self) -> tuple:
        return tuple(k for k, v in enumerate(self.r) if v + self.error_bound < 0)

    @property
    def first_negative(self) -> Optional[int]:
        neg = self.certified_negative
        return neg[0] if neg else None

    @property
    def verdict(self) -> str:
        if self.certified_negative:
            return "not-infinitely-divisible"
        if not self.exact and all(abs(v) <= self.error_bound for v in self.r):
            return "inconclusive"
        return "no-certified-negative"


def _katti_rates(p, kmax: int) -> list:
    """r_0..r_kmax from masses p by the recursion, in the arithmetic of p's
    entries: Fractions or intervals."""
    r = []
    for j in range(kmax + 1):
        acc = (j + 1) * p[j + 1]
        for k in range(j):
            acc -= p[j - k] * r[k]
        r.append(acc / p[0])
    return r


def _katti_interval(pmf: DiscretePMF, kmax: int) -> KattiReport:
    bits = pmf.precision_bits
    iv, mpf = mpmath.iv, mpmath.mpf
    saved = iv.prec
    try:
        iv.prec = bits + 20
        # plain mpf steps (the negation below, reading the ends) round at
        # mp.prec, so it is raised to iv.prec as well
        with mpmath.workprec(iv.prec):
            # widen each point value by the stated error, rounded up, in
            # interval arithmetic, so the endpoints round outward and
            # containment is preserved
            e = mpf(pmf.entry_error, rounding="u")
            err = iv.mpf([-e, e])
            p = [iv.mpf(v) + err for v in pmf.masses]
            if not p[0] > 0:
                raise PrecisionError("p_0 - error does not exceed 0; cannot run the recursion")
            ends = [(mpf(x.a), mpf(x.b)) for x in _katti_rates(p, kmax)]
    finally:
        iv.prec = saved
    # midpoints at the pmf's own precision; each radius is rounded up, so it
    # still reaches both ends of its interval from the rounded midpoint
    with mpmath.workprec(bits):
        mids = tuple((lo + hi) / 2 for lo, hi in ends)
        radii = tuple(max(mpmath.fsub(hi, mid, rounding="u"), mpmath.fsub(mid, lo, rounding="u"))
                      for (lo, hi), mid in zip(ends, mids))
    return KattiReport(mids, radii, max(radii), kmax, exact=False)


def katti_r(pmf: DiscretePMF, kmax: Optional[int] = None) -> KattiReport:
    """Recover (r_k) for k = 0..kmax; needs masses up to index kmax + 1.

    kmax defaults to len(pmf) - 2, using the whole pmf.
    """
    if len(pmf.masses) < 2:
        raise ValueError("katti needs masses p_0 and p_1, got p_0 only")
    if kmax is None:
        kmax = len(pmf.masses) - 2
    if kmax < 0:
        raise ValueError("kmax out of range")
    if kmax + 1 > pmf.kmax:
        raise ValueError("need masses up to index kmax + 1 = %d" % (kmax + 1))
    if not pmf.exact:
        return _katti_interval(pmf, kmax)
    p = [Fraction(v) for v in pmf.masses]
    if p[0] <= 0:
        raise ValueError("katti_r needs p_0 > 0")
    r = tuple(_katti_rates(p, kmax))
    return KattiReport(r, (Fraction(0),) * len(r), Fraction(0), kmax, exact=True)


class LogConvexVerdict(Record):
    """kind: "log-convex" (ID certificate for a law that stays log-convex
    past kmax), "not-log-convex" (no conclusion), "inapplicable" (a zero
    or sign-uncertified mass in range, or a whole law), or "uncertified"
    (error bounds too wide to decide either way)."""

    kind: str
    witness: Optional[int] = None

    @property
    def certifies_id(self) -> bool:
        return self.kind == "log-convex"


def logconvex_pmf_check(pmf: DiscretePMF) -> LogConvexVerdict:
    """Check p_k^2 <= p_{k-1} p_{k+1} on every mass of the pmf.

    All comparisons are certified against the pmf's entry error: each mass
    is widened by it and compared in exact rational arithmetic. The check
    needs every mass positive, so a mass not certified positive is
    "inapplicable" at its index. So is a whole law, kmax + 1 as witness:
    one whose tail_mass is 0, or exact with no tail_mass and masses summing
    to 1, has p_(kmax+1) = 0. On a prefix, "log-convex" reads k <= kmax
    only, and is an infinite-divisibility certificate for a law that stays
    log-convex past kmax (scale invariant, so unnormalized exact weights
    work too).
    """
    err = Fraction(0) if pmf.exact else _exact(pmf.entry_error)
    p = [_exact(v) for v in pmf.masses]
    for k, v in enumerate(p):
        if not v - err > 0:
            return LogConvexVerdict("inapplicable", k)
    tail = pmf.tail_mass
    whole = tail == 0 if tail is not None else pmf.exact and sum(p) == 1
    if whole:
        return LogConvexVerdict("inapplicable", pmf.kmax + 1)
    uncertified = None
    for k in range(1, pmf.kmax):
        holds = (p[k] + err) ** 2 <= (p[k - 1] - err) * (p[k + 1] - err)
        fails = (p[k] - err) ** 2 > (p[k - 1] + err) * (p[k + 1] + err)
        if fails:
            return LogConvexVerdict("not-log-convex", k)
        if not holds and uncertified is None:
            uncertified = k
    if uncertified is not None:
        return LogConvexVerdict("uncertified", uncertified)
    return LogConvexVerdict("log-convex")


def pmf_from_rates(rates, kmax: int) -> DiscretePMF:
    """Exact pmf (up to the e^{-lambda} normalizer) with prescribed rates.

    Runs the defining recursion forward from p_0 = 1:
    p_{j+1} = (sum_{k<=j} p_{j-k} r_k) / (j + 1). With non-negative rates
    this is the compound-Poisson construction, so katti_r on the result
    recovers the rates exactly; useful as a round-trip oracle and for
    building ID test fixtures.
    """
    rs = [Fraction(v) for v in rates]
    if len(rs) < kmax:
        rs = rs + [Fraction(0)] * (kmax - len(rs))
    p = [Fraction(1)]
    for j in range(kmax):
        acc = Fraction(0)
        for k in range(j + 1):
            acc += p[j - k] * rs[k]
        p.append(acc / (j + 1))
    return DiscretePMF(masses=tuple(p), exact=True)

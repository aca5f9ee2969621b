"""Structure checks for the t-indexed Maxwell-Boltzmann composition family.

The composed moments mu^(t)_n are polynomials in t, and the semigroup law
"compose at s, then convolve with the composition at t, and you get the
composition at s+t" holds exactly when the family equals its own t-power at
1: the t-power (moment_algebra._t_power_rows) of its values at t = 1. This
module checks the law that way, in exact arithmetic on integer rows,
examines the alternating-term structure of a single composed moment, checks
the two-sided envelope t*mu_n >= mu^(t)_n > (1-theta)*t*mu_n for log-convex
input, and runs the empirical theta-threshold scan on the canonical lattice
family mu_n = q^(n^2), whose log-convexity ratio is the constant
theta = 1/q^2.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import isqrt
from typing import Optional, Sequence

from .distributions import lattice_lognormal_moments
from .moment_algebra import (MomentSequence, Record, _bell_rows, _composition_sum,
                             _kappas_from_moments, _t_power_rows)
from .stieltjes import PositivityVerdict, stieltjes_verdict


class SemigroupIdentityReport(Record):
    """Outcome of the semigroup law mu^(s) * mu^(t) = mu^(s+t) through the
    given depth; first_failure is the first n at which it breaks."""

    depth: int
    holds: bool
    first_failure: Optional[int] = None

    def __bool__(self) -> bool:
        return self.holds


def _semigroup_first_failure(rows: Sequence) -> Optional[int]:
    """First n at which sum_j C(n,j) P_j(s) P_{n-j}(t) = P_n(s+t) fails.

    rows[n] lists the coefficients of P_n in powers of t, for P_0..P_N.
    The law holds exactly when the family is the t-power of its own value
    at t = 1: the partial Bell rows of the cumulants kappa_n(1) of the
    moments P_n(1) (moment_algebra._t_power_rows). This returns the first
    n at which rows[n] differs from that row, trailing zeros ignored, or
    None. Proof: when the rows agree through n-1, kappa_1(t)..kappa_{n-1}(t)
    are kappa_k(1)*t, and row n differs from the expected row by
    kappa_n(t) - kappa_n(1)*t; that is zero exactly when kappa_n(t) is c*t,
    and a polynomial with p(s+t) = p(s) + p(t) is c*t. Scaling each P_n by
    c^n scales both rows by c^n, so the integer rows of _t_power_rows give
    the same answer as the rational polynomials.
    """
    expected = _bell_rows(_kappas_from_moments([sum(r) for r in rows]))
    return next((n for n, (row, want) in enumerate(zip(rows, expected))
                 if any(a != b for a, b in zip_longest(row, want, fillvalue=0))), None)


def _composed_at(c: int, rows: Sequence, t: Fraction) -> list:
    """The composed moments sum_j rows[n][j] t^j / c^n at t = u/v, from the
    integer rows of _t_power_rows: entry n is the integer
    sum_j rows[n][j] u^j v^(n-j) over (c v)^n, one Fraction each."""
    u, v = t.numerator, t.denominator
    up, vp = [1], [1]
    for _ in range(1, len(rows)):
        up.append(up[-1] * u)
        vp.append(vp[-1] * v)
    return [Fraction(sum(b * up[j] * vp[n - j] for j, b in enumerate(r)), (c * v) ** n)
            for n, r in enumerate(rows)]


def mb_semigroup_identity(m: MomentSequence, depth: int) -> SemigroupIdentityReport:
    """Verify sum_j C(n,j) mu^(s)_j mu^(t)_{n-j} = mu^(s+t)_n exactly, as
    polynomials in (s, t), for every n <= depth.

    Checked by _semigroup_first_failure on the integer rows of the t-power.
    """
    m.require_exact("mb_semigroup_identity")
    if depth > m.degree:
        raise ValueError(f"depth {depth} exceeds sequence degree {m.degree}")
    n = _semigroup_first_failure(_t_power_rows(m.values[:depth + 1])[1])
    return SemigroupIdentityReport(depth, n is None, n)


# ---------------------------------------------------------------------------
# alternating-term structure of a single composed moment


class AlternationReport(Record):
    """Term-by-term structure of mu^(t)_n grouped by occupancy count j.

    terms[j-1] is C(t,j) * S_j(n) for j = 1..n, so the composed moment is
    their plain sum. The four checks are reported independently; `holds`
    is their conjunction. Preconditions (t inside (0,1), strict
    log-convexity of the examined prefix) are reported, never enforced:
    a failure outside the precondition region is informative, not an error.
    """

    t: Fraction
    n: int
    terms: tuple
    leading_term: Fraction
    leading_matches: bool
    signs_alternate: bool
    moduli_nonincreasing: bool
    tails_bounded: bool
    preconditions: dict

    @property
    def holds(self) -> bool:
        return (self.leading_matches and self.signs_alternate
                and self.moduli_nonincreasing and self.tails_bounded)


def alternation_check(m: MomentSequence, t, n: int) -> AlternationReport:
    """Group mu^(t)_n by occupancy count and test the alternating pattern.

    Checks that the j=1 term equals t*mu_n, that term signs alternate with
    j, that absolute values never increase, and that each tail sum is no
    larger in modulus than the term just before it.
    """
    m.require_exact("alternation_check")
    t = Fraction(t)
    if not 1 <= n <= m.degree:
        raise ValueError("need 1 <= n <= degree")
    vals = m.values
    terms = []
    binom = Fraction(1)  # C(t, j), built up one factor (t - j + 1) / j at a time
    for j, s in enumerate(_composition_sum(vals, n), start=1):
        binom = binom * (t - j + 1) / j
        terms.append(binom * s)
    terms = tuple(terms)

    leading = t * vals[n]
    signs_ok = all((-1) ** j * terms[j] > 0 if terms[j] else False
                   for j in range(len(terms)))
    moduli = [abs(x) for x in terms]
    moduli_ok = all(a >= b for a, b in zip(moduli, moduli[1:]))
    tails_ok = True
    tail = Fraction(0)
    for j in range(len(terms) - 1, 0, -1):
        tail += terms[j]
        if abs(tail) > moduli[j - 1]:
            tails_ok = False
            break

    strict = None
    if n >= 2:
        strict = all(vals[k] ** 2 < vals[k - 1] * vals[k + 1]
                     for k in range(1, n))
    pre = {"t_in_unit_interval": 0 < t < 1, "strictly_log_convex": strict}
    return AlternationReport(t, n, terms, leading, terms[0] == leading,
                             signs_ok, moduli_ok, tails_ok, pre)


# ---------------------------------------------------------------------------
# two-sided envelope


class EnvelopeReport(Record):
    """Outcome of the bound t*mu_n >= mu^(t)_n > (1-theta)*t*mu_n.

    kind is "holds", "violated" or "precondition-failed"; rows carries
    (n, lower, value, upper) for every checked n. The upper bound is an
    equality at n = 1, hence non-strict.
    """

    kind: str
    theta: Fraction
    t: Fraction
    depth: int
    rows: tuple = ()
    witness: Optional[tuple] = None

    @property
    def holds(self) -> bool:
        return self.kind == "holds"


def envelope_bounds_check(m: MomentSequence, theta, t, depth: int) -> EnvelopeReport:
    """Check the composed moments against their two-sided linear envelope.

    Requires the examined prefix to be theta-log-convex (every ratio
    mu_n^2/(mu_{n-1} mu_{n+1}) at most theta) and t in (0, 1); when either
    fails the report says so instead of judging the bounds.
    """
    m.require_exact("envelope_bounds_check")
    theta = Fraction(theta)
    t = Fraction(t)
    if not 1 <= depth <= m.degree:
        raise ValueError("need 1 <= depth <= degree")
    vals = m.values
    if any(v <= 0 for v in vals[:depth + 1]):
        raise ValueError("envelope_bounds_check needs positive entries")
    if not 0 < t < 1:
        return EnvelopeReport("precondition-failed", theta, t, depth,
                              witness=("t outside (0,1)", t))
    for k in range(1, depth):
        ratio = vals[k] ** 2 / (vals[k - 1] * vals[k + 1])
        if ratio > theta:
            return EnvelopeReport("precondition-failed", theta, t, depth,
                                  witness=("log-convexity ratio exceeds theta",
                                           k, ratio))
    values = _composed_at(*_t_power_rows(vals[:depth + 1]), t)
    rows = []
    for n in range(1, depth + 1):
        value = values[n]
        upper = t * vals[n]
        lower = (1 - theta) * upper
        rows.append((n, lower, value, upper))
        if not (lower < value <= upper):
            return EnvelopeReport("violated", theta, t, depth, tuple(rows),
                                  witness=(n, lower, value, upper))
    return EnvelopeReport("holds", theta, t, depth, tuple(rows))


# ---------------------------------------------------------------------------
# theta-threshold scan


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    num, den = x.numerator, x.denominator
    if num < 0:
        return None
    a, b = isqrt(num), isqrt(den)
    if a * a == num and b * b == den:
        return Fraction(a, b)
    return None


def lattice_family(q: Fraction, upto: int) -> MomentSequence:
    """The canonical constant-ratio log-convex family mu_n = q^(n^2), rational q > 1."""
    return lattice_lognormal_moments(q, 1, upto)


class ScanCell(Record):
    """Stieltjes outcome for one (theta, t) pair of the scan grid."""

    theta: Fraction
    t: Fraction
    verdict: PositivityVerdict

    @property
    def passed(self) -> bool:
        return self.verdict.kind == "strictly-positive"


DEFAULT_THETA_GRID = (Fraction(1, 100), Fraction(1, 36), Fraction(1, 16),
                      Fraction(1, 9), Fraction(1, 4))
DEFAULT_T_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
REFERENCE_THRESHOLD = Fraction(1, 6)


class ThresholdScanResult(Record):
    """Pass/fail grid of the composed lattice families under the Stieltjes
    test, with the largest all-pass theta and the 1/6 reference line.

    monotone_in_theta records whether each t-column is downward closed
    (failures only above some theta); it is observed from the grid, never
    assumed. ratio_bounds carries theta/(1-theta)^2 per theta, with a
    verdict against `delta` when one was supplied.
    """

    theta_grid: tuple
    t_grid: tuple
    depth: int
    pass_matrix: tuple
    empirical_theta_max: Optional[Fraction]
    reference_threshold: Fraction
    monotone_in_theta: bool
    ratio_bounds: tuple
    delta: Optional[Fraction] = None


def theta_threshold_scan(theta_grid: Sequence = DEFAULT_THETA_GRID,
                         t_grid: Sequence = DEFAULT_T_GRID,
                         depth: int = 5,
                         delta=None) -> ThresholdScanResult:
    """Scan lattice families over a theta grid for Stieltjes survival.

    Each theta must be 1/q^2 for rational q; the family mu_n = q^(n^2) is
    composed at every t of the grid and the composed prefix, a plain list
    of reduced Fractions, is run through stieltjes_verdict to `depth`, all
    in exact arithmetic. The result is reproducible bit for bit.

    q^(n^2) is exactly the lognormal moment sequence with sigma^2 = 2 ln q.
    The lognormal is infinitely divisible (Thorin 1977), so its composition
    at any t > 0 is the law of its Levy process at time t, and every
    composed prefix is a genuine Stieltjes moment sequence: no cell of this
    scan can fail, at any depth or theta.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    thetas = sorted(Fraction(x) for x in theta_grid)
    ts = tuple(Fraction(x) for x in t_grid)
    if any(not 0 < th < 1 for th in thetas):
        raise ValueError("theta values must lie in (0,1)")
    if any(not 0 < t < 1 for t in ts):
        raise ValueError("t values must lie in (0,1)")
    delta = Fraction(delta) if delta is not None else None

    matrix = []
    for theta in thetas:
        q = _rational_sqrt(1 / theta)
        if q is None:
            raise ValueError(f"theta={theta} is not 1/q^2 for rational q")
        power = _t_power_rows(lattice_family(q, 2 * depth + 1).values)
        row = []
        for t in ts:
            row.append(ScanCell(theta, t, stieltjes_verdict(_composed_at(*power, t), depth)))
        matrix.append(tuple(row))

    best = None
    for theta, row in zip(thetas, matrix):
        if all(cell.passed for cell in row):
            best = theta
    monotone = True
    for col in range(len(ts)):
        seen_fail = False
        for row in matrix:
            if not row[col].passed:
                seen_fail = True
            elif seen_fail:
                monotone = False
    ratios = tuple((theta, theta / (1 - theta) ** 2,
                    None if delta is None else theta / (1 - theta) ** 2 <= delta)
                   for theta in thetas)
    return ThresholdScanResult(tuple(thetas), ts, depth, tuple(matrix), best,
                               REFERENCE_THRESHOLD, monotone, ratios, delta)

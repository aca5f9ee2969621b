"""Structure checks for the t-indexed Maxwell-Boltzmann composition family.

The composed moments mu^(t)_n are polynomials in t, built from the
cumulants t*kappa (moment_algebra._t_power_rows), so the semigroup law
"compose at s, then convolve with the composition at t, and you get the
composition at s+t" holds by construction; mb_semigroup_identity reports
it, and the tests check it against the bivariate expansion in brute_force.
This module also examines the alternating-term structure of a single
composed moment, checks the two-sided envelope
t*mu_n >= mu^(t)_n > (1-theta)*t*mu_n for log-convex input, and runs the
empirical theta-threshold scan on the canonical lattice family
mu_n = q^(n^2), whose log-convexity ratio is the constant
theta = 1/q^2.

The composed moments at a rational t are integers over one scale, from
moment_algebra's t-power evaluator _power_at. The scan never builds the
lattice family as Fractions: distributions._lattice_ints gives q^(n^2) as
integers over c^n, with c = b^(2 depth + 1) for q = a/b, and their
integer cumulants are the input of both its t-powers. Floats enter the
scan at one place: a cell is first tried on the float t-power of
moment_algebra._float_power_at, each entry with a proven relative bound,
and reported strictly positive when stieltjes._certified_stieltjes proves
both shifts positive definite from it. Every other cell takes the exact
t-power of _power_at to stieltjes_verdict as a ScaledSequence, so every
witness, zero and refutation is exact, and a cell builds a Fraction only
for a witness. The alternation check compares its terms as integer
numerators over one denominator and builds each term's Fraction once.
lattice_family, the same family as a MomentSequence, is for callers that
want the Fractions.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt, lcm
from typing import Optional, Sequence

from .distributions import _lattice_ints, lattice_lognormal_moments
from .moment_algebra import (MomentSequence, Record, ScaledSequence, _composition_sum,
                             _float_power_at, _float_power_base, _kappas_from_moments,
                             _power_at, _power_base)
from .stieltjes import PositivityVerdict, _certified_stieltjes, stieltjes_verdict


class SemigroupIdentityReport(Record):
    """Outcome of the semigroup law mu^(s) * mu^(t) = mu^(s+t) through the
    given depth; first_failure, the first n at which it breaks, is None,
    since the law holds by construction (see mb_semigroup_identity)."""

    depth: int
    holds: bool
    first_failure: Optional[int] = None

    def __bool__(self) -> bool:
        return self.holds


def mb_semigroup_identity(m: MomentSequence, depth: int) -> SemigroupIdentityReport:
    """Report sum_j C(n,j) mu^(s)_j mu^(t)_{n-j} = mu^(s+t)_n, for every
    n <= depth, on the composed polynomials of m.

    It holds on every exact input, so `holds` is always true. Proof:
    mu^(t) has cumulants t*kappa, cumulants add under convolution, and
    s*kappa + t*kappa = (s+t)*kappa. The paper's semigroup claim is about
    where the composed classes stay positive (an up-set of admissible t),
    which this report does not test.
    """
    m.require_exact("mb_semigroup_identity")
    if depth > m.degree:
        raise ValueError(f"depth {depth} exceeds sequence degree {m.degree}")
    return SemigroupIdentityReport(depth, True)


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


def _log_convexity_ratios(vals: Sequence) -> list:
    """(a_k, b_k) with mu_k^2 / (mu_{k-1} mu_{k+1}) = a_k / b_k, for
    k = 1..len(vals) - 2: a_k = p_k^2 q_{k-1} q_{k+1} and
    b_k = p_{k-1} p_{k+1} q_k^2 for mu_k = p_k / q_k, so comparing the
    ratio with 1 or with a positive rational needs no Fraction."""
    pq = [(v.numerator, v.denominator) for v in vals]
    return [(p * p * q0 * q2, p0 * p2 * q * q)
            for (p0, q0), (p, q), (p2, q2) in zip(pq, pq[1:], pq[2:])]


def alternation_check(m: MomentSequence, t, n: int) -> AlternationReport:
    """Group mu^(t)_n by occupancy count and test the alternating pattern.

    Checks that the j=1 term equals t*mu_n, that term signs alternate with
    j, that absolute values never increase, and that each tail sum is no
    larger in modulus than the term just before it. The three comparisons
    run on the integer numerators of the terms over one common
    denominator; each term becomes a Fraction once, for the report.
    """
    m.require_exact("alternation_check")
    t = Fraction(t)
    if not 1 <= n <= m.degree:
        raise ValueError("need 1 <= n <= degree")
    vals = m.values
    sums = _composition_sum(vals, n)
    # C(t, j) = P_j / (j! v^j) at t = u/v, with P_j = u (u - v) ... (u - (j-1) v),
    # so term j is nums[j-1] / den over the one denominator n! v^n lcm(den S_j)
    u, v = t.numerator, t.denominator
    common = lcm(*(s.denominator for s in sums))
    rest, v_rest = factorial(n), v ** n  # n!/j! and v^(n-j), from j = 0
    den = rest * v_rest * common
    nums, p = [], 1
    for j, s in enumerate(sums, start=1):
        p *= u - (j - 1) * v
        rest //= j
        v_rest //= v
        nums.append(p * s.numerator * (common // s.denominator) * rest * v_rest)
    terms = tuple(Fraction(x, den) for x in nums)

    leading = t * vals[n]
    signs_ok = all(x > 0 if j % 2 == 0 else x < 0 for j, x in enumerate(nums))
    moduli = [abs(x) for x in nums]
    moduli_ok = all(a >= b for a, b in zip(moduli, moduli[1:]))
    tails_ok = True
    tail = 0
    for j in range(len(nums) - 1, 0, -1):
        tail += nums[j]
        if abs(tail) > moduli[j - 1]:
            tails_ok = False
            break

    strict = None
    if n >= 2:
        strict = all(a < b for a, b in _log_convexity_ratios(vals[:n + 1]))
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
    fails the report says so instead of judging the bounds. The composed
    moments come from _power_at.
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
    for k, (a, b) in enumerate(_log_convexity_ratios(vals[:depth + 1]), start=1):
        if a * theta.denominator > theta.numerator * b:
            return EnvelopeReport("precondition-failed", theta, t, depth,
                                  witness=("log-convexity ratio exceeds theta",
                                           k, Fraction(a, b)))
    composed = ScaledSequence(*_power_at(_power_base(vals[:depth + 1]), t)).values
    rows = []
    for n in range(1, depth + 1):
        value = composed[n]
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
    """sqrt(x) when it is rational, else None; x >= 0."""
    num, den = x.numerator, x.denominator
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
    composed at every t of the grid and the composed prefix is judged to
    `depth`. The family enters as the integers of
    distributions._lattice_ints, c^n q^(n^2) with c = b^(2 depth + 1) for
    q = a/b, the scale _power_base would read from lattice_family's
    Fractions, so their integer cumulants are the same. Where floats
    enter: when every cumulant is positive, the cell's t-power is first
    computed in float64 by _float_power_at, and a strictly-positive
    verdict is reported when _certified_stieltjes proves both shifts
    positive definite within its proven bound. A cumulant <= 0, a t whose
    float is not in [2^-1022, 1), a ratio below 2^-1022, or a refusal
    sends the cell to the exact path: the integers of _power_at as a
    ScaledSequence, run through stieltjes_verdict. Either path gives the
    verdict the exact minors give, so the result is reproducible bit for
    bit.

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
    certified = PositivityVerdict("strictly-positive", depth)
    for theta in thetas:
        q = _rational_sqrt(1 / theta)
        if q is None:
            raise ValueError(f"theta={theta} is not 1/q^2 for rational q")
        c, ints = _lattice_ints(q, 1, 2 * depth + 1)
        kappas = _kappas_from_moments(ints)
        base = _float_power_base(ints, kappas)
        row = []
        for t in ts:
            floats = base and _float_power_at(base, t)
            # (heads, exps, rels): the last entry's bound is the largest
            if floats and _certified_stieltjes(*floats[:2], floats[2][-1], depth):
                verdict = certified
            else:
                verdict = stieltjes_verdict(ScaledSequence(*_power_at((c, kappas), t)), depth)
            row.append(ScanCell(theta, t, verdict))
        matrix.append(tuple(row))

    passes = [[cell.passed for cell in row] for row in matrix]
    best = max((theta for theta, row in zip(thetas, passes) if all(row)), default=None)
    # a column is downward closed when its passes, by rising theta, never rise
    monotone = all(list(col) == sorted(col, reverse=True) for col in zip(*passes))
    ratios = tuple((theta, theta / (1 - theta) ** 2,
                    None if delta is None else theta / (1 - theta) ** 2 <= delta)
                   for theta in thetas)
    return ThresholdScanResult(tuple(thetas), ts, depth, tuple(matrix), best,
                               REFERENCE_THRESHOLD, monotone, ratios, delta)

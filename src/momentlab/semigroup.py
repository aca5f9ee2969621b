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
moment_algebra's t-power evaluator _power_at. The scan decides each theta
row at once, in three steps. First the closed form: for q above q** ~
2.209 (theta below ~0.2049), _closed_form_row proves every cell of the
row strictly positive at every depth, by Gershgorin on bounds of the
cumulant ratios: above q* ~ 2.5276 from one integer inequality in q, and
below it from the first six exact ratios, with no matrix and no t-power.
Next, the float certificate, in floats of order 1 computed straight
from q, with no big integer: _lattice_base gives the cumulant ratios k_n =
K_n / M_n with proven bounds, and _lattice_hankel the congruence
q^(-(i-j)^2) k_(1+s+i+j) / sqrt(k_(1+s+2i) k_(1+s+2j)) of the cumulant
Hankel matrix [K_(1+s+i+j)]. When stieltjes._certified_stieltjes proves
it positive definite at shifts 0 and 1, every t-power of the prefix is
strictly positive (see theta_threshold_scan), so the row needs no t-power
at all.
Last, where either refuses (q close to 1, where the k-recursion's bound
refuses, or a matrix the floats cannot prove), the row's exact cumulants,
from distributions._lattice_ints (q^(n^2) as integers over c^n, c = b^(2
depth + 2) for q = a/b), go to stieltjes_verdict once, as the
ScaledSequence whose entry n is c kappa_(1+n); strictly positive proves
the row by the same theorem. Only a row whose verdict is not takes the
exact t-power of _power_at on those cumulants to stieltjes_verdict cell by
cell. So every witness, zero and refutation is exact, and a cell builds a
Fraction only for a witness.
The t-composition reports judge on integers: the alternation check
compares its terms as integer numerators over one denominator, from the
integer partial Bell row of _composition_sum, and the envelope check
compares each row's x_n / s^n from _power_at with its bounds by
cross-multiplication. Each reported Fraction is built once, and no two
Fractions are compared. lattice_family, the same family as a
MomentSequence, is for callers that want the Fractions.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb, frexp, fsum, isqrt, ldexp, sqrt
from operator import mul, truediv
from typing import Optional, Sequence

from .distributions import _lattice_ints, lattice_lognormal_moments
from .moment_algebra import (_NORMAL, _U, MomentSequence, Record, ScaledSequence,
                             _composition_sum, _kappas_from_moments, _power_at, _power_base)
from .stieltjes import (PositivityVerdict, _certified_stieltjes, _upper_indices,
                        stieltjes_verdict)

_MARGIN = 1 + 2.0 ** -20  # covers a float bound's own rounding
_K_CEILING = 2.0 ** -40  # the largest bound _lattice_base keeps a recursive k_n at


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
    their plain sum. The four checks are reported independently;
    `leading_matches` holds by construction (see alternation_check), and
    `holds` is their conjunction. Preconditions (t inside (0,1), strict
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

    Checks that term signs alternate with j, that absolute values never
    increase, and that each tail sum is no larger in modulus than the term
    just before it. At t = u/v, C(t, j) = P_j / (j! v^j) with P_j = u (u -
    v) ... (u - (j-1) v), and _composition_sum gives S_j(n) = j! row[j] /
    c^n, so the j! cancels and term j is P_j row[j] v^(n-j) over the one
    denominator (c v)^n. The checks run on these integer numerators, and
    each term becomes a Fraction once, for the report.

    `leading_matches`, that the j = 1 term equals t*mu_n, holds on every
    input, so it is always true. Proof: term 1 is C(t, 1) S_1(n), C(t, 1)
    = t, and the one composition of n into one part gives S_1(n) = mu_n.
    """
    m.require_exact("alternation_check")
    t = Fraction(t)
    if not 1 <= n <= m.degree:
        raise ValueError("need 1 <= n <= degree")
    vals = m.values
    c, row = _composition_sum(vals, n)
    u, v = t.numerator, t.denominator
    den = (c * v) ** n
    nums, p, v_rest = [], 1, v ** n  # v_rest = v^(n-j), from j = 0
    for j in range(1, n + 1):
        p *= u - (j - 1) * v
        v_rest //= v
        nums.append(p * row[j] * v_rest)
    terms = tuple(Fraction(x, den) for x in nums)

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
    return AlternationReport(t, n, terms, t * vals[n], True,
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
    moments come from _power_at as x_n / s^n.

    Each row is judged on integers. With t = u/v, theta = th_n / th_d and
    mu_n = a/b, upper = u a / (v b) and lower = (th_d - th_n) upper /
    th_d, so value <= upper is x v b <= u a s^n, and lower < value is
    (th_d - th_n) u a s^n < th_d x v b. Every denominator there (s^n, v, b,
    th_d) is positive, so multiplying through keeps each inequality's
    direction: the integer tests decide exactly what the Fraction
    comparisons would. The row's three Fractions are built for the report.
    """
    m.require_exact("envelope_bounds_check")
    theta = Fraction(theta)
    t = Fraction(t)
    if not 1 <= depth <= m.degree:
        raise ValueError("need 1 <= depth <= degree")
    vals = m.values
    if any(v.numerator <= 0 for v in vals[:depth + 1]):
        raise ValueError("envelope_bounds_check needs positive entries")
    if not 0 < t < 1:
        return EnvelopeReport("precondition-failed", theta, t, depth,
                              witness=("t outside (0,1)", t))
    th_n, th_d = theta.numerator, theta.denominator
    for k, (a, b) in enumerate(_log_convexity_ratios(vals[:depth + 1]), start=1):
        if a * th_d > th_n * b:
            return EnvelopeReport("precondition-failed", theta, t, depth,
                                  witness=("log-convexity ratio exceeds theta",
                                           k, Fraction(a, b)))
    s, xs = _power_at(_power_base(vals[:depth + 1]), t)
    u, v = t.numerator, t.denominator
    gap, below = th_d - th_n, 1 - theta
    rows, scale = [], 1
    for n in range(1, depth + 1):
        scale *= s
        x, a, b = xs[n], vals[n].numerator, vals[n].denominator
        xvb, uas = x * v * b, u * a * scale
        upper = t * vals[n]
        rows.append((n, below * upper, Fraction(x, scale), upper))
        if not (gap * uas < th_d * xvb and xvb <= uas):
            return EnvelopeReport("violated", theta, t, depth, tuple(rows),
                                  witness=rows[-1])
    return EnvelopeReport("holds", theta, t, depth, tuple(rows))


# ---------------------------------------------------------------------------
# theta-threshold scan


def lattice_family(q: Fraction, upto: int) -> MomentSequence:
    """The canonical constant-ratio log-convex family mu_n = q^(n^2), rational q > 1."""
    return lattice_lognormal_moments(q, 1, upto)


@lru_cache(maxsize=8)
def _lattice_rows(upto: int) -> tuple:
    """The parts of _lattice_base's weights that do not depend on q, flat
    over rows n = 2..upto and j = 0..n-2 (row n starts at (n-1)(n-2)/2):
    (binomials, exponents, counts), the float C(n-1, j), the exponent m =
    2 (j+1)(n-1-j) of 1/q in weight j, and (2m + 4) u. OverflowError once
    a C(n-1, j) leaves float range."""
    pairs = [(n, j) for n in range(2, upto + 1) for j in range(n - 1)]
    ms = tuple(2 * (j + 1) * (n - 1 - j) for n, j in pairs)
    return (tuple(float(comb(n - 1, j)) for n, j in pairs), ms,
            tuple((2 * m + 4) * _U for m in ms))


def _inverse_powers(q: Fraction, count: int) -> tuple:
    """(xs, es) for m = 0..count: xs[m] * 2^es[m] is (1/q)^m within a
    relative gamma_(2m), for rational q > 1, or 0 where (1/q)^m < 2^-2200;
    es is None when every exponent is 0.

    1/q = h 2^f with h the rounded quotient of two integers (one factor);
    for f > -100 the step is 1/q itself, h 2^f, and f = 0. Each step
    multiplies xs by the step (one more factor). While the powers stay at
    or above 2^-900 no exponent is needed; otherwise a step that leaves xs
    below 2^-900 multiplies it by 2^900 exactly, so every xs[m] lies in
    [2^-900, 1] and no product (at least 2^-1001) underflows. Past es[m] <
    -2200 the power is stored as 0: whatever it scales in _lattice_base or
    _lattice_hankel is then below 2^-1100, less than eta / 2.
    """
    a, b = q.numerator, q.denominator
    lift = a.bit_length() - b.bit_length()
    h, f = frexp((b << lift) / a)
    f -= lift
    if f > -100:
        h, f = ldexp(h, f), 0
        xs = list(accumulate(repeat(h, count), mul, initial=1.0))
        if xs[-1] >= 2.0 ** -900:
            return xs, None
    xs, es = [1.0], [0]
    x, e = 1.0, 0
    for _ in range(count):
        x *= h
        e += f
        if x < 2.0 ** -900:
            x *= 2.0 ** 900
            e -= 900
        if e < -2200:
            break
        xs.append(x)
        es.append(e)
    pad = count + 1 - len(xs)
    return xs + [0.0] * pad, es + [0] * pad


class LatticeBase(Record):
    """The theta-scan's float form of mu_n = q^(n^2), n <= upto, built by
    _lattice_base for _lattice_hankel.

    ks[n-1] = k~_n, a float in [2^-1022, 1], is the cumulant ratio k_n =
    K_n / M_n within a relative kbounds[n-1] = beta_n; squares[i] *
    2^exps[i] is (1/q)^(i^2) from _inverse_powers, exps None when every
    exponent is 0.
    """

    ks: list
    kbounds: list
    squares: list
    exps: Optional[list]


def _lattice_base(q: Fraction, upto: int) -> Optional[LatticeBase]:
    """The LatticeBase of mu_n = q^(n^2), n <= upto, rational q > 1, or
    None when its cumulant ratios refuse.

    The cumulant ratios k_n = K_n / M_n, with M_n = c^n mu_n and K_n = c^n
    kappa_n, are free of c. The row sums of _power_at's recursion, M_n =
    sum_(j<n) C(n-1, j) K_(j+1) M_(n-1-j), divided by M_n, read 1 =
    sum_(j<n) G[n][j] with G[n][j] = C(n-1, j) k_(j+1) q^(-m_j), m_j = 2
    (j+1)(n-1-j), since M_(j+1) M_(n-1-j) / M_n = q^(-m_j) on the lattice.
    G[n][n-1] = k_n, so k_1 = 1 and k_n = 1 - S_n with S_n the sum of the
    other weights of row n: every number is of order 1, and no big integer
    is built. k_n is kept while its bound beta_n <= 2^-40; past that, as 1 -
    S_n cancels for q close to 1, the base is None and the scan judges the
    row on its exact cumulants. Every k~_n must be a normal float.

    Proof of the bounds. u = 2^-53, eta = 2^-1074, gamma_k = k u / (1 - k
    u); each operation is exact times (1 + d), |d| <= u, plus at most eta /
    2 where its result is subnormal (fsum rounds its exact sum once). M = 1
    + 2^-20 covers each bound's own rounding and factors like 1 / (1 -
    2^-29); while the bounds are at most 2^-30, (1 + beta)(1 + gamma_k) - 1
    <= beta + (k + 1) u for every k here, as upto <= 1030 (C(n-1, j) is a
    float).

    - Weights: G~ = fl(k~_(j+1) ldexp(fl(C~ x_m), e_m)) takes one factor
      for the float C~ of C(n-1, j), gamma_(2m) for the power, one for each
      product, and beta_(j+1) for k~_(j+1) <= 1. C~ x_m >= 2^-900 is
      normal; ldexp and the last product add at most eta / 2 each where
      subnormal. So |G~ - G| <= rho_j G + eta, rho_j = beta_(j+1) + (2 m_j
      + 4) u <= top + (n^2 + 4) u, top the largest beta so far.
    - k_n: A_n = sum_j G~_j (2 m_j + 4) u + top S~ >= sum_j rho_j G~_j, as
      S~ = fsum(G~) is within u of the exact sum. With G_j <= (G~_j + eta)
      / (1 - rho_j), S~ and k~_n = fl(1 - S~), each within u of itself from
      its exact value, give |k~_n - k_n| <= u S~ + u k~_n + (1 + 2^-28) A_n
      + 2n eta. Dividing by k_n >= k~_n (1 - 2^-29) proves beta_n = ((A_n +
      u S~ + 2n eta) / k~_n + u) M, and k_n > 0.
    """
    try:
        binomials, ms, counts = _lattice_rows(upto)
    except OverflowError:
        return None
    xs, es = _inverse_powers(q, 2 * (upto // 2) * ((upto + 1) // 2))
    scaled = map(mul, binomials, map(xs.__getitem__, ms))  # C(n-1, j) q^(-m), row by row
    if es is not None:
        scaled = map(ldexp, scaled, map(es.__getitem__, ms))
    counts = iter(counts)
    ks, betas, top = [1.0], [0.0], 0.0  # k_1 = K_1 / M_1 = 1; top, the largest beta
    for n in range(2, upto + 1):
        row = list(map(mul, ks, scaled))  # ks first: it stops the map, and takes n - 1
        s = fsum(row)
        a = sum(map(mul, row, counts)) + top * s
        k = 1.0 - s
        beta = ((a + _U * s + n * 2.0 ** -1073) / k + _U) * _MARGIN if k >= _NORMAL else 1.0
        if not beta <= _K_CEILING:
            return None
        ks.append(k)
        betas.append(beta)
        top = max(top, beta)
    side = range((upto + 1) // 2)
    return LatticeBase(ks, betas, [xs[i * i] for i in side],
                       None if es is None else [es[i * i] for i in side])


def _lattice_hankel(base: LatticeBase, shift: int, size: int) -> tuple:
    """(diag, upper, rel): the Hankel matrix H = [K_(1+shift+i+j)], i, j <=
    size, of base's scaled cumulants, in a congruence A = D H D, as
    stieltjes._certified_positive takes it; size -1 is the empty matrix.

    D = diag(g_i / sqrt(M_(1+shift+2i))) with g_i = fl(1 / fl(sqrt(k~_(1+
    shift+2i)))), a float in [1, 2^511] as k~ lies in [2^-1022, 1]. On the
    lattice M_n = c^n q^(n^2), so a_ij = g_i g_j q^(-(i-j)^2)
    k_(1+shift+i+j): both c^n and the shift cancel, and a_ii = g_i^2
    k_(1+shift+2i) is 1 up to the bounds, so a~_ii = 1. Proof of |a~_ij -
    a_ij| <= rel |a_ij| + 2 eta, with B the largest beta_n: off the
    diagonal k~ carries B, the power gamma_(2m), m <= size^2, and the three
    products ((g_i g_j) k~) x three factors; on it, a_ii = (k / k~)(1 +
    d2)^2 / (1 + d1)^2 is within B + 5u of 1 relative to itself. So rel =
    (B + (2 size^2 + 6) u) M. (g_i g_j) k~ >= 2^-1022 is normal; the two
    steps after it (x <= 1, then ldexp(., e <= 0)) each add at most eta / 2
    where subnormal and never scale an earlier one up, and a power stored
    as 0 leaves an entry below eta.
    """
    k = base.ks
    rows, cols, sums, gaps = _upper_indices(shift, size)
    g = list(map((1.0).__truediv__, map(sqrt, k[shift:shift + 2 * size + 1:2])))
    upper = map(mul, map(mul, map(mul, map(g.__getitem__, rows), map(g.__getitem__, cols)),
                         map(k.__getitem__, sums)), map(base.squares.__getitem__, gaps))
    if base.exps is not None:
        upper = map(ldexp, upper, map(base.exps.__getitem__, gaps))
    rel = (max(base.kbounds) + (2 * size * size + 6) * _U) * _MARGIN
    return [1.0] * (size + 1), upper, rel


def _lattice_power(q: Fraction, upto: int) -> tuple:
    """(ints, (c, kappas)): the integers M_n = c^n q^(n^2), n <= upto, of
    distributions._lattice_ints, and _power_at's input, their integer
    cumulants K_n = c^n kappa_n. c = b^upto for q = a/b is the scale
    _power_base reads from lattice_family's Fractions, so the cumulants are
    the same."""
    c, ints = _lattice_ints(q, 1, upto)
    return ints, (c, _kappas_from_moments(ints))


# The rows i < 4 at shifts s = 0, 1 that _closed_form_row sums entry by
# entry: the list position s + 2i of the diagonal's bound and, for each j <=
# i + 2, j != i, the power (i-j)^2 of r = 1/q and the positions s + i + j
# and s + 2j
_NEAR_ROWS = tuple((s + 2 * i, tuple(((i - j) ** 2, s + i + j, s + 2 * j)
                                     for j in range(i + 3) if j != i))
                   for s in (0, 1) for i in range(4))


def _closed_form_row(q: Fraction) -> bool:
    """Whether a bound on the cumulant ratios of mu_n = q^(n^2), rational q
    > 1, proves both cumulant Hankel matrices, at shift 0 and shift 1,
    positive definite at every size; true for q > q** ~ 2.209 (theta <
    ~0.2049). Then theta_threshold_scan's theorem makes every t-power
    strictly positive at every depth, and the row needs no LatticeBase, no
    matrix and no t-power.

    Notation: q = a/b, r = 1/q, x = r^2, and k_n = K_n / M_n the cumulant
    ratios of _lattice_base. The row-sum identity of _power_at's recursion
    reads k_n = 1 - T_n, T_n = sum_(j <= n-2) C(n-1, j) k_(j+1)
    x^((j+1)(n-1-j)), and (j+1)(n-1-j) >= n - 1 for j <= n - 2.

    - Lemma: once x <= 1/4, k_1 = 1 and 1 - (2x)^(n-1) < k_n <= 1 for n
      >= 2. By induction on n: every k_(j+1) in T_n lies in (0, 1], so 0
      <= T_n <= x^(n-1) (2^(n-1) - 1) < (2x)^(n-1) <= 1/2.
    - The congruence of _lattice_hankel without its rounding, a_ij =
      r^((i-j)^2) k_(1+s+i+j) / sqrt(k_(1+s+2i) k_(1+s+2j)), has a unit
      diagonal and positive entries. The matrix of each depth is a leading
      block of the infinite one, so its off-diagonal row sums are partial
      sums of the infinite rows. Once every infinite row sums below 1, at
      s = 0 and s = 1, every such matrix is strictly diagonally dominant,
      and Gershgorin puts its eigenvalues, and those of the congruent
      [K_(1+s+i+j)], above 0.
    - First test, 2 b a^4 < (a^2 - b^2)(a^3 - b^3), that is 2r < (1 -
      r^2)(1 - r^3). Its right side less its left falls as r rises, so it
      holds exactly when q > q* ~ 2.5276. By the lemma k_n >= 1 - x, so a
      row sums to at most 2 sum_(m >= 1) r^(m^2) / (1 - x). As m^2 >= 3m -
      2, that is at most 2r / ((1 - r^3)(1 - r^2)), which is < 1.
    - Second test, for 2 <= q <= q*. Take lo_n = hi_n = k_n exactly for n
      <= 6, from _lattice_power(q, 6), and for n >= 7, by the lemma, lo_n
      = l = 1 - (2x)^6 and hi_n = 1: lo_n <= k_n <= hi_n. Let w = r^9 / (1
      - r^7), which is >= sum_(m >= 3) r^(m^2), as r^((m+1)^2 - m^2) <=
      r^7. Row i < 4 of shift s sums to at most the sum over j <= i + 2, j
      != i, of r^((i-j)^2) hi_(1+s+i+j) / sqrt(lo_(1+s+2i) lo_(1+s+2j)),
      plus w / sqrt(lo_(1+s+2i) l) for the j >= i + 3, whose indices are
      >= 7. A row i >= 4 has its diagonal index >= 9, and the neighbours j
      = i +- m have indices >= 9 - 2m. So it sums to at most 2 / sqrt(l)
      times r / sqrt(l) + r^4 / sqrt(min(lo_5, lo_6, l)) + w / sqrt(min_n
      lo_n).
    - The floats: b / a, 2 b^2 / a^2 and each K_n / M_n are correctly
      rounded. Every bound is then built by at most 64 operations that
      each round once: products, quotients, square roots, sums of positive
      terms, minima, and 1 - y for y <= 1/2, which keeps y's relative
      error. So each float bound s~ is within a relative 64 u / (1 - 64 u)
      < 2^-40 of its exact value s, u = 2^-53, and fl(s~ (1 + 2^-20)) < 1
      gives s < s~ (1 + 2^-40) < 1.
    """
    a, b = q.numerator, q.denominator
    if 2 * b * a ** 4 < (a * a - b * b) * (a ** 3 - b ** 3):
        return True
    if a < 2 * b:
        return False
    ints, (_, kappas) = _lattice_power(q, 6)
    r = b / a
    rs = list(accumulate(repeat(r, 9), mul, initial=1.0))  # r^0..r^9
    y = 2 * b * b / (a * a)
    y *= y * y
    k = list(map(truediv, kappas, ints[1:]))
    lo, hi = k + [1 - y * y] * 8, k + [1.0] * 8  # n = 1..14, as lo[n-1] and hi[n-1]
    g = [1 / sqrt(v) for v in lo]
    w = rs[9] / (1 - rs[7])
    bounds = [g[d] * (sum([rs[m] * hi[n] * g[e] for m, n, e in row]) + w * g[6])
              for d, row in _NEAR_ROWS]
    bounds.append(2 * g[6] * (r * g[6] + rs[4] / sqrt(min(lo[4:])) + w / sqrt(min(lo))))
    return max(bounds) * (1 + 2.0 ** -20) < 1


def _row_verdicts(q: Fraction, ts: tuple, depth: int) -> list:
    """The verdict at `depth` of mu_n = q^(n^2) composed at each t of ts,
    decided in theta_threshold_scan's order: the closed form, then the
    float certificate, then one exact verdict on the row's cumulants, and
    only where that is not strictly positive, one per cell."""
    certified = [PositivityVerdict("strictly-positive", depth)] * len(ts)
    if _closed_form_row(q):
        return certified
    base = _lattice_base(q, 2 * depth + 1)
    if base and _certified_stieltjes(
            lambda shift, size: _lattice_hankel(base, shift, size - shift), depth):
        return certified
    _, (c, kappas) = _lattice_power(q, 2 * depth + 2)
    if stieltjes_verdict(ScaledSequence(c, tuple(kappas)), depth).ok:
        return certified
    return [stieltjes_verdict(ScaledSequence(*_power_at((c, kappas), t)), depth) for t in ts]


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


class ThresholdScanResult(Record):
    """Pass/fail grid of the composed lattice families under the Stieltjes
    test: pass_matrix has one row of ScanCells per theta, by rising theta,
    and empirical_theta_max is the largest theta whose row passes at every
    t, or None. ratio_bounds pairs each theta with theta/(1-theta)^2.
    """

    theta_grid: tuple
    t_grid: tuple
    depth: int
    pass_matrix: tuple
    empirical_theta_max: Optional[Fraction]
    ratio_bounds: tuple


def theta_threshold_scan(theta_grid: Sequence = DEFAULT_THETA_GRID,
                         t_grid: Sequence = DEFAULT_T_GRID,
                         depth: int = 5) -> ThresholdScanResult:
    """Scan lattice families over a theta grid for Stieltjes survival.

    Each theta must be 1/q^2 for rational q; the family mu_n = q^(n^2) is
    composed at every t of the grid and the composed prefix is judged to
    `depth`. A row is decided for every t at once by this theorem: if the
    Hankel matrices [kappa_(1+i+j)], i, j <= depth, and [kappa_(2+i+j)], i,
    j < depth, of a prefix's cumulants are positive definite, then every
    t-power of the prefix, t > 0, is strictly positive at `depth`. Proof:
    (1) positive definiteness puts kappa_1..kappa_(2 depth + 1) inside the
    truncated Stieltjes moment cone, so an atomic measure rho on [0, inf)
    has int x^m rho(dx) = kappa_(1+m), m <= 2 depth (Curto-Fialkow 1991;
    Krein-Nudelman 1977); at depth 0 take rho = kappa_1 delta_1, and past
    it rho has depth + 1 >= 2 atoms, so one lies in (0, inf). (2) The
    drift b = rho({0}) and the finite Levy measure nu(dx) = rho(dx) / x on
    (0, inf) make a compound-Poisson law plus a drift, whose cumulants are
    kappa_1 = b + int x nu(dx) and kappa_n = int x^n nu(dx), n >= 2
    (Levy-Khintchine for subordinators, Steutel-van Harn 2004, ch. III):
    the given ones through n = 2 depth + 1, so its moments match
    mu_0..mu_(2 depth + 1). (3) Its Levy process Y_t, with cumulants t
    kappa_n, has the moments mu^(t)_0..mu^(t)_(2 depth + 1); Y_t lies in
    [0, inf) with infinite support, as nu != 0, so both Hankel matrices of
    its moments are positive definite at every size: the strictly-positive
    verdict at `depth`.

    Each row is decided in three steps, in this order. (a) The closed form:
    when _closed_form_row(q) holds (q > q** ~ 2.209), bounds on the
    cumulant ratios prove both matrices positive definite at every size,
    and every cell is certified with no matrix and no t-power; above q* ~
    2.5276 one integer comparison decides, below it the first six exact
    cumulant ratios and a few floats with a proven margin. (b) The float
    certificate: the row is tried from q alone, on floats of order 1 with
    proven bounds (_lattice_base, then _lattice_hankel at shift 0, size
    depth, and shift 1, size depth - 1, through _certified_stieltjes);
    [K_(1+s+i+j)], K_n = c^n kappa_n, is a congruence of [kappa_(1+s+i+j)]
    times c^(1+s), so the theorem applies to it. (c) The exact row verdict:
    where (a) and (b) refuse, the exact integers of
    distributions._lattice_ints, c^n q^(n^2) with c = b^(2 depth + 2) for
    q = a/b, give the integer cumulants K_n (the same as _power_base reads
    from lattice_family's Fractions), and stieltjes_verdict judges the
    ScaledSequence of entries K_(1+n) / c^n = c kappa_(1+n), n <= 2 depth
    + 1, once. It is a positive multiple of the cumulant sequence, so each
    of its minors has the sign of the cumulant Hankel minor, and strictly
    positive proves every cell (the shift-1 matrix is checked to size
    depth, one more than the theorem needs). Only a row whose verdict is
    not strictly positive takes each cell's exact t-power of _power_at
    through stieltjes_verdict. Every step gives the verdict the exact
    minors give, so the result is reproducible bit for bit.

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
    if any(not 0 < th.numerator < th.denominator for th in thetas):
        raise ValueError("theta values must lie in (0,1)")
    if any(not 0 < t.numerator < t.denominator for t in ts):
        raise ValueError("t values must lie in (0,1)")

    matrix, ratios = [], []
    for theta in thetas:
        n, d = theta.numerator, theta.denominator
        a, b = isqrt(d), isqrt(n)  # q = a/b, in lowest terms as n/d is
        if a * a != d or b * b != n:
            raise ValueError(f"theta={theta} is not 1/q^2 for rational q")
        matrix.append(tuple(map(ScanCell, repeat(theta), ts,
                                _row_verdicts(Fraction(a, b), ts, depth))))
        ratios.append((theta, Fraction(n * d, (d - n) ** 2)))  # theta / (1 - theta)^2

    best = max((theta for theta, row in zip(thetas, matrix)
                if all(cell.passed for cell in row)), default=None)
    return ThresholdScanResult(tuple(thetas), ts, depth, tuple(matrix), best, tuple(ratios))

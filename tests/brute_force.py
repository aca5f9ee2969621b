"""Brute-force references for the composition algebra.

The t-composition is defined by its occupancy sum over compositions of n;
the surjection counts behind it come from the Stirling subset numbers and
from finite differences, and the Stirling numbers also give the Touchard
form of the Poisson moments. Boolean moments are sums over the interval
partitions of {1..n}, which are compositions too. The alternation and
envelope reports are recomputed term by term in Fraction arithmetic from
those occupancy sums, and the split-product bound pair by pair. The
semigroup law of the composition family is an identity between
bivariate polynomials, and the Hankel reports (Stieltjes verdict,
determinant ratios, mu_1 thresholds, Fekete minors) are runs of Hankel
determinants, here one pivoting Bareiss determinant per size or block,
on integers whose denominators rational_det clears row by row, not by
the library's isobaric scaling, and each sign of a decimal sequence from
this module's own copy of the Hadamard rule at its precision_bits.
The library computes each one way only; these are the other derivations,
kept here so the tests can compare against them. Everything is exact and
exponential in n: meant for n <= 10 or so. poisson_weights is a fixture,
the exact one-rate input of the Katti tests. Two numerical kernels the
library replaced stay here as references in mpmath: the mixed-Poisson
quadrature summed column by column in mpf arithmetic, and the 128-bit
Clopper-Pearson solve. The simulator's sampler and its two reports are
computed here from the whole jump field in one draw, with statistics over
whole arrays, where the library streams the field in blocks of paths.
"""
from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from statistics import NormalDist
from typing import Iterator, Optional, Sequence

import numpy as np

from momentlab.distributions import DiscretePMF
from momentlab.moment_algebra import MomentSequence, _exact
from momentlab.semigroup import AlternationReport, EnvelopeReport
from momentlab.simulator import (DriftRow, DriftTable, PoissonJumps, SpectrumTestResult,
                                 _clopper_pearson_lower, _replication_lower, make_rng)
from momentlab.stieltjes import (COLLAPSE_FACTOR, HankelQuery, IndeterminacyRatios,
                                 Mu1ThresholdReport, PositivityVerdict, TotalPositivityVerdict,
                                 _bounded_away, _det_bareiss, hankel_matrix)


def poisson_weights(lam, kmax: int) -> DiscretePMF:
    """Exact Poisson masses lam^k / k! for k = 0..kmax, lam > 0. The
    missing e^(-lam) is a positive scale, which the divisibility
    recursions ignore; tail_mass is unset, since the weights are
    unnormalized."""
    lam = Fraction(lam)
    masses = [Fraction(1)]
    for k in range(1, kmax + 1):
        masses.append(masses[-1] * lam / k)
    return DiscretePMF(masses=tuple(masses), exact=True)


@lru_cache(maxsize=None)
def stirling_subset(n: int, k: int) -> int:
    """Stirling subset number: partitions of an n-set into k nonempty blocks.

    Triangle recurrence S(n, k) = k S(n-1, k) + S(n-1, k-1), with
    S(0, 0) = 1 and S(n, 0) = S(0, k) = 0 otherwise.
    """
    if n < 0 or k < 0:
        raise ValueError("stirling_subset needs n >= 0 and k >= 0")
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0 or k > n:
        return 0
    return k * stirling_subset(n - 1, k) + stirling_subset(n - 1, k - 1)


def touchard(lam, n: int) -> Fraction:
    """The n-th Poisson(lam) moment, sum_j S(n, j) lam^j."""
    return sum(stirling_subset(n, j) * Fraction(lam) ** j for j in range(n + 1))


def compositions(n: int, j: int) -> Iterator[tuple[int, ...]]:
    """Yield the compositions of n into exactly j positive parts.

    Lexicographic order, so (1, 2) comes before (2, 1). Empty stream when
    j > n. There are C(n-1, j-1) of them.
    """
    if n < 1 or j < 1:
        raise ValueError("compositions needs n >= 1 and j >= 1")

    def rec(rest: int, parts: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if parts == 1:
            yield prefix + (rest,)
            return
        for first in range(1, rest - parts + 2):
            yield from rec(rest - first, parts - 1, prefix + (first,))

    if j > n:
        return
    yield from rec(n, j, ())


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Multinomial coefficient n! / (n_1! ... n_j!); parts must sum to n."""
    if any(p < 0 for p in parts):
        raise ValueError("multinomial parts must be non-negative")
    if sum(parts) != n:
        raise ValueError("multinomial parts must sum to n")
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out


def boltzmann_from_stirling(n: int, k: int) -> int:
    """Surjections from an n-set onto a k-set, as k! S(n, k)."""
    if n < 0 or k < 0:
        raise ValueError("needs n >= 0 and k >= 0")
    return math.factorial(k) * stirling_subset(n, k)


def boltzmann_by_finite_difference(n: int, k: int) -> int:
    """The same count, as the k-th forward difference of x^n at x = 0."""
    if n < 0 or k < 0:
        raise ValueError("needs n >= 0 and k >= 0")
    total = 0
    for j in range(k + 1):
        term = math.comb(k, j) * j ** n
        total += term if (k - j) % 2 == 0 else -term
    return total


def composition_sum(mu: Sequence[Fraction], n: int, j: int) -> Fraction:
    """S_j(n): the sum over compositions (n_1..n_j) of n of
    multinomial(n; n_1..n_j) * mu_{n_1} ... mu_{n_j}."""
    total = Fraction(0)
    for parts in compositions(n, j):
        term = Fraction(multinomial(n, parts))
        for p in parts:
            term *= mu[p]
        total += term
    return total


def boolean_moment(bs: Sequence[Fraction], n: int) -> Fraction:
    """m_n from the Boolean cumulants bs = (b_1, b_2, ...): the sum over the
    interval partitions of {1..n}, that is over the compositions
    (n_1..n_j) of n, of b_{n_1} ... b_{n_j}; m_0 = 1."""
    total = Fraction(1) if n == 0 else Fraction(0)
    for j in range(1, n + 1):
        for parts in compositions(n, j):
            total += math.prod((bs[p - 1] for p in parts), start=Fraction(1))
    return total


def binom_poly(j: int) -> list:
    """Coefficients of C(t, j) = t(t-1)...(t-j+1)/j! in powers of t."""
    coeffs = [Fraction(1)]
    for i in range(j):
        # multiply by (t - i)
        coeffs = [Fraction(0)] + coeffs
        for d in range(len(coeffs) - 1):
            coeffs[d] -= i * coeffs[d + 1]
    return [c / math.factorial(j) for c in coeffs]


def composed_polynomial(mu: Sequence[Fraction], n: int) -> tuple:
    """Coefficients of mu^(t)_n = sum_{j=1}^{n} C(t, j) S_j(n), trailing
    zeros dropped (mu^(t)_0 = 1)."""
    if n == 0:
        return (Fraction(1),)
    coeffs = [Fraction(0)] * (n + 1)
    for j in range(1, n + 1):
        s = composition_sum(mu, n, j)
        for d, c in enumerate(binom_poly(j)):
            coeffs[d] += c * s
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def composed_moment(mu: Sequence[Fraction], t, n: int) -> Fraction:
    """mu^(t)_n at a rational t."""
    t = Fraction(t)
    return sum(c * t ** d for d, c in enumerate(composed_polynomial(mu, n)))


def alternation_report(mu: Sequence[Fraction], t, n: int) -> AlternationReport:
    """The alternation report of mu^(t)_n in Fraction arithmetic: the terms
    C(t, j) S_j(n) with C(t, j) built one factor (t - j + 1) / j at a time,
    and every check a chain of Fraction comparisons and sums."""
    t = Fraction(t)
    terms = []
    binom = Fraction(1)
    for j in range(1, n + 1):
        binom = binom * (t - j + 1) / j
        terms.append(binom * composition_sum(mu, n, j))
    terms = tuple(terms)
    leading = t * mu[n]
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
        strict = all(mu[k] ** 2 < mu[k - 1] * mu[k + 1] for k in range(1, n))
    pre = {"t_in_unit_interval": 0 < t < 1, "strictly_log_convex": strict}
    return AlternationReport(t, n, terms, leading, terms[0] == leading,
                             signs_ok, moduli_ok, tails_ok, pre)


def envelope_report(mu: Sequence[Fraction], theta, t, depth: int) -> EnvelopeReport:
    """The envelope report in Fraction arithmetic, each composed moment
    from the occupancy sum (composed_moment); mu must be positive."""
    theta, t = Fraction(theta), Fraction(t)
    if not 0 < t < 1:
        return EnvelopeReport("precondition-failed", theta, t, depth,
                              witness=("t outside (0,1)", t))
    for k in range(1, depth):
        ratio = mu[k] ** 2 / (mu[k - 1] * mu[k + 1])
        if ratio > theta:
            return EnvelopeReport("precondition-failed", theta, t, depth,
                                  witness=("log-convexity ratio exceeds theta", k, ratio))
    rows = []
    for n in range(1, depth + 1):
        value = composed_moment(mu, t, n)
        upper = t * mu[n]
        lower = (1 - theta) * upper
        rows.append((n, lower, value, upper))
        if not (lower < value <= upper):
            return EnvelopeReport("violated", theta, t, depth, tuple(rows),
                                  witness=(n, lower, value, upper))
    return EnvelopeReport("holds", theta, t, depth, tuple(rows))


def split_bound_violation(vals: Sequence[Fraction], theta) -> Optional[tuple]:
    """The first (k, n, lhs, rhs) with lhs = mu_k mu_{n-k} / mu_n above
    rhs = theta^{k(n-k)}, for 1 <= k < n <= N, or None: the split-product
    bound checked pair by pair, which split_bound_check proves instead."""
    theta = Fraction(theta)
    for n in range(2, len(vals)):
        for k in range(1, n):
            lhs = Fraction(vals[k]) * vals[n - k] / vals[n]
            rhs = theta ** (k * (n - k))
            if lhs > rhs:
                return k, n, lhs, rhs
    return None


def semigroup_first_failure(polys: Sequence[Sequence[Fraction]]) -> Optional[int]:
    """First n at which sum_j C(n,j) P_j(s) P_{n-j}(t) = P_n(s+t) fails, or
    None. polys[n] lists the coefficients of P_n; both sides are expanded as
    bivariate polynomials {(i, j): coefficient of s^i t^j} and compared
    coefficient by coefficient."""
    for n in range(len(polys)):
        lhs = defaultdict(Fraction)
        for j in range(n + 1):
            for a, c in enumerate(polys[j]):
                for b, d in enumerate(polys[n - j]):
                    lhs[(a, b)] += math.comb(n, j) * c * d
        rhs = defaultdict(Fraction)
        for d, c in enumerate(polys[n]):
            for i in range(d + 1):
                rhs[(i, d - i)] += math.comb(d, i) * c
        if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
            return n
    return None


def rational_det(rows) -> Fraction:
    """Exact determinant of a rational matrix: each row times the lcm of
    its denominators, one pivoting Bareiss determinant of those integers,
    and the row multipliers divided out."""
    scale, ints = 1, []
    for row in rows:
        row = [Fraction(v) for v in row]
        common = math.lcm(*(v.denominator for v in row))
        scale *= common
        ints.append([v.numerator * (common // v.denominator) for v in row])
    return Fraction(_det_bareiss(ints), scale)


def lattice_hankel_minor(q, shift: int, rows: int) -> Fraction:
    """The Hankel minor of `rows` rows at `shift` of mu_n = q^(n^2), in
    closed form. Entry (i, j) is q^((i+j+s)^2) = q^((i+s)^2) q^(j^2) x_i^j
    with x_i = q^(2(i+s)), so the minor is prod_i q^((i+s)^2) q^(i^2)
    times the Vandermonde prod_(i<j) (x_j - x_i): positive for every q > 1."""
    q = Fraction(q)
    nodes = [q ** (2 * (i + shift)) for i in range(rows)]
    out = Fraction(1)
    for i in range(rows):
        out *= q ** ((i + shift) ** 2 + i * i)
        for j in range(i + 1, rows):
            out *= nodes[j] - nodes[i]
    return out


def _judge(m) -> tuple:
    """(vals, sign): the entries of m as Fractions, an approximate
    MomentSequence's at their exact dyadic values, and the sign the Hankel
    reports give a determinant of the given rows. An approximate sequence
    is judged at rel = 2^(1 - precision_bits), the relative error of each
    stored entry: |det| <= 2n rel / (1 - rel) * H counts as zero for a
    determinant of n rows, with H Hadamard's bound, the product of the row
    norms, each norm sqrt(p / q) rounded up to (isqrt(p) + 1) / isqrt(q)."""
    approx = isinstance(m, MomentSequence) and not m.exact
    vals = [_exact(v) for v in getattr(m, "values", m)]
    rel = Fraction(2, 2 ** m.precision_bits) if approx else None

    def sign(det, rows):
        if rel is not None:
            norms = [sum(Fraction(v) ** 2 for v in row) for row in rows]
            bound = math.prod(Fraction(math.isqrt(s.numerator) + 1,
                                       max(math.isqrt(s.denominator), 1)) if s else 0
                              for s in norms)
            if abs(det) <= 2 * len(rows) * rel / (1 - rel) * bound:
                return 0
        return (det > 0) - (det < 0)

    return vals, sign


def stieltjes_verdict_per_size(m, upto: int) -> PositivityVerdict:
    """The Stieltjes verdict with one pivoting Bareiss determinant per size
    and shift, in the library's order: entries first, then sizes 0..upto,
    shift 0 before shift 1; the first negative wins, else the first zero."""
    vals, sign = _judge(m)
    for idx in range(2 * upto + 2):
        if sign(vals[idx], [[vals[idx]]]) < 0:
            return PositivityVerdict("not-stieltjes", upto, HankelQuery(idx, 0), vals[idx])
    first_zero = None
    for size in range(upto + 1):
        for shift in (0, 1):
            q = HankelQuery(shift, size)
            rows = hankel_matrix(vals, q)
            det = rational_det(rows)
            s = sign(det, rows)
            if s < 0:
                return PositivityVerdict("not-stieltjes", upto, q, det)
            if s == 0 and first_zero is None:
                first_zero = (q, det)
    if first_zero is not None:
        return PositivityVerdict("semi-definite", upto, *first_zero)
    return PositivityVerdict("strictly-positive", upto)


def _det_and_sign(vals, sign, q: HankelQuery) -> tuple:
    rows = hankel_matrix(vals, q)
    det = rational_det(rows)
    return det, sign(det, rows)


def indeterminacy_ratios_per_size(m, upto: int) -> IndeterminacyRatios:
    """det(s, n) / det(s + 2, n - 1) for s = 0, 1 and n = 1..upto, two
    determinants per ratio; None where the denominator is judged zero."""
    vals, sign = _judge(m)
    if len(vals) < 2 * upto + 2:
        raise ValueError("short prefix")
    families, degenerate = [], False
    for shift in (0, 1):
        out = []
        for n in range(1, upto + 1):
            num = rational_det(hankel_matrix(vals, HankelQuery(shift, n)))
            den, s = _det_and_sign(vals, sign, HankelQuery(shift + 2, n - 1))
            out.append(None if s == 0 else num / den)
            degenerate = degenerate or s == 0
        families.append(out)
    s0, s1 = families
    return IndeterminacyRatios(tuple(s0), tuple(s1), upto, degenerate, COLLAPSE_FACTOR,
                               _bounded_away(s0), _bounded_away(s1))


def mu1_threshold_per_size(m, upto: int) -> Mu1ThresholdReport:
    """The mu_1 value that makes det(1, d) vanish, -D / C with det(1, d) =
    C mu_1 + D and C = det(3, d - 1), for d = 1..upto."""
    vals, sign = _judge(m)
    if len(vals) < 2 * upto + 2:
        raise ValueError("short prefix")
    mu1 = Fraction(vals[1])
    out = []
    for d in range(1, upto + 1):
        cof, s = _det_and_sign(vals, sign, HankelQuery(3, d - 1))
        if s == 0:
            out.append(None)
            continue
        full = rational_det(hankel_matrix(vals, HankelQuery(1, d)))
        out.append(-(full - cof * mu1) / cof)
    defined = [v for v in out if v is not None]
    complete = bool(defined) and len(defined) == len(out)
    return Mu1ThresholdReport(
        tuple(out), mu1,
        all(x <= y for x, y in zip(defined, defined[1:])) if complete else None,
        all(v < mu1 for v in defined) if complete else None)


def fekete_per_block(m, q: HankelQuery) -> TotalPositivityVerdict:
    """Every consecutive block of the Hankel matrix at q cut out of it and
    given its own determinant, order by order, rows before columns."""
    vals, sign = _judge(m)
    matrix = hankel_matrix(vals, q)
    n = q.size + 1
    checked = 0
    first_zero = None
    for order in range(1, n + 1):
        for r0 in range(n - order + 1):
            for c0 in range(n - order + 1):
                sub = [row[c0:c0 + order] for row in matrix[r0:r0 + order]]
                det = rational_det(sub)
                checked += 1
                s = sign(det, sub)
                if s < 0:
                    return TotalPositivityVerdict("not-tp", q, checked, (r0, c0, order), det)
                if s == 0 and first_zero is None:
                    first_zero = ((r0, c0, order), det)
    if first_zero is not None:
        return TotalPositivityVerdict("semi-definite", q, checked, *first_zero)
    return TotalPositivityVerdict("strictly-tp", q, checked)


def mixed_poisson_pmf_mpf(spec, log_b, N: int, kmax: int, p) -> DiscretePMF:
    """distributions.mixed_poisson_pmf with every column summed in mpf
    arithmetic: the same tanh-sinh nodes, spans, degrees and stopping rule,
    but each acc[k] += v and v *= e^x rounded at the working precision, and
    the error estimate of every k taken at every degree from 3 on. It has
    no truncation term; the library's integer columns must agree with it
    within p_k 2^-bits plus their truncation bound."""
    import mpmath
    from momentlab.distributions import _censored_moments, _check_errors
    from momentlab.moment_algebra import _as_mpf

    if N < 1 or kmax < 0:
        raise ValueError("need N >= 1 and kmax >= 0")
    kept = _censored_moments(spec, -mpmath.inf, log_b, 0, p)[1]
    rule = mpmath.mp._tanh_sinh
    prec = p.bits + 20
    with mpmath.workprec(prec):
        a = _as_mpf(spec.alpha)
        s2 = _as_mpf(spec.sigma2)
        s = mpmath.sqrt(s2)
        logb = mpmath.mpf(log_b)
        if not mpmath.isfinite(logb):
            raise ValueError("log_b must be finite")
        nn = mpmath.mpf(N)
        tol = p.tol
        fac = [1 / (s * mpmath.sqrt(2 * mpmath.pi))]
        for k in range(1, kmax + 1):
            fac.append(fac[-1] * nn / k)
        peaks = [mpmath.log(k / nn) for k in range(1, max(kmax, 1) + 1)]
        top = max(peaks[-1], logb) + 30
        points = [logb] + [x for x in peaks if x > logb] + [top]

        def add_column(acc, x, w):
            ex = mpmath.exp(x)
            v = w * mpmath.exp(-nn * ex - (x - a) ** 2 / (2 * s2))
            for k in range(kmax + 1):
                acc[k] += v
                v *= ex

        tails = [mpmath.mpf(0)] * (kmax + 1)
        add_column(tails, top, 1)
        tails = [v / (nn * mpmath.exp(top) - k) for k, v in enumerate(tails)]
        spans = list(zip(points, points[1:]))
        shares = [tol / (2 * f * len(spans)) for f in fac]
        levels = [[] for _ in spans]
        errors = [None] * len(spans)
        live = range(len(spans))
        for degree in range(1, rule.guess_degree(prec) + 1):
            h = mpmath.mpf(2) ** -degree
            for i in live:
                acc = [mpmath.mpf(0)] * (kmax + 1)
                for x, w in rule.get_nodes(*spans[i], degree, prec):
                    add_column(acc, x, w)
                level = levels[i]
                level.append([(level[-1][k] / 2 if level else 0) + h * acc[k]
                              for k in range(kmax + 1)])
                if degree >= 3:
                    errors[i] = [rule.estimate_error([row[k] for row in level[-3:]],
                                                     prec, mpmath.eps) for k in range(kmax + 1)]
            if degree >= 3:
                live = [i for i in live if not all(e <= c for e, c in zip(errors[i], shares))]
                if not live:
                    break
        masses = [f * sum(level[-1][k] for level in levels) for k, f in enumerate(fac)]
        masses[0] += 1 - kept
        _check_errors([f * (sum(err[k] for err in errors) + t) + mpmath.ldexp(abs(m), -p.bits)
                       for k, (f, t, m) in enumerate(zip(fac, tails, masses))],
                      tol, "quadrature error")
        tail_mass = 1 - sum(masses)
    return DiscretePMF(masses=tuple(masses), exact=False, precision_bits=p.bits,
                       entry_error=tol, tail_mass=tail_mass)


def clopper_pearson_lower_mpf(count: int, trials: int, level: float) -> float:
    """The Clopper-Pearson lower bound by the library's algorithm in mpmath
    at 128 bits: the continued fraction of DLMF 8.17.22 by modified Lentz,
    the prefactor through mpmath.loggamma, the start from mpmath.erfinv,
    and Newton steps inside a bisection bracket to a relative 2^-80."""
    import mpmath

    a, b = count, trials - count + 1
    alpha = 1 - level

    def betainc(x, a, b, log_beta):
        if x > mpmath.mpf(a + 1) / (a + b + 2):
            return 1 - betainc(1 - x, b, a, log_beta)
        eps = mpmath.mpf(2) ** (8 - mpmath.mp.prec)
        tiny = mpmath.mpf(2) ** (-2 * mpmath.mp.prec)
        f = d = mpmath.mpf(1)
        c = 1 / tiny
        j = 1
        while True:
            m, odd = divmod(j, 2)
            num = (-(a + m) * (a + b + m) if odd else m * (b - m)) * x / ((a + j - 1) * (a + j))
            d = 1 + num * d
            d = 1 / (d if d != 0 else tiny)
            c = 1 + num / c
            c = c if c != 0 else tiny
            delta = c * d
            f *= delta
            if abs(delta - 1) <= eps:
                break
            j += 1
        return mpmath.exp(a * mpmath.log(x) + b * mpmath.log1p(-x) - mpmath.log(a) - log_beta) * f

    with mpmath.workprec(128):
        log_beta = mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b)
        target = mpmath.mpf(alpha)
        x_pow = mpmath.exp((mpmath.log(target) + mpmath.log(a) + log_beta) / a)
        mean = mpmath.mpf(a) / (a + b)
        sd = mpmath.sqrt(mean * (1 - mean) / (a + b + 1))
        x_norm = mean - mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * target) * sd
        x = x_norm if x_pow < x_norm < 1 else x_pow
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        tol = mpmath.mpf(2) ** -80
        for _ in range(400):
            g = betainc(x, a, b, log_beta) - target
            if g == 0:
                break
            if g < 0:
                lo = x
            else:
                hi = x
            slope = mpmath.exp((a - 1) * mpmath.log(x) + (b - 1) * mpmath.log1p(-x) - log_beta)
            new = x - g / slope
            if not lo < new < hi:
                new = (lo + hi) / 2
            done = abs(new - x) <= tol * x
            x = new
            if done:
                break
        else:
            raise AssertionError("Clopper-Pearson quantile did not converge")
        return float(x)


def jump_field(spec, t: float, rng, count: int):
    """Every jump of `count` paths on [0, t] and the path each belongs to:
    the Poisson counts first, then all jump sizes in one draw."""
    n = rng.poisson(spec.rate * t, count)
    total = int(n.sum())
    jumps = spec.jump_law.sample(rng, total) if total else np.empty(0)
    return jumps, np.repeat(np.arange(count), n)


def sample_with_counts(spec, t: float, rng, count: int):
    """`count` values of X(t) and each path's number of kept jumps."""
    jumps, owner = jump_field(spec, t, rng, count)
    if spec.epsilon > 0 or isinstance(spec.jump_law, PoissonJumps):
        keep = jumps > spec.epsilon
        jumps = jumps[keep]
        owner = owner[keep]
    x = np.bincount(owner, weights=jumps, minlength=count)
    kept = np.bincount(owner, minlength=count)
    return x, kept


def sample_compound_poisson(spec, t: float, seed: int, count: int):
    x, _ = sample_with_counts(spec, t, make_rng(seed), count)
    return x


def spectrum_gap_test(spec, a: float, b: float, n: int, trials: int, seed: int,
                      level: float = 0.99, t: float = 1.0,
                      censor_gap: Optional[tuple] = None) -> SpectrumTestResult:
    """The spectrum report from the whole sample at once: the modal kept-jump
    count by np.unique and argmax over the (a, b) hits."""
    x, kept = sample_with_counts(spec, t, make_rng(seed), trials)
    if censor_gap is not None:
        x = x.copy()
        x[(x > censor_gap[0]) & (x < censor_gap[1])] = 0.0
    in_ab = (x > a) & (x < b)
    in_rep = (x > n * a) & (x < n * b)
    count_ab = int(in_ab.sum())
    count_rep = int(in_rep.sum())
    p_ab = count_ab / trials
    p_rep = count_rep / trials
    lam_eff = spec.rate * t * spec.jump_law.tail_prob(spec.epsilon)
    modal_m = 0
    lower = 0.0
    if count_ab > 0:
        ms, cs = np.unique(kept[in_ab], return_counts=True)
        pos = ms > 0
        ms, cs = ms[pos], cs[pos]
        if len(ms):
            best = int(np.argmax(cs))
            modal_m = int(ms[best])
            q_lcb = _clopper_pearson_lower(int(cs[best]), trials, level)
            lower = _replication_lower(lam_eff, modal_m, n, q_lcb)
    upper = 1.0 - (1.0 - level) ** (1.0 / trials) if count_rep == 0 else 1.0
    violation = count_ab > 0 and count_rep == 0 and lower > upper
    return SpectrumTestResult(
        interval=(a, b), n=n, trials=trials, level=level,
        p_hat_ab=p_ab, p_hat_nanb=p_rep, count_ab=count_ab, count_nanb=count_rep,
        se_ab=math.sqrt(max(p_ab * (1 - p_ab), 0.0) / trials),
        se_nanb=math.sqrt(max(p_rep * (1 - p_rep), 0.0) / trials),
        modal_jump_count=modal_m, replication_lower_bound=lower, upper_bound_nanb=upper,
        verdict="violation" if violation else "consistent",
        z_score=math.sqrt(trials * lower) if violation else None,
        seed=seed, t=t, censor_gap=censor_gap, spec=spec.describe())


def epsilon_truncation_drift(spec, eps_grid: Sequence[float], trials: int, seed: int,
                             eta: float = 0.1, t: float = 1.0, level: float = 0.99) -> DriftTable:
    """The drift table from the whole jump field at once, less the jumps at
    or below the spec's own epsilon: one bincount of the small kept jumps
    over all paths per epsilon."""
    jumps, owner = jump_field(spec, t, make_rng(seed), trials)
    keep = jumps > spec.epsilon
    jumps, owner = jumps[keep], owner[keep]
    z = NormalDist().inv_cdf((1 + level) / 2)
    rows = []
    for eps in eps_grid:
        small = jumps <= eps
        discarded = np.bincount(owner[small], weights=jumps[small], minlength=trials)
        count = int((discarded > eta).sum())
        p = count / trials
        se = math.sqrt(max(p * (1 - p), 0.0) / trials)
        rows.append(DriftRow(float(eps), p, count, se,
                             max(p - z * se, 0.0), min(p + z * se, 1.0)))
    return DriftTable(eta=eta, t=t, trials=trials, seed=seed, rows=tuple(rows),
                      level=level, spec=spec.describe())

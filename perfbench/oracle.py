"""Reference computations the benchmark checks momentlab against.

Nothing here imports momentlab: every quantity is derived again from its
definition, so a rewrite of a momentlab layer cannot change the reference
it is checked against. Exact values are Fractions; the closed forms for the
certified generators run in mpmath at a precision well above the one the
generator was asked for.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, isqrt

import mpmath
from mpmath import iv, mpf

# ---------------------------------------------------------------------------
# exact moment algebra


def cumulants(mu):
    """kappa_1..kappa_N from mu_0..mu_N (mu_0 = 1) by the moment recursion
    mu_n = sum_{k<n} C(n-1, k) kappa_{k+1} mu_{n-1-k}."""
    kappa = []
    for n in range(1, len(mu)):
        acc = Fraction(mu[n])
        for k in range(n - 1):
            acc -= comb(n - 1, k) * kappa[k] * mu[n - 1 - k]
        kappa.append(acc)
    return kappa


def _poly_add(a, b):
    out = list(a) + [Fraction(0)] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += c
    return out


def _poly_scale_shift(p, c):
    """c * t * p(t) as a coefficient list."""
    return [Fraction(0)] + [c * x for x in p]


def _trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def t_power_polys(mu, upto):
    """Moments of the t-th convolution power as polynomials in t.

    mu^(t) = moments_from_cumulants(t * kappa), run on coefficient lists:
    P_0 = 1 and P_n = sum_{j<n} C(n-1, j) t kappa_{j+1} P_{n-1-j}. Returns
    trimmed coefficient lists, lowest degree first.
    """
    kappa = cumulants(mu[:upto + 1])
    polys = [[Fraction(1)]]
    for n in range(1, upto + 1):
        acc = [Fraction(0)]
        for j in range(n):
            acc = _poly_add(acc, _poly_scale_shift(polys[n - 1 - j],
                                                   comb(n - 1, j) * kappa[j]))
        polys.append(_trim(acc))
    return polys


def poly_eval(p, t):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * t + c
    return acc


def t_power_at(mu, t, upto):
    """mu^(t)_0..mu^(t)_upto at one rational t."""
    kappa = cumulants(mu[:upto + 1])
    t = Fraction(t)
    out = [Fraction(1)]
    for n in range(1, upto + 1):
        out.append(sum(comb(n - 1, j) * t * kappa[j] * out[n - 1 - j]
                       for j in range(n)))
    return out


def composition_sums(mu, n):
    """S_j(n) for j = 1..n, by S_j(m) = sum_{k>=1} C(m, k) mu_k S_{j-1}(m-k)
    with S_0(m) = [m == 0]."""
    prev = [Fraction(1)] + [Fraction(0)] * n
    out = []
    for _ in range(1, n + 1):
        cur = [Fraction(0)] * (n + 1)
        for m in range(1, n + 1):
            cur[m] = sum(comb(m, k) * mu[k] * prev[m - k] for k in range(1, m + 1))
        out.append(cur[n])
        prev = cur
    return out


def gen_binom(t, j):
    out = Fraction(1)
    for i in range(j):
        out = out * (t - i) / (i + 1)
    return out


def classical_self_convolution(mu, upto):
    return [sum(comb(n, j) * mu[j] * mu[n - j] for j in range(n + 1))
            for n in range(upto + 1)]


def boolean_power(mu, t, upto):
    """Scale the Boolean cumulants b_n = mu_n - sum_{k<n} b_k mu_{n-k} by t
    and rebuild the moments."""
    b = [Fraction(0)]
    for n in range(1, upto + 1):
        b.append(mu[n] - sum(b[k] * mu[n - k] for k in range(1, n)))
    t = Fraction(t)
    out = [Fraction(1)]
    for n in range(1, upto + 1):
        out.append(sum(t * b[k] * out[n - k] for k in range(1, n + 1)))
    return out


def touchard(lam, upto):
    """Poisson moments sum_j S(n, j) lam^j, with S from its own triangle."""
    stirling = [[1]]
    for n in range(1, upto + 1):
        row = [0] * (n + 1)
        for k in range(1, n + 1):
            row[k] = k * (stirling[n - 1][k] if k < n else 0) + stirling[n - 1][k - 1]
        stirling.append(row)
    lam = Fraction(lam)
    return [sum(stirling[n][j] * lam ** j for j in range(n + 1)) for n in range(upto + 1)]


def isqrt_exact(x) -> Fraction:
    """The rational square root of a rational square."""
    x = Fraction(x)
    root = Fraction(isqrt(x.numerator), isqrt(x.denominator))
    if root * root != x:
        raise ValueError(f"{x} is not a rational square")
    return root


def entry_bits(x) -> int:
    """Largest numerator or denominator bit length of an exact value, or of
    the dyadic rational an mpf stands for."""
    x = dyadic(x) if isinstance(x, mpf) else Fraction(x)
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def dyadic(x) -> Fraction:
    """The exact rational value of an mpf."""
    man, exp = x.man_exp
    return Fraction(int(man)) * 2 ** exp if exp >= 0 else Fraction(int(man), 2 ** -exp)


# ---------------------------------------------------------------------------
# exact Hankel minors


def _det(rows):
    """Determinant by Gaussian elimination with row pivoting on Fractions."""
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            if f:
                for c in range(k + 1, n):
                    m[r][c] -= f * m[k][c]
    return det


def hankel(vals, shift, order):
    return [[vals[shift + i + j] for j in range(order)] for i in range(order)]


def leading_minors(vals, shift, orders):
    """Leading principal minors of orders 1..orders of [vals[shift+i+j]].

    One fraction-free elimination over the largest window, rows first
    scaled to integers: the k-th pivot is the order-k minor of the scaled
    matrix. A zero pivot is a zero minor and ends that pass; the higher
    orders are then computed one by one.
    """
    rows = hankel(vals, shift, orders)
    scale = []
    ints = []
    for row in rows:
        den = 1
        for v in row:
            den = den * v.denominator // gcd(den, v.denominator)
        scale.append(den)
        ints.append([int(v * den) for v in row])
    out = []
    prev = 1
    scaled_by = 1
    for k in range(orders):
        piv = ints[k][k]
        scaled_by *= scale[k]
        out.append(Fraction(piv, scaled_by))
        if piv == 0:
            break
        for i in range(k + 1, orders):
            for j in range(k + 1, orders):
                ints[i][j] = (piv * ints[i][j] - ints[i][k] * ints[k][j]) // prev
        prev = piv
    for k in range(len(out), orders):
        out.append(_det(hankel(vals, shift, k + 1)))
    return out


class Minors:
    """D(shift, size): the exact (size+1)x(size+1) Hankel minor. The first
    query at a shift computes every size that shift's window holds in one
    leading-minor pass."""

    def __init__(self, vals):
        self.vals = [Fraction(v) for v in vals]
        self._by_shift = {}

    def __call__(self, shift, size):
        if shift not in self._by_shift:
            orders = (len(self.vals) - 1 - shift) // 2 + 1
            self._by_shift[shift] = leading_minors(self.vals, shift, orders)
        return self._by_shift[shift][size]


def expected_verdict(vals, depth):
    """(kind, (shift, size) or None, value or None) for the two-shift
    Stieltjes test, in the order the verdict documents: negative entries
    first, then sizes 0..depth with shifts 0 and 1, first negative wins,
    else the first zero makes it semi-definite."""
    vals = [Fraction(v) for v in vals]
    for idx in range(2 * depth + 2):
        if vals[idx] < 0:
            return "not-stieltjes", (idx, 0), vals[idx]
    d = Minors(vals)
    first_zero = None
    for size in range(depth + 1):
        for shift in (0, 1):
            v = d(shift, size)
            if v < 0:
                return "not-stieltjes", (shift, size), v
            if v == 0 and first_zero is None:
                first_zero = ((shift, size), v)
    if first_zero:
        return ("semi-definite",) + first_zero
    return "strictly-positive", None, None


def expected_ratios(vals, upto):
    d = Minors(vals)

    def family(base):
        return [None if d(base + 2, n - 1) == 0 else d(base, n) / d(base + 2, n - 1)
                for n in range(1, upto + 1)]

    return family(0), family(1)


def expected_mu1(vals, upto):
    d = Minors(vals)
    mu1 = Fraction(vals[1])
    return [None if d(3, k - 1) == 0 else mu1 - d(1, k) / d(3, k - 1)
            for k in range(1, upto + 1)]


def minor_with_mu1(vals, c, size):
    """D(1, size) after replacing mu_1 by c."""
    vals = [Fraction(v) for v in vals]
    vals[1] = Fraction(c)
    return leading_minors(vals, 1, size + 1)[size]


def expected_fekete(vals, shift, size):
    """Consecutive minors of the size-`size` Hankel matrix at `shift`.

    The block of order k at (r0, c0) is itself the Hankel matrix at shift
    shift + r0 + c0, so it is the minor D(shift + r0 + c0, k - 1). Returns
    (kind, minors checked, witness, value) in the enumeration order of the
    Fekete check: order, then row start, then column start.
    """
    d = Minors(vals)
    n = size + 1
    checked = 0
    first_zero = None
    for order in range(1, n + 1):
        for r0 in range(n - order + 1):
            for c0 in range(n - order + 1):
                v = d(shift + r0 + c0, order - 1)
                checked += 1
                if v < 0:
                    return "not-tp", checked, (r0, c0, order), v
                if v == 0 and first_zero is None:
                    first_zero = ((r0, c0, order), v)
    if first_zero:
        return "semi-definite", checked, first_zero[0], first_zero[1]
    return "strictly-tp", checked, None, None


# ---------------------------------------------------------------------------
# closed forms for the certified generators


def _phi_bar(z):
    return mpmath.erfc(z / mpmath.sqrt(2)) / 2


def lognormal_moment(alpha, sigma2, n):
    return mpmath.exp(n * mpf(alpha) + n * n * mpf(sigma2) / 2)


def truncated_moment(alpha, sigma2, log_b, n):
    """m_n Phi_bar(z_n), z_n = (log b - alpha - n sigma^2) / sigma: the
    lognormal n-th moment restricted to x > b."""
    s = mpmath.sqrt(mpf(sigma2))
    z = (mpf(log_b) - mpf(alpha) - n * mpf(sigma2)) / s
    return lognormal_moment(alpha, sigma2, n) * _phi_bar(z)


def gap_moment(alpha, sigma2, a, b, n):
    """m_n (1 - [Phi(z_b) - Phi(z_a)]): the n-th moment with the mass on
    (a, b) sent to the origin."""
    s = mpmath.sqrt(mpf(sigma2))
    za = (mpmath.log(mpf(a)) - mpf(alpha) - n * mpf(sigma2)) / s
    zb = (mpmath.log(mpf(b)) - mpf(alpha) - n * mpf(sigma2)) / s
    return lognormal_moment(alpha, sigma2, n) * (1 - (_phi_bar(za) - _phi_bar(zb)))


def katti_intervals(masses, entry_error, bits):
    """Enclosures of the Katti rates r_0.. over every pmf within entry_error
    of `masses`, from (j+1) p_{j+1} = sum_{k<=j} p_{j-k} r_k solved for r_j
    in outward-rounded interval arithmetic at bits + 40."""
    saved = iv.prec
    try:
        iv.prec = bits + 40
        e = iv.mpf([-mpf(entry_error), mpf(entry_error)])
        p = [iv.mpf(v) + e for v in masses]
        r = []
        for j in range(len(p) - 1):
            acc = (j + 1) * p[j + 1]
            for k in range(j):
                acc -= p[j - k] * r[k]
            r.append(acc / p[0])
    finally:
        iv.prec = saved
    return r


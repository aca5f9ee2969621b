"""Concrete moment and pmf generators.

Lognormal moments and their censored variants, the exact lattice stand-in
family, the discrete lattice twin of the lognormal (Leipnik's construction),
Poisson moments (the compound Poisson law whose cumulants are all lambda),
and the mixed-Poisson pmf with truncated-lognormal intensity that feeds
the divisibility tests.

High-precision values are mpmath floats computed under an explicit
Precision(bits, abs_tol). Every censored lognormal is one closed form,
_censored_moments: the lognormal with its mass on a window (e^log_a,
e^log_b) sent to the origin, mu_n = m_n [Phi(z_a) + Phi_bar(z_b)]. The
plain lognormal is the empty window (-inf, -inf), left truncation at b the
window (-inf, ln b) and the gap (a, b) the window (ln a, ln b); the
mixed-Poisson atom at 0 is the mass that left truncation sends there. The
closed form runs at bits + 20 and carries only rounding error, which it
checks against abs_tol. Only the rest of the mixed-Poisson pmf is a
quadrature, summed on integers; its entry error adds the quadrature error
estimate, the tail bound, the truncation of the integer sums and rounding.
Right truncation is left out on purpose, since its law has bounded support
and nothing downstream needs it.

Leipnik's twin, weight e^{-n^2 sigma2/2} at e^{n sigma2} for n in Z, has
the lognormal's moments exactly, because sum_n e^{-(n-k)^2 sigma2/2} does
not depend on the integer k; so its moments are the lognormal closed form,
and its lattice weights serve the tests as the oracle.
"""
from __future__ import annotations

from fractions import Fraction
from math import log10
from typing import Optional, Union

from .exceptions import QuadratureError
from .moment_algebra import (CumulantSequence, MomentSequence, Record, ScaledSequence,
                             _as_fraction, _as_mpf, _is_mpf, _on_backend, _to_backend,
                             check_precision_bits, moments_from_cumulants, mpmath)

DEFAULT_BITS = 128
DEFAULT_ABS_TOL = "1e-20"


class Precision(Record):
    """Working precision in bits plus an absolute quadrature target. The
    target must be finite and non-negative as a float, a check that loads
    no mpmath; 0 is valid, but no entry can meet it."""

    bits: int = DEFAULT_BITS
    abs_tol: Union[str, float] = DEFAULT_ABS_TOL

    def __post_init__(self):
        check_precision_bits(self.bits)
        if not 0 <= float(self.abs_tol) < float("inf"):
            raise ValueError("abs_tol must be finite and non-negative, got %s" % (self.abs_tol,))

    @property
    def tol(self) -> mpmath.mpf:
        with mpmath.workprec(self.bits):
            return mpmath.mpf(self.abs_tol)


class LognormalSpec(Record):
    """Parameters of the lognormal law e^G, G normal with mean alpha and
    variance sigma2."""

    alpha: Union[str, float, int, Fraction] = 0
    sigma2: Union[str, float, int, Fraction] = 1

    def __post_init__(self):
        if not (mpmath.isfinite(_as_mpf(self.alpha)) and 0 < _as_mpf(self.sigma2) < mpmath.inf):
            raise ValueError("alpha must be finite, and sigma2 positive and finite")


class DiscretePMF(Record):
    """Masses (p_0, p_1, ...) on the non-negative integers.

    Exact pmfs carry Fractions and a zero entry error; they are allowed to
    be unnormalized, since the divisibility recursions are scale invariant
    and an exact overall factor (like e^{-lambda}) may be irrational.
    Approximate pmfs carry mpmath values at precision_bits, as a
    MomentSequence does, a certified per-entry absolute error bound
    (rounded up when it is not an mpf), and an estimate of the mass beyond
    the last index. That estimate, when given, is on the pmf's backend too.
    """

    masses: tuple
    exact: bool = True
    precision_bits: Optional[int] = None
    entry_error: Union[Fraction, mpmath.mpf, int] = 0
    tail_mass: Union[Fraction, mpmath.mpf, int, None] = None

    def __post_init__(self):
        if len(self.masses) == 0:
            raise ValueError("empty pmf")
        _on_backend(self, "masses")
        err = self.entry_error
        if self.exact:
            err = _as_fraction(err)
        elif not _is_mpf(err):
            # a bound, so an inexact one is rounded up
            err = Fraction(err)
            with mpmath.workprec(self.precision_bits):
                err = mpmath.fdiv(err.numerator, err.denominator, rounding="u")
        object.__setattr__(self, "entry_error", err)
        if self.tail_mass is not None:
            object.__setattr__(self, "tail_mass", _to_backend(self, (self.tail_mass,))[0])

    def __len__(self) -> int:
        return len(self.masses)

    def __getitem__(self, k):
        return self.masses[k]

    @property
    def kmax(self) -> int:
        return len(self.masses) - 1


def _phi_bar(x) -> mpmath.mpf:
    """Standard normal upper tail probability."""
    return mpmath.erfc(x / mpmath.sqrt(2)) / 2


def _check_errors(errs, tol, what: str) -> None:
    """QuadratureError at the first error bound above abs_tol, or NaN."""
    for k, err in enumerate(errs):
        if not err <= tol:
            raise QuadratureError("%s of entry %d is %s, above abs_tol %s"
                                  % (what, k, mpmath.nstr(err, 5), mpmath.nstr(tol, 5)))


def _check_rounding(vals, p: Precision) -> None:
    """Check each entry's rounding bound |v| 2^-bits against abs_tol."""
    _check_errors([mpmath.ldexp(abs(v), -p.bits) for v in vals], p.tol, "rounding bound")


def _censored_moments(spec: LognormalSpec, log_a, log_b, upto: int, p: Precision) -> tuple:
    """The one closed form behind the lognormal generators: lognormal(spec)
    with its mass on (e^log_a, e^log_b) sent to the origin.

    mu_n = m_n [Phi(z_a) + Phi_bar(z_b)] for n >= 1 and mu_0 = 1 (the atom
    at 0 included), with m_n = e^{n alpha + n^2 sigma2 / 2} and
    z_c = (log c - mode) / sigma, mode = alpha + n sigma2. Phi(z_a) is taken
    as Phi_bar(-z_a), so the bracket is two positive tails and nothing
    cancels. mpmath gives Phi_bar(-inf) = 1 and Phi_bar(+inf) = 0 exactly,
    so the empty window (-inf, -inf) is the plain lognormal and (-inf, log b)
    left truncation, entry for entry. Returns the moments and the bracket
    at n = 0, the mass kept off the origin. Computed at p.bits + 20;
    QuadratureError when a rounding bound |mu_n| 2^-bits exceeds abs_tol.
    """
    with mpmath.workprec(p.bits + 20):
        al = _as_mpf(spec.alpha)
        s2 = _as_mpf(spec.sigma2)
        s = mpmath.sqrt(s2)
        la, lb = mpmath.mpf(log_a), mpmath.mpf(log_b)

        def kept(n):
            mode = al + n * s2
            return _phi_bar((lb - mode) / s) + _phi_bar((mode - la) / s)

        vals = [mpmath.mpf(1)] + [mpmath.exp(n * al + n * n * s2 / 2) * kept(n)
                                  for n in range(1, upto + 1)]
        _check_rounding(vals, p)
        return MomentSequence.from_approx(vals, p.bits), kept(0)


def lognormal_moments(spec: LognormalSpec, upto: int, p: Precision = Precision()) -> MomentSequence:
    """mu_n = exp(n alpha + n^2 sigma2 / 2), on the approximate backend: the
    empty window of _censored_moments, whose rounding bound is checked
    against abs_tol."""
    return _censored_moments(spec, -mpmath.inf, -mpmath.inf, upto, p)[0]


def _lattice_ints(q, r, upto: int) -> tuple:
    """(c, ints) with ints[n] / c^n = r^n q^(n^2) exactly, n = 0..upto, for
    rational q and r > 0.

    With q = a/b and r = u/w in lowest terms, c = w b^upto and ints[n] =
    u^n a^(n^2) b^(n (upto - n)): the b-exponent n upto - n^2 is never
    negative, so every entry is an integer. For r = 1 this c is the scale
    moment_algebra._isobaric_scale reads from the Fractions' denominators.
    """
    a, b = q.numerator, q.denominator
    u, w = r.numerator, r.denominator
    return w * b ** upto, [u ** n * a ** (n * n) * b ** (n * (upto - n))
                           for n in range(upto + 1)]


def lattice_lognormal_moments(q, r=1, upto: int = 6) -> MomentSequence:
    """Exact rational stand-in family mu_n = r^n q^{n^2}, for rational q > 1
    and r > 0: the entries of _lattice_ints, one Fraction each.

    Matches the shape of lognormal moments with sigma^2 = 2 ln q and
    alpha = ln r, but with exact arithmetic: theta_n = q^{-2} for every n,
    and the Hankel matrices are strictly totally positive.
    """
    q, r = _as_fraction(q), _as_fraction(r)
    if q <= 1:
        raise ValueError("q must exceed 1")
    if r <= 0:
        raise ValueError("r must be positive")
    return MomentSequence.from_exact(ScaledSequence(*_lattice_ints(q, r, upto)).values)


def poisson_moments(lam, upto: int) -> MomentSequence:
    """Exact Poisson moments: every cumulant is lambda, so mu_n is the
    Touchard polynomial sum_j S(n, j) lambda^j."""
    return moments_from_cumulants(CumulantSequence((_as_fraction(lam),) * upto))


class TruncatedMomentsResult(Record):
    """Left-truncated lognormal moments, two normalizations.

    moments: m_n Phi_bar(z_n) with z_n = (log b - alpha - n sigma^2)/sigma,
    the integral of x^n over the surviving part x > b. The mass below the
    cut goes to the origin, so mu_0 = 1 counts the atom at 0. Each entry
    carries only rounding error, below |mu_n| 2^-bits, which is checked
    against abs_tol. conditional_form: the moments of the conditional law
    given survival, moments[n] / surviving_mass for n >= 1 and 1 at n = 0;
    listed because the two normalizations are easy to conflate, and they
    differ unless the surviving mass is 1. Its entries are two closed forms
    and one division at bits + 20, so they carry the same relative rounding
    bound |c_n| 2^-bits, which conditional_moments checks.
    """

    moments: MomentSequence
    conditional_form: tuple
    surviving_mass: mpmath.mpf

    def conditional_moments(self, p: Precision) -> MomentSequence:
        """conditional_form as a moment sequence at p.bits; QuadratureError
        when an entry's rounding bound |c_n| 2^-bits exceeds p.abs_tol, as
        it does for a deep cut, where the surviving mass is tiny."""
        _check_rounding(self.conditional_form, p)
        return MomentSequence.from_approx(self.conditional_form, p.bits)


def truncated_lognormal_moments(spec: LognormalSpec, log_b, upto: int,
                                p: Precision = Precision()) -> TruncatedMomentsResult:
    """Moments after removing the mass below e^{log_b} to the origin: the
    window (-inf, log_b) of _censored_moments, whose bracket at n = 0 is the
    surviving mass Phi_bar((log b - alpha) / sigma). ValueError for a
    non-finite log_b.
    """
    if not mpmath.isfinite(log_b):
        raise ValueError("log_b must be finite")
    m, surviving = _censored_moments(spec, -mpmath.inf, log_b, upto, p)
    with mpmath.workprec(p.bits + 20):
        conditional = (mpmath.mpf(1),) + tuple(v / surviving for v in m.values[1:])
    return TruncatedMomentsResult(m, conditional, surviving)


def gap_censored_lognormal_moments(spec: LognormalSpec, a: float, b: float, upto: int,
                                   p: Precision = Precision()) -> MomentSequence:
    """Moments after removing the lognormal mass on (a, b) to the origin:
    the window (ln a, ln b) of _censored_moments, logs taken at p.bits + 20.
    A non-finite end is refused: b = inf is the right truncation that this
    module leaves out.
    """
    for name, end in (("a", a), ("b", b)):
        if not mpmath.isfinite(end):
            raise ValueError(f"{name} must be finite")
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    with mpmath.workprec(p.bits + 20):
        la, lb = mpmath.log(mpmath.mpf(a)), mpmath.log(mpmath.mpf(b))
    return _censored_moments(spec, la, lb, upto, p)[0]


def leipnik_weights(sigma2, upto: int, p: Precision = Precision()):
    """Points and normalized weights of the discrete lattice twin, cut to
    serve the moments of orders up to upto.

    The law puts weight proportional to e^{-n^2 sigma2/2} at the point
    e^{n sigma2}, n in Z. Leipnik's family has a lattice parameter a, with
    weights a^{-n} e^{-n^2 sigma2/2} at the points a e^{n sigma2}, but its
    moments do not depend on a, so a = 1 here. Returns (points, weights,
    n_cut), n in -n_cut..n_cut, with the weights normalized to unit total.
    They describe the law; the tests sum them as the oracle of
    leipnik_discrete_moments.
    """
    with mpmath.workprec(p.bits + 20):
        s2 = mpmath.mpf(sigma2)
        if s2 <= 0:
            raise ValueError("sigma2 must be positive")
        # raw weight at |n| = M is about e^{-M^2 s2/2}; pick M so the whole
        # tail (geometric-decay bounded) sits far below abs_tol. The k-th
        # moment's summand w_n x_n^k peaks near n = k, so M is widened by upto.
        target = -mpmath.log(p.tol) + 40
        n_cut = int(mpmath.ceil(mpmath.sqrt(2 * target / s2))) + 2 + upto
        ns = range(-n_cut, n_cut + 1)
        raw = [mpmath.exp(-mpmath.mpf(n) ** 2 * s2 / 2) for n in ns]
        z = sum(raw)
        points = [mpmath.exp(n * s2) for n in ns]
        weights = [w / z for w in raw]
    return points, weights, n_cut


def leipnik_discrete_moments(sigma2, alpha=0, upto: int = 6,
                             p: Precision = Precision()) -> MomentSequence:
    """Moments of the discrete lattice twin, scaled to lognormal(alpha, sigma2).

    They are the lognormal's exactly: the k-th moment is
    e^{k^2 sigma2/2} sum_n e^{-(n-k)^2 sigma2/2} / Z with
    Z = sum_n e^{-n^2 sigma2/2}, and the sum over n in Z does not depend on
    the integer k, so it equals e^{k^2 sigma2/2}; the alpha shift rescales
    it by e^{k alpha}. Hence lognormal_moments, whose rounding bound is
    checked against abs_tol.
    """
    return lognormal_moments(LognormalSpec(alpha, sigma2), upto, p)


_LOG10_2 = log10(2)


def _log10_abs(x: tuple) -> float:
    """log10 |x| of a nonzero libmp value (sign, man, exp, bc), from the
    integer exp + bc and the float man / 2^bc in [1/2, 1): both terms are
    accurate to a relative 2^-52."""
    _, man, exp, bc = x
    return (exp + bc) * _LOG10_2 + log10(man / (1 << bc))


def _tanh_sinh_error(rule, results, prec: int):
    """rule.estimate_error(results, prec, mpmath.eps) for the last three
    level sums, at the working precision, without its two log10s at prec.

    mpmath returns 10^int(D4), D4 = min(0, max(D1^2/D2, 2 D1, -prec)),
    with D1 and D2 the log10s of the last level's differences from the two
    before it. Here D1 and D2 are floats, so v = max(D1^2/D2, 2 D1) is off
    by a relative 2^-48 at most when |D1|, |D2| >= 1, far below 10^-6 for
    |v| <= prec (2^16 + 20 at most). Then int(D4) is decided unless v lies
    within 10^-6 of an integer (0 and -prec included), and the tie between
    the two candidates cannot move it. A zero difference, |D1| or |D2|
    below 1, or v that close to an integer goes to mpmath's own call.
    """
    *_, r1, r2, r3 = results
    d1, d2 = r3 - r2, r3 - r1
    if d1 and d2:
        x1, x2 = _log10_abs(d1._mpf_), _log10_abs(d2._mpf_)
        if abs(x1) >= 1 and abs(x2) >= 1:
            v = max(x1 * x1 / x2, 2 * x1)
            if abs(v - round(v)) > 1e-6:
                return mpmath.mpf(10) ** int(min(0, max(v, -prec)))
    return rule.estimate_error(results, prec, mpmath.eps)


def mixed_poisson_pmf(spec: LognormalSpec, log_b, N: int, kmax: int = 16,
                      p: Precision = Precision()) -> DiscretePMF:
    """pmf of a Poisson count whose intensity is N times a left-truncated
    lognormal variable, the part below the cut collapsing to intensity 0.

    p_k = (N^k / k!) int_{log b}^inf e^{k x} g(x) dx with g(x) = e^{-N e^x}
    phi_{alpha,sigma}(x), and p_0 additionally receives the truncated
    Gaussian mass Phi((log b - alpha)/sigma): one minus the bracket that
    _censored_moments keeps at n = 0 for the window (-inf, log b).
    tail_mass estimates the count mass beyond kmax.

    One tanh-sinh pass on mpmath's standard nodes gives every mass: the
    window is split at log b, each peak ln(k/N) above it and top = last
    peak + 30, past which the tail is bounded by the log-slope k - N e^top.
    Each column (one node x with weight w) costs two exps at the working
    precision, on mpmath's libmp values: e^x and v = w e^{-N e^x}
    e^{-(x - alpha)^2 / (2 sigma2)}. Then the integer kernel adds
    v e^{k x} = m_v m_e^k 2^(e_v + k e_e), an exact integer product, to an
    integer accumulator acc[k] in units of 2^-scale_k, truncated once,
    with scale_k = prec + 64 + mag(N^k / k! phi's normalizer); the sums
    become mpfs once per interval and degree. From degree 3, an interval
    stops refining once mpmath's error estimate (_tanh_sinh_error) for
    every k is within abs_tol / (2 intervals N^k/k!); an interval that
    will refine anyway stops estimating at its first k over that share.
    Each mass's error,
    N^k/k! (interval errors + tail + columns 2^-scale_k) + p_k 2^-bits,
    where the third term bounds the truncation of every column, must be
    within abs_tol, the stated entry error, else QuadratureError, raised
    at once if abs_tol < 2^-bits.
    """
    from mpmath.libmp import (fone, mpf_add, mpf_div, mpf_exp, mpf_mul, mpf_pow_int,
                              mpf_shift, mpf_sub, round_nearest as rnd)

    if N < 1 or kmax < 0:
        raise ValueError("need N >= 1 and kmax >= 0")
    # the window's rounding check of mu_0 = 1 refuses an abs_tol < 2^-bits
    kept = _censored_moments(spec, -mpmath.inf, log_b, 0, p)[1]
    rule = mpmath.mp._tanh_sinh
    prec = p.bits + 20
    node_prec = prec + 20  # mpmath's get_nodes maps the standard nodes at prec + 20
    with mpmath.workprec(prec):
        a = _as_mpf(spec.alpha)
        s2 = _as_mpf(spec.sigma2)
        s = mpmath.sqrt(s2)
        logb = mpmath.mpf(log_b)
        if not mpmath.isfinite(logb):
            raise ValueError("log_b must be finite")
        nn = mpmath.mpf(N)
        tol = p.tol
        fac = [1 / (s * mpmath.sqrt(2 * mpmath.pi))]  # phi's normalizer times N^k/k!
        for k in range(1, kmax + 1):
            fac.append(fac[-1] * nn / k)
        scale = [prec + 64 + mpmath.mag(f) for f in fac]
        peaks = [mpmath.log(k / nn) for k in range(1, max(kmax, 1) + 1)]
        top = max(peaks[-1], logb) + 30
        points = [logb] + [x for x in peaks if x > logb] + [top]
        neg_n, al, two_s2 = (-nn)._mpf_, a._mpf_, (2 * s2)._mpf_

        def add_column(acc, x, w):
            """acc[k] += w e^{k x} g(x) in units of 2^-scale[k], for g without
            phi's normalizer; x and w are libmp values, as are e^x and v,
            rounded as mpmath.exp(x) and w * mpmath.exp(-nn * ex - (x - a) ** 2
            / (2 * s2)) round them."""
            ex = mpf_exp(x, prec, rnd)
            z = mpf_div(mpf_pow_int(mpf_sub(x, al, prec, rnd), 2, prec, rnd), two_s2, prec, rnd)
            v = mpf_mul(w, mpf_exp(mpf_sub(mpf_mul(neg_n, ex, prec, rnd), z, prec, rnd),
                                   prec, rnd), prec, rnd)
            _, m, e, _ = v
            _, m_ex, e_ex, _ = ex
            for k, sc in enumerate(scale):
                shift = e + sc
                acc[k] += m << shift if shift >= 0 else m >> -shift
                m *= m_ex
                e += e_ex

        def as_mpfs(acc):
            return [mpmath.ldexp(v, -sc) for v, sc in zip(acc, scale)]

        tails = [0] * (kmax + 1)
        add_column(tails, top._mpf_, fone)
        columns = 1
        tails = [v / (nn * mpmath.exp(top) - k) for k, v in enumerate(as_mpfs(tails))]
        spans = list(zip(points, points[1:]))
        shares = [tol / (2 * f * len(spans)) for f in fac]
        last = rule.guess_degree(prec)
        levels = [[] for _ in spans]  # per interval, the level sums of every k
        errors = [None] * len(spans)  # per interval, the error estimate of every k
        live = range(len(spans))
        for degree in range(1, last + 1):
            h = mpmath.mpf(2) ** -degree
            standard = rule.get_nodes(-1, 1, degree, prec)
            refine = []
            for i in live:
                lo, hi = spans[i][0]._mpf_, spans[i][1]._mpf_
                # transform_nodes' D + C x and C w at node_prec
                c = mpf_shift(mpf_sub(hi, lo, node_prec, rnd), -1)
                d = mpf_shift(mpf_add(hi, lo, node_prec, rnd), -1)
                acc = [0] * (kmax + 1)
                columns += len(standard)
                for x, w in standard:
                    add_column(acc, mpf_add(d, mpf_mul(c, x._mpf_, node_prec, rnd), node_prec, rnd),
                               mpf_mul(c, w._mpf_, node_prec, rnd))
                level = levels[i]
                # as TanhSinh.sum_next: half of the nodes are the last degree's
                level.append([(level[-1][k] / 2 if level else 0) + h * v
                              for k, v in enumerate(as_mpfs(acc))])
                if degree < 3:
                    refine.append(i)
                    continue
                errors[i] = errs = []
                for k, share in enumerate(shares):
                    errs.append(_tanh_sinh_error(rule, [row[k] for row in level[-3:]], prec))
                    # one k over its share refines the interval, unless this is
                    # the last degree, whose every error the certificate sums
                    if not errs[-1] <= share and degree < last:
                        refine.append(i)
                        break
            live = refine
            if not live:
                break
        masses = [f * sum(level[-1][k] for level in levels) for k, f in enumerate(fac)]
        masses[0] += 1 - kept
        _check_errors([f * (sum(err[k] for err in errors) + t + mpmath.ldexp(columns, -sc))
                       + mpmath.ldexp(abs(m), -p.bits)
                       for k, (f, t, sc, m) in enumerate(zip(fac, tails, scale, masses))],
                      tol, "quadrature error")
        tail_mass = 1 - sum(masses)
    return DiscretePMF(
        masses=tuple(masses),
        exact=False,
        precision_bits=p.bits,
        entry_error=tol,
        tail_mass=tail_mass,
    )


def geometric_pmf(rho, kmax: int) -> DiscretePMF:
    """Exact geometric pmf p_k = (1 - rho) rho^k up to kmax."""
    rho = _as_fraction(rho)
    if not 0 < rho < 1:
        raise ValueError("rho must be in (0, 1)")
    masses = tuple((1 - rho) * rho ** k for k in range(kmax + 1))
    return DiscretePMF(masses=masses, exact=True, tail_mass=rho ** (kmax + 1))


def poisson_pmf(lam, kmax: int, p: Precision = Precision()) -> DiscretePMF:
    """Normalized Poisson pmf on the approximate backend, with a rounding
    error bound of a few ulp per entry. tail_mass = P[Y > kmax] is the
    regularized lower incomplete gamma P(kmax + 1, lam), which stays
    accurate where 1 - sum(masses) cancels."""
    with mpmath.workprec(p.bits + 20):
        la = mpmath.mpf(lam)
        if la <= 0:
            raise ValueError("lambda must be positive")
        base = mpmath.exp(-la)
        masses = []
        cur = base
        for k in range(kmax + 1):
            masses.append(cur)
            cur = cur * la / (k + 1)
        entry_error = max(masses) * mpmath.mpf(2) ** (-(p.bits + 4)) * (kmax + 4)
        tail_mass = mpmath.gammainc(kmax + 1, 0, la, regularized=True)
    return DiscretePMF(masses=tuple(masses), exact=False, precision_bits=p.bits,
                       entry_error=entry_error, tail_mass=tail_mass)

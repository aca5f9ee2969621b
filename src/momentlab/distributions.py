"""Concrete moment and pmf generators.

Lognormal moments and their censored variants, the exact lattice stand-in
family, the discrete lattice twin of the lognormal (Leipnik's construction),
Poisson moments, and the mixed-Poisson pmf with truncated-lognormal
intensity that feeds the divisibility tests.

High-precision values are mpmath floats computed under an explicit
Precision(bits, abs_tol). The lognormal, truncated and gap moments are
closed forms and carry only rounding error, which the censored ones check
against abs_tol. Only the mixed-Poisson pmf is a quadrature; its entry
error adds the quadrature error estimate, the tail bound and rounding.
The censoring schemes are left truncation and a gap, both sending the
removed mass to the origin; right truncation is left out on purpose, since
its law has bounded support and nothing downstream needs it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import mpmath
from mpmath import mpf

from .combinatorics import stirling_subset
from .exceptions import QuadratureError
from .moment_algebra import MomentSequence, _as_fraction

DEFAULT_BITS = 128
DEFAULT_ABS_TOL = "1e-20"


@dataclass(frozen=True)
class Precision:
    """Working precision in bits plus an absolute quadrature target."""

    bits: int = DEFAULT_BITS
    abs_tol: Union[str, float] = DEFAULT_ABS_TOL

    def __post_init__(self):
        if self.bits < 64:
            raise ValueError("Precision.bits must be at least 64")

    @property
    def tol(self) -> mpf:
        with mpmath.workprec(self.bits):
            return mpf(self.abs_tol)


@dataclass(frozen=True)
class LognormalSpec:
    """Parameters of the lognormal law e^G, G normal with mean alpha and
    variance sigma2."""

    alpha: Union[str, float, int] = 0
    sigma2: Union[str, float, int] = 1

    def __post_init__(self):
        if not (mpmath.isfinite(mpf(self.alpha)) and 0 < mpf(self.sigma2) < mpmath.inf):
            raise ValueError("alpha must be finite, and sigma2 positive and finite")


@dataclass(frozen=True)
class CensorSpec:
    """A mass-removal scheme on the positive half line; the removed mass
    always goes to the origin.

    kind "left-truncate": remove mass below b = e^{log_b}. kind "gap":
    remove mass on (a, b), 0 < a < b.
    """

    kind: str
    log_b: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None

    def __post_init__(self):
        if self.kind == "left-truncate":
            if self.log_b is None or not mpmath.isfinite(self.log_b):
                raise ValueError("left-truncate needs a finite log_b")
        elif self.kind == "gap":
            if self.a is None or self.b is None or not 0 < self.a < self.b:
                raise ValueError("gap needs 0 < a < b")
        else:
            raise ValueError("unknown censor kind %r" % self.kind)

    @classmethod
    def left_truncate(cls, log_b) -> "CensorSpec":
        return cls(kind="left-truncate", log_b=log_b)

    @classmethod
    def gap(cls, a, b) -> "CensorSpec":
        return cls(kind="gap", a=a, b=b)


@dataclass(frozen=True)
class DiscretePMF:
    """Masses (p_0, p_1, ...) on the non-negative integers.

    Exact pmfs carry Fractions and a zero entry error; they are allowed to
    be unnormalized, since the divisibility recursions are scale invariant
    and an exact overall factor (like e^{-lambda}) may be irrational.
    Approximate pmfs carry mpmath values, a certified per-entry absolute
    error bound, and an estimate of the mass beyond the last index.
    """

    masses: tuple
    exact: bool = True
    precision_bits: Optional[int] = None
    entry_error: Union[Fraction, mpf, int] = 0
    tail_mass: Union[Fraction, mpf, int, None] = None

    def __post_init__(self):
        if len(self.masses) == 0:
            raise ValueError("empty pmf")
        if self.exact:
            object.__setattr__(self, "masses", tuple(_as_fraction(v) for v in self.masses))
            object.__setattr__(self, "entry_error", _as_fraction(self.entry_error))

    def __len__(self) -> int:
        return len(self.masses)

    def __getitem__(self, k):
        return self.masses[k]

    @property
    def backend(self) -> str:
        return "exact" if self.exact else "approx"

    @property
    def kmax(self) -> int:
        return len(self.masses) - 1


def _phi_bar(x) -> mpf:
    """Standard normal upper tail probability."""
    return mpmath.erfc(x / mpmath.sqrt(2)) / 2


def psi(x, p: Precision = Precision()) -> mpf:
    """Gaussian tail integral int_x^inf e^{-u^2/2} du = sqrt(pi/2) erfc(x/sqrt 2)."""
    with mpmath.workprec(p.bits):
        return mpmath.sqrt(mpmath.pi / 2) * mpmath.erfc(mpf(x) / mpmath.sqrt(2))


def _check_errors(errs, tol, what: str) -> None:
    """QuadratureError at the first error bound above abs_tol, or NaN."""
    for k, err in enumerate(errs):
        if not err <= tol:
            raise QuadratureError("%s of entry %d is %s, above abs_tol %s"
                                  % (what, k, mpmath.nstr(err, 5), mpmath.nstr(tol, 5)))


def _check_rounding(vals, p: Precision) -> None:
    """Check each entry's rounding bound |v| 2^-bits against abs_tol."""
    _check_errors([mpmath.ldexp(abs(v), -p.bits) for v in vals], p.tol, "rounding bound")


def lognormal_moments(spec: LognormalSpec, upto: int, p: Precision = Precision()) -> MomentSequence:
    """mu_n = exp(n alpha + n^2 sigma2 / 2), on the approximate backend."""
    with mpmath.workprec(p.bits):
        a = mpf(spec.alpha)
        s2 = mpf(spec.sigma2)
        vals = [mpmath.exp(n * a + n * n * s2 / 2) for n in range(upto + 1)]
    return MomentSequence.from_approx(vals, p.bits)


def lattice_lognormal_moments(q: int, r=1, upto: int = 6) -> MomentSequence:
    """Exact rational stand-in family mu_n = r^n q^{n^2}.

    Matches the shape of lognormal moments with sigma^2 = 2 ln q and
    alpha = ln r, but with exact arithmetic: theta_n = q^{-2} for every n,
    and the Hankel matrices are strictly totally positive.
    """
    if q < 2:
        raise ValueError("q must be an integer >= 2")
    r = _as_fraction(r)
    if r <= 0:
        raise ValueError("r must be positive")
    return MomentSequence.from_exact([r ** n * Fraction(q) ** (n * n) for n in range(upto + 1)])


def poisson_moments(lam, upto: int) -> MomentSequence:
    """Exact Poisson moments mu_n = sum_j S(n, j) lambda^j (Touchard form)."""
    lam = _as_fraction(lam)
    out = []
    for n in range(upto + 1):
        out.append(sum(stirling_subset(n, j) * lam ** j for j in range(n + 1)))
    return MomentSequence.from_exact(out)


@dataclass(frozen=True)
class TruncatedMomentsResult:
    """Left-truncated lognormal moments, two normalizations.

    moments: m_n Phi_bar(z_n) with z_n = (log b - alpha - n sigma^2)/sigma,
    the integral of x^n over the surviving part x > b. The mass below the
    cut goes to the origin, so mu_0 = 1 counts the atom at 0. Each entry
    carries only rounding error, below |mu_n| 2^-bits, which is checked
    against abs_tol. conditional_form: the moments of the conditional law
    given survival, moments[n] / surviving_mass for n >= 1 and 1 at n = 0;
    listed because the two normalizations are easy to conflate, and they
    differ unless the surviving mass is 1. Its entries carry the same
    relative rounding error, not an absolute bound.
    """

    moments: MomentSequence
    conditional_form: tuple
    surviving_mass: mpf
    log_b: object
    spec: LognormalSpec


def truncated_lognormal_moments(spec: LognormalSpec, censor: CensorSpec, upto: int,
                                p: Precision = Precision()) -> TruncatedMomentsResult:
    """Moments after removing the mass below e^{log_b} to the origin.

    m~_n = int_{log b}^inf e^{n u} phi_{alpha, sigma}(u) du = m_n Phi_bar(z_n)
    for n >= 1, in closed form at p.bits + 20; QuadratureError when the
    rounding bound exceeds abs_tol.
    """
    if censor.kind != "left-truncate":
        raise ValueError("this operation takes a left-truncate censor")
    with mpmath.workprec(p.bits + 20):
        a = mpf(spec.alpha)
        s2 = mpf(spec.sigma2)
        s = mpmath.sqrt(s2)
        logb = mpf(censor.log_b)
        vals = [mpf(1)] + [mpmath.exp(n * a + n * n * s2 / 2) * _phi_bar((logb - a - n * s2) / s)
                           for n in range(1, upto + 1)]
        _check_rounding(vals, p)
        surviving = _phi_bar((logb - a) / s)
        conditional = (mpf(1),) + tuple(v / surviving for v in vals[1:])
    return TruncatedMomentsResult(
        moments=MomentSequence.from_approx(vals, p.bits),
        conditional_form=conditional,
        surviving_mass=surviving,
        log_b=censor.log_b,
        spec=spec,
    )


def gap_censored_lognormal_moments(spec: LognormalSpec, a: float, b: float, upto: int,
                                   p: Precision = Precision()) -> MomentSequence:
    """Moments after removing the lognormal mass on (a, b) to the origin.

    m~_n = m_n [Phi_bar(z_b) + Phi(z_a)], z_c = (ln c - alpha - n sigma^2) / sigma:
    two positive tails, so nothing cancels; mu_0 stays 1 (the atom at 0).
    Closed form at p.bits + 20; QuadratureError when the rounding bound
    |mu_n| 2^-bits exceeds abs_tol.
    """
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    with mpmath.workprec(p.bits + 20):
        al = mpf(spec.alpha)
        s2 = mpf(spec.sigma2)
        s = mpmath.sqrt(s2)
        la, lb = mpmath.log(mpf(a)), mpmath.log(mpf(b))
        vals = [mpf(1)]
        for n in range(1, upto + 1):
            mode = al + n * s2
            vals.append(mpmath.exp(n * al + n * n * s2 / 2)
                        * (_phi_bar((lb - mode) / s) + _phi_bar((mode - la) / s)))
        _check_rounding(vals, p)
    return MomentSequence.from_approx(vals, p.bits)


def leipnik_weights(sigma2, p: Precision = Precision(), lattice_a=1, n_cut: Optional[int] = None):
    """Points and normalized weights of the discrete lattice twin.

    The law puts weight proportional to a^{-n} e^{-n^2 sigma2/2} at the
    point a e^{n sigma2}, n in Z. Returns (points, weights, n_cut) with the
    weights normalized to unit total; the moments do not depend on the
    lattice parameter a, which is the twin's point.
    """
    with mpmath.workprec(p.bits + 20):
        s2 = mpf(sigma2)
        if s2 <= 0:
            raise ValueError("sigma2 must be positive")
        av = mpf(lattice_a)
        if av <= 0:
            raise ValueError("lattice_a must be positive")
        if n_cut is None:
            # raw weight at |n| = M is about a^{-n} e^{-M^2 s2/2}; pick M so
            # the whole tail (geometric-decay bounded) sits far below abs_tol
            target = -mpmath.log(p.tol) + 40 + abs(mpmath.log(av)) * 20
            n_cut = int(mpmath.ceil(mpmath.sqrt(2 * target / s2))) + 2
        ns = range(-n_cut, n_cut + 1)
        raw = [av ** (-n) * mpmath.exp(-mpf(n) ** 2 * s2 / 2) for n in ns]
        z = sum(raw)
        points = [av * mpmath.exp(n * s2) for n in ns]
        weights = [w / z for w in raw]
    return points, weights, n_cut


def leipnik_discrete_moments(sigma2, alpha=0, upto: int = 6, p: Precision = Precision(),
                             lattice_a=1) -> MomentSequence:
    """Moments of the discrete lattice twin, scaled to lognormal(alpha, sigma2).

    The n-th moment of the lattice law equals e^{n^2 sigma2/2} exactly (in
    the infinite-sum limit), independent of the lattice parameter; the alpha
    shift rescales the k-th moment by e^{k alpha}.

    The k-th summand w_n x_n^k peaks near n = k, so the cut that makes the
    weights' own tail negligible is widened by upto.
    """
    n_cut = leipnik_weights(sigma2, p, lattice_a)[2] + upto
    points, weights, _ = leipnik_weights(sigma2, p, lattice_a, n_cut)
    with mpmath.workprec(p.bits + 20):
        shift = mpmath.exp(mpf(alpha))
        vals = [mpf(1)]
        for k in range(1, upto + 1):
            acc = mpf(0)
            for x, w in zip(points, weights):
                acc += w * x ** k
            vals.append(shift ** k * acc)
    return MomentSequence.from_approx(vals, p.bits)


def mixed_poisson_pmf(spec: LognormalSpec, log_b, N: int, kmax: int = 16,
                      p: Precision = Precision()) -> DiscretePMF:
    """pmf of a Poisson count whose intensity is N times a left-truncated
    lognormal variable, the part below the cut collapsing to intensity 0.

    p_k = (N^k / k!) int_{log b}^inf e^{k x} g(x) dx with g(x) = e^{-N e^x}
    phi_{alpha,sigma}(x), and p_0 additionally receives the truncated
    Gaussian mass Phi((log b - alpha)/sigma). tail_mass estimates the count
    mass beyond kmax. One tanh-sinh pass on mpmath's shared nodes gives
    every mass: the window is split at log b, each peak ln(k/N) above it
    and top = last peak + 30, past which the tail is bounded by the
    log-slope k - N e^top; two exps per node and a running product give
    every e^{k x} g(x). From degree 3, an interval stops refining once
    mpmath's error estimate for every k is within abs_tol / (2 intervals
    N^k/k!). Each mass's error, N^k/k! (interval errors + tail) + p_k
    2^-bits, must be within abs_tol, the stated entry error, else
    QuadratureError, raised at once if abs_tol < 2^-bits.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_rounding([1], p)
    rule = mpmath.mp._tanh_sinh
    prec = p.bits + 20
    with mpmath.workprec(prec):
        a = mpf(spec.alpha)
        s2 = mpf(spec.sigma2)
        s = mpmath.sqrt(s2)
        logb = mpf(log_b)
        if not mpmath.isfinite(logb):
            raise ValueError("log_b must be finite")
        nn = mpf(N)
        tol = p.tol
        fac = [1 / (s * mpmath.sqrt(2 * mpmath.pi))]  # phi's normalizer times N^k/k!
        for k in range(1, kmax + 1):
            fac.append(fac[-1] * nn / k)
        peaks = [mpmath.log(k / nn) for k in range(1, max(kmax, 1) + 1)]
        top = max(peaks[-1], logb) + 30
        points = [logb] + [x for x in peaks if x > logb] + [top]

        def add_column(acc, x, w):
            """acc[k] += w e^{k x} g(x), for g without phi's normalizer."""
            ex = mpmath.exp(x)
            v = w * mpmath.exp(-nn * ex - (x - a) ** 2 / (2 * s2))
            for k in range(kmax + 1):
                acc[k] += v
                v *= ex

        tails = [mpf(0)] * (kmax + 1)
        add_column(tails, top, 1)
        tails = [v / (nn * mpmath.exp(top) - k) for k, v in enumerate(tails)]
        spans = list(zip(points, points[1:]))
        shares = [tol / (2 * f * len(spans)) for f in fac]
        levels = [[] for _ in spans]  # per interval, the level sums of every k
        errors = [None] * len(spans)  # per interval, the error estimate of every k
        live = range(len(spans))
        for degree in range(1, rule.guess_degree(prec) + 1):
            h = mpf(2) ** -degree
            for i in live:
                acc = [mpf(0)] * (kmax + 1)
                for x, w in rule.get_nodes(*spans[i], degree, prec):
                    add_column(acc, x, w)
                level = levels[i]
                # as TanhSinh.sum_next: half of the nodes are the last degree's
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
        masses[0] += 1 - _phi_bar((logb - a) / s)
        _check_errors([f * (sum(err[k] for err in errors) + t) + mpmath.ldexp(abs(m), -p.bits)
                       for k, (f, t, m) in enumerate(zip(fac, tails, masses))],
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


def poisson_weights(lam, kmax: int) -> DiscretePMF:
    """Exact Poisson masses up to the irrational normalizer: lambda^k / k!.

    The missing e^{-lambda} factor is a positive scale, which the
    divisibility recursions ignore; tail_mass is left unset since the
    weights are unnormalized.
    """
    lam = _as_fraction(lam)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    masses = []
    cur = Fraction(1)
    for k in range(kmax + 1):
        masses.append(cur)
        cur = cur * lam / (k + 1)
    return DiscretePMF(masses=tuple(masses), exact=True)


def poisson_pmf(lam, kmax: int, p: Precision = Precision()) -> DiscretePMF:
    """Normalized Poisson pmf on the approximate backend, with a rounding
    error bound of a few ulp per entry."""
    with mpmath.workprec(p.bits + 20):
        la = mpf(lam)
        if la <= 0:
            raise ValueError("lambda must be positive")
        base = mpmath.exp(-la)
        masses = []
        cur = base
        for k in range(kmax + 1):
            masses.append(cur)
            cur = cur * la / (k + 1)
        entry_error = max(masses) * mpf(2) ** (-(p.bits + 4)) * (kmax + 4)
        tail_mass = 1 - sum(masses)
    return DiscretePMF(masses=tuple(masses), exact=False, precision_bits=p.bits,
                       entry_error=entry_error, tail_mass=tail_mass)

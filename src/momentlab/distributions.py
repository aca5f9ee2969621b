"""Concrete moment and pmf generators.

Lognormal moments and their censored variants, the exact lattice stand-in
family, the discrete lattice twin of the lognormal (Leipnik's construction),
Poisson moments, and the mixed-Poisson pmf with truncated-lognormal
intensity that feeds the divisibility tests.

High-precision values are mpmath floats computed under an explicit
Precision(bits, abs_tol). Quadratures run over finite windows chosen so the
analytic tail bound is far below abs_tol; the reported entry error adds the
quadrature error estimate and the tail bound. The censoring schemes are
left truncation and a gap, both sending the removed mass to the origin;
right truncation is left out on purpose, since its law has bounded support
and nothing downstream needs it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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
        if mpf(self.sigma2) <= 0:
            raise ValueError("sigma2 must be positive")


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
            if self.log_b is None:
                raise ValueError("left-truncate needs log_b")
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


def _certified_quad(f, points, p: Precision, tail_bound=0, tol=None):
    """tanh-sinh quadrature over the split finite window, with the error
    estimate plus analytic tail bound checked against abs_tol (or an
    explicit override when the caller rescales the result afterwards)."""
    if tol is None:
        tol = p.tol
    last_err = None
    for extra, maxdegree in ((20, 6), (60, 9)):
        with mpmath.workprec(p.bits + extra):
            val, err = mpmath.quad(f, points, error=True, maxdegree=maxdegree)
        total_err = err + tail_bound
        if total_err <= tol:
            return val, total_err
        last_err = total_err
    raise QuadratureError(
        "quadrature error %s exceeds abs_tol %s" % (mpmath.nstr(last_err, 5), mpmath.nstr(tol, 5)))


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
    """Left-truncated lognormal moments, three ways.

    moments: the authoritative quadrature values (mass below the cut goes to
    the origin, so only mu_0 keeps the removed mass and stays 1 only in the
    sense that the atom at 0 completes it; entry n >= 1 is the integral over
    the surviving upper part). closed_form: m_n Psi(z_n)/sqrt(2 pi) with
    z_n = (log b - alpha - n sigma^2)/sigma, which equals the same integral.
    conditional_form: closed_form normalized by the surviving mass, i.e. the
    moments of the conditional law given survival; listed because the two
    normalizations are easy to conflate and they differ unless the surviving
    mass is 1. max_abs_diff certifies quadrature against closed form.
    """

    moments: MomentSequence
    closed_form: tuple
    conditional_form: tuple
    max_abs_diff: mpf
    surviving_mass: mpf
    log_b: object
    spec: LognormalSpec


def truncated_lognormal_moments(spec: LognormalSpec, censor: CensorSpec, upto: int,
                                p: Precision = Precision()) -> TruncatedMomentsResult:
    """Moments after removing the mass below e^{log_b} to the origin.

    m~_n = int_{log b}^inf e^{n u} phi_{alpha, sigma}(u) du for n >= 1, by
    tanh-sinh quadrature over a window cut where the Gaussian tail bound
    drops far below abs_tol; cross-checked against the Psi closed form.
    """
    if censor.kind != "left-truncate":
        raise ValueError("this operation takes a left-truncate censor")
    with mpmath.workprec(p.bits + 20):
        a = mpf(spec.alpha)
        s2 = mpf(spec.sigma2)
        s = mpmath.sqrt(s2)
        logb = mpf(censor.log_b)
        tol = p.tol
        norm = 1 / (s * mpmath.sqrt(2 * mpmath.pi))

        vals = [mpf(1)]
        closed = [mpf(1)]
        max_diff = mpf(0)
        for n in range(1, upto + 1):
            mode = a + n * s2
            m_n = mpmath.exp(n * a + n * n * s2 / 2)
            # window high edge: m_n * phi_bar(K) < tol / 10
            k_cut = mpmath.sqrt(2 * mpmath.log(m_n / tol + 10) + 60)
            hi = mode + s * k_cut
            tail = m_n * _phi_bar(k_cut)
            f = lambda u: mpmath.exp(n * u) * mpmath.exp(-(u - a) ** 2 / (2 * s2)) * norm
            pts = [logb] + ([mode] if mode > logb else []) + [hi]
            val, err = _certified_quad(f, pts, p, tail)
            vals.append(val)
            z_n = (logb - a - n * s2) / s
            cf = m_n * psi(z_n, p) / mpmath.sqrt(2 * mpmath.pi)
            closed.append(cf)
            max_diff = max(max_diff, abs(val - cf))
        surviving = _phi_bar((logb - a) / s)
        # the conditional law has total mass 1; closed[0] counts the atom at 0
        conditional = (mpf(1),) + tuple(c / surviving for c in closed[1:])
    return TruncatedMomentsResult(
        moments=MomentSequence.from_approx(vals, p.bits),
        closed_form=tuple(closed),
        conditional_form=conditional,
        max_abs_diff=max_diff,
        surviving_mass=surviving,
        log_b=censor.log_b,
        spec=spec,
    )


def gap_censored_lognormal_moments(spec: LognormalSpec, a: float, b: float, upto: int,
                                   p: Precision = Precision()) -> MomentSequence:
    """Moments after removing the lognormal mass on (a, b) to the origin.

    m~_n = m_n - int_{ln a}^{ln b} e^{n u} phi(u) du; mu_0 is unchanged
    because the removed mass reappears as an atom at the origin.
    """
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    with mpmath.workprec(p.bits + 20):
        al = mpf(spec.alpha)
        s2 = mpf(spec.sigma2)
        s = mpmath.sqrt(s2)
        la, lb = mpmath.log(mpf(a)), mpmath.log(mpf(b))
        norm = 1 / (s * mpmath.sqrt(2 * mpmath.pi))
        vals = [mpf(1)]
        for n in range(1, upto + 1):
            m_n = mpmath.exp(n * al + n * n * s2 / 2)
            f = lambda u: mpmath.exp(n * u) * mpmath.exp(-(u - al) ** 2 / (2 * s2)) * norm
            mode = al + n * s2
            pts = [la] + ([mode] if la < mode < lb else []) + [lb]
            removed, _ = _certified_quad(f, pts, p)
            vals.append(m_n - removed)
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

    p_k = (N^k / k!) int_{log b}^inf e^{k x} e^{-N e^x} phi_{alpha,sigma}(x) dx
    for k >= 1, and p_0 additionally receives the truncated Gaussian mass
    Phi((log b - alpha)/sigma). Masses are certified to the Precision's
    abs_tol each; tail_mass estimates the count mass beyond kmax.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    with mpmath.workprec(p.bits + 20):
        a = mpf(spec.alpha)
        s2 = mpf(spec.sigma2)
        s = mpmath.sqrt(s2)
        logb = mpf(log_b)
        nn = mpf(N)
        norm = 1 / (s * mpmath.sqrt(2 * mpmath.pi))
        masses = []
        for k in range(kmax + 1):
            # exponent k x - N e^x peaks near x* = ln(k/N); beyond hi the
            # slope is at least N e^hi - k and the integrand collapses
            xstar = mpmath.log(mpf(max(k, 1)) / nn)
            hi = xstar + 30
            f = lambda x: mpmath.exp(k * x - nn * mpmath.exp(x)) \
                * mpmath.exp(-(x - a) ** 2 / (2 * s2)) * norm
            slope = nn * mpmath.exp(hi) - k
            tail = f(hi) / slope
            pts = [logb] + ([xstar] if xstar > logb else []) + [hi]
            fac = mpf(1)
            for i in range(1, k + 1):
                fac *= nn / i
            val, err = _certified_quad(f, pts, p, tail, tol=p.tol / fac)
            masses.append(fac * val)
        masses[0] += 1 - _phi_bar((logb - a) / s)
        tail_mass = 1 - sum(masses)
    return DiscretePMF(
        masses=tuple(masses),
        exact=False,
        precision_bits=p.bits,
        entry_error=p.tol,
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

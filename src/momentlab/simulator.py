"""Seeded Monte-Carlo engine for compound-Poisson spectrum experiments.

X(t) = sum of N(t) jumps, N a Poisson process of the given rate, jumps drawn
independently from the jump law; jumps of size <= epsilon are discarded at
the source. Sampling is vectorized and fully deterministic given the seed:
the generator is counter-based (Philox), keyed by the two 64-bit words
(seed, 0). It runs over blocks of paths: every path's Poisson count is drawn
first, then the jump sizes one block of _BLOCK paths at a time, cut at
epsilon as drawn. Every report reads that kept field, the drift table too,
so each measures the spec's own cut law. numpy's streams do not depend on
how a draw is split, so the jumps are those of one draw of them all. Memory
is 8 bytes per trial (the counts) plus one block's jumps.

The spectrum check targets the replication property of compound laws: mass
in (a, b) forces mass in (na, nb), because n independent clusters of jumps
can repeat the pattern. Monte-Carlo cannot prove positivity of a tiny mass,
so the test is a consistency check: it reports "violation" only when mass
in (a, b) is significantly present, the count in (na, nb) is exactly zero,
and a replication lower bound derived under the compound hypothesis (with
the spec's effective rate) exceeds what a zero count allows at the stated
confidence level. Gap censoring, applied to the empirical samples, is the
standard way to manufacture such a contradiction.

The replication bound starts from the Clopper-Pearson lower confidence bound
on a binomial probability (Clopper & Pearson, Biometrika 26, 1934): the
(1 - level)-quantile of Beta(c, n - c + 1) for c hits in n trials. It is
solved for on the standard library's decimal module at 40 digits (about
133 bits): the regularized incomplete beta I_x(a, b) comes from its
continued fraction (DLMF 8.17.22) times a prefactor whose log B(a, b) is
taken from log Gamma (exact ln((n - 1)!) below 60, else Stirling's series),
and the root of I_x = alpha from Newton steps kept inside a shrinking
bisection bracket, started from statistics.NormalDist. Nothing in this
module loads mpmath.
"""
from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, getcontext, localcontext
from statistics import NormalDist
from typing import Optional, Sequence, Union

import numpy as np

from .exceptions import PrecisionError
from .moment_algebra import Record


class AtomJumps(Record):
    """Finite jump law: atoms ((size, weight), ...); weights normalized."""

    kind = "atoms"
    atoms: tuple

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("need at least one atom")
        if not all(0 < x < math.inf and 0 < w < math.inf for x, w in self.atoms):
            raise ValueError("atom sizes and weights must be positive and finite")
        total = sum(w for _, w in self.atoms)
        object.__setattr__(self, "atoms",
                           tuple((float(x), float(w) / total) for x, w in self.atoms))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        xs = np.array([x for x, _ in self.atoms])
        ws = np.array([w for _, w in self.atoms])
        return rng.choice(xs, size=size, p=ws)

    def tail_prob(self, eps: float) -> float:
        return sum(w for x, w in self.atoms if x > eps)


class PoissonJumps(Record):
    """Jumps distributed Poisson(lam) on the non-negative integers; a jump
    of size zero is at or below every epsilon, so the cut discards it."""

    kind = "poisson"
    lam: float

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.poisson(self.lam, size).astype(float)

    def tail_prob(self, eps: float) -> float:
        """P[Y > eps] = P[Y >= k + 1], k = floor(eps), summed on the side of
        k that holds less mass: up from k + 1 when k + 1 > lam, else down
        from k, as 1 - P[Y <= k]. The terms fall away from the mode on
        either side, so the sum stops once a term is below 2^-60 of it,
        after O(sqrt(lam)) terms. The first term is _poisson_pmf's;
        each next one is the last times lam / (m + 1), going up, or m / lam,
        going down."""
        lam, k = self.lam, math.floor(max(eps, 0.0))
        up = k + 1 > lam
        m = k + 1 if up else k
        term, total = _poisson_pmf(lam, m), 0.0
        while term > total * 2.0 ** -60:
            total += term
            if up:
                m += 1
                term *= lam / m
            elif m == 0:
                break
            else:
                term *= m / lam
                m -= 1
        return total if up else 1.0 - total


class LognormalJumps(Record):
    """Lognormal jumps e^G, G ~ Normal(alpha, sigma2)."""

    kind = "lognormal"
    alpha: float = 0.0
    sigma2: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and 0 < self.sigma2 < math.inf):
            raise ValueError("alpha must be finite, and sigma2 positive and finite")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.lognormal(self.alpha, math.sqrt(self.sigma2), size)

    def tail_prob(self, eps: float) -> float:
        if eps <= 0:
            return 1.0
        z = (math.log(eps) - self.alpha) / math.sqrt(self.sigma2)
        return math.erfc(z / math.sqrt(2)) / 2


JumpLaw = Union[AtomJumps, PoissonJumps, LognormalJumps]


class JumpSpec(Record):
    """Compound-Poisson description: epoch rate, jump law, epsilon cutoff."""

    rate: float
    jump_law: JumpLaw
    epsilon: float = 0.0

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ValueError("rate must be positive and finite")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be >= 0 and finite")

    def describe(self) -> dict:
        law = self.jump_law
        fields = {name: getattr(law, name) for name in law._fields}
        return {"rate": self.rate, "jump_law": {"kind": law.kind, **fields},
                "epsilon": self.epsilon}


def _check_run(t: float, trials: int, level: float) -> None:
    if not 0 <= t < math.inf:
        raise ValueError("t must be >= 0 and finite")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 < level < 1:
        raise ValueError("level must lie in (0, 1)")


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by the two 64-bit words (seed, 0)."""
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    key = np.array([seed, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# the largest Poisson mean numpy samples; it refuses a larger one
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


# paths per block of the jump field: any size gives the same reports; at
# one jump per path a block's arrays are 64 KiB each
_BLOCK = 8192


def _path_blocks(spec: JumpSpec, t: float, rng: np.random.Generator, count: int):
    """The kept jump field, which every report reads, of `count` independent
    paths on [0, t] in blocks of _BLOCK paths: every Poisson count first,
    then each block's jump sizes in one draw, less those <= spec.epsilon.
    Yields (counts, jumps, owner): per path its number of kept jumps, the
    kept jumps, and the path of each within its block; a block that loses
    no jump yields its Poisson counts as drawn. ValueError when rate * t is
    past numpy's limit."""
    lam = spec.rate * t
    if not lam <= _POISSON_LAM_MAX:
        raise ValueError(f"rate * t must be finite and at most {_POISSON_LAM_MAX:.4g}, "
                         f"got {lam:g}")
    n = rng.poisson(lam, count)
    for start in range(0, count, _BLOCK):
        counts = n[start:start + _BLOCK]
        total = int(counts.sum())
        jumps = spec.jump_law.sample(rng, total) if total else np.empty(0)
        owner = np.repeat(np.arange(len(counts)), counts)
        keep = jumps > spec.epsilon
        if not keep.all():
            jumps, owner = jumps[keep], owner[keep]
            counts = np.bincount(owner, minlength=len(counts))
        yield counts, jumps, owner


def sample_compound_poisson(spec: JumpSpec, t: float, seed: int, count: int) -> np.ndarray:
    """`count` independent draws of X(t); deterministic given the seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out = np.empty(count)
    start = 0
    for counts, jumps, owner in _path_blocks(spec, t, make_rng(seed), count):
        out[start:start + len(counts)] = np.bincount(owner, weights=jumps,
                                                     minlength=len(counts))
        start += len(counts)
    return out


def _inside(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """Which entries of x lie in the open interval (a, b)."""
    return (x > a) & (x < b)


def _check_gap(a: float, b: float) -> None:
    if not 0 < a < b < math.inf:
        raise ValueError("the censor gap needs finite ends 0 < a < b")


def gap_censor_samples(samples: np.ndarray, a: float, b: float) -> np.ndarray:
    """Move empirical mass on the open interval (a, b) to 0."""
    _check_gap(a, b)
    out = np.asarray(samples, dtype=float).copy()
    out[_inside(out, a, b)] = 0.0
    return out


_CP_DIGITS = 40  # working digits of every decimal evaluation here, about 133 bits
_WIDE = Context(prec=_CP_DIGITS, Emin=MIN_EMIN, Emax=MAX_EMAX)  # no exp here underflows

# B_2, B_4, ..., B_30 as (numerator, denominator)
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
              (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
              (-236364091, 2730), (8553103, 6), (-23749461029, 870),
              (8615841276005, 14322))
_HALF_LOG_2PI = "0.918938533204672741780329736405617639861397473637783412817152"


def _log_gamma(n: int) -> Decimal:
    """ln Gamma(n) for an integer n >= 1 in the current decimal context:
    ln((n - 1)!) below 60, else Stirling's series
    (n - 1/2) ln n - n + ln(2 pi)/2 + sum_j B_2j / (2j (2j - 1) n^(2j - 1))
    through B_30, whose remainder is below the first omitted term,
    |B_32| / (32 31 60^31) < 2e-48."""
    if n < 60:
        return Decimal(math.factorial(n - 1)).ln()
    x = Decimal(n)
    out = (x - Decimal("0.5")) * x.ln() - x + Decimal(_HALF_LOG_2PI)
    power, x2 = x, x * x
    for j, (num, den) in enumerate(_BERNOULLI, 1):
        out += num / (den * 2 * j * (2 * j - 1) * power)
        power *= x2
    return out


def _poisson_log_pmf(lam: float, m: int) -> Decimal:
    """ln of the Poisson(lam) pmf at m in the current decimal context,
    -Infinity at lam = 0 for m >= 1; the m ln(lam) term is 0 at m = 0."""
    x = Decimal(lam)
    return (m * x.ln() if m else 0) - x - _log_gamma(m + 1)


def _poisson_pmf(lam: float, m: int) -> float:
    """The Poisson(lam) pmf at m from its log at _CP_DIGITS digits, within
    an ulp (a float log-pmf cancels terms of size m ln m: 7.7e-13 relative
    at lam = 1000, m = 2001); 0 where it underflows or lam = 0 < m."""
    with localcontext(_WIDE):
        return float(_poisson_log_pmf(lam, m).exp())


def _replication_lower(lam: float, m: int, n: int, q: float) -> float:
    """pi_nm min(q / pi_m, 1)^n, pi the Poisson(lam) pmf, from the log-pmfs
    at _CP_DIGITS digits, so the float is rounded once; 0 at lam = 0."""
    with localcontext(_WIDE):
        log_s = min(Decimal(q).ln() - _poisson_log_pmf(lam, m), 0)
        return float((_poisson_log_pmf(lam, n * m) + n * log_s).exp())


def _betainc(x: Decimal, a: int, b: int, log_beta: Decimal) -> Decimal:
    """Regularized incomplete beta I_x(a, b), log_beta = log B(a, b), in the
    current decimal context.

    Below (a + 1) / (a + b + 2) the continued fraction of DLMF 8.17.22
    converges fast and is summed by the modified Lentz method; above it,
    I_x(a, b) = 1 - I_(1-x)(b, a). For an integer b the fraction is finite.
    (mpmath.betainc raises NoConvergence at a = 7817, b = 92184.)
    """
    if x > Decimal(a + 1) / (a + b + 2):
        return 1 - _betainc(1 - x, b, a, log_beta)
    prec = getcontext().prec
    eps = Decimal(1).scaleb(3 - prec)
    tiny = Decimal(1).scaleb(-2 * prec)
    # modified Lentz on 1/(1 + d_1/(1 + d_2/(1 + ...))), from its first term
    f = d = Decimal(1)
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
    return (a * x.ln() + b * (1 - x).ln() - Decimal(a).ln() - log_beta).exp() * f


def _clopper_pearson_lower(count: int, trials: int, level: float) -> float:
    """Clopper-Pearson lower confidence bound at `level` on a binomial
    probability with `count` hits in `trials`: the q with
    I_q(count, trials - count + 1) = 1 - level."""
    if not 1 <= count <= trials:
        raise ValueError("need 1 <= count <= trials")
    alpha = 1 - level
    if not 0 < alpha < 1:
        raise ValueError("level must lie in (0, 1)")
    a, b = count, trials - count + 1
    with localcontext(_WIDE):
        log_beta = _log_gamma(a) + _log_gamma(b) - _log_gamma(a + b)
        target = Decimal(alpha)
        # x^a / (a B(a, b)) >= I_x(a, b), so its root undershoots the
        # quantile; the normal approximation is closer when it lies above it
        x_pow = ((target.ln() + Decimal(a).ln() + log_beta) / a).exp()
        mean = Decimal(a) / (a + b)
        sd = (mean * (1 - mean) / (a + b + 1)).sqrt()
        x_norm = mean + Decimal(NormalDist().inv_cdf(alpha)) * sd
        x = x_norm if x_pow < x_norm < 1 else x_pow
        lo, hi = Decimal(0), Decimal(1)
        tol = Decimal(2) ** -80
        for _ in range(400):
            g = _betainc(x, a, b, log_beta) - target
            if g == 0:
                break
            if g < 0:
                lo = x
            else:
                hi = x
            slope = ((a - 1) * x.ln() + (b - 1) * (1 - x).ln() - log_beta).exp()
            # a slope that underflows even this range is 0: bisect
            new = x - g / slope if slope else lo
            if not lo < new < hi:
                new = (lo + hi) / 2
            done = abs(new - x) <= tol * x
            x = new
            if done:
                break
        else:
            raise PrecisionError("Clopper-Pearson quantile did not converge")
        return float(x)


class SpectrumTestResult(Record):
    """Everything the spectrum consistency check measured.

    verdict is "consistent" unless the replication lower bound (under the
    compound hypothesis at the spec's effective rate) exceeds the exact
    binomial upper bound implied by a zero count in (na, nb); z_score is
    the standardized shortfall sqrt(trials * lower_bound) of that count,
    reported only for violations.
    """

    interval: tuple
    n: int
    trials: int
    level: float
    p_hat_ab: float
    p_hat_nanb: float
    count_ab: int
    count_nanb: int
    se_ab: float
    se_nanb: float
    modal_jump_count: int
    replication_lower_bound: float
    upper_bound_nanb: float
    verdict: str
    z_score: Optional[float]
    seed: int
    t: float
    censor_gap: Optional[tuple]
    spec: dict


def spectrum_gap_test(spec: JumpSpec, a: float, b: float, n: int, trials: int,
                      seed: int, level: float = 0.99, t: float = 1.0,
                      censor_gap: Optional[tuple] = None) -> SpectrumTestResult:
    """Consistency check of interval replication: mass in (a, b) should come
    with mass in (na, nb) for a compound law.

    With censor_gap = (A, B) the sampled values in that open interval are
    moved to 0 first (post-hoc censoring of the empirical distribution);
    choosing (a, b) inside (A/2, A) with n = 2 then manufactures the
    contradiction that shows the censored law cannot be compound Poisson.
    """
    for name, end in (("a", a), ("b", b)):
        if not math.isfinite(end):
            raise ValueError(f"{name} must be finite")
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    _check_run(t, trials, level)
    if n < 1:
        raise ValueError("n must be >= 1")
    if censor_gap is not None:
        _check_gap(*censor_gap)
    # the (a, b) and (na, nb) hits, and how many (a, b) hits have m kept jumps
    count_ab = count_rep = 0
    hist = np.zeros(0, dtype=np.int64)
    for kept, jumps, owner in _path_blocks(spec, t, make_rng(seed), trials):
        x = np.bincount(owner, weights=jumps, minlength=len(kept))
        if censor_gap is not None:
            x[_inside(x, *censor_gap)] = 0.0
        in_ab = _inside(x, a, b)
        count_ab += int(np.count_nonzero(in_ab))
        count_rep += int(np.count_nonzero(_inside(x, n * a, n * b)))
        block = np.bincount(kept[in_ab], minlength=len(hist))
        block[:len(hist)] += hist
        hist = block
    p_ab = count_ab / trials
    p_rep = count_rep / trials
    se_ab = math.sqrt(max(p_ab * (1 - p_ab), 0.0) / trials)
    se_rep = math.sqrt(max(p_rep * (1 - p_rep), 0.0) / trials)

    lam_eff = spec.rate * t * spec.jump_law.tail_prob(spec.epsilon)

    # modal kept-jump count m >= 1 among (a,b)-hits, the smallest on a tie;
    # its hit probability q_m has a Clopper-Pearson lower bound, and under
    # the compound hypothesis P[X in (na,nb)] >= pi_{n m} (q_m / pi_m)^n
    modal_m = 0
    lower = 0.0
    if hist[1:].any():
        modal_m = 1 + int(np.argmax(hist[1:]))
        q_lcb = _clopper_pearson_lower(int(hist[modal_m]), trials, level)
        lower = _replication_lower(lam_eff, modal_m, n, q_lcb)

    upper = 1.0 - (1.0 - level) ** (1.0 / trials) if count_rep == 0 else 1.0

    violation = count_ab > 0 and count_rep == 0 and lower > upper
    z = math.sqrt(trials * lower) if violation else None

    return SpectrumTestResult(
        interval=(a, b), n=n, trials=trials, level=level,
        p_hat_ab=p_ab, p_hat_nanb=p_rep,
        count_ab=count_ab, count_nanb=count_rep,
        se_ab=se_ab, se_nanb=se_rep,
        modal_jump_count=modal_m,
        replication_lower_bound=lower,
        upper_bound_nanb=upper,
        verdict="violation" if violation else "consistent",
        z_score=z,
        seed=seed, t=t, censor_gap=censor_gap,
        spec=spec.describe(),
    )


class DriftRow(Record):
    epsilon: float
    p_hat: float
    count: int
    se: float
    ci_low: float
    ci_high: float


class DriftTable(Record):
    """Estimates of P[|X_eps0 - X_eps| > eta] across an epsilon grid, X_eps0
    the spec's own cut law (eps0 its epsilon): a row at eps <= eps0 reads 0.

    All rows count paths of one coupled sample, the kept jump field every
    report reads, so no p_hat falls as epsilon grows, by construction and
    not just within noise: a larger epsilon adds non-negative jumps to each
    path's discarded sum, bincount adds them in array order, and float
    addition is monotone in each argument. Each row's band is p_hat -/+ z se,
    z the two-sided normal quantile at `level`, clipped to [0, 1].
    """

    eta: float
    t: float
    trials: int
    seed: int
    rows: tuple
    level: float
    spec: dict


def epsilon_truncation_drift(spec: JumpSpec, eps_grid: Sequence[float], trials: int,
                             seed: int, eta: float = 0.1, t: float = 1.0,
                             level: float = 0.99) -> DriftTable:
    """Estimate the discarded-mass overflow P[|X_eps0 - X_eps| > eta] on a
    grid, eps0 the spec's own cut: |X_eps0 - X_eps| is the per-path sum of
    the kept jumps in (eps0, eps]. One sample couples the estimates."""
    if not 0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    _check_run(t, trials, level)
    if not all(0 <= e < math.inf for e in eps_grid):
        raise ValueError("epsilon values must be >= 0 and finite")
    # per epsilon, the paths whose kept jumps at or below it sum past eta
    overflow = [0] * len(eps_grid)
    for counts, jumps, owner in _path_blocks(spec, t, make_rng(seed), trials):
        for i, eps in enumerate(eps_grid):
            small = jumps <= eps
            discarded = np.bincount(owner[small], weights=jumps[small], minlength=len(counts))
            overflow[i] += int(np.count_nonzero(discarded > eta))

    z = NormalDist().inv_cdf((1 + level) / 2)
    rows = []
    for eps, count in zip(eps_grid, overflow):
        p = count / trials
        se = math.sqrt(max(p * (1 - p), 0.0) / trials)
        rows.append(DriftRow(float(eps), p, count, se,
                             max(p - z * se, 0.0), min(p + z * se, 1.0)))
    return DriftTable(eta=eta, t=t, trials=trials, seed=seed, rows=tuple(rows),
                      level=level, spec=spec.describe())

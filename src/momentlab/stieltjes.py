"""Exact Hankel analysis of moment sequences.

Determinants, Stieltjes positivity verdicts, Fekete total positivity,
indeterminacy diagnostics and log-convexity reports. Every Hankel report
reads its input through one gate, _hankel_input, and judges every sign by
one rule, _sign. The exact paths work on Fractions and integers only; a
decimal MomentSequence obtains the Hankel reports at its own precision:
its dyadic float entries become exact rationals, each within a relative
rel = 2^(1 - precision_bits) of the value it stands for, and _sign calls
a minor zero when some matrix within rel of the entries may be singular.

Every exact report takes its minors from one kernel, _hankel_minors, and
every minor from one integer scaling, _integer_scale: with a * c^n * mu_n
integral (a, c and the integers from moment_algebra's _isobaric_ints, or
c = 1 and a common denominator a, whichever gives the shorter integers),
the integer Hankel matrix of shift s is a * c^s times the rational one
with row i and column j scaled by c^i and c^j, so each minor keeps its
sign and divides back exactly. One fraction-free Bareiss pass per shift
gives every leading minor; a pass stops at a zero pivot, and the sizes
after it get one pivoting Bareiss determinant each, of the same integers.
A sign is read off the integer minor, and a minor becomes a Fraction only
where a report carries its value. A ScaledSequence, moment_algebra's exact
form of a t-power, comes with its integers already (a = 1):
stieltjes_verdict reads its entry signs and minors from them, and builds a
Fraction only for a witness.
stieltjes_verdict runs shifts 0 and 1, indeterminacy_ratios and
mu1_threshold_sequence shifts 0-3, and fekete_total_positivity one shift
per anti-diagonal of its matrix, since each consecutive block is itself a
Hankel matrix.

A strictly-positive verdict on exact input needs no minor at all: positive
definiteness of each shift's Hankel matrix implies every leading minor is
positive, and _certified_positive proves it for a diagonally scaled matrix
with one float64 Cholesky shifted by a bound on every rounding error. It is
the one core of two producers, each handing it a congruence of the Hankel
matrix with diagonal in [1, 4) and a bound rel on the relative error of
every entry, which enters its shift as n rel times the largest diagonal
entry. stieltjes_verdict's _scaled_hankel scales the top 64 bits of each
integer by powers of two (rel = 2u, u = 2^-53), as the Cholesky reads
them; the theta-scan's semigroup._lattice_hankel builds the unit-diagonal
matrix of a lattice family's cumulants from their float ratios with a
proven bound. One such pair of matrices certifies a whole theta row, every t
at once, with no exact t-power or cumulant. Where that proof fails (a zero
or negative minor, or a matrix too ill-conditioned for float64), the exact
minors decide, so every refutation, zero, witness and witness value comes
from _hankel_minors.

All verdicts are depth-qualified: they speak about the examined window only
and never claim more than finite-depth evidence.
"""
from __future__ import annotations

from contextlib import nullcontext
from fractions import Fraction
from functools import lru_cache, partial
from math import frexp, isqrt, lcm, ldexp, sqrt
from operator import add, mul, sub
from typing import Optional, Sequence, Union

from .exceptions import BackendError
from .moment_algebra import (_NORMAL, _U, MomentSequence, Record, ScaledSequence, _as_mpf,
                             _exact, _float_heads, _is_mpf, _isobaric_ints,
                             _working_precision)

DEFAULT_TOLERANCE = Fraction(1, 2 ** 40)
# the share of its peak that the last ratio of an indeterminacy family keeps
# when the family counts as bounded away from zero
COLLAPSE_FACTOR = Fraction(1, 10)


class HankelQuery(Record):
    """Address of the (size+1) x (size+1) Hankel matrix [a_{shift+i+j}].

    The matrix spans sequence indices shift .. shift + 2*size, so a size-0
    query addresses the single entry a_shift.
    """

    shift: int
    size: int

    def __post_init__(self):
        if self.shift < 0 or self.size < 0:
            raise ValueError("shift and size must be non-negative")

    @property
    def max_index(self) -> int:
        return self.shift + 2 * self.size


def _sequence_values(m) -> list:
    """Entries of an exact MomentSequence, a ScaledSequence or a plain
    sequence as Fractions, each converted once; callers take approximate
    MomentSequences another way first. A plain sequence with an mpf entry
    has no precision_bits, and is refused with BackendError."""
    if isinstance(m, (MomentSequence, ScaledSequence)):
        return list(m.values)
    vals = list(m)
    if any(_is_mpf(v) for v in vals):
        raise BackendError("mpf entries are approximate: give them as "
                           "MomentSequence.from_approx with their precision_bits")
    return [v if isinstance(v, Fraction) else Fraction(v) for v in vals]


_SHORT_QUERY = "query (shift=%d, size=%d) needs index %d but sequence ends at %d"


def hankel_matrix(values: Sequence, q: HankelQuery) -> list:
    if q.max_index >= len(values):
        raise ValueError(_SHORT_QUERY % (q.shift, q.size, q.max_index, len(values) - 1))
    n = q.size + 1
    return [[values[q.shift + i + j] for j in range(n)] for i in range(n)]


def _det_bareiss(m: list) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss
    elimination with row pivoting; m is overwritten."""
    n = len(m)
    sign = prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - mik * m[k][j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def _leading_minors(m: list):
    """Yield the leading principal minors of a symmetric integer matrix,
    sizes 1, 2, ..., from one fraction-free Bareiss pass without pivoting
    that overwrites m.

    After step k the (k, k) entry is the (k+1) x (k+1) leading minor, and
    every division by the previous pivot is exact. The pass cannot go on
    past a zero pivot, so it stops after yielding one. Symmetry survives
    each step, so only the upper triangle is updated.
    """
    n = len(m)
    prev = 1
    for k in range(n):
        pivot = m[k][k]
        yield pivot
        if pivot == 0:
            return
        rk = m[k]
        for i in range(k + 1, n):
            ri, rki = m[i], rk[i]
            for j in range(i, n):
                ri[j] = (pivot * ri[j] - rki * rk[j]) // prev
        prev = pivot


def _integer_scale(vals: list) -> tuple:
    """(a, c, ints) with ints[n] = a * c^n * vals[n] an integer for every n.

    Two scalings are exact: _isobaric_ints, which suits denominators that
    grow like c^n (composed sequences), and a common denominator a with
    c = 1, which suits a flat one (dyadic decimals). The one with the
    shorter integers in total is faster, and is returned.
    """
    isobaric = _isobaric_ints(vals)
    common = lcm(*(v.denominator for v in vals))
    flat = [v.numerator * (common // v.denominator) for v in vals]
    if sum(x.bit_length() for x in flat) < sum(x.bit_length() for x in isobaric[2]):
        return common, 1, flat
    return isobaric


def _hankel_minors(scaled: tuple, shift: int, size: int):
    """Yield (num, den), den > 0, with num / den the shift-`shift` Hankel
    minor of each size 0..size; num carries its sign.

    scaled = _integer_scale(vals). The size-k minor of the integer matrix
    is a^(k+1) c^((k+1)(shift+k)) times the rational one. One
    _leading_minors pass gives the integer minors while the pivots are
    nonzero; the sizes after a zero pivot get one pivoting _det_bareiss
    each, of the same integers.
    """
    a, c, ints = scaled
    den, done = 1, 0
    for minor in _leading_minors(hankel_matrix(ints, HankelQuery(shift, size))):
        den *= a * c ** (shift + 2 * done)
        yield minor, den
        done += 1
    for k in range(done, size + 1):
        den *= a * c ** (shift + 2 * k)
        yield _det_bareiss(hankel_matrix(ints, HankelQuery(shift, k))), den


_REL_CEILING = 2.0 ** -30  # the largest per-entry relative error the certificate takes


@lru_cache(maxsize=8)
def _upper_indices(shift: int, size: int) -> tuple:
    """(rows, cols, sums, gaps) over the entries (i, j), i < j <= size, of a
    matrix in row-major order: i, j, shift + i + j and j - i."""
    pairs = [(i, j) for i in range(size + 1) for j in range(i + 1, size + 1)]
    return (tuple(i for i, _ in pairs), tuple(j for _, j in pairs),
            tuple(shift + i + j for i, j in pairs), tuple(j - i for i, j in pairs))


def _scaled_hankel(heads: list, exps: list, rel: float, shift: int, size: int) -> Optional[tuple]:
    """(diag, upper, rel): the Hankel matrix H = [v_(shift+i+j)], n = size
    + 1 rows, as _certified_positive takes it, or None. Entry v_k arrives
    as a float head and a power of two, heads[k] * 2^exps[k], within a
    relative rel of v_k: 2u for an integer cut by moment_algebra._float_heads.

    A = D H D, D = diag(2^-e_i), is an exact congruence, with e_i the
    integer part of half the binary exponent of the diagonal entry's head,
    so the diagonal of the converted A~ lies in [1, 4). ldexp moves each
    head into A~, exact but in the subnormal range, so |a_ij - a~_ij| <=
    rel |a_ij| + eta; an entry off the diagonal that overflows raises
    OverflowError as _certified_positive reads it. A non-positive diagonal
    head, or an overflow on the diagonal, gives None.
    """
    es = []
    for h, x in zip(heads[shift:shift + 2 * size + 1:2], exps[shift:shift + 2 * size + 1:2]):
        if not h > 0:
            return None
        es.append((frexp(h)[1] + x - 1) // 2)
    try:
        diag = [ldexp(heads[shift + 2 * i], exps[shift + 2 * i] - 2 * e) for i, e in enumerate(es)]
    except OverflowError:
        return None
    rows, cols, sums, _ = _upper_indices(shift, size)
    upper = map(ldexp, map(heads.__getitem__, sums),
                map(sub, map(exps.__getitem__, sums),
                    map(add, map(es.__getitem__, rows), map(es.__getitem__, cols))))
    return diag, upper, rel


def _certified_positive(diag: list, upper, rel: float) -> bool:
    """True only if a symmetric matrix A of n = len(diag) rows is proved
    positive definite from floats a~_ij: diag[i] = a~_ii in [1, 4), and
    upper the n (n - 1) / 2 entries a~_ij, i < j, in row-major order,
    with |a_ij - a~_ij| <= rel |a_ij| + 2 eta. Its two producers hand over
    an exact congruence D H D of a Hankel matrix H, D a positive diagonal,
    so (Sylvester) every leading minor of H of sizes 0..n-1 is > 0:
    _scaled_hankel from the float heads of integers, and
    semigroup._lattice_hankel from the float cumulant ratios of a theta
    row of the scan. False proves nothing: the caller then computes the
    minors exactly.

    upper may be an iterator: the Cholesky computes each entry as it reads
    it and stops at the first failed pivot. A matrix of no rows is
    accepted.

    The Cholesky (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, Thm 10.5; Rump, BIT 46, 2006), with u = 2^-53, eta = 2^-1074,
    gamma = (n+1)u / (1 - (n+1)u), d the largest a~_ii and n < 2^21: the
    factor R of B = fl(A~ - c I) runs to completion with every pivot >=
    2^-1022; then R^T R = B + dB with |dB| <= gamma |R^T| |R| in any order
    of the sums. Its diagonal gives ||R||_F^2 <= tr B / (1 - gamma) <= tr
    A~ / (1 - gamma), so ||dB||_2 <= gamma / (1 - gamma) tr A~;
    Cauchy-Schwarz on the columns of R gives |b_ij| <= d (1 + gamma) / (1
    - gamma), hence |a_ij| <= d (1 + 2^-28) and ||A - A~||_2 <= n d rel (1
    + 2^-28) + 2n eta. Rounding the shifted diagonal moves B from A~ - c I
    by at most 4u. Underflow adds at most eta / 2 to each product and each
    quotient s / r_kk (r_kk <= 2, and the floor keeps every square root
    and divisor normal): at most 2n(n + 2) eta in norm. So A = R^T R - dB
    + c I + (A~ - c I - B) + (A - A~), with R^T R positive definite, is
    positive definite once c exceeds gamma / (1 - gamma) tr A~ + n d rel
    + 4u and the eta terms. c is that sum times 1 + 2^-20, which covers
    the rounding of its few operations and of tr A~, the factor 1 +
    2^-28, and the eta terms, below 2^-1000 against a sum of at least
    2^-52. A pivot that is not >= the floor (nan included) refuses; an
    inf or nan entry, or one made inside the factorization, reaches a
    later pivot as -inf or nan.

    A rel above 2^-30, or an entry that overflows as it is read, refuses.
    """
    if not rel <= _REL_CEILING:
        return False
    if not diag:  # no rows: the shift-1 matrix of a depth-0 theta row
        return True
    gamma = (len(diag) + 1) * _U / (1 - (len(diag) + 1) * _U)
    c = (gamma / (1 - gamma) * sum(diag) + len(diag) * rel * max(diag) + 4 * _U) * (1 + 2.0 ** -20)
    upper = iter(upper)
    cols = [[] for _ in diag]  # cols[j]: r_0j .. r_(k-1)j before step k
    try:
        for k, (d, ck) in enumerate(zip(diag, cols)):
            pivot = (d - c) - sum(map(mul, ck, ck))
            if not pivot >= _NORMAL:
                return False
            r = sqrt(pivot)
            for cj, a in zip(cols[k + 1:], upper):
                cj.append((a - sum(map(mul, ck, cj))) / r)
    except OverflowError:
        return False
    return True


def _certified_stieltjes(hankel, upto: int) -> bool:
    """True only if _certified_positive proves both matrices that
    hankel(shift, upto) gives for shifts 0 and 1, each (diag, upper, rel)
    or None for a producer's refusal, positive definite. For the Hankel
    matrices of v_n to size upto, every minor and every entry
    stieltjes_verdict reads is then positive, as the entries v_0..v_(2 upto
    + 1) are the two matrices' diagonals; the theta-scan hands its row's
    cumulant matrices instead."""
    for shift in (0, 1):
        built = hankel(shift, upto)
        if built is None or not _certified_positive(*built):
            return False
    return True


def _sign(num: int, den: int, rel: Optional[Fraction], vals, shift: int, size: int) -> int:
    """The sign every Hankel report gives the minor num / den (den > 0) of
    the n = size + 1 rows at (shift, size) in vals. Exact input (rel None)
    takes the sign of num. On decimal input, each entry within a relative
    rel of the value it stands for, the minor is zero when it is at most
    2n rel' H, with rel' = rel / (1 - rel) and H the Hadamard bound, the
    product of the row norms, each sqrt(p / q) rounded up to (isqrt(p) + 1)
    / isqrt(q). Proof: |v - s| <= rel |v| gives |v - s| <= rel' |s|, and
    the determinant is multilinear in the rows, so by Hadamard every matrix
    V within rel of the stored S has |det V - det S| <= ((1 + rel')^n - 1) H
    <= 2n rel' H, as n rel' <= 1 (precision_bits >= 64). So a nonzero sign
    is the sign of every such V, and an entry is zero only if it is 0."""
    if rel is not None:
        bound = 2 * (size + 1) * rel / (1 - rel) * den
        for row in hankel_matrix(vals, HankelQuery(shift, size)):
            s = sum(v * v for v in row)
            bound *= Fraction(isqrt(s.numerator) + 1, max(isqrt(s.denominator), 1)) if s else 0
        if abs(num) <= bound:
            return 0
    return (num > 0) - (num < 0)


def _hankel_input(m, entries: int, short) -> tuple:
    """(vals, rel, scaled): entries 0..entries-1 of m, as every Hankel
    report reads them.

    A decimal MomentSequence gives its entries' exact dyadic values and rel
    = 2^(1 - precision_bits), a bound on each entry's relative error from
    every writer: generators compute at precision_bits + 20, files carry
    precision_bits log10(2) + 3 digits read back at precision_bits, and a
    CSV value is rounded once at --precision. It does not cover error a
    producer made before storing, such as cancellation in a decimal t-power.
    Exact input has rel None. Fewer entries raise ValueError(short(number
    of entries)). scaled is _integer_scale(vals), or a ScaledSequence's own
    (1, c, ints), whose vals are None, since only rel reads them.
    """
    rel = None
    if isinstance(m, MomentSequence) and not m.exact:
        vals, rel = [_exact(v) for v in m.values], Fraction(2, 2 ** m.precision_bits)
    else:
        vals = m.ints if isinstance(m, ScaledSequence) else _sequence_values(m)
    if len(vals) < entries:
        raise ValueError(short(len(vals)))
    vals = vals[:entries]
    if isinstance(m, ScaledSequence):
        return None, None, (1, m.c, vals)
    return vals, rel, _integer_scale(vals)


def _depth_input(m, upto: int) -> tuple:
    """_hankel_input of the 2*upto + 2 entries, mu_0..mu_{2 upto + 1}, that
    a report to depth upto reads: a shorter prefix is an error, never a
    silently weaker report, and a negative depth is refused before the
    backend is."""
    if upto < 0:
        raise ValueError("upto must be >= 0")
    need = 2 * upto + 2
    return _hankel_input(m, need,
                         lambda got: "depth %d needs %d entries, got %d" % (upto, need, got))


class PositivityVerdict(Record):
    """Outcome of the two-shift Hankel positivity check.

    kind: "strictly-positive", "semi-definite" or "not-stieltjes".
    witness carries the offending query for the last two kinds, with its
    exact determinant value (for a negative entry the query has size 0 and
    the value is the entry itself).
    """

    kind: str
    depth: int
    witness: Optional[HankelQuery] = None
    witness_value: Optional[Fraction] = None

    @property
    def ok(self) -> bool:
        return self.kind == "strictly-positive"


def stieltjes_verdict(m, upto: int) -> PositivityVerdict:
    """Check the Stieltjes condition to finite depth.

    Evaluates the shift-0 and shift-1 Hankel determinants of all sizes up to
    `upto`. All strictly positive (and all window entries positive) means
    the prefix is consistent with a Stieltjes moment sequence at this depth.
    A negative determinant, or a negative entry anywhere in the examined
    window, refutes it outright; a zero yields the semi-definite verdict.

    The sequence must supply every index the depth claims to have checked
    (2*upto + 2 entries); a shorter prefix is an error, never a silently
    weaker certificate.

    The entry signs come from the integers of _hankel_input, a
    ScaledSequence's as they are; only a negative integer goes to _sign,
    which never calls a non-negative one negative. On exact input, when
    _certified_positive proves both shifts' integer Hankel matrices
    positive definite, the verdict is strictly-positive with no minor
    computed. Otherwise, and always on decimal input (whose _sign calls a
    minor zero when its precision_bits cannot tell it from 0), the signs
    come from _hankel_minors, one pass per shift, run only as far as the
    verdict needs them. A later negative minor still wins over an earlier
    zero one. Only the witness becomes a Fraction.
    """
    vals, rel, scaled = _depth_input(m, upto)
    a, c, ints = scaled
    for idx, x in enumerate(ints):
        if x < 0:
            den = a * c ** idx
            if _sign(x, den, rel, vals, idx, 0) < 0:
                return PositivityVerdict("not-stieltjes", upto, HankelQuery(idx, 0),
                                         Fraction(x, den))
    if rel is None and _certified_stieltjes(partial(_scaled_hankel, *_float_heads(ints), 2 * _U),
                                            upto):
        return PositivityVerdict("strictly-positive", upto)
    passes = [_hankel_minors(scaled, shift, upto) for shift in (0, 1)]
    first_zero = None
    for size in range(upto + 1):
        for shift, minors in enumerate(passes):
            num, den = next(minors)
            s = _sign(num, den, rel, vals, shift, size)
            if s < 0:
                return PositivityVerdict("not-stieltjes", upto, HankelQuery(shift, size),
                                         Fraction(num, den))
            if s == 0 and first_zero is None:
                first_zero = (HankelQuery(shift, size), Fraction(num, den))
    if first_zero is not None:
        return PositivityVerdict("semi-definite", upto, *first_zero)
    return PositivityVerdict("strictly-positive", upto)


class TotalPositivityVerdict(Record):
    """Outcome of the Fekete consecutive-minor enumeration.

    kind: "strictly-tp", "semi-definite" or "not-tp". The witness names the
    offending minor by (row_start, col_start, order).
    """

    kind: str
    query: HankelQuery
    minors_checked: int
    witness: Optional[tuple] = None
    witness_value: Optional[Fraction] = None

    @property
    def ok(self) -> bool:
        return self.kind == "strictly-tp"


def fekete_total_positivity(m, q: HankelQuery) -> TotalPositivityVerdict:
    """Strict total positivity of the addressed Hankel matrix.

    Fekete's criterion: if every minor on consecutive row and column index
    blocks is strictly positive, the matrix is strictly totally positive,
    so only (size+1)^2-ish many minors need evaluation instead of all of
    them. Any negative consecutive minor refutes TP outright; a zero one
    yields the semi-definite verdict (strictness fails, and Fekete's
    reduction no longer certifies the remaining minors).

    The block of order k at rows r0.. and columns c0.. of the shift-s
    matrix has entries a_{s+r0+c0+i+j}: it is the Hankel matrix
    HankelQuery(s + r0 + c0, k - 1). So one leading-minor pass per shift
    s .. s + 2*size gives every block, and the blocks on one anti-diagonal
    r0 + c0 share their value. The minors are still enumerated and counted
    order by order, rows before columns, and the first negative one (else
    the first zero one) is the witness.
    """
    vals, rel, scaled = _hankel_input(m, q.max_index + 1, lambda got: _SHORT_QUERY % (
        q.shift, q.size, q.max_index, got - 1))
    n = q.size + 1
    # a block on anti-diagonal d has order at most n - ceil(d/2)
    passes = [_hankel_minors(scaled, q.shift + d, n - 1 - (d + 1) // 2)
              for d in range(2 * n - 1)]
    checked = 0
    first_zero = None
    for order in range(1, n + 1):
        current = []  # the order-k minor of each anti-diagonal reached so far
        for r0 in range(n - order + 1):
            for c0 in range(n - order + 1):
                d = r0 + c0
                if d == len(current):
                    current.append(next(passes[d]))
                num, den = current[d]
                checked += 1
                s = _sign(num, den, rel, vals, q.shift + d, order - 1)
                if s < 0:
                    return TotalPositivityVerdict("not-tp", q, checked,
                                                  (r0, c0, order), Fraction(num, den))
                if s == 0 and first_zero is None:
                    first_zero = ((r0, c0, order), Fraction(num, den))
    if first_zero is not None:
        return TotalPositivityVerdict("semi-definite", q, checked, *first_zero)
    return TotalPositivityVerdict("strictly-tp", q, checked)


class IndeterminacyRatios(Record):
    """Determinant ratio diagnostics for the indeterminacy criterion.

    shift0[n-1] = det(shift 0, size n) / det(shift 2, size n-1) and
    shift1[n-1] = det(shift 1, size n) / det(shift 3, size n-1), for
    n = 1..upto. A None entry marks a zero denominator (degenerate case).
    Indeterminate-type sequences keep both ratios bounded away from zero;
    ratios collapsing toward zero are consistent with determinacy. The
    `bounded_away` flags implement a finite-depth heuristic: the last ratio
    retains at least `collapse_factor` (COLLAPSE_FACTOR) of the sequence
    maximum.
    """

    shift0: tuple
    shift1: tuple
    upto: int
    degenerate: bool
    collapse_factor: Fraction
    shift0_bounded_away: Optional[bool]
    shift1_bounded_away: Optional[bool]


def _ratio_family(window: tuple, base_shift: int, upto: int) -> tuple:
    """det(base_shift, size n) / det(base_shift + 2, size n - 1) for
    n = 1..upto, None where _sign calls the denominator zero, from one pass
    per shift of window = _depth_input(m, upto)."""
    if upto < 1:
        return ()
    vals, rel, scaled = window
    nums = _hankel_minors(scaled, base_shift, upto)
    next(nums)  # size 0 is no numerator
    dens = _hankel_minors(scaled, base_shift + 2, upto - 1)
    out = []
    for n, ((p, q), (r, t)) in enumerate(zip(nums, dens), start=1):
        zero = _sign(r, t, rel, vals, base_shift + 2, n - 1) == 0
        out.append(None if zero else Fraction(p * t, q * r))
    return tuple(out)


def _bounded_away(ratios) -> Optional[bool]:
    if len(ratios) < 2 or None in ratios:
        return None
    peak = max(map(abs, ratios))
    return peak != 0 and abs(ratios[-1]) >= COLLAPSE_FACTOR * peak


def indeterminacy_ratios(m, upto: int) -> IndeterminacyRatios:
    """Compute the two determinant-ratio sequences used as an indeterminacy
    diagnostic, with a qualitative bounded-away-from-zero flag.

    The flag is heuristic and depth-limited by construction; it reports
    whether the final ratio is still within COLLAPSE_FACTOR of the largest
    one seen, which separates the lattice-type (ratios tending to positive
    limits) from the Poisson-type (ratios collapsing to 0) behaviour at
    accessible depths. Needs 2*upto + 2 entries.
    """
    window = _depth_input(m, upto)
    s0, s1 = (_ratio_family(window, shift, upto) for shift in (0, 1))
    return IndeterminacyRatios(s0, s1, upto, None in s0 + s1, COLLAPSE_FACTOR,
                               _bounded_away(s0), _bounded_away(s1))


class Mu1ThresholdReport(Record):
    """Critical first-moment values from vanishing shift-1 determinants.

    values[d-1] is the number c such that replacing mu_1 by c makes the
    shift-1 Hankel determinant of size d vanish; the determinant is affine
    in that corner entry, so the root is exact. None marks a degenerate
    depth (zero cofactor). On Stieltjes inputs the sequence is non-
    decreasing and stays below mu_1; mu_1 exceeding its limit is the
    indeterminacy side of the criterion.
    """

    values: tuple
    mu1: Fraction
    non_decreasing: Optional[bool]
    all_below_mu1: Optional[bool]


def mu1_threshold_sequence(m, upto: int) -> Mu1ThresholdReport:
    """The singular first-moment value at each depth d = 1..upto.

    det(shift-1, size d) = C * mu_1 + D with mu_1 only in entry (0,0); C is
    the shift-3 size d-1 minor, so the root is -D/C whenever C is nonzero:
    mu_1 minus the shift-1 ratio r_d of indeterminacy_ratios, None where
    r_d is None. Needs 2*upto + 2 entries.
    """
    window = _depth_input(m, upto)
    a, c, ints = window[2]
    mu1 = Fraction(ints[1], a * c)
    out = tuple(None if r is None else mu1 - r for r in _ratio_family(window, 1, upto))
    non_dec = below = None
    if out and None not in out:
        non_dec = all(x <= y for x, y in zip(out, out[1:]))
        below = all(v < mu1 for v in out)
    return Mu1ThresholdReport(out, mu1, non_dec, below)


class LogConvexityReport(Record):
    """theta_n = mu_n^2 / (mu_{n-1} mu_{n+1}) for n = 1..N-1, with the sup,
    a tail-sup over the last half of the indices (the finite-depth surrogate
    for the limiting critical ratio), and a verdict.

    verdict: "strictly-log-convex" (sup < 1), "log-convex" (sup <= 1) or
    "not-log-convex". On the approximate backend the comparisons allow a
    relative tolerance around 1.
    """

    theta: tuple
    theta_sup: object
    critical_ratio_tail: object
    tail_start: int
    verdict: str


def log_convexity_report(m, tolerance=None) -> LogConvexityReport:
    """Ratio diagnostics; requires all entries positive.

    Works on both backends; exact sequences and plain lists (through
    _sequence_values) get exact Fractions, approximate sequences mpmath
    values computed at their precision_bits, with `tolerance` (a Fraction,
    mpf, string or float; default 2^-40, else finite and >= 0, or
    ValueError) around the theta <= 1 comparisons.
    """
    if tolerance is not None:  # checked without loading mpmath for a rational
        t = tolerance if isinstance(tolerance, (int, Fraction)) else _as_mpf(tolerance)
        if not 0 <= t < float("inf"):
            raise ValueError("tolerance must be finite and >= 0, got %s" % (tolerance,))
    exact = not isinstance(m, MomentSequence) or m.exact
    vals = _sequence_values(m) if exact else m.values
    for n, v in enumerate(vals):
        if v <= 0:
            raise ValueError("entry mu_%d = %s is not positive" % (n, v))
    if len(vals) < 3:
        raise ValueError("need at least three entries for a theta value")
    with nullcontext() if exact else _working_precision(m):
        theta = tuple(vals[n] ** 2 / (vals[n - 1] * vals[n + 1])
                      for n in range(1, len(vals) - 1))
        tol = 0 if exact else _as_mpf(DEFAULT_TOLERANCE if tolerance is None else tolerance)
        lo, hi = 1 - tol, 1 + tol
    sup = max(theta)
    tail_start = len(theta) // 2
    tail = max(theta[tail_start:])
    if all(th < lo for th in theta):
        verdict = "strictly-log-convex"
    elif all(th <= hi for th in theta):
        verdict = "log-convex"
    else:
        verdict = "not-log-convex"
    return LogConvexityReport(theta, sup, tail, tail_start + 1, verdict)


class SplitBoundVerdict(Record):
    """Outcome of the split-product bound check.

    kind: "holds" or "precondition-failed"; a precondition failure carries
    its reason as the witness.
    """

    kind: str
    theta: Fraction
    witness: Optional[tuple] = None

    @property
    def ok(self) -> bool:
        return self.kind == "holds"


def split_bound_check(m, theta) -> SplitBoundVerdict:
    """For a theta-log-convex prefix with mu_0 = 1, the bound
    mu_k mu_{n-k} / mu_n <= theta^{k(n-k)} for all 1 <= k < n <= N.

    Checks theta-log-convexity (theta_j <= theta for every j), reporting a
    precondition failure when it fails; the bound then holds. Proof: with
    a_j = log mu_j, theta_j <= theta says Delta^2 a_j >= -log theta, so
    b_j = a_j + (j^2/2) log theta is convex and b_k + b_{n-k} <= b_0 + b_n,
    that is a_k + a_{n-k} - a_n <= a_0 + k(n-k) log theta: the bound, as
    a_0 = log mu_0 = 0 (a plain list with mu_0 != 1 is refused with
    ValueError). Equality holds entrywise on mu_n = theta^{-n^2/2}.
    """
    if isinstance(m, MomentSequence):
        m.require_exact("split_bound_check")
    vals = _sequence_values(m)
    theta = Fraction(theta)
    rep = log_convexity_report(vals)  # refuses non-positive entries
    if vals[0] != 1:
        raise ValueError("mu_0 must equal 1, got %s" % (vals[0],))
    if any(th > theta for th in rep.theta):
        return SplitBoundVerdict("precondition-failed", theta,
                                 witness=("theta_n exceeds theta",))
    return SplitBoundVerdict("holds", theta)

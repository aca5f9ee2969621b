"""Moment sequences and their convolution algebra.

Three composition laws act on finite moment prefixes (mu_0 = 1, mu_1, ..., mu_N):

* classical binomial convolution (moments of a sum of independent variables),
* the t-indexed combinatorial composition built from cell occupancies, whose
  n-th entry is a polynomial in t of degree at most n ("mb" operations below,
  after the Maxwell-Boltzmann occupancy statistics the coefficients count),
* Boolean convolution, under which Boolean cumulants add.

The t-composition is defined by its occupancy sum (see mb_compose_t), but it
is the law at time t of the Levy process whose time-1 moments are mu, so its
moments are moments_from_cumulants(t * kappa). The coefficient of t^j in
the n-th composed moment is the partial Bell polynomial B_{n,j}(kappa).
The occupancy sum itself lives in the tests as the brute-force reference.

Classical and Boolean cumulants obey one O(N^2) recursion,
m_n = sum_{i=1..n} w(n,i) kappa_i m_{n-i}, with w(n,i) = C(n-1,i-1) for
classical cumulants (P. J. Smith, Amer. Statist. 49, 1995) and 1 for
Boolean ones: _kappas_from_moments inverts it, _moments_from_kappas runs
it forward, and both take the weight.

Exact values are Fractions where a caller reads them: in sequences,
polynomials and reports. The t-powers and the composition sums run on
Python integers: every quantity they compute is isobaric of weight n in
the moments, so one scale c with every c^n mu_n an integer
(_isobaric_scale) keeps the cumulants, the partial Bell rows (_bell_rows)
and the t-power coefficients integral. A t-power at one t, classical or
Boolean, exact or decimal, has one evaluator, _power_at: at t = u/v entry
n is an integer over (c v)^n, a ScaledSequence. The theta-scan's float
t-power of the lattice family q^(n^2) is not built here: semigroup
computes it from q without a big integer, and takes the exact cumulants
of _kappas_from_moments and the exact t-power of _power_at only where
those floats refuse.
Approximate sequences carry mpmath floats with a declared working
precision from MIN_PRECISION_BITS to MAX_PRECISION_BITS
(check_precision_bits), and every operation on them runs at that
precision. Operations that produce symbolic output in t refuse approximate
inputs.

mpmath loads only once a decimal value exists: the name `mpmath` here is
bound through importlib's LazyLoader, which runs mpmath on its first
attribute read, and every layer that may see exact input takes this
binding. _is_mpf reads mpmath's own `_mpf_` attribute, since
isinstance(x, mpmath.mpf) would load mpmath to ask.

A note on positivity: a genuine moment sequence has mu_n > 0 for all n, but
the constructor deliberately does not require it, because the t-composition
of a legal moment sequence can leave the positive cone for fractional t.
Those candidate outputs are exactly the objects the Hankel machinery is there
to interrogate, so they must be representable; a report that needs positive
entries, such as the log-convexity ratios, checks them itself.
"""
from __future__ import annotations

import importlib.util
import sys
from contextlib import nullcontext
from fractions import Fraction
from functools import wraps
from math import comb, gcd
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from .exceptions import BackendError

MIN_PRECISION_BITS = 64
MAX_PRECISION_BITS = 2 ** 16
_U = 2.0 ** -53  # the unit roundoff of float64
_NORMAL = 2.0 ** -1022  # the smallest normal float64


def _lazy_mpmath():
    """The mpmath module, loaded on its first attribute read; an mpmath
    that is already imported is reused as it is."""
    if "mpmath" in sys.modules:
        return sys.modules["mpmath"]
    spec = importlib.util.find_spec("mpmath")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["mpmath"] = module
    spec.loader.exec_module(module)
    return module


mpmath = _lazy_mpmath()


def _is_mpf(x) -> bool:
    """Whether x is an mpmath real, without loading mpmath to ask."""
    return hasattr(x, "_mpf_")


def check_precision_bits(bits) -> int:
    """bits, if it is an integer working precision in range; else ValueError."""
    if not isinstance(bits, int) or not MIN_PRECISION_BITS <= bits <= MAX_PRECISION_BITS:
        raise ValueError(f"precision_bits must be an integer from {MIN_PRECISION_BITS} "
                         f"to {MAX_PRECISION_BITS}, got {bits!r}")
    return bits


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("exact backend requires int, Fraction, or rational string, got %r" % (x,))


def _as_mpf(x) -> mpmath.mpf:
    """x as an mpf at the working precision; mpf() itself refuses Fractions."""
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def _exact(x) -> Fraction:
    """The exact rational value of a number; an mpf is its dyadic value,
    and ValueError when it is nan or infinite."""
    if not _is_mpf(x):
        return Fraction(x)
    if not mpmath.isfinite(x):
        raise ValueError(f"{x} has no exact value")
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def _working_precision(seq):
    """Context in which arithmetic on seq's entries keeps its precision_bits."""
    return nullcontext() if seq.exact else mpmath.workprec(seq.precision_bits)


def _at_own_precision(fn):
    """Run fn at the precision_bits of its first argument, a sequence."""
    @wraps(fn)
    def at_precision(seq, *args, **kwargs):
        with _working_precision(seq):
            return fn(seq, *args, **kwargs)
    return at_precision


class Record:
    """Base of the frozen records every layer reports in.

    A subclass lists its fields as annotations, in order; a class attribute
    of the same name is that field's default, and only trailing fields
    have one. Instances bind the fields by position or by name, then run
    the subclass's __post_init__, which may normalise a field through
    object.__setattr__; after that they refuse assignment and deletion.
    Equality holds between instances of one class with equal field values,
    and the hash and repr follow the same values. These are the semantics
    of a frozen dataclass, with the methods defined once here, so no code
    is generated per class.
    """

    _fields = ()
    _defaults = ()
    _required = 0

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", {}))
        # defaults belong to the trailing fields, as in a dataclass
        cls._defaults = tuple(cls.__dict__[name] for name in cls._fields
                              if name in cls.__dict__)
        cls._required = len(cls._fields) - len(cls._defaults)
        if any(name in cls.__dict__ for name in cls._fields[:cls._required]):
            raise TypeError(f"{cls.__name__}: a field without a default follows "
                            "one with a default")
        # reads the field values in C: a tuple from two fields on, else the value
        cls._field_values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        if kwargs or not self._required <= len(args) <= len(self._fields):
            args = self._bind(args, kwargs)
        elif len(args) < len(self._fields):
            args += self._defaults[len(args) - self._required:]
        for key, value in zip(self._fields, args):
            object.__setattr__(self, key, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """Every field's value, in order, from arguments given by position
        or by name and from the defaults; TypeError for a missing, unknown
        or repeated field."""
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)}")
        rest = []
        for i in range(len(args), len(fields)):
            if fields[i] in kwargs:
                rest.append(kwargs.pop(fields[i]))
            elif i >= cls._required:
                rest.append(cls._defaults[i - cls._required])
            else:
                raise TypeError(f"{name} is missing field {fields[i]!r}")
        for key in kwargs:
            raise TypeError(f"{name} got field {key!r} twice" if key in fields
                            else f"{name} has no field {key!r}")
        return args + tuple(rest)

    def __post_init__(self):
        pass

    def __setattr__(self, key, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {key!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values(self) == self._field_values(other)

    def __hash__(self):
        return hash(self._field_values(self))

    def __repr__(self):
        body = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__qualname__}({body})"


def _to_backend(seq, values) -> tuple:
    """values on the backend seq names: Fractions, or mpfs at its
    precision_bits (an mpf is kept as it is)."""
    if seq.exact:
        return tuple(_as_fraction(v) for v in values)
    with mpmath.workprec(seq.precision_bits):
        return tuple(v if _is_mpf(v) else _as_mpf(v) for v in values)


def _on_backend(seq, field: str = "values") -> tuple:
    """seq's entries in `field` on the backend it names, stored back on seq:
    Fractions with no precision_bits, or mpfs at a checked precision_bits."""
    if not seq.exact:
        check_precision_bits(seq.precision_bits)
    vals = _to_backend(seq, getattr(seq, field))
    if seq.exact and seq.precision_bits is not None:
        raise ValueError("exact sequences carry no precision_bits")
    object.__setattr__(seq, field, vals)
    return vals


class MomentSequence(Record):
    """Finite prefix (mu_0, ..., mu_N) of a moment sequence.

    values[0] must equal 1. `exact` selects the arithmetic backend: Fraction
    entries when True, mpmath floats at `precision_bits` when False.
    """

    values: tuple
    exact: bool = True
    precision_bits: Optional[int] = None

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("empty moment sequence")
        vals = _on_backend(self)
        if vals[0] != 1:
            raise ValueError("mu_0 must equal 1, got %s" % (vals[0],))

    @classmethod
    def from_exact(cls, values: Iterable) -> "MomentSequence":
        return cls(tuple(values), exact=True)

    @classmethod
    def from_approx(cls, values: Iterable, precision_bits: int) -> "MomentSequence":
        return cls(tuple(values), exact=False, precision_bits=precision_bits)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n):
        return self.values[n]

    @property
    def degree(self) -> int:
        """Largest moment index N present."""
        return len(self.values) - 1

    def require_exact(self, what: str) -> None:
        if not self.exact:
            raise BackendError("%s requires the exact backend" % what)


class CumulantSequence(Record):
    """Cumulants (kappa_1, ..., kappa_N) paired with a backend tag.

    The same container holds Boolean cumulants (b_1, ..., b_N), which add
    under Boolean convolution; BooleanCumulantSequence names it for them.
    """

    values: tuple
    exact: bool = True
    precision_bits: Optional[int] = None

    def __post_init__(self):
        _on_backend(self)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        """kappa_i, 1-based as in the usual notation."""
        if i < 1:
            raise IndexError("cumulant indices start at 1")
        return self.values[i - 1]


BooleanCumulantSequence = CumulantSequence


class ScaledSequence(Record):
    """An exact prefix held as integers: entry n is ints[n] / c^n, c > 0.

    The exact form of _power_at's t-power. stieltjes_verdict reads its
    signs and minors from the integers as they are; `values`, the entries
    as reduced Fractions, is built on demand for every other reader.
    """

    c: int
    ints: tuple

    @property
    def values(self) -> tuple:
        vals, scale = [], 1
        for x in self.ints:
            vals.append(Fraction(x, scale))
            scale *= self.c
        return tuple(vals)


class TPolynomial(Record):
    """Polynomial in the semigroup parameter t with exact rational coefficients.

    coeffs[i] multiplies t**i; trailing zeros are normalized away so equality
    is structural.
    """

    coeffs: tuple

    def __post_init__(self):
        cs = [_as_fraction(c) for c in self.coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs) or (Fraction(0),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t) -> Fraction:
        t = _as_fraction(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


def _checked_upto(upto: Optional[int], degree: int) -> int:
    """upto, or degree when it is None; ValueError when upto is negative,
    which would slice entries off the end of a prefix, or exceeds degree."""
    if upto is None:
        return degree
    if upto < 0:
        raise ValueError("upto must be >= 0, got %d" % upto)
    if upto > degree:
        raise ValueError("upto=%d exceeds an input length" % upto)
    return upto


def _pair_upto(a: MomentSequence, b: MomentSequence, upto: Optional[int], what: str) -> int:
    """upto, or the shorter degree when it is None, for a convolution of a
    and b, through _checked_upto; BackendError when they mix backends."""
    if a.exact != b.exact:
        raise BackendError("%s refuses to mix exact and approximate sequences" % what)
    return _checked_upto(upto, min(a.degree, b.degree))


def _result_like(a: MomentSequence, values) -> MomentSequence:
    return MomentSequence(tuple(values), exact=a.exact, precision_bits=a.precision_bits)


def _prefix(m: MomentSequence, upto: Optional[int]) -> MomentSequence:
    """(mu_0, ..., mu_upto) through _checked_upto; the whole of m when
    upto is None."""
    if upto is None:
        return m
    return _result_like(m, m.values[:_checked_upto(upto, m.degree) + 1])


@_at_own_precision
def classical_convolve(a: MomentSequence, b: MomentSequence, upto: Optional[int] = None) -> MomentSequence:
    """Moments of X + Y for independent X, Y: sum_j C(n,j) a_j b_{n-j}."""
    upto = _pair_upto(a, b, upto, "classical_convolve")
    return _result_like(a, [sum(comb(n, j) * a[j] * b[n - j] for j in range(n + 1))
                            for n in range(upto + 1)])


def _iroot(x: int, n: int) -> int:
    """floor(x ** (1/n)) for integers x >= 1, n >= 1, by Newton steps from above."""
    y = 1 << -(-x.bit_length() // n)
    while True:
        z = ((n - 1) * y + x // y ** (n - 1)) // n
        if z >= y:
            return y
        y = z


def _isobaric_scale(vals: Sequence) -> int:
    """A positive integer c such that c^n * vals[n] is an integer for n >= 1,
    read from the denominators of the ints or Fractions vals.

    Built without factoring: for each n, the part of the denominator d_n
    that c^n does not yet clear, need = d_n / gcd(d_n, c^n), multiplies c
    by its integer n-th root when it is a perfect n-th power and by itself
    otherwise. c need not be the least such integer; a larger one costs
    speed, never exactness. A quantity isobaric of weight n in the vals
    (a cumulant, a partial Bell polynomial, a t-power coefficient, or a
    Hankel entry of index n) is then c^(-n) times an integer polynomial in
    the integers c^k * vals[k].
    """
    c = 1
    for n in range(1, len(vals)):
        d = vals[n].denominator
        need = d // gcd(d, c ** n)
        if need > 1:
            root = _iroot(need, n)
            c *= root if root ** n == need else need
    return c


def _isobaric_ints(vals: Sequence) -> tuple:
    """(a, c, ints) with ints[n] = a * c^n * vals[n] an integer for every n,
    where a is the denominator of vals[0] and c = _isobaric_scale(vals);
    a = 1 for a moment prefix, whose vals[0] is 1."""
    c = _isobaric_scale(vals)
    a = power = vals[0].denominator
    ints = []
    for v in vals:
        ints.append(v.numerator * (power // v.denominator))
        power *= c
    return a, c, ints


def _bell_rows(xs: Sequence) -> list:
    """Partial Bell polynomials B[n][j] = B_{n,j}(x_1, ..., x_{n-j+1}) for
    0 <= j <= n <= N, from xs = (x_1, ..., x_N), by the recursion
    B[n][j] = sum_i C(n-1, i-1) x_i B[n-i][j-1] in O(N^3) ring operations.

    On integers it stays on integers. sum_j t^j B[n][j] on the cumulants is
    the n-th moment of the t-th power, and j! B[n][j] on the moments is the
    composition sum S_j(n).
    """
    rows = [[1]]
    for n in range(1, len(xs) + 1):
        row = [0] * (n + 1)
        for i in range(1, n + 1):
            w = comb(n - 1, i - 1) * xs[i - 1]
            if w:
                prev = rows[n - i]
                for j in range(1, n - i + 2):
                    row[j] += w * prev[j - 1]
        rows.append(row)
    return rows


def _t_power_rows(vals: Sequence) -> tuple:
    """(c, rows) with sum_j rows[n][j] t^j / c^n the n-th moment of the
    t-th composition power of vals = (1, mu_1, ..., mu_N), for n = 0..N:
    the partial Bell rows of the integer cumulants of the scaled moments."""
    c, kappas = _power_base(vals)
    return c, _bell_rows(kappas)


def _power_base(vals: Sequence, boolean: bool = False) -> tuple:
    """(c, kappas), what _power_at takes, for vals = (1, mu_1, ..., mu_N):
    the cumulants, or the Boolean ones, of vals times c^n. Exact vals take
    c from _isobaric_ints, so the kappas are integers; mpfs take c = 1."""
    if _is_mpf(vals[0]):
        return 1, _kappas_from_moments(vals, boolean)
    _, c, ints = _isobaric_ints(vals)
    return c, _kappas_from_moments(ints, boolean)


def _power_at(power: tuple, t, boolean: bool = False) -> tuple:
    """(s, xs): entry n of the t-th power, classical or Boolean, is
    xs[n] / s^n, for power = (c, kappas) with kappas[n-1] = c^n kappa_n.

    The power has cumulants t kappa_n, so at t = u/v, kappa_i times
    u v^(i-1) runs the forward recursion to entry n times (c v)^n: an
    integer for integer kappas, and s = c v. On mpfs, t is an mpf and
    c = v = 1.
    """
    c, kappas = power
    u, v = (t, 1) if _is_mpf(t) else (t.numerator, t.denominator)
    scaled, w = [], u
    for k in kappas:
        scaled.append(w * k)
        w *= v
    return c * v, _moments_from_kappas(scaled, boolean)


def _float_heads(ints: Sequence) -> tuple:
    """(heads, exps): each integer x as heads[k] * 2^exps[k], the float of
    its top 64 bits, within a relative 2u of x (u = 2^-53): the cut is off
    by less than 2^-63 of x, the rounding to float by u."""
    heads, exps = [], []
    for x in ints:
        cut = x.bit_length() - 64
        heads.append(float(x >> cut) if cut > 0 else float(x))
        exps.append(max(cut, 0))
    return heads, exps


def _power_sequence(seq, power: tuple, t, boolean: bool = False) -> MomentSequence:
    """The t-th power of _power_at as a MomentSequence on seq's backend."""
    if seq.exact:
        return MomentSequence(ScaledSequence(*_power_at(power, _as_fraction(t), boolean)).values)
    return _result_like(seq, _power_at(power, _as_mpf(t), boolean)[1])


def _composition_sum(m, n: int) -> tuple:
    """(c, row) with S_j(n) = j! row[j] / c^n for j = 1..n, where S_j(n) is
    the sum over compositions (n_1..n_j) of n of multinomial * prod
    mu_{n_i}; row[0] is 0 for n >= 1.

    m is a MomentSequence or a plain list with m[0] = 1. Each composition
    orders the blocks of a set partition, so S_j(n) = j! B_{n,j}(mu), and
    row is row n of the partial Bell table (_bell_rows) on the integers
    c^k mu_k of _isobaric_ints: no Fraction is built.
    """
    _, c, ints = _isobaric_ints([m[k] for k in range(n + 1)])
    return c, _bell_rows(ints[1:])[n]


def mb_compose_integer(m: MomentSequence, k: int, upto: Optional[int] = None) -> MomentSequence:
    """k-th composition power: the occupancy sum sum_j C(k,j) S_j(n) at t = k.

    Agrees with the k-fold classical self-convolution, which the tests
    verify. It is mb_compose_at at t = k, so decimal input is served at its
    own precision. k = 0 gives the convolution identity (1, 0, 0, ...).
    """
    if k < 0:
        raise ValueError("mb_compose_integer needs k >= 0")
    return mb_compose_at(m, k, upto)


def mb_compose_t(m: MomentSequence, upto: Optional[int] = None) -> list:
    """The n-th composed moment as an exact polynomial in t, for n = 0..upto.

    By definition entry n is the occupancy sum sum_{j=1}^{n} C(t, j) S_j(n)
    (S_j as in _composition_sum) with C(t, j) expanded in powers of t, so
    the degree is at most n. Evaluating at a positive integer k reproduces
    mb_compose_integer(m, k); fractional t gives the candidate moment
    sequence of the t-th convolution power, which need not be a moment
    sequence at all.

    The sum is a polynomial identity away from the moments at time t of the
    Levy process whose time-1 cumulants kappa are those of m, so the
    coefficient of t^j in entry n is the partial Bell polynomial
    B_{n,j}(kappa). It is computed on the integer cumulants of the
    isobarically scaled moments, O(N^3) integer operations in place of
    2^(n-1) compositions per entry.

    At t = 1/2 the first entries are (1/2)mu_2 - (1/4)mu_1^2 and
    (1/2)mu_3 - (3/4)mu_2 mu_1 + (3/8)mu_1^3. At t = 1/3 the third entry
    evaluates to (1/3)mu_3 - (2/3)mu_2 mu_1 + (10/27)mu_1^3; the
    coefficients t, 3t(t-1), t(t-1)(t-2) follow from the defining sum and
    are easy to re-derive by hand.
    """
    m.require_exact("mb_compose_t")
    c, rows = _t_power_rows(m.values[:_checked_upto(upto, m.degree) + 1])
    polys, scale = [], 1
    for row in rows:
        polys.append(TPolynomial([Fraction(b, scale) for b in row]))
        scale *= c
    return polys


@_at_own_precision
def mb_compose_at(m: MomentSequence, t, upto: Optional[int] = None) -> MomentSequence:
    """The t-composition at a single t: _power_at on the cumulants of m,
    exact at a rational t and at m's precision on decimal input."""
    m = _prefix(m, upto)
    return _power_sequence(m, _power_base(m.values), t)


def _kappas_from_moments(ms: Sequence, boolean: bool = False) -> list:
    """kappa_1..kappa_N from ms = (1, m_1, ..., m_N), by inverting
    m_n = sum_{i=1..n} w(n,i) kappa_i m_{n-i}, where w(n,i) is C(n-1,i-1),
    or 1 for Boolean cumulants; the inverse of _moments_from_kappas. Runs
    on Fractions, mpfs or integers: on the integers c^n m_n it gives the
    integers c^n kappa_n, since each kappa_n is an integer polynomial in
    the m_k of weight n.
    """
    kappas = []
    for n in range(1, len(ms)):
        acc = ms[n]
        for k in range(n - 1):
            acc = acc - (1 if boolean else comb(n - 1, k)) * kappas[k] * ms[n - 1 - k]
        kappas.append(acc)
    return kappas


@_at_own_precision
def cumulants_from_moments(m: MomentSequence) -> CumulantSequence:
    """Invert m_n = sum_{k=0}^{n-1} C(n-1,k) kappa_{k+1} m_{n-1-k}."""
    return CumulantSequence(tuple(_kappas_from_moments(m.values)), m.exact, m.precision_bits)


def _moments_from_kappas(kappas: Sequence, boolean: bool = False) -> list:
    """mu_0 = 1, mu_n = sum_{i=1..n} w(n,i) kappa_i mu_{n-i}, with w as in
    _kappas_from_moments, on integers, Fractions or mpfs."""
    out = [1]
    for n in range(1, len(kappas) + 1):
        out.append(sum((1 if boolean else comb(n - 1, j)) * kappas[j] * out[n - 1 - j]
                       for j in range(n)))
    return out


@_at_own_precision
def moments_from_cumulants(k: CumulantSequence) -> MomentSequence:
    """Forward direction of the same recursion; exact inverse of the above."""
    return _result_like(k, _moments_from_kappas(k.values))


@_at_own_precision
def levy_moments_at_t(k: CumulantSequence, t) -> MomentSequence:
    """Moments at time t of the process whose cumulants at time 1 are k.

    Cumulants are additive over independent increments, so this is
    moments_from_cumulants(t * k). For the k derived from a moment prefix m
    it is the t-composition of m (the occupancy sum of mb_compose_t) at t,
    entry by entry, for every rational t. It runs _power_at, as
    mb_compose_at does, on exact k scaled to integers by _isobaric_ints.
    """
    if k.exact:
        _, c, ints = _isobaric_ints((1, *k.values))
        return _power_sequence(k, (c, ints[1:]), t)
    return _power_sequence(k, (1, k.values), t)


@_at_own_precision
def boolean_cumulants_from_moments(m: MomentSequence) -> BooleanCumulantSequence:
    """Invert m_n = sum_{k=1}^{n} b_k m_{n-k} (m_0 = 1): the cumulant
    recursion with weight 1.

    Unrolled: b_1 = m_1, b_2 = m_2 - m_1^2, b_3 = m_3 - 2 m_1 m_2 + m_1^3.
    """
    return BooleanCumulantSequence(tuple(_kappas_from_moments(m.values, boolean=True)),
                                   m.exact, m.precision_bits)


@_at_own_precision
def moments_from_boolean_cumulants(b: BooleanCumulantSequence) -> MomentSequence:
    """Forward direction of the same recursion; exact inverse of the above."""
    return _result_like(b, _moments_from_kappas(b.values, boolean=True))


@_at_own_precision
def boolean_convolve(a: MomentSequence, b: MomentSequence, upto: Optional[int] = None) -> MomentSequence:
    """Boolean convolution: add Boolean cumulants, rebuild moments.

    Coincides with classical convolution up to n = 2; at n = 3 it gives
    m_3 + 2 m_2 n_1 + 2 n_2 m_1 + m_1^2 n_1 + n_1^2 m_1 + n_3 instead of the
    classical m_3 + 3 m_2 n_1 + 3 m_1 n_2 + n_3.
    """
    upto = _pair_upto(a, b, upto, "boolean_convolve")
    ba = _kappas_from_moments(a.values[:upto + 1], boolean=True)
    bb = _kappas_from_moments(b.values[:upto + 1], boolean=True)
    return _result_like(a, _moments_from_kappas([x + y for x, y in zip(ba, bb)], boolean=True))


@_at_own_precision
def boolean_power_t(m: MomentSequence, t, upto: Optional[int] = None) -> MomentSequence:
    """Boolean t-th convolution power: scale Boolean cumulants by t >= 0.

    Exists for every t >= 0 (every law is Boolean infinitely divisible);
    integer t reproduces iterated boolean_convolve, and
    (power_t m)_2 = t m_2 + t(t-1) m_1^2.
    """
    tq = _as_fraction(t) if m.exact else _as_mpf(t)
    if tq < 0:
        raise ValueError("boolean_power_t needs t >= 0")
    m = _prefix(m, upto)
    return _power_sequence(m, _power_base(m.values, boolean=True), tq, boolean=True)

"""Moment containers, t-polynomials, and the convolution compositions."""
from fractions import Fraction
from math import factorial

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf

from momentlab.distributions import DiscretePMF, LognormalSpec, Precision, lognormal_moments
from momentlab.exceptions import BackendError
from momentlab.moment_algebra import (
    BooleanCumulantSequence,
    CumulantSequence,
    MomentSequence,
    Record,
    TPolynomial,
    _composition_sum,
    _is_mpf,
    _isobaric_scale,
    boolean_convolve,
    boolean_cumulants_from_moments,
    boolean_power_t,
    check_precision_bits,
    classical_convolve,
    cumulants_from_moments,
    levy_moments_at_t,
    mb_compose_at,
    mb_compose_integer,
    mb_compose_t,
    moments_from_boolean_cumulants,
    moments_from_cumulants,
)

import brute_force
from conftest import random_moment_prefix

F = Fraction

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
positive_rationals = st.fractions(min_value=F(1, 12), max_value=20,
                                  max_denominator=12)


def seq(*vals):
    return MomentSequence.from_exact([F(v) for v in vals])


def composition_sums(m, n: int) -> tuple:
    """(S_1(n), ..., S_n(n)) as Fractions, read from _composition_sum's
    integers (c, row): S_j(n) = j! row[j] / c^n."""
    c, row = _composition_sum(m, n)
    assert isinstance(c, int) and c >= 1
    assert len(row) == n + 1 and all(isinstance(x, int) for x in row)
    assert row[0] == (n == 0)
    return tuple(F(factorial(j) * row[j], c ** n) for j in range(1, n + 1))


# every entry point that cuts a prefix at upto, as f(m, upto)
UPTO_GATED = {
    "classical_convolve": lambda m, upto: classical_convolve(m, m, upto),
    "boolean_convolve": lambda m, upto: boolean_convolve(m, m, upto),
    "mb_compose_t": mb_compose_t,
    "mb_compose_at": lambda m, upto: mb_compose_at(m, F(1, 3), upto),
    "mb_compose_integer": lambda m, upto: mb_compose_integer(m, 2, upto),
    "boolean_power_t": lambda m, upto: boolean_power_t(m, F(1, 3), upto),
}


@pytest.mark.parametrize("name", list(UPTO_GATED))
@pytest.mark.parametrize("upto", [-1, -2, -4])
def test_negative_upto_refused(name, upto):
    """A negative upto is refused, not read as a slice that drops entries
    from the end; upto = 0 still gives the one-entry prefix."""
    m = seq(1, 2, 7, 30, 150)
    with pytest.raises(ValueError, match="upto must be >= 0"):
        UPTO_GATED[name](m, upto)
    out = UPTO_GATED[name](m, 0)
    assert len(out) == 1


class TestMomentSequence:
    def test_mu0_must_be_one(self):
        with pytest.raises(ValueError):
            MomentSequence.from_exact([2, 1])

    def test_exact_coercion(self):
        m = seq(1, "3/2", 4)
        assert all(isinstance(v, Fraction) for v in m.values)
        assert m.exact and m.precision_bits is None

    def test_approx_needs_precision(self):
        with pytest.raises(ValueError):
            MomentSequence.from_approx([mpf(1), mpf(2)], 32)

    def test_precision_bits_range(self):
        def containers(bits):
            yield lambda: MomentSequence.from_approx([1, 2], bits)
            yield lambda: DiscretePMF((mpf("0.5"), mpf("0.25")), exact=False,
                                      precision_bits=bits)
            yield lambda: Precision(bits)

        for bits in (64, 128, 2 ** 16):
            assert check_precision_bits(bits) == bits
            for build in containers(bits):
                build()
        for bits in (63, 2 ** 16 + 1, 10 ** 8, None, "128", 128.0):
            with pytest.raises(ValueError, match="precision_bits"):
                check_precision_bits(bits)
            for build in containers(bits):
                with pytest.raises(ValueError, match="precision_bits"):
                    build()

    def test_is_mpf(self):
        assert _is_mpf(mpf(1)) and _is_mpf(mpmath.pi)
        assert not any(_is_mpf(x) for x in (1, 1.0, F(1, 3), "1", mpmath.mpc(1),
                                            mpmath.iv.mpf(1)))

    def test_approx_accepts_fractions(self):
        m = MomentSequence.from_approx([1, F(1, 3), "0.25"], 128)
        with mpmath.workprec(256):
            assert abs(m.values[1] - mpf(1) / 3) < mpf(2) ** -129
        assert m.values[2] == mpf("0.25")

    def test_require_exact(self):
        m = MomentSequence.from_approx([mpf(1), mpf(2)], 128)
        with pytest.raises(BackendError):
            m.require_exact("test")


class Pair(Record):
    first: int
    second: str = "b"


class Other(Record):
    first: int
    second: str = "b"


class TestRecord:
    """Record gives every layer's reports frozen-dataclass semantics."""

    def test_binding(self):
        assert (Pair(1, "x").first, Pair(1, "x").second) == (1, "x")
        assert Pair(second="x", first=1) == Pair(1, "x")
        assert Pair(1).second == "b" and Pair(first=1) == Pair(1, "b")
        assert Pair._fields == ("first", "second")

    @pytest.mark.parametrize("args, kwargs, message", [
        ((), {}, "missing field 'first'"),
        ((1,), {"third": 3}, "no field 'third'"),
        ((1,), {"first": 2}, "field 'first' twice"),
        ((1, "x", 3), {}, "takes 2 fields, got 3"),
    ])
    def test_bad_binding(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            Pair(*args, **kwargs)

    def test_defaults_trail(self):
        with pytest.raises(TypeError, match="follows one with a default"):
            class Bad(Record):
                first: int = 0
                second: int

    def test_frozen(self):
        rec = Pair(1)
        for change in (lambda: setattr(rec, "first", 2), lambda: delattr(rec, "second"),
                       lambda: setattr(rec, "new", 0)):
            with pytest.raises(AttributeError, match="Pair is frozen"):
                change()
        assert rec == Pair(1, "b")

    def test_equality_and_hash(self):
        assert Pair(1) == Pair(1) and hash(Pair(1)) == hash(Pair(1))
        assert Pair(1) != Pair(2)
        assert Pair(1) != Other(1) and Other(1) != Pair(1)
        assert len({Pair(1), Pair(1, "b"), Pair(2)}) == 2
        assert seq(1, 2) == MomentSequence((F(1), F(2)))

    def test_repr(self):
        assert repr(Pair(1)) == "Pair(first=1, second='b')"
        assert repr(seq(1, 2)) == ("MomentSequence(values=(Fraction(1, 1), Fraction(2, 1)), "
                                   "exact=True, precision_bits=None)")

    def test_post_init_normalises(self):
        m = MomentSequence.from_exact([1, 2])
        assert m.values == (F(1), F(2)) and all(type(v) is Fraction for v in m.values)
        assert CumulantSequence([1, "1/2"]).values == (F(1), F(1, 2))

    def test_cumulant_backend_checked_like_moments(self):
        # a decimal sequence needs its working precision, and an exact one
        # carries none, for cumulants as for moments
        for cls in (CumulantSequence, MomentSequence):
            for bits in (None, 63, "128"):
                with pytest.raises(ValueError, match="precision_bits must be an integer"):
                    cls((mpf(1), mpf(2)), exact=False, precision_bits=bits)
            with pytest.raises(ValueError, match="exact sequences carry no precision_bits"):
                cls((1, 2), exact=True, precision_bits=128)
        k = CumulantSequence((1, "0.5"), exact=False, precision_bits=128)
        assert k.values == (mpf(1), mpf("0.5"))
        assert moments_from_cumulants(k).values == (1, 1, mpf("1.5"))


class TestTPolynomial:
    def test_eval_matches_expansion(self):
        p = TPolynomial((F(1), F(-3), F(2)))
        for t in (F(0), F(1), F(1, 2), F(-2, 3)):
            assert p(t) == 1 - 3 * t + 2 * t * t

    def test_trailing_zeros_normalized(self):
        assert TPolynomial((F(1), F(0), F(0))).coeffs == (F(1),)
        assert TPolynomial((F(1), F(0))) == TPolynomial((F(1),))

    def test_frozen_and_hashed_by_coefficients(self):
        p, q = TPolynomial((1, "1/2", 0)), TPolynomial([F(1), F(1, 2)])
        assert p == q and hash(p) == hash(q) and p.coeffs == (F(1), F(1, 2))
        assert TPolynomial(()).coeffs == (F(0),) and TPolynomial(()).degree == 0
        with pytest.raises(AttributeError):
            p.coeffs = (F(2),)


class TestClassicalConvolve:
    def test_binomial_formula_small(self):
        a = seq(1, 1, 2)
        b = seq(1, 3, 10)
        c = classical_convolve(a, b, 2)
        assert c.values == (F(1), F(4), F(18))

    def test_mixed_backends_refused(self):
        a = seq(1, 1)
        b = MomentSequence.from_approx([mpf(1), mpf(1)], 128)
        with pytest.raises(BackendError):
            classical_convolve(a, b, 1)


class TestMaxwellBoltzmannComposition:
    def test_half_formulas(self, rng):
        """At t = 1/2 the second and third composed moments are
        mu2/2 - mu1^2/4 and mu3/2 - 3 mu2 mu1/4 + 3 mu1^3/8."""
        for _ in range(10):
            m = MomentSequence.from_exact(random_moment_prefix(rng, 3))
            got = mb_compose_at(m, F(1, 2), 3)
            mu1, mu2, mu3 = m[1], m[2], m[3]
            assert got[1] == mu1 / 2
            assert got[2] == mu2 / 2 - mu1 ** 2 / 4
            assert got[3] == mu3 / 2 - F(3, 4) * mu2 * mu1 + F(3, 8) * mu1 ** 3

    def test_third_moment_at_one_third(self, rng):
        """The derived t = 1/3 third moment: mu3/3 - 2 mu2 mu1/3
        + 10 mu1^3/27 (the multinomial expansion fixes these weights)."""
        for _ in range(10):
            m = MomentSequence.from_exact(random_moment_prefix(rng, 3))
            got = mb_compose_at(m, F(1, 3), 3)
            mu1, mu2, mu3 = m[1], m[2], m[3]
            assert got[3] == (mu3 / 3 - F(2, 3) * mu2 * mu1
                             + F(10, 27) * mu1 ** 3)

    def test_integer_two_is_self_convolution(self, rng):
        for _ in range(5):
            m = MomentSequence.from_exact(random_moment_prefix(rng, 5))
            assert (mb_compose_integer(m, 2, 5).values
                    == classical_convolve(m, m, 5).values)

    def test_integer_matches_polynomial(self, rng):
        m = MomentSequence.from_exact(random_moment_prefix(rng, 4))
        for k in range(5):
            assert mb_compose_integer(m, k, 4).values == mb_compose_at(m, k, 4).values

    def test_t_one_is_identity(self, rng):
        m = MomentSequence.from_exact(random_moment_prefix(rng, 5))
        assert mb_compose_at(m, 1, 5).values == m.values

    def test_degree_bound(self, rng):
        m = MomentSequence.from_exact(random_moment_prefix(rng, 6))
        for n, p in enumerate(mb_compose_t(m, 6)):
            assert len(p.coeffs) <= n + 1

    def test_exact_backend_required(self):
        m = MomentSequence.from_approx([mpf(1), mpf(2), mpf(5)], 128)
        with pytest.raises(BackendError):
            mb_compose_t(m, 2)

    def test_matches_occupancy_sum(self, rng):
        """Every entry point against the defining sum over compositions,
        sum_j C(t,j) sum_compositions multinomial * prod mu, for n <= 9."""
        for _ in range(3):
            vals = random_moment_prefix(rng, 9)
            m = MomentSequence.from_exact(vals)
            polys = mb_compose_t(m)
            t = F(rng.randint(-30, 30), rng.randint(1, 30))
            at_t = mb_compose_at(m, t)
            for n in range(10):
                assert polys[n].coeffs == brute_force.composed_polynomial(vals, n)
                assert at_t[n] == brute_force.composed_moment(vals, t, n)
                assert composition_sums(m, n) == tuple(
                    brute_force.composition_sum(vals, n, j) for j in range(1, n + 1))
            for k in range(4):
                assert mb_compose_integer(m, k).values == tuple(
                    brute_force.composed_moment(vals, k, n) for n in range(10))


signed_entries = st.one_of(
    st.just(F(0)), st.builds(F, st.integers(-10 ** 4, 10 ** 4), st.integers(1, 10 ** 4)))


class TestIntegerKernel:
    """The isobaric scale and the partial-Bell rows behind mb_compose_t,
    mb_compose_at and _composition_sum, against the composition enumeration
    of brute_force on signed entries with arbitrary denominators."""

    def test_composition_sum_is_a_scaled_bell_row(self):
        # mu = (1, 1/2, 1/3): c = 6 clears both, the scaled moments are
        # (1, 3, 12), and row 2 of their Bell table is (0, 12, 3^2), so
        # S_1(2) = 12/36 = mu_2 and S_2(2) = 2! 9/36 = 2 mu_1^2
        assert _composition_sum(seq(1, F(1, 2), F(1, 3)), 2) == (6, [0, 12, 9])
        assert _composition_sum([1, 5, 7], 0) == (1, [1])

    def test_scale_overshoots_on_non_powers(self):
        # d_2 = 8 is no square, so c takes all of it where 4 would do
        assert _isobaric_scale([F(1), F(1), F(1, 8)]) == 8
        # d_3 = 27 is a cube, so c gains only its root
        assert _isobaric_scale([F(1), F(1, 4), F(1, 2), F(1, 27)]) == 12
        assert _isobaric_scale([F(1), F(5), F(-7)]) == 1

    @settings(max_examples=60, deadline=None)
    @given(tail=st.lists(signed_entries, max_size=7),
           t=st.builds(F, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 12)))
    def test_matches_enumeration(self, tail, t):
        vals = [F(1)] + tail
        c = _isobaric_scale(vals)
        assert c >= 1
        assert all((c ** n * v).denominator == 1 for n, v in enumerate(vals))
        m = MomentSequence.from_exact(vals)
        polys = mb_compose_t(m)
        at_t = mb_compose_at(m, t)
        for n in range(len(vals)):
            assert polys[n].coeffs == brute_force.composed_polynomial(vals, n)
            assert at_t[n] == polys[n](t) == brute_force.composed_moment(vals, t, n)
            assert composition_sums(m, n) == tuple(
                brute_force.composition_sum(vals, n, j) for j in range(1, n + 1))


class TestCumulants:
    def test_poisson_cumulants_give_touchard_moments(self):
        # all cumulants equal to 1 produce the Bell numbers
        k = CumulantSequence((F(1),) * 6)
        m = moments_from_cumulants(k)
        assert m.values == (1, 1, 2, 5, 15, 52, 203)

    def test_round_trip_fixed(self, rng):
        for _ in range(10):
            m = MomentSequence.from_exact(random_moment_prefix(rng, 6))
            back = moments_from_cumulants(cumulants_from_moments(m))
            assert back.values == m.values

    @settings(max_examples=40, deadline=None)
    @given(st.lists(rationals, min_size=1, max_size=6))
    def test_round_trip_property(self, kappas):
        k = CumulantSequence(tuple(F(x) for x in kappas))
        assert cumulants_from_moments(moments_from_cumulants(k)).values == k.values

    def test_levy_matches_composition(self, rng):
        """Scaling cumulants by t agrees with the t-composition of the
        moments, the occupancy sum over compositions, entry by entry, for
        rational t."""
        for _ in range(10):
            vals = random_moment_prefix(rng, 6)
            t = F(rng.randint(1, 30), rng.randint(1, 30))
            k = cumulants_from_moments(MomentSequence.from_exact(vals))
            assert levy_moments_at_t(k, t).values == tuple(
                brute_force.composed_moment(vals, t, n) for n in range(7))


class TestLevyDecimal:
    def test_levy_matches_composition_bit_for_bit(self):
        """On decimal cumulants levy_moments_at_t runs the evaluator of
        mb_compose_at on the same prefix, so the entries agree exactly."""
        m = lognormal_moments(LognormalSpec(0, 1), 8, Precision(128))
        k = cumulants_from_moments(m)
        for t in (F(1, 3), F(5, 2), F(2)):
            got, want = levy_moments_at_t(k, t), mb_compose_at(m, t)
            assert not got.exact and got.precision_bits == want.precision_bits == 128
            assert [x._mpf_ for x in got.values] == [x._mpf_ for x in want.values], t


class TestBoolean:
    def test_third_boolean_cumulant_formula(self, rng):
        for _ in range(10):
            m = MomentSequence.from_exact(random_moment_prefix(rng, 3))
            b = boolean_cumulants_from_moments(m)
            m1, m2, m3 = m[1], m[2], m[3]
            assert b[1] == m1
            assert b[2] == m2 - m1 ** 2
            assert b[3] == m3 - 2 * m1 * m2 + m1 ** 3

    def test_matches_interval_partition_sum(self, rng):
        """Both transforms against the sum over interval partitions, n <= 8."""
        for _ in range(5):
            bs = [F(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(8)]
            ms = [brute_force.boolean_moment(bs, n) for n in range(9)]
            assert moments_from_boolean_cumulants(BooleanCumulantSequence(tuple(bs))).values \
                == tuple(ms)
            assert boolean_cumulants_from_moments(MomentSequence.from_exact(ms)).values \
                == tuple(bs)

    def test_round_trip(self, rng):
        for _ in range(10):
            m = MomentSequence.from_exact(random_moment_prefix(rng, 6))
            b = boolean_cumulants_from_moments(m)
            assert moments_from_boolean_cumulants(b).values == m.values

    @settings(max_examples=40, deadline=None)
    @given(st.lists(rationals, min_size=1, max_size=6))
    def test_round_trip_property(self, bs):
        b = BooleanCumulantSequence(tuple(F(x) for x in bs))
        got = boolean_cumulants_from_moments(moments_from_boolean_cumulants(b))
        assert got.values == b.values

    def test_convolve_third_moment(self, rng):
        for _ in range(10):
            a = MomentSequence.from_exact(random_moment_prefix(rng, 3))
            c = MomentSequence.from_exact(random_moment_prefix(rng, 3))
            got = boolean_convolve(a, c, 3)
            m1, m2, m3 = a[1], a[2], a[3]
            n1, n2, n3 = c[1], c[2], c[3]
            assert got[1] == m1 + n1
            assert got[2] == m2 + 2 * m1 * n1 + n2
            assert got[3] == (m3 + 2 * m2 * n1 + 2 * n2 * m1
                             + m1 ** 2 * n1 + n1 ** 2 * m1 + n3)

    def test_power_two_is_self_convolution(self, rng):
        m = MomentSequence.from_exact(random_moment_prefix(rng, 5))
        assert boolean_power_t(m, 2, 5).values == boolean_convolve(m, m, 5).values

    def test_power_semigroup(self, rng):
        for _ in range(5):
            m = MomentSequence.from_exact(random_moment_prefix(rng, 5))
            s = F(rng.randint(0, 20), rng.randint(1, 10))
            t = F(rng.randint(0, 20), rng.randint(1, 10))
            lhs = boolean_convolve(boolean_power_t(m, s, 5),
                                   boolean_power_t(m, t, 5), 5)
            assert lhs.values == boolean_power_t(m, s + t, 5).values

    def test_negative_t_rejected(self, rng):
        m = MomentSequence.from_exact(random_moment_prefix(rng, 3))
        with pytest.raises(ValueError):
            boolean_power_t(m, F(-1, 2), 3)


class TestDecimalPrecision:
    """Operations on a decimal sequence run at its precision_bits, not at
    mpmath's global 53 bits."""

    BITS = 256
    EXACT = (F(1), F(1, 3), F(2, 3), F(10, 7))

    def decimal(self):
        with mpmath.workprec(self.BITS):
            return MomentSequence.from_approx(
                [mpf(v.numerator) / v.denominator for v in self.EXACT], self.BITS)

    def assert_close(self, got, exact):
        assert not got.exact and got.precision_bits == self.BITS
        assert len(got) == len(exact)
        with mpmath.workprec(400):
            for g, e in zip(got.values, exact.values):
                e = mpf(e.numerator) / e.denominator
                assert abs(g - e) <= mpf(2) ** -240 * abs(e)

    def test_compositions_agree_with_exact(self):
        m, exact = self.decimal(), MomentSequence.from_exact(self.EXACT)
        self.assert_close(mb_compose_integer(m, 2), mb_compose_integer(exact, 2))
        self.assert_close(mb_compose_at(m, F(1, 3)), mb_compose_at(exact, F(1, 3)))
        self.assert_close(classical_convolve(m, m), classical_convolve(exact, exact))
        self.assert_close(boolean_convolve(m, m), boolean_convolve(exact, exact))
        self.assert_close(boolean_power_t(m, F(1, 3)), boolean_power_t(exact, F(1, 3)))
        self.assert_close(moments_from_cumulants(cumulants_from_moments(m)), exact)
        self.assert_close(
            moments_from_boolean_cumulants(boolean_cumulants_from_moments(m)), exact)

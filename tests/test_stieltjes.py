"""Hankel determinants, Stieltjes verdicts, and the ratio diagnostics."""
import random
from fractions import Fraction
from math import isqrt, lcm

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf

from momentlab.distributions import (LognormalSpec, Precision, lognormal_moments,
                                     poisson_moments)
from momentlab.exceptions import BackendError
from momentlab.moment_algebra import (_U, MomentSequence, ScaledSequence, _exact,
                                      _float_heads, mb_compose_t)
from momentlab import semigroup, stieltjes
from momentlab.semigroup import theta_threshold_scan
from momentlab.stieltjes import (
    HankelQuery,
    PositivityVerdict,
    _certified_positive,
    _hankel_minors,
    _integer_scale,
    _leading_minors,
    _scaled_hankel,
    _sequence_values,
    fekete_total_positivity,
    hankel_matrix,
    indeterminacy_ratios,
    log_convexity_report,
    mu1_threshold_sequence,
    split_bound_check,
    stieltjes_verdict,
)

import brute_force

F = Fraction


def det_cofactor(rows):
    """Textbook cofactor expansion, the independent oracle."""
    n = len(rows)
    if n == 0:
        return F(1)
    if n == 1:
        return F(rows[0][0])
    total = F(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * F(rows[0][j]) * det_cofactor(minor)
    return total


def hankel_det(m, q: HankelQuery) -> Fraction:
    """The Hankel determinant at q: the last minor of the library's kernel,
    _hankel_minors, on the entries of an exact sequence that q reads."""
    vals = _sequence_values(m)[:q.max_index + 1]
    *_, (num, den) = _hankel_minors(_integer_scale(vals), q.shift, q.size)
    return F(num, den)


def lattice(q, upto):
    q = F(q)
    return MomentSequence.from_exact([q ** (n * n) for n in range(upto + 1)])


class TestHankelDeterminant:
    def test_matches_cofactor_oracle_random(self):
        rnd = random.Random(7)
        for _ in range(40):
            size = rnd.randint(1, 5)
            seq = [F(rnd.randint(-6, 12), rnd.randint(1, 5))
                   for _ in range(2 * size + 1)]
            seq[0] = F(1)
            m = MomentSequence.from_exact(seq)
            for shift in (0, 1):
                q = HankelQuery(shift, size)
                if q.max_index >= len(seq):
                    continue
                rows = hankel_matrix(seq, q)
                assert hankel_det(m, q) == det_cofactor(rows)

    def test_bell_hankel_superfactorials(self):
        # Hankel determinants of the Bell numbers are products 0! 1! ... n!
        # (a size-k query addresses the (k+1) x (k+1) matrix)
        bell = MomentSequence.from_exact([1, 1, 2, 5, 15, 52, 203, 877, 4140])
        assert hankel_det(bell, HankelQuery(0, 0)) == 1
        assert hankel_det(bell, HankelQuery(0, 1)) == 1
        assert hankel_det(bell, HankelQuery(0, 2)) == 2
        assert hankel_det(bell, HankelQuery(0, 3)) == 12

    def test_zero_pivot_handled(self):
        # leading entry zero forces the row-swap path
        seq = [F(1), F(0), F(1), F(0), F(2)]
        m = MomentSequence.from_exact(seq)
        for q in (HankelQuery(0, 1), HankelQuery(0, 2), HankelQuery(1, 1)):
            assert hankel_det(m, q) == det_cofactor(hankel_matrix(seq, q))

    def test_size_zero_is_one(self):
        assert hankel_det(lattice(2, 2), HankelQuery(0, 0)) == 1


# each Hankel report as report(m, n), n its depth or Fekete size
HANKEL_REPORTS = {
    "stieltjes": stieltjes_verdict,
    "fekete": lambda m, n: fekete_total_positivity(m, HankelQuery(1, n)),
    "indeterminacy": indeterminacy_ratios,
    "mu1": mu1_threshold_sequence,
}


def decimal_prefix(length, bits=128):
    return MomentSequence.from_approx([mpf(2) ** (n * n) for n in range(length)], bits)


def mpf_list(length):
    return list(decimal_prefix(length).values)


def scaled_prefix(length):
    return ScaledSequence(3, tuple(2 ** (n * n) * 3 ** n for n in range(length)))


class TestHankelInputGate:
    """What every Hankel report reads and refuses, and in which order: a
    negative depth, then the backend, then the window."""

    @pytest.mark.parametrize("report", HANKEL_REPORTS.values(), ids=HANKEL_REPORTS)
    def test_decimal_needs_no_tolerance(self, report):
        # 2^(n^2) is stored without rounding error, so at 64 bits as at 128
        # the decimal prefix gets the exact input's report
        for bits in (64, 128):
            assert report(decimal_prefix(8, bits), 3) == report(lattice(2, 7), 3)

    @pytest.mark.parametrize("report", HANKEL_REPORTS.values(), ids=HANKEL_REPORTS)
    def test_plain_mpf_list_is_refused(self, report):
        # a plain list of mpfs has no precision_bits to judge its minors at
        for length in (8, 3):  # a short list is still a backend error
            with pytest.raises(BackendError):
                report(mpf_list(length), 3)

    @pytest.mark.parametrize("report", HANKEL_REPORTS.values(), ids=HANKEL_REPORTS)
    @pytest.mark.parametrize("make", [lambda n: lattice(2, n - 1), scaled_prefix, decimal_prefix],
                             ids=["exact", "scaled", "decimal"])
    def test_short_window_message(self, report, make):
        fekete = report is HANKEL_REPORTS["fekete"]
        want = ("query (shift=1, size=4) needs index 9 but sequence ends at 8" if fekete
                else "depth 4 needs 10 entries, got 9")
        with pytest.raises(ValueError) as exc:
            report(make(9), 4)
        assert str(exc.value) == want
        report(make(10), 4)  # one more entry is enough

    @pytest.mark.parametrize("report", HANKEL_REPORTS.values(), ids=HANKEL_REPORTS)
    @pytest.mark.parametrize("make", [lambda n: lattice(2, n - 1), scaled_prefix, decimal_prefix,
                                      mpf_list], ids=["exact", "scaled", "decimal", "mpf-list"])
    def test_negative_depth_before_backend(self, report, make):
        want = ("shift and size must be non-negative" if report is HANKEL_REPORTS["fekete"]
                else "upto must be >= 0")
        with pytest.raises(ValueError) as exc:
            report(make(8), -1)  # the mpf list is refused later
        assert str(exc.value) == want

    def test_ratios_scale_their_entries_once(self, monkeypatch):
        calls = []

        def counting(vals):
            calls.append(len(vals))
            return _integer_scale(vals)

        monkeypatch.setattr(stieltjes, "_integer_scale", counting)
        want = brute_force.indeterminacy_ratios_per_size(lattice(2, 9), 4)
        assert indeterminacy_ratios(lattice(2, 9), 4) == want
        assert calls == [10]


class TestStieltjesVerdict:
    def test_lattice_strictly_positive(self):
        v = stieltjes_verdict(lattice(2, 9), 4)
        assert v.kind == "strictly-positive"
        assert v.depth == 4
        assert v.witness is None

    def test_constant_one_semi_definite(self):
        v = stieltjes_verdict(MomentSequence.from_exact([1] * 8), 3)
        assert v.kind == "semi-definite"
        assert v.witness == HankelQuery(0, 1)
        assert v.witness_value == 0

    def test_negative_entry_witnessed(self):
        v = stieltjes_verdict(MomentSequence.from_exact([1, 2, 4, -1, 20, 30]), 2)
        assert v.kind == "not-stieltjes"
        assert v.witness == HankelQuery(3, 0)
        assert v.witness_value == -1

    def test_negative_minor_witnessed(self):
        # entries positive but the shifted matrix is indefinite
        m = MomentSequence.from_exact([1, 1, 9, 9, 81, 100, 2000, 3000])
        v = stieltjes_verdict(m, 3)
        assert v.kind == "not-stieltjes"
        assert v.witness is not None
        assert v.witness_value < 0
        # the witness actually evaluates to that determinant
        assert hankel_det(m, v.witness) == v.witness_value

    def test_plain_mpf_list_is_approximate(self):
        # a bare list of mpfs has no precision to certify against either
        with pytest.raises(BackendError):
            stieltjes_verdict([mpf(1), mpf(2), mpf(5), mpf(15)], 1)

    def test_approx_zero_classified(self):
        m = MomentSequence.from_approx([mpf(1)] * 6, 128)
        v = stieltjes_verdict(m, 2)
        assert v.kind == "semi-definite"

    def test_zero_minor_then_negative_minor(self):
        # shift 0: size 1 is [[1,1],[1,1]] = 0 and size 2 is -(mu_3 - 1)^2;
        # shift 1 stays positive, so the later negative minor must win
        m = MomentSequence.from_exact([1, 1, 1, 2, 7, 30, 200, 900])
        v = stieltjes_verdict(m, 3)
        assert (v.kind, v.witness, v.witness_value) == ("not-stieltjes", HankelQuery(0, 2), -1)
        assert v == brute_force.stieltjes_verdict_per_size(m, 3)
        # every report reaches the per-size fallback after that zero pivot
        for q in (HankelQuery(0, 3), HankelQuery(1, 2)):
            assert_reports_match(m, 3, q)
        v = fekete_total_positivity(m, HankelQuery(0, 3))
        assert (v.kind, v.witness, v.witness_value) == ("not-tp", (0, 0, 3), -1)

    def test_short_prefix_rejected(self):
        # a depth-d verdict must have seen index 2d+1; no silent weakening
        with pytest.raises(ValueError):
            stieltjes_verdict(lattice(2, 8), 4)
        with pytest.raises(ValueError):
            indeterminacy_ratios(lattice(2, 8), 4)
        with pytest.raises(ValueError):
            mu1_threshold_sequence(lattice(2, 8), 4)

    def test_negative_depth_rejected(self):
        # an empty report for a negative depth would read as a pass
        for report in (stieltjes_verdict, indeterminacy_ratios, mu1_threshold_sequence):
            with pytest.raises(ValueError, match="upto must be >= 0"):
                report(lattice(2, 8), -1)

    def test_non_finite_mpf_has_no_exact_value(self):
        # nan and inf have mantissa 0 and must not read as the number 0
        assert _exact(mpf("-0.375")) == F(-3, 8) and _exact(mpf(0)) == 0
        for special in ("nan", "inf", "-inf"):
            with pytest.raises(ValueError, match="no exact value"):
                _exact(mpf(special))
            m = MomentSequence.from_approx(["1", special, "3", "4"], 128)
            with pytest.raises(ValueError, match="no exact value"):
                stieltjes_verdict(m, 1)


def mixture_moments(atoms, weights, length):
    total = sum(weights)
    return [sum(w * a ** n for a, w in zip(atoms, weights)) / total for n in range(length)]


small_fractions = st.builds(F, st.integers(0, 40), st.sampled_from([1, 2, 3, 5, 6, 8, 12, 49]))


signed_entries = st.one_of(
    st.just(F(0)), st.builds(F, st.integers(-60, 400), st.sampled_from([1, 2, 3, 7, 12])))


@st.composite
def hankel_inputs(draw):
    """(values, upto, query): an atom mixture (a finite atomic law, so
    zero pivots from the number of atoms on) or 1 followed by signed
    entries with zeros, with one entry bumped, long enough for depth upto
    and for the Fekete query."""
    upto = draw(st.integers(0, 4))
    q = HankelQuery(draw(st.integers(0, 2)), draw(st.integers(0, 3)))
    length = max(2 * upto + 2, q.max_index + 1)
    if draw(st.booleans()):
        atoms = draw(st.lists(small_fractions, min_size=1, max_size=6))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(atoms), max_size=len(atoms)))
        vals = mixture_moments(atoms, weights, length)
    else:
        vals = [F(1)] + draw(st.lists(signed_entries, min_size=length - 1, max_size=length - 1))
    index = draw(st.integers(1, length - 1))
    vals[index] += draw(st.builds(F, st.integers(-3, 3), st.integers(1, 7)))
    return vals, upto, q


def assert_reports_match(m, upto, q):
    """Each Hankel report equals its per-size oracle in brute_force; the
    Fekete verdict on (kind, minors_checked, witness, witness_value)."""
    assert stieltjes_verdict(m, upto) == brute_force.stieltjes_verdict_per_size(m, upto)
    assert indeterminacy_ratios(m, upto) == brute_force.indeterminacy_ratios_per_size(m, upto)
    assert mu1_threshold_sequence(m, upto) == brute_force.mu1_threshold_per_size(m, upto)
    got = fekete_total_positivity(m, q)
    want = brute_force.fekete_per_block(m, q)
    assert ((got.kind, got.minors_checked, got.witness, got.witness_value)
            == (want.kind, want.minors_checked, want.witness, want.witness_value))


class TestOnePassVerdict:
    """Every exact Hankel report, taken from one leading-minor pass per
    shift, against a pivoting Bareiss determinant per size, shift or block
    (brute_force): same kind, witness and values on strictly-positive,
    semi-definite and refuted inputs, exact and decimal at 64 and 128
    bits."""

    @settings(max_examples=120, deadline=None)
    @given(case=hankel_inputs())
    def test_matches_per_size_determinants(self, case):
        vals, upto, q = case
        assert_reports_match(vals, upto, q)
        for bits in (64, 128):
            assert_reports_match(MomentSequence.from_approx(vals, bits), upto, q)

    def test_each_kind_is_reached(self):
        cases = {
            "strictly-positive": mixture_moments([F(1, 3), F(2), F(7, 2), F(5)], [1, 2, 3, 4], 8),
            "semi-definite": mixture_moments([F(1, 3), F(2)], [1, 2], 8),
            "not-stieltjes": [F(1), F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11), F(1, 13),
                              F(1, 17)],
        }
        for kind, vals in cases.items():
            v = stieltjes_verdict(vals, 3)
            assert v.kind == kind
            assert v == brute_force.stieltjes_verdict_per_size(vals, 3)

    def test_plain_list_with_fractional_first_entry(self):
        # a positive multiple of a moment sequence, mu_0 = 2/3 included
        vals = [F(2, 3) * v for v in
                mixture_moments([F(1, 2), F(1), F(3), F(9, 2)], [1, 1, 2, 3], 8)]
        v = stieltjes_verdict(vals, 3)
        assert v.kind == "strictly-positive"
        assert v == brute_force.stieltjes_verdict_per_size(vals, 3)
        vals[5] -= 1
        v = stieltjes_verdict(vals, 3)
        assert v.kind == "not-stieltjes" and v.witness.size > 0
        assert v == brute_force.stieltjes_verdict_per_size(vals, 3)

    def test_negative_entries_and_atomic_laws(self):
        cases = [
            [F(1), F(-2), F(5), F(-3), F(9), F(-1), F(4), F(2)],
            mixture_moments([F(0), F(1), F(3)], [1, 1, 1], 8),
            mixture_moments([F(2)], [1], 8),
            [F(1)] * 8,
            # only the last entry of the depth-3 window is negative
            [F(1), F(2), F(8), F(64), F(1024), F(2 ** 15), F(2 ** 21), F(-5)],
        ]
        for vals in cases:
            for q in (HankelQuery(0, 3), HankelQuery(1, 3), HankelQuery(2, 2)):
                assert_reports_match(vals, 3, q)

    @settings(max_examples=60, deadline=None)
    @given(vals=st.lists(st.builds(F, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4)),
                         min_size=1, max_size=12))
    def test_integer_scale_is_exact(self, vals):
        a, c, ints = _integer_scale(vals)
        assert a >= 1 and c >= 1
        assert ints == [a * c ** n * v for n, v in enumerate(vals)]

    @settings(max_examples=60, deadline=None)
    @given(c=st.integers(1, 40), ints=st.lists(st.integers(-10 ** 4, 10 ** 6),
                                                 min_size=8, max_size=8))
    def test_scaled_sequence_reads_as_its_values(self, c, ints):
        """A ScaledSequence gives every exact report the answer its reduced
        Fractions give, the verdict from its integers as they are."""
        seq = ScaledSequence(c, tuple([1] + ints[1:]))
        vals = [F(x, c ** n) for n, x in enumerate(seq.ints)]
        assert seq.values == tuple(vals)
        assert stieltjes_verdict(seq, 3) == brute_force.stieltjes_verdict_per_size(vals, 3)
        assert stieltjes_verdict(seq, 2) == stieltjes_verdict(vals, 2)
        assert indeterminacy_ratios(seq, 3) == indeterminacy_ratios(vals, 3)
        assert hankel_det(seq, HankelQuery(1, 2)) == hankel_det(vals, HankelQuery(1, 2))

    def test_scan_cells_at_depth_8(self, monkeypatch):
        # theta = 1/q^2 for q = 3/2, 7/2, 8/3, t off the default grid. With
        # the closed form refusing every row and the certificate every
        # matrix, each row hands the verdict its exact cumulants once: entry
        # n is c kappa_(1+n), with kappa_n the coefficient of t in
        # mb_compose_t's polynomial n. A planted refusal of that verdict
        # sends every cell to the exact path: each cell's integers, as the
        # scan hands them over, against the partial Bell rows of
        # mb_compose_t at t, and through n = 9 against the occupancy sum
        # over compositions. The scan's own run decides the same cells.
        handed = []

        def refusing_rows(seq, upto):
            handed.append(seq)
            if seq.ints[0] == 1:  # a cell's t-power; the row's K_1 = c q is above 1
                return stieltjes_verdict(seq, upto)
            assert stieltjes_verdict(seq, upto).ok
            return PositivityVerdict("semi-definite", upto)

        grid = (F(4, 9), F(4, 49), F(9, 64)), (F(1, 7), F(5, 9)), 8
        certified = theta_threshold_scan(*grid)
        monkeypatch.setattr(semigroup, "stieltjes_verdict", refusing_rows)
        monkeypatch.setattr(semigroup, "_closed_form_row", lambda q: False)
        monkeypatch.setattr(stieltjes, "_certified_positive", lambda *args: False)
        res = theta_threshold_scan(*grid)
        assert res == certified and len(handed) == 9
        seqs = iter(handed)
        for theta, row in zip(res.theta_grid, res.pass_matrix):
            q = F(isqrt(theta.denominator), isqrt(theta.numerator))
            vals = [q ** (n * n) for n in range(19)]
            polys = mb_compose_t(MomentSequence.from_exact(vals))
            seq = next(seqs)
            assert isinstance(seq, ScaledSequence)
            assert seq.values == tuple(seq.c * p.coeffs[1] for p in polys[1:])
            for cell in row:
                seq = next(seqs)
                composed = [p(cell.t) for p in polys]
                assert isinstance(seq, ScaledSequence) and seq.values == tuple(composed)
                assert composed[:10] == [brute_force.composed_moment(vals, cell.t, n)
                                         for n in range(10)]
                assert cell.verdict == brute_force.stieltjes_verdict_per_size(composed, 8)


def steepest_factors(stored, q: HankelQuery, sign: int) -> list:
    """Factors f_k in {-1, 0, 1} that move the minor at q against its sign
    fastest to first order when entry k becomes s_k (1 + rel f_k): the
    derivative of det in a_k is the sum of the cofactors on anti-diagonal
    k - q.shift, so f_k = -sign * sign(s_k * that sum)."""
    rows = hankel_matrix(stored, q)
    grad = [F(0)] * len(stored)
    for i in range(len(rows)):
        for j in range(len(rows)):
            minor = [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]
            cofactor = brute_force.rational_det(minor) if minor else 1
            grad[q.shift + i + j] += (-1) ** (i + j) * cofactor
    return [F(-sign * ((s * g > 0) - (s * g < 0))) for s, g in zip(stored, grad)]


class TestDecimalCutoff:
    """The zero cutoff of a decimal minor of n rows, 2n rel / (1 - rel)
    times its Hadamard bound with rel = 2^(1 - precision_bits), is sound:
    a sign it calls nonzero is the sign of every matrix within rel of the
    stored entries. So a singular law is semi-definite at every precision,
    never strictly-positive or refuted, and integers stored as decimals
    without rounding error keep their exact verdict."""

    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_two_atom_mixture_is_semi_definite(self, bits):
        vals = mixture_moments([F(1, 3), F(2)], [1, 2], 10)
        m = MomentSequence.from_approx(vals, bits)
        assert stieltjes_verdict(m, 4).kind == "semi-definite"
        for q in (HankelQuery(0, 4), HankelQuery(1, 3)):
            assert fekete_total_positivity(m, q).kind == "semi-definite"
        # from three rows on, every Hankel matrix of two atoms is singular:
        # the ratios whose denominator has three or four rows are None
        rep, exact = indeterminacy_ratios(m, 4), indeterminacy_ratios(vals, 4)
        for family in (rep.shift0, rep.shift1, exact.shift0, exact.shift1):
            assert [r is None for r in family] == [False, False, True, True]
        assert rep.degenerate
        assert [v is None for v in mu1_threshold_sequence(m, 4).values] == [
            False, False, True, True]

    def test_exact_integers_stored_as_decimals(self):
        # 2^(n^2), n < 8, carry no rounding error at 128 bits; the fixed
        # cutoff 2^-40 times the Hadamard bound called the shift-1 size-3
        # minor (about 7.1e24) zero, a semi-definite verdict
        v = stieltjes_verdict(decimal_prefix(8), 3)
        assert v.kind == "strictly-positive"
        assert v == stieltjes_verdict(lattice(2, 7), 3)

    @settings(max_examples=80, deadline=None)
    @given(case=hankel_inputs(), bits=st.sampled_from([64, 128]), data=st.data())
    def test_nonzero_sign_survives_every_perturbation_within_rel(self, case, bits, data):
        """Every entry s_k moved to s_k (1 + rel f_k), |f_k| <= 1, in exact
        Fractions: drawn factors, and the first-order steepest descent of
        |det| for each minor. No minor that _sign called nonzero changes
        sign."""
        vals = case[0]
        stored, rel, scaled = stieltjes._hankel_input(
            MomentSequence.from_approx(vals, bits), len(vals), str)
        assert rel == F(2, 2 ** bits)
        factor = st.one_of(st.sampled_from([F(-1), F(1)]), st.fractions(-1, 1, max_denominator=64))
        drawn = data.draw(st.lists(factor, min_size=len(stored), max_size=len(stored)))
        for shift in range(len(stored)):
            for size, (num, den) in enumerate(
                    _hankel_minors(scaled, shift, (len(stored) - 1 - shift) // 2)):
                sign = stieltjes._sign(num, den, rel, stored, shift, size)
                if sign == 0:
                    continue
                q = HankelQuery(shift, size)
                for factors in (drawn, steepest_factors(stored, q, sign)):
                    moved = [s * (1 + rel * f) for s, f in zip(stored, factors)]
                    det = brute_force.rational_det(hankel_matrix(moved, q))
                    assert (det > 0) - (det < 0) == sign, (q, factors)


def exactly_positive_definite(ints, shift, size) -> bool:
    """Every leading minor of [ints[shift+i+j]], sizes 0..size, is > 0, by
    the exact one-pass Bareiss minors (the pass stops at a zero pivot)."""
    minors = list(_leading_minors(hankel_matrix(ints, HankelQuery(shift, size))))
    return len(minors) == size + 1 and all(x > 0 for x in minors)


def certified_ints(ints, shift, size) -> bool:
    """_certified_positive at (shift, size) on integers, as stieltjes_verdict
    hands them over: _scaled_hankel of their float heads, each within a
    relative 2u."""
    built = _scaled_hankel(*_float_heads(ints), 2 * _U, shift, size)
    return built is not None and _certified_positive(*built)


def certified_soundly(ints, shift, size) -> bool:
    """_certified_positive at (shift, size), asserting that a True is right."""
    certified = certified_ints(ints, shift, size)
    if certified:
        assert exactly_positive_definite(ints, shift, size), (ints, shift, size)
    return certified


def scaled_ints(vals) -> list:
    return _integer_scale([F(v) for v in vals])[2]


@st.composite
def integer_prefixes(draw):
    """(ints, size): the integers of an atom mixture, or signed integers of
    up to 60 digits, with one entry moved by -1, 0 or +1."""
    size = draw(st.integers(0, 9))
    length = 2 * size + 2
    if draw(st.booleans()):
        atoms = draw(st.lists(small_fractions, min_size=1, max_size=8))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(atoms), max_size=len(atoms)))
        ints = scaled_ints(mixture_moments(atoms, weights, length))
    else:
        digits = draw(st.integers(1, 60))
        ints = draw(st.lists(st.integers(-3, 10 ** digits), min_size=length, max_size=length))
    ints[draw(st.integers(0, length - 1))] += draw(st.integers(-1, 1))
    return ints, size


class TestCertifiedPositive:
    """A True from the float64 Cholesky certificate means every exact
    leading minor is positive, on drawn prefixes and on families built to
    sit at the edge of positive definiteness: Hilbert-type moments,
    finite-atom laws at and past their atom count (exactly singular),
    +-1 corner perturbations of those, and q^(n^2) with one entry dented
    by a relative 10^-3 ... 10^-30; sizes up to 21. Each family is also
    certified somewhere, so the check is not vacuous."""

    @settings(max_examples=200, deadline=None)
    @given(case=integer_prefixes())
    def test_drawn_prefixes(self, case):
        ints, size = case
        for shift in (0, 1):
            certified_soundly(ints, shift, size)

    def test_hilbert_moments(self):
        # mu_n = L / (n + 1): the Hilbert matrix, positive definite and
        # ill-conditioned; the certificate gives up as the size grows
        certified = []
        for size in range(22):
            common = lcm(*range(1, 2 * size + 3))
            ints = [common // (n + 1) for n in range(2 * size + 2)]
            for shift in (0, 1):
                assert exactly_positive_definite(ints, shift, size)
                certified.append(certified_soundly(ints, shift, size))
        assert all(certified[:10]) and not certified[-1]

    def test_finite_atoms_and_corner_perturbations(self):
        rnd = random.Random(20)
        certified = 0
        for atoms in range(1, 9):
            xs = [F(rnd.randint(1, 60), rnd.randint(1, 12)) for _ in range(atoms)]
            ws = [rnd.randint(1, 20) for _ in range(atoms)]
            for size in range(max(atoms - 2, 0), atoms + 3):
                ints = scaled_ints(mixture_moments(xs, ws, 2 * size + 2))
                for shift in (0, 1):
                    # from size = atoms on the matrix is exactly singular
                    got = certified_soundly(ints, shift, size)
                    assert not (got and size >= atoms)
                    certified += got
                    for index in (shift, shift + 2 * size):
                        for step in (-1, 1):
                            moved = list(ints)
                            moved[index] += step
                            certified += certified_soundly(moved, shift, size)
        assert certified > 0

    def test_dented_lattice(self):
        certified = refused = 0
        for q, sizes in ((F(2), (1, 5, 13, 21)), (F(11, 10), (3, 6, 9)), (F(101, 100), (6, 9))):
            for size in sizes:
                vals = [q ** (n * n) for n in range(2 * size + 2)]
                for index in (0, size, 2 * size + 1):
                    for digits in (3, 10, 20, 30):
                        for sign in (1, -1):
                            dented = list(vals)
                            dented[index] *= 1 - F(sign, 10 ** digits)
                            ints = scaled_ints(dented)
                            for shift in (0, 1):
                                got = certified_soundly(ints, shift, size)
                                certified += got
                                refused += not got
        assert certified > 0 and refused > 0

    def test_refuses_non_positive_diagonal_and_overflow(self):
        assert not certified_ints([0, 1, 1], 0, 1)
        assert not certified_ints([1, 0, -1], 0, 1)
        # an off-diagonal entry far past the diagonal overflows the scaling,
        # and two finite ones overflow inside the factorization
        assert not certified_ints([1, 2 ** 3000, 1], 0, 1)
        assert not certified_ints([1, 2 ** 1023, 1, 2 ** 1023, 1], 0, 2)
        assert not certified_ints([1, 1, 1], 0, 1)  # [[1, 1], [1, 1]] is singular
        assert certified_ints([1, 1, 2], 0, 1)

    def test_cholesky_keeps_its_margin(self):
        # each [[1, a], [a, 1]] accepted at rel = 2^-30 stays positive
        # definite for the worst matrix the bound allows: a diagonal smaller
        # by 1 + rel, and an a larger by 1 / (1 - rel)
        rel = 2.0 ** -30
        accepted = 0
        for k in range(1, 60):
            for a in (1 - 2.0 ** -k, 1 - 3 * 2.0 ** -k):
                if _certified_positive([1.0, 1.0], [a], rel):
                    accepted += 1
                    worst = F(1) / (1 + F(rel)), F(a) / (1 - F(rel))
                    assert worst[0] ** 2 > worst[1] ** 2, k
        assert accepted > 0
        # positive definite up to the margin, singular, or past float range:
        # refused, not raised
        assert not _certified_positive([1.0, 1.0], [1 - 2.0 ** -32], rel)
        assert not _certified_positive([1.0, 1.0], [1.0], 2 * _U)
        assert not _certified_positive([1.0] * 3, [1e308, 1e308, 0.0], 2 * _U)
        assert _certified_positive([], iter(()), 2 * _U)  # no rows


class TestLatticeClosedForm:
    """The Hankel minors of q^(n^2) have a Vandermonde closed form
    (brute_force.lattice_hankel_minor), positive for every q > 1; it checks
    the exact minors up to 12 rows, and the certificate at depths where no
    determinant oracle is fast."""

    @pytest.mark.parametrize("q", [F(2), F(3), F(11, 10)])
    @pytest.mark.parametrize("shift", [0, 1])
    def test_minors_match_vandermonde(self, q, shift):
        vals = lattice(q, 23).values
        minors = _hankel_minors(_integer_scale(list(vals)), shift, 11)
        for size, (num, den) in enumerate(minors):
            assert F(num, den) == brute_force.lattice_hankel_minor(q, shift, size + 1), size

    @pytest.mark.parametrize("q, depth", [(F(2), 100), (F(11, 10), 60)])
    def test_deep_verdict_by_certificate_alone(self, q, depth, monkeypatch):
        def no_minors(*args):
            raise AssertionError("the certificate should decide without exact minors")

        monkeypatch.setattr(stieltjes, "_hankel_minors", no_minors)
        v = stieltjes_verdict(lattice(q, 2 * depth + 1), depth)
        assert v == PositivityVerdict("strictly-positive", depth)


def verdict_without_certificate(m, upto):
    """stieltjes_verdict with the certificate refusing every matrix, so every
    verdict comes from the exact minors."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stieltjes, "_certified_positive", lambda *args: False)
        return stieltjes_verdict(m, upto)


@st.composite
def scaled_sequences(draw):
    """(ScaledSequence, upto): integer atoms over a common c, so entry n is
    an atom mixture's moment, or signed integers; one entry moved."""
    upto = draw(st.integers(0, 5))
    length = 2 * upto + 2
    c = draw(st.integers(1, 30))
    if draw(st.booleans()):
        atoms = draw(st.lists(st.integers(1, 90), min_size=1, max_size=7))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(atoms), max_size=len(atoms)))
        ints = [sum(w * x ** n for x, w in zip(atoms, weights)) for n in range(length)]
    else:
        ints = draw(st.lists(st.integers(-10, 10 ** 8), min_size=length, max_size=length))
    ints[draw(st.integers(0, length - 1))] += draw(st.integers(-2, 2))
    return ScaledSequence(c, tuple(ints)), upto


class TestVerdictWithoutCertificate:
    """The certificate only takes a strictly-positive verdict early: with it
    refusing everything, every verdict, witness and value is the same."""

    @settings(max_examples=150, deadline=None)
    @given(case=hankel_inputs())
    def test_exact_sequences(self, case):
        vals, upto, _ = case
        assert stieltjes_verdict(vals, upto) == verdict_without_certificate(vals, upto)

    @settings(max_examples=150, deadline=None)
    @given(case=scaled_sequences())
    def test_scaled_sequences(self, case):
        seq, upto = case
        assert stieltjes_verdict(seq, upto) == verdict_without_certificate(seq, upto)

    def test_each_kind_is_reached(self):
        positive = ScaledSequence(3, tuple(sum(x ** n for x in (1, 4, 9, 16, 25))
                                           for n in range(8)))
        cases = {
            "strictly-positive": [mixture_moments([F(1, 3), F(2), F(7, 2), F(5)],
                                                  [1, 2, 3, 4], 8), positive],
            "semi-definite": [mixture_moments([F(1, 3), F(2)], [1, 2], 8),
                              ScaledSequence(2, tuple(3 * 5 ** n for n in range(8)))],
            "not-stieltjes": [[F(1), F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11),
                               F(1, 13), F(1, 17)],
                              ScaledSequence(1, (1, 2, 3, 4, 5, 6, 7, 8))],
        }
        for kind, inputs in cases.items():
            for m in inputs:
                v = stieltjes_verdict(m, 3)
                assert v.kind == kind
                assert v == verdict_without_certificate(m, 3)
        # and the strictly-positive ones were taken by the certificate
        ints = positive.ints
        assert all(certified_ints(ints, shift, 3) for shift in (0, 1))


class TestFekete:
    def test_lattice_strictly_tp(self):
        for q in (2, 3):
            v = fekete_total_positivity(lattice(q, 8), HankelQuery(0, 4))
            assert v.kind == "strictly-tp"
            assert v.minors_checked > 0

    def test_log_concave_sequence_refuted(self):
        # 1, 3, 4: the top-left 2x2 minor is 1*4 - 3*3 < 0
        m = MomentSequence.from_exact([1, 3, 4, 5, 6, 7, 8])
        v = fekete_total_positivity(m, HankelQuery(0, 3))
        assert v.kind == "not-tp"
        assert v.witness == (0, 0, 2)
        assert v.witness_value == F(-5)

    def test_witness_minor_recomputes(self):
        seq = [F(x) for x in (1, 2, 3, 9, 10, 11, 300)]
        m = MomentSequence.from_exact(seq)
        v = fekete_total_positivity(m, HankelQuery(0, 3))
        if v.kind == "not-tp":
            r0, c0, order = v.witness
            rows = [[seq[i + j] for j in range(c0, c0 + order)]
                    for i in range(r0, r0 + order)]
            assert det_cofactor(rows) == v.witness_value


class TestIndeterminacyDiagnostics:
    def test_lattice_ratios_exact(self):
        r = indeterminacy_ratios(lattice(2, 10), 4)
        assert r.shift0[:2] == (F(3, 4), F(45, 64))
        assert r.shift0_bounded_away and r.shift1_bounded_away

    def test_poisson_shift1_collapses(self):
        m = poisson_moments(1, 15)
        r = indeterminacy_ratios(m, 7)
        assert r.shift0_bounded_away
        assert not r.shift1_bounded_away

    def test_mu1_threshold_poisson(self):
        m = poisson_moments(1, 12)
        rep = mu1_threshold_sequence(m, 5)
        assert rep.values[0] == F(4, 5)
        assert rep.non_decreasing
        assert rep.all_below_mu1
        # the thresholds creep toward mu_1 = 1 from below
        assert F(99, 100) < rep.values[-1] < 1

    def test_mu1_threshold_lattice_stays_far(self):
        rep = mu1_threshold_sequence(lattice(2, 10), 4)
        assert rep.all_below_mu1
        assert rep.values[-1] < F(2, 3) < 2

    def test_mu1_thresholds_from_the_shift1_ratios(self):
        for m in (poisson_moments(1, 12), lattice(2, 10)):
            ratios = indeterminacy_ratios(m, 4).shift1
            assert mu1_threshold_sequence(m, 4).values == tuple(
                None if r is None else m[1] - r for r in ratios)


class TestLogConvexity:
    def test_lattice_constant_theta(self):
        rep = log_convexity_report(lattice(2, 6))
        assert rep.verdict == "strictly-log-convex"
        assert rep.theta_sup == F(1, 4)
        assert all(th == F(1, 4) for th in rep.theta)

    def test_arithmetic_growth_is_not_log_convex(self):
        rep = log_convexity_report(MomentSequence.from_exact([1, 2, 3, 4, 5]))
        assert rep.verdict == "not-log-convex"
        assert rep.theta_sup > 1

    def test_boundary_flat_sequence(self):
        rep = log_convexity_report(MomentSequence.from_exact([1] * 6))
        assert rep.verdict == "log-convex"
        assert rep.theta_sup == 1

    def test_positive_entries_required(self):
        with pytest.raises(ValueError):
            log_convexity_report(MomentSequence.from_exact([1, 0, 1]))
        with pytest.raises(ValueError):
            log_convexity_report([1, 2, -3])

    def test_plain_int_list_is_exact(self):
        # theta_1 = a^2 / (a^2 - 1) > 1, within 1e-18 of 1: a float
        # quotient rounds it to 1.0 and calls the list log-convex
        a = 10 ** 9 + 1
        rep = log_convexity_report([1, a, a * a - 1])
        assert rep.theta == (F(a * a, a * a - 1),)
        assert rep.verdict == "not-log-convex"
        assert rep == log_convexity_report(MomentSequence.from_exact([1, a, a * a - 1]))

    def test_plain_mpf_list_is_approximate(self):
        for vals in ([mpf(1), mpf(2), mpf(16)], [1, 2, mpf(16)]):
            with pytest.raises(BackendError):
                log_convexity_report(vals)
            with pytest.raises(BackendError):
                split_bound_check(vals, 1)

    @pytest.mark.parametrize("tol", [-1, F(-1, 10 ** 30), "-1e-20", mpf("-1e-20")],
                             ids=["int", "fraction", "str", "mpf"])
    def test_negative_tolerance_refused(self, tol):
        # theta = (4/3, 9/8): a margin of -1 called [1, 2, 3, 4] strictly log-convex
        m = MomentSequence.from_approx([1, 2, 3, 4], 128)
        assert log_convexity_report(m, 0).verdict == "not-log-convex"
        for seq in (m, MomentSequence.from_exact([1, 2, 3, 4])):
            with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
                log_convexity_report(seq, tol)

    @pytest.mark.parametrize("tol", ["nan", float("nan"), mpf("nan")],
                             ids=["str", "float", "mpf"])
    def test_nan_tolerance_refused(self, tol):
        for seq in (MomentSequence.from_approx([1, 2, 3, 4], 128), lattice(2, 3)):
            with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
                log_convexity_report(seq, tol)

    @pytest.mark.parametrize("tol", ["inf", float("inf"), mpf("inf")],
                             ids=["str", "float", "mpf"])
    def test_infinite_tolerance_refused(self, tol):
        # an infinite margin called [1, 2, 3, 4] log-convex
        for seq in (MomentSequence.from_approx([1, 2, 3, 4], 128), lattice(2, 3)):
            with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
                log_convexity_report(seq, tol)

    def test_decimal_theta_at_sequence_precision(self):
        """Lognormal(0, 1) has theta_n = e^-1 for every n; on a 128-bit
        prefix the ratios carry the prefix's precision, and the tolerance
        may be given as a Fraction, an mpf or a string."""
        m = lognormal_moments(LognormalSpec(0, 1), 5, Precision(128))
        for tol in (F(1, 10 ** 20), mpf("1e-20"), "1e-20", None):
            rep = log_convexity_report(m, tol)
            assert rep.verdict == "strictly-log-convex"
            with mpmath.workprec(200):
                assert all(abs(th - mpmath.exp(-1)) < mpf("1e-30") for th in rep.theta)


class TestSplitBound:
    def test_lattice_attains_equality(self):
        v = split_bound_check(lattice(2, 6), F(1, 4))
        assert v.kind == "holds"

    def test_precondition_enforced(self):
        v = split_bound_check(lattice(2, 6), F(1, 100))
        assert v.kind == "precondition-failed"

    def test_looser_theta_still_holds(self):
        v = split_bound_check(lattice(3, 6), F(1, 2))
        assert v.kind == "holds"

    def test_plain_list_matches_sequence(self):
        vals = [F(3, 2) ** (n * n) for n in range(6)]
        for theta in (F(4, 9), F(1, 2), F(1, 3)):
            assert split_bound_check(vals, theta) == split_bound_check(
                MomentSequence.from_exact(vals), theta)
        with pytest.raises(ValueError):
            split_bound_check([1, 2, 0, 5], 1)

    def test_plain_list_needs_mu0_one(self):
        # theta_1 = 2/3, yet mu_1^2 / mu_2 = 4/3 > theta: the proof needs mu_0 = 1
        assert brute_force.split_bound_violation([2, 2, 3], F(2, 3)) == (1, 2, F(4, 3), F(2, 3))
        with pytest.raises(ValueError, match="mu_0"):
            split_bound_check([2, 2, 3], F(2, 3))

    @settings(max_examples=80, deadline=None)
    @given(st.builds(F, st.integers(1, 40), st.integers(1, 9)),
           st.lists(st.integers(0, 40), min_size=7, max_size=7),
           st.one_of(st.none(), st.builds(F, st.integers(1, 40), st.just(20))))
    def test_holds_means_no_pair_fails(self, ratio, growth, theta):
        # mu_{n+1} / mu_n grows by 1 + g/20 at each step, so theta_n is
        # 1 / (1 + g/20); theta None takes the largest theta_n, where the
        # bound is tightest
        vals = [F(1)]
        for g in growth:
            vals.append(vals[-1] * ratio)
            ratio *= 1 + F(g, 20)
        if theta is None:
            theta = max(1 / (1 + F(g, 20)) for g in growth[:-1])
        v = split_bound_check(vals, theta)
        assert v.kind in ("holds", "precondition-failed")
        if v.ok:
            assert brute_force.split_bound_violation(vals, theta) is None

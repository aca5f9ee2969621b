"""Hankel determinants, Stieltjes verdicts, and the ratio diagnostics."""
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf

from momentlab.distributions import (LognormalSpec, Precision, lognormal_moments,
                                     poisson_moments)
from momentlab.exceptions import BackendError
from momentlab.moment_algebra import MomentSequence
from momentlab.stieltjes import (
    DEFAULT_TOLERANCE,
    HankelQuery,
    fekete_total_positivity,
    hankel_det,
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

    def test_exact_only(self):
        m = MomentSequence.from_approx([mpf(1), mpf(2), mpf(5)], 128)
        with pytest.raises(BackendError):
            hankel_det(m, HankelQuery(0, 1))


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

    def test_approx_needs_tolerance(self):
        m = MomentSequence.from_approx([mpf(1), mpf(2), mpf(16), mpf(512)], 128)
        with pytest.raises(BackendError):
            stieltjes_verdict(m, 1)
        assert stieltjes_verdict(m, 1, DEFAULT_TOLERANCE).kind == "strictly-positive"

    def test_approx_zero_classified(self):
        m = MomentSequence.from_approx([mpf(1)] * 6, 128)
        v = stieltjes_verdict(m, 2, F(1, 10 ** 20))
        assert v.kind == "semi-definite"

    def test_zero_minor_then_negative_minor(self):
        # shift 0: size 1 is [[1,1],[1,1]] = 0 and size 2 is -(mu_3 - 1)^2;
        # shift 1 stays positive, so the later negative minor must win
        m = MomentSequence.from_exact([1, 1, 1, 2, 7, 30, 200, 900])
        v = stieltjes_verdict(m, 3)
        assert (v.kind, v.witness, v.witness_value) == ("not-stieltjes", HankelQuery(0, 2), -1)
        assert v == brute_force.stieltjes_verdict_per_size(m, 3)

    def test_short_prefix_rejected(self):
        # a depth-d verdict must have seen index 2d+1; no silent weakening
        with pytest.raises(ValueError):
            stieltjes_verdict(lattice(2, 8), 4)
        with pytest.raises(ValueError):
            indeterminacy_ratios(lattice(2, 8), 4)
        with pytest.raises(ValueError):
            mu1_threshold_sequence(lattice(2, 8), 4)


def mixture_moments(atoms, weights, length):
    total = sum(weights)
    return [sum(w * a ** n for a, w in zip(atoms, weights)) / total for n in range(length)]


small_fractions = st.builds(F, st.integers(0, 40), st.sampled_from([1, 2, 3, 5, 6, 8, 12, 49]))


class TestOnePassVerdict:
    """The one-pass leading minors against a pivoting Bareiss determinant
    per size and shift (brute_force.stieltjes_verdict_per_size): same kind,
    witness and witness_value on strictly-positive, semi-definite and
    not-stieltjes inputs, exact and through the tolerance path."""

    @settings(max_examples=80, deadline=None)
    @given(atoms=st.lists(small_fractions, min_size=1, max_size=6),
           weights=st.lists(st.integers(1, 9), min_size=6, max_size=6),
           bump=st.tuples(st.integers(0, 9), st.integers(-3, 3), st.integers(1, 7)),
           upto=st.integers(0, 4))
    def test_matches_per_size_determinants(self, atoms, weights, bump, upto):
        vals = mixture_moments(atoms, weights[:len(atoms)], 2 * upto + 2)
        index, num, den = bump
        if 0 < index < len(vals):
            vals[index] += F(num, den)
        m = MomentSequence.from_exact(vals)
        assert stieltjes_verdict(m, upto) == brute_force.stieltjes_verdict_per_size(m, upto)
        approx = MomentSequence.from_approx(vals, 128)
        for tol in (F(1, 2 ** 100), F(1, 1000)):
            assert (stieltjes_verdict(approx, upto, tol)
                    == brute_force.stieltjes_verdict_per_size(approx, upto, tol))

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

"""Semigroup identity, alternation structure, envelope, threshold scan."""
from fractions import Fraction
from math import sqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from momentlab import semigroup, stieltjes
from momentlab.exceptions import BackendError
from momentlab.moment_algebra import (
    _U,
    MomentSequence,
    ScaledSequence,
    _float_heads,
    _power_at,
    _power_base,
    _t_power_rows,
    classical_convolve,
    cumulants_from_moments,
    mb_compose_at,
    mb_compose_t,
)
from momentlab.semigroup import (
    DEFAULT_T_GRID,
    DEFAULT_THETA_GRID,
    SemigroupIdentityReport,
    ThresholdScanResult,
    _lattice_base,
    _lattice_hankel,
    alternation_check,
    envelope_bounds_check,
    lattice_family,
    mb_semigroup_identity,
    theta_threshold_scan,
)
from momentlab.stieltjes import (_certified_positive, _certified_stieltjes, _hankel_minors,
                                 _scaled_hankel, stieltjes_verdict)

import brute_force
from conftest import random_moment_prefix

F = Fraction


def constant_theta_family(theta: Fraction, upto: int) -> MomentSequence:
    """mu_{n+1} = mu_n^2 / (theta mu_{n-1}): constant log-convexity ratio
    exactly theta, from the seed mu_0 = mu_1 = 1. Works for any rational
    theta, unlike the q**(n^2) form which needs theta = 1/q^2."""
    vals = [F(1), F(1)]
    while len(vals) < upto + 1:
        vals.append(vals[-1] ** 2 / (theta * vals[-2]))
    return MomentSequence.from_exact(vals[:upto + 1])


class TestSemigroupIdentity:
    def test_holds_on_random_prefixes(self, rng):
        for _ in range(8):
            m = MomentSequence.from_exact(random_moment_prefix(rng, 6))
            rep = mb_semigroup_identity(m, 6)
            assert rep.holds, f"failed at n={rep.first_failure}"

    def test_spot_evaluation_agrees(self, rng):
        """Independent of the bivariate expansion: evaluate both sides at
        random rational (s, t) and compare the convolved sequences."""
        for _ in range(6):
            m = MomentSequence.from_exact(random_moment_prefix(rng, 5))
            s = F(rng.randint(1, 9), rng.randint(1, 9))
            t = F(rng.randint(1, 9), rng.randint(1, 9))
            lhs = classical_convolve(mb_compose_at(m, s, 5),
                                     mb_compose_at(m, t, 5), 5)
            rhs = mb_compose_at(m, s + t, 5)
            assert lhs.values == rhs.values

    def test_depth_one_is_linearity(self, rng):
        m = MomentSequence.from_exact(random_moment_prefix(rng, 1))
        assert mb_semigroup_identity(m, 1).holds

    def test_exact_backend_required(self):
        from mpmath import mpf
        m = MomentSequence.from_approx([mpf(1), mpf(2)], 128)
        with pytest.raises(BackendError):
            mb_semigroup_identity(m, 1)

    def test_depth_validated(self, rng):
        m = MomentSequence.from_exact(random_moment_prefix(rng, 3))
        with pytest.raises(ValueError):
            mb_semigroup_identity(m, 4)


class TestSemigroupLaw:
    """The law on composition families, by the bivariate expansion of
    brute_force: it holds on the rational rows of mb_compose_t and on the
    integer rows of _t_power_rows, as mb_semigroup_identity reports, and
    the oracle finds every family with one entry bumped to P_n + c t^d, so
    its None is not vacuous."""

    def test_composed_rows_against_bivariate_oracle(self, rng):
        for _ in range(3):
            m = MomentSequence.from_exact(random_moment_prefix(rng, 7))
            assert mb_semigroup_identity(m, 7) == SemigroupIdentityReport(7, True, None)
            self.check_bumps([list(p.coeffs) for p in mb_compose_t(m)],
                             lambda: F(rng.randint(1, 9), rng.randint(1, 9)))
            self.check_bumps(_t_power_rows(m.values)[1], lambda: rng.randint(1, 9))

    @staticmethod
    def check_bumps(rows, draw):
        assert brute_force.semigroup_first_failure(rows) is None
        for n in range(len(rows)):
            for d in range(n + 2):
                bump = rows[n] + [0] * (d + 1 - len(rows[n]))
                bump[d] += draw()
                got = brute_force.semigroup_first_failure(rows[:n] + [bump] + rows[n + 1:])
                if d == 1 and n >= 1:
                    # kappa_n moves by c*t and stays linear; a later one breaks
                    assert got is None or got > n, (n, d)
                else:
                    assert got == n, (n, d)


def leipnik_twin(b: int, K: int, upto: int) -> list:
    """Moments mu_0..mu_upto of the truncated Leipnik twin: atoms b^(2n)
    with weights b^(-n^2) for |n| <= K. Finite support, so not infinitely
    divisible: its t-powers for t in (0, 1) are refuted at small depth."""
    weights = {n: F(1, b ** (n * n)) for n in range(-K, K + 1)}
    total = sum(weights.values())
    return [sum(w * F(b) ** (2 * n * k) for n, w in weights.items()) / total
            for k in range(upto + 1)]


signed_rationals = st.builds(F, st.integers(-50, 200), st.sampled_from([1, 2, 3, 5, 7, 12]))
unit_ts = st.builds(F, st.integers(1, 59), st.just(60))


class TestScaledScanPath:
    """The scan's verdict on the integers of _power_at, handed over as a
    ScaledSequence, against stieltjes_verdict on the reduced Fractions of
    the composed moments: the same kind, witness and witness value, so no
    witness is ever reported on the scaled sequence. The Fractions come
    from a second derivation, the partial Bell rows of mb_compose_t at t,
    and through n = 9 also from the occupancy sum over compositions."""

    @staticmethod
    def both(vals, t, depth):
        seq = ScaledSequence(*_power_at(_power_base(vals), t))
        reduced = [p(t) for p in mb_compose_t(MomentSequence.from_exact(vals))]
        assert seq.values == tuple(reduced)
        assert reduced[:10] == [brute_force.composed_moment(vals, t, n)
                                for n in range(min(len(vals), 10))]
        return stieltjes_verdict(seq, depth), stieltjes_verdict(reduced, depth)

    def test_truncated_leipnik_twin(self):
        kinds = set()
        for K in (1, 2, 3):
            for depth in (3, 4, 5, 6):
                vals = leipnik_twin(2, K, 2 * depth + 1)
                for t in [F(k, 20) for k in range(1, 20)] + [F(1), F(3, 2), F(2)]:
                    scaled, reduced = self.both(vals, t, depth)
                    # kind, witness and witness_value
                    assert scaled == reduced, (K, depth, t)
                    kinds.add((scaled.kind, scaled.witness is not None and scaled.witness.size > 0))
        # refuted by an entry and by a minor, semi-definite, and positive
        assert kinds == {("not-stieltjes", False), ("not-stieltjes", True),
                         ("semi-definite", True), ("strictly-positive", False)}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
        st.just(d), st.lists(signed_rationals, min_size=2 * d + 1, max_size=2 * d + 1))),
        unit_ts)
    def test_signed_prefixes(self, depth_and_tail, t):
        depth, tail = depth_and_tail
        scaled, reduced = self.both([F(1)] + tail, t, depth)
        assert scaled == reduced

    def test_short_prefix_and_negative_depth(self):
        seq = ScaledSequence(*_power_at(_power_base(leipnik_twin(2, 1, 5)), F(1, 2)))
        with pytest.raises(ValueError, match="needs 8 entries, got 6"):
            stieltjes_verdict(seq, 3)
        with pytest.raises(ValueError, match="upto must be >= 0"):
            stieltjes_verdict(seq, -1)


# (prefix, t, n) -> the alternation flags that are false. Signs that
# alternate with moduli that do not grow always bound their tails, so an
# unbounded tail comes with one of the other two.
ALTERNATION_OUTCOMES = [
    ([1, 2, 30], F(1, 2), 2, set()),
    ([1, 18, 27, 20, F(49, 4)], F(1), 4, {"signs_alternate"}),
    ([1, 2, F(-11, 4), 18], F(4), 3, {"moduli_nonincreasing"}),
    ([1, F(5, 3), F(-27, 8), 1, -5], F(3, 2), 4,
     {"signs_alternate", "moduli_nonincreasing", "tails_bounded"}),
    # at benchmark size: near the log-convexity boundary |T_2| > T_1 ...
    (lattice_family(F(9, 8), 10).values, F(1, 4), 10, {"moduli_nonincreasing"}),
    # ... and C(3/2, 2) > 0, so T_2 has the sign of T_1
    (lattice_family(10, 8).values, F(3, 2), 8, {"signs_alternate"}),
]

# (prefix, theta, t, depth) -> the envelope kind and the head of its witness
ENVELOPE_OUTCOMES = [
    ([1, 10, 10 ** 4, 10 ** 9], F(1, 100), F(1, 2), 3, "holds", None),
    ([1, 4, 20, 125, F(15625, 16), F(9765625, 1024)], F(4, 5), F(1, 12), 5, "violated", 3),
    # mu_3 = (1 - t)(3 mu_1 mu_2 - (2 - t) mu_1^3) / theta puts the composed
    # mu_3 exactly on the strict lower bound
    ([1, 1, F(3, 2), F(351, 100)], F(2, 3), F(1, 10), 3, "violated", 3),
    ([1, 10, 10 ** 4, 10 ** 9], F(1, 100), F(3, 2), 3, "precondition-failed",
     "t outside (0,1)"),
    ([1, 1, 2, 5, 15], F(1, 100), F(1, 2), 4, "precondition-failed",
     "log-convexity ratio exceeds theta"),
    # q = 21/20 grows slowly: with theta just above 1/q^2 the lower bound
    # holds through n = 7 and breaks at n = 8
    (lattice_family(F(21, 20), 13).values, F(400, 441) + F(1, 100), F(1, 2), 13,
     "violated", 8),
]


class TestAgainstFractionOracle:
    """alternation_check and envelope_bounds_check against their Fraction
    arithmetic in brute_force, on drawn inputs and on one input per
    outcome."""

    @pytest.mark.parametrize("vals, t, n, failing", ALTERNATION_OUTCOMES)
    def test_alternation_outcomes(self, vals, t, n, failing):
        rep = alternation_check(MomentSequence.from_exact(vals), t, n)
        assert rep == brute_force.alternation_report([F(v) for v in vals], t, n)
        flags = ("signs_alternate", "moduli_nonincreasing", "tails_bounded")
        assert {f for f in flags if not getattr(rep, f)} == failing
        assert rep.holds == (not failing)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(signed_rationals, min_size=n, max_size=n))),
        st.builds(F, st.integers(1, 60), st.sampled_from([1, 4, 7, 20])))
    def test_alternation_drawn(self, n_and_tail, t):
        n, tail = n_and_tail
        vals = [F(1)] + tail
        assert (alternation_check(MomentSequence.from_exact(vals), t, n)
                == brute_force.alternation_report(vals, t, n))

    @pytest.mark.parametrize("vals, theta, t, depth, kind, head", ENVELOPE_OUTCOMES)
    def test_envelope_outcomes(self, vals, theta, t, depth, kind, head):
        rep = envelope_bounds_check(MomentSequence.from_exact(vals), theta, t, depth)
        assert rep == brute_force.envelope_report([F(v) for v in vals], theta, t, depth)
        assert rep.kind == kind
        assert (rep.witness and rep.witness[0]) == head

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 6), st.builds(F, st.integers(1, 40), st.integers(1, 9)),
           st.lists(st.integers(1, 40), min_size=6, max_size=6),
           st.one_of(st.none(), st.builds(F, st.integers(1, 19), st.just(20))),
           st.builds(F, st.integers(1, 29), st.just(20)))
    def test_envelope_drawn(self, depth, ratio, growth, theta, t):
        # mu_{n+1} / mu_n grows by 1 + g/20 at each step, so theta_n is
        # 1 / (1 + g/20); theta None takes the largest theta_n, where the
        # lower bound is tight enough to fail for small t
        vals = [F(1)]
        for g in growth[:depth]:
            vals.append(vals[-1] * ratio)
            ratio *= 1 + F(g, 20)
        if theta is None:
            theta = max(1 / (1 + F(g, 20)) for g in growth[:depth - 1])
        assert (envelope_bounds_check(MomentSequence.from_exact(vals), theta, t, depth)
                == brute_force.envelope_report(vals, theta, t, depth))


def compose_scan_family(family: str, p: int, d: int, growth=(17, 19, 23, 29, 31)) -> list:
    """mu_0..mu_14 of one of the benchmark's three t-composition families,
    drawn at p/d (d prime): r^k 2^(k^2) at r = p/d, the Touchard (Poisson)
    moments at lambda = p/d, or the log-convex mu_k = c_0 ... c_(k-1) from
    c_0 = p/d, each c multiplied by 1 + 1/g for the next g of `growth`."""
    x = F(p, d)
    if family == "lattice":
        return [x ** k * F(2) ** (k * k) for k in range(15)]
    if family == "touchard":
        return [brute_force.touchard(x, k) for k in range(15)]
    vals = [F(1)]
    for k in range(14):
        vals.append(vals[-1] * x)
        x *= 1 + F(1, growth[k % len(growth)])
    return vals


class TestAtBenchmarkSize:
    """alternation_check at n = 13 and envelope_bounds_check at depth 13,
    the sizes the benchmark runs, against brute_force's Fraction reports:
    the integer comparisons on numbers of hundreds of bits. The failure
    branches at n >= 8 are among the outcome cases above."""

    @pytest.mark.parametrize("family, p, d, t", [
        ("lattice", 67, 53, F(5, 11)), ("lattice", 79, 61, F(9, 13)),
        ("touchard", 71, 59, F(3, 11)), ("touchard", 73, 53, F(8, 13)),
        ("log-convex", 73, 61, F(4, 13)), ("log-convex", 67, 59, F(7, 11)),
    ])
    def test_compose_scan_families(self, family, p, d, t):
        vals = compose_scan_family(family, p, d)
        m = MomentSequence.from_exact(vals)
        theta = max(vals[k] ** 2 / (vals[k - 1] * vals[k + 1]) for k in range(1, 13))
        assert alternation_check(m, t, 13) == brute_force.alternation_report(vals, t, 13)
        rep = envelope_bounds_check(m, theta, t, 13)
        assert rep == brute_force.envelope_report(vals, theta, t, 13)
        assert rep.kind != "precondition-failed"  # theta is the largest ratio


class TestAlternation:
    def test_fast_growth_example(self):
        # mu_n = 10**(n^2), t = 1/2, n = 3: terms 10^9/2, -75000, +375
        rep = alternation_check(lattice_family(10, 4), F(1, 2), 3)
        assert rep.terms == (F(500000000), F(-75000), F(375))
        assert rep.leading_matches
        assert rep.holds
        assert rep.preconditions == {"t_in_unit_interval": True,
                                     "strictly_log_convex": True}

    def test_two_term_case(self):
        # n = 2, t = 1/2: (mu2/2, -mu1^2/4); decrease needs mu2 > mu1^2/2
        m = MomentSequence.from_exact([1, 2, 30])
        rep = alternation_check(m, F(1, 2), 2)
        assert rep.terms == (F(15), F(-1))
        assert rep.holds

    def test_slow_growth_informative_failure(self):
        """Near the log-convexity boundary the moduli stop decreasing:
        q = 9/8 at t = 1/4 has |T_2| > T_1. Reported, not an error."""
        rep = alternation_check(lattice_family(F(9, 8), 4), F(1, 4), 3)
        assert rep.signs_alternate
        assert not rep.moduli_nonincreasing
        assert not rep.holds
        assert rep.preconditions["strictly_log_convex"]

    def test_t_outside_unit_interval_reported(self):
        rep = alternation_check(lattice_family(10, 4), F(3, 2), 3)
        assert rep.preconditions["t_in_unit_interval"] is False
        # C(3/2, 2) < 0 so alternation happens to survive here; the point
        # is that the check ran and reported rather than raised
        assert len(rep.terms) == 3


class TestEnvelopeBounds:
    def test_fast_family_holds(self):
        rep = envelope_bounds_check(lattice_family(10, 6), F(1, 100), F(1, 2), 6)
        assert rep.holds
        # upper bound is an equality at n = 1
        n, lower, value, upper = rep.rows[0]
        assert n == 1 and value == upper and lower < value

    def test_theta_one_seventh_family(self):
        m = constant_theta_family(F(1, 7), 6)
        for t in (F(1, 4), F(1, 2), F(3, 4)):
            assert envelope_bounds_check(m, F(1, 7), t, 6).holds

    def test_precondition_reported(self):
        bell = MomentSequence.from_exact([1, 1, 2, 5, 15, 52, 203])
        rep = envelope_bounds_check(bell, F(1, 100), F(1, 2), 6)
        assert rep.kind == "precondition-failed"
        assert rep.witness[0] == "log-convexity ratio exceeds theta"

    def test_t_outside_interval(self):
        rep = envelope_bounds_check(lattice_family(10, 4), F(1, 100), F(3, 2), 4)
        assert rep.kind == "precondition-failed"


class TestThetaThresholdScan:
    def test_default_grid_depth_four(self):
        res = theta_threshold_scan(depth=4)
        assert res.theta_grid == DEFAULT_THETA_GRID
        assert res.t_grid == DEFAULT_T_GRID
        assert all(cell.passed for row in res.pass_matrix for cell in row)
        assert res.empirical_theta_max == F(1, 4)

    def test_reproducible(self):
        a = theta_threshold_scan(theta_grid=[F(1, 16), F(1, 4)],
                                 t_grid=[F(1, 2)], depth=3)
        b = theta_threshold_scan(theta_grid=[F(1, 16), F(1, 4)],
                                 t_grid=[F(1, 2)], depth=3)
        assert a == b

    def test_cells_match_enumerated_composition(self):
        # t with large denominators, evaluated on the integer rows; each cell
        # against the occupancy sum and a determinant per size and shift
        qs, ts = [F(7, 3), F(2)], [F(1, 10 ** 9 + 7), F(10 ** 6, 10 ** 6 + 3)]
        res = theta_threshold_scan([1 / q ** 2 for q in qs], ts, 3)
        assert res.theta_grid == (F(9, 49), F(1, 4))
        for q, row in zip(qs, res.pass_matrix):
            vals = lattice_family(q, 7).values
            for t, cell in zip(ts, row):
                composed = [brute_force.composed_moment(vals, t, n) for n in range(8)]
                assert cell.verdict == brute_force.stieltjes_verdict_per_size(composed, 3)

    @pytest.mark.parametrize("q", [F(7, 3), F(3), F(11, 10), F(9, 8)])
    def test_lattice_integers_are_the_fraction_path(self, q, monkeypatch):
        # the scan reads q^(n^2) from distributions._lattice_ints; the
        # cumulants it hands the row verdict, the power it hands _power_at,
        # and every verdict, are those of the Fractions of lattice_family
        # through _power_base. The closed form and the float certificate
        # are made to refuse, so every row takes its exact verdict; then a
        # planted refusal of that verdict sends every cell to _power_at. The
        # scan's own run decides the same cells.
        powers, power_at, rows, verdict = [], semigroup._power_at, [], stieltjes_verdict

        def recording(power, t):
            powers.append(power)
            return power_at(power, t)

        def refusing_rows(seq, upto):
            if seq.ints[0] == 1:  # a cell's t-power; the row's K_1 = c q is above 1
                return verdict(seq, upto)
            rows.append((seq, verdict(seq, upto)))
            return stieltjes.PositivityVerdict("semi-definite", upto)

        ts = (F(1, 4), F(1, 2), F(10 ** 6, 10 ** 6 + 3))
        certified = {depth: theta_threshold_scan([1 / q ** 2], ts, depth) for depth in (2, 4, 6)}
        monkeypatch.setattr(semigroup, "_power_at", recording)
        monkeypatch.setattr(semigroup, "_closed_form_row", lambda q: False)
        monkeypatch.setattr(stieltjes, "_certified_positive", lambda *args: False)
        for depth in (2, 4, 6):
            old = _power_base(lattice_family(q, 2 * depth + 2).values)
            monkeypatch.setattr(semigroup, "stieltjes_verdict", refusing_rows)
            powers.clear()
            rows.clear()
            res = theta_threshold_scan([1 / q ** 2], ts, depth)
            assert res == certified[depth]
            passed = stieltjes.PositivityVerdict("strictly-positive", depth)
            assert rows == [(ScaledSequence(old[0], tuple(old[1])), passed)]
            assert powers == [old] * len(ts)
            for cell in res.pass_matrix[0]:
                seq = ScaledSequence(*power_at(old, cell.t))
                assert cell.verdict == verdict(seq, depth) == verdict(seq.values, depth)
            monkeypatch.setattr(semigroup, "stieltjes_verdict", verdict)
            assert theta_threshold_scan([1 / q ** 2], ts, depth) == certified[depth]
            assert powers == [old] * len(ts)  # the row's own verdict builds no t-power

    def test_irrational_sqrt_rejected(self):
        with pytest.raises(ValueError):
            theta_threshold_scan(theta_grid=[F(1, 3)], t_grid=[F(1, 2)], depth=2)

    def test_ratio_bound_values(self):
        res = theta_threshold_scan(theta_grid=[F(1, 4)], t_grid=[F(1, 2)],
                                   depth=2)
        (theta, ratio), = res.ratio_bounds
        assert (theta, ratio) == (F(1, 4), F(4, 9))

    def test_report_states_only_what_is_proved(self):
        # no reference line, monotonicity flag or delta comparison: none
        # has a source, and by Thorin no lattice cell can fail
        assert ThresholdScanResult._fields == ("theta_grid", "t_grid", "depth", "pass_matrix",
                                               "empirical_theta_max", "ratio_bounds")
        res = theta_threshold_scan(depth=3)
        assert [len(entry) for entry in res.ratio_bounds] == [2] * len(DEFAULT_THETA_GRID)
        with pytest.raises(TypeError):
            theta_threshold_scan(depth=3, delta=F(1, 5))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            theta_threshold_scan(theta_grid=[F(2)], t_grid=[F(1, 2)], depth=2)
        with pytest.raises(ValueError):
            theta_threshold_scan(theta_grid=[F(1, 4)], t_grid=[F(2)], depth=2)


# q > 1: close to 1, where the float cumulant ratios refuse from small
# depths on, huge, and drawn
lattice_qs = st.one_of(st.sampled_from([F(10 ** 6 + 1, 10 ** 6), F(101, 100), F(11, 10),
                                        F(9, 8), F(7, 3), F(10 ** 50)]),
                       st.builds(lambda a, b: 1 + F(a, b), st.integers(1, 10 ** 6),
                                 st.integers(1, 10 ** 6)))
# t in (0, 1) with denominators up to 10^40
fine_ts = st.integers(2, 10 ** 40).flatmap(
    lambda d: st.builds(F, st.integers(1, d - 1), st.just(d)))

ETA = F(1, 2 ** 1074)


def certified(heads, exps, rel, shift, size) -> bool:
    """_certified_positive on _scaled_hankel's matrix of the heads."""
    built = _scaled_hankel(heads, exps, rel, shift, size)
    return built is not None and _certified_positive(*built)


def row_certified(base, depth) -> bool:
    """The scan's row certificate: base's cumulant Hankel matrices at
    shift 0, size depth, and shift 1, size depth - 1."""
    return _certified_stieltjes(lambda shift, size: _lattice_hankel(base, shift, size - shift),
                                depth)


class TestFloatPower:
    """The scan's row certificate from q: every cumulant ratio k_n and
    certificate entry a_ij lies within its stated bound of the exact
    Fraction, an accepted row means every exact minor of both cumulant
    Hankel matrices, and of the t-power at a drawn t, is positive, a
    singular Hankel matrix is refused at any accepted bound, and the scan
    gives the exact path's result whenever it falls back to it."""

    @settings(max_examples=150, deadline=None)
    @given(q=lattice_qs, t=fine_ts, depth=st.integers(0, 12))
    @example(q=F(2), t=F(2 ** 54 - 1, 2 ** 54), depth=3)
    @example(q=F(10 ** 6 + 1, 10 ** 6), t=F(1, 3), depth=2)
    def test_entries_within_bound_and_certificate_sound(self, q, t, depth):
        upto = 2 * depth + 1
        base = _lattice_base(q, upto)
        if base is None:  # q close to 1: the row takes its exact verdict
            return
        ints, (c, kappas) = semigroup._lattice_power(q, upto)
        ks = [F(k, m) for k, m in zip(kappas, ints[1:])]  # K_n / M_n, n = 1..upto
        for n, (got, beta, exact) in enumerate(zip(base.ks, base.kbounds, ks, strict=True),
                                               start=1):
            assert abs(F(got) - exact) <= F(beta) * exact, n
        for shift, size in ((0, depth), (1, depth - 1)):
            diag, upper, rel = _lattice_hankel(base, shift, size)
            g = [F(1.0 / sqrt(base.ks[shift + 2 * i])) for i in range(size + 1)]
            for i in range(size + 1):  # a_ii = g_i^2 k_(1+shift+2i), stored as 1
                exact = g[i] ** 2 * ks[shift + 2 * i]
                assert diag[i] == 1.0 and abs(1 - exact) <= F(rel) * exact + 2 * ETA
            pairs = [(i, j) for i in range(size + 1) for j in range(i + 1, size + 1)]
            for (i, j), got in zip(pairs, upper, strict=True):
                exact = g[i] * g[j] * ks[shift + i + j] / q ** ((i - j) ** 2)
                assert abs(F(got) - exact) <= F(rel) * exact + 2 * ETA, (shift, i, j)
        if row_certified(base, depth):
            # the cumulant matrices [K_(1+s+i+j)]: K_(1+m) = c c^m kappa_(1+m)
            for shift in range(min(2, depth + 1)):
                assert all(num > 0 for num, _ in _hankel_minors((c, c, kappas), shift,
                                                                depth - shift))
            # the theorem: then the t-power at any t > 0 is strictly positive
            s, xs = _power_at((c, kappas), t)
            for shift in (0, 1):
                assert all(num > 0 for num, _ in _hankel_minors((1, s, xs), shift, depth))

    @pytest.mark.parametrize("q, shift", [(F(2), 0), (F(2), 1), (F(3), 0), (F(3), 1),
                                          (F(11, 10), 0), (F(11, 10), 1)])
    def test_certificate_matrix_at_unit_ratios(self, q, shift):
        # with every cumulant ratio 1, K_n = M_n and the matrix is
        # [q^(-(i-j)^2)]: its leading minors times prod M_(1+shift+2i), M_n =
        # q^(n^2), are the closed-form lattice minors at shift 1 + shift, so
        # c and the shift cancel. The float matrix is that one within its
        # bound.
        depth = 5
        size = depth + 1
        exact = [[q ** -((i - j) ** 2) for j in range(size)] for i in range(size)]
        scale = F(1)
        for rows in range(1, size + 1):
            scale *= q ** ((1 + shift + 2 * (rows - 1)) ** 2)
            minor = brute_force.rational_det([row[:rows] for row in exact[:rows]])
            assert minor * scale == brute_force.lattice_hankel_minor(q, 1 + shift, rows)
        xs, es = semigroup._inverse_powers(q, size * size)
        base = semigroup.LatticeBase([1.0] * (2 * depth + 2), [_U] * (2 * depth + 2),
                                     [xs[i * i] for i in range(size)],
                                     None if es is None else [es[i * i] for i in range(size)])
        diag, upper, rel = _lattice_hankel(base, shift, depth)
        pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
        for (i, j), got in zip(pairs, upper, strict=True):
            assert abs(F(got) - exact[i][j]) <= F(rel) * exact[i][j]
        assert diag == [1.0] * size

    @pytest.mark.parametrize("q", [F(10), F(2), F(7, 3), F(11, 10), F(10 ** 50), F(2 ** 200 + 1)])
    def test_inverse_powers_within_bound(self, q):
        # past (1/q)^m < 2^-900 the table carries a power of two, and past
        # 2^-2200 it stores 0; below that each power is within gamma_(2m)
        count = 1200
        xs, es = semigroup._inverse_powers(q, count)
        power = F(1)
        for m, (x, e) in enumerate(zip(xs, es or [0] * (count + 1))):
            if x == 0:
                assert power < F(1, 2 ** 2200), m
            else:
                gamma = 2 * m * F(_U) / (1 - 2 * m * F(_U))
                assert abs(F(x) * F(2) ** e - power) <= gamma * power, m
            power /= q
        assert (es is None) == (q == F(11, 10))  # (10/11)^1200 is about 2^-165

    @settings(max_examples=60, deadline=None)
    @given(atoms=st.lists(st.integers(1, 10 ** 6), min_size=2, max_size=2, unique=True),
           weights=st.lists(st.integers(1, 10 ** 6), min_size=2, max_size=2),
           size=st.integers(2, 8))
    def test_two_atoms_refused(self, atoms, weights, size):
        # the moments of a two-atom measure make Hankel matrices of rank 2
        ints = [sum(w * x ** n for w, x in zip(weights, atoms)) for n in range(2 * size + 2)]
        heads, exps = _float_heads(ints)
        for rel in (2 * _U, 2.0 ** -40, 2.0 ** -30):
            for shift in (0, 1):
                assert not certified(heads, exps, rel, shift, size)

    def test_bound_past_the_ceiling_refuses(self):
        heads, exps = _float_heads([2 ** (n * n) for n in range(8)])
        assert certified(heads, exps, 2.0 ** -30, 0, 3)
        assert not certified(heads, exps, 2.0 ** -29, 0, 3)

    def test_kernel_refuses(self):
        assert _lattice_base(F(2), 5) is not None  # q = 2 keeps its float cumulant ratios
        # close to 1, 1 - S_n cancels and the recursion's bound refuses
        assert _lattice_base(F(10 ** 6 + 1, 10 ** 6), 2) is None

    @pytest.mark.parametrize("q, depth", [(F(10 ** 6 + 1, 10 ** 6), 2), (F(101, 100), 4),
                                          (F(11, 10), 8), (F(9, 8), 8)])
    def test_close_to_one_takes_the_exact_cumulants(self, q, depth, monkeypatch):
        # the float cumulant ratios refuse, and the scan decides the row by
        # one verdict on the exact cumulants, with no exact t-power
        assert _lattice_base(q, 2 * depth + 1) is None
        _, (c, kappas) = semigroup._lattice_power(q, 2 * depth + 2)
        calls, verdicts, verdict = [], [], stieltjes_verdict

        def counting(power, t):
            calls.append(t)

        def recording(seq, upto):
            verdicts.append((seq, upto))
            return verdict(seq, upto)

        monkeypatch.setattr(semigroup, "_power_at", counting)
        monkeypatch.setattr(semigroup, "stieltjes_verdict", recording)
        res = theta_threshold_scan([1 / q ** 2], [F(1, 3), F(1, 2), F(2, 3)], depth)
        assert calls == [] and all(cell.passed for cell in res.pass_matrix[0])
        assert verdicts == [(ScaledSequence(c, tuple(kappas)), depth)]

    def test_tiny_t_is_decided_by_its_row(self, capsys, monkeypatch):
        # 1e-400 is 0.0 as a float, but the row certificate holds for every
        # t > 0, so no cell builds an exact t-power. A refusing closed form
        # and certificate leave every row to its exact verdict, still with
        # no t-power; a planted refusal of that verdict sends every cell to
        # the exact path. The report stays the same.
        from momentlab.cli import main
        calls, power_at, verdict = [], semigroup._power_at, stieltjes_verdict

        def counting(power, t):
            calls.append(t)
            return power_at(power, t)

        def refusing_rows(seq, upto):
            if seq.ints[0] == 1:  # a cell's t-power; the row's K_1 = c q is above 1
                return verdict(seq, upto)
            return stieltjes.PositivityVerdict("semi-definite", upto)

        monkeypatch.setattr(semigroup, "_power_at", counting)
        assert main(["scan", "--t-grid", "1e-400"]) == 0
        out = capsys.readouterr().out
        monkeypatch.setattr(semigroup, "_closed_form_row", lambda q: False)
        monkeypatch.setattr(stieltjes, "_certified_positive", lambda *args: False)
        assert main(["scan", "--t-grid", "1e-400"]) == 0
        assert calls == [] and capsys.readouterr().out == out
        monkeypatch.setattr(semigroup, "stieltjes_verdict", refusing_rows)
        assert main(["scan", "--t-grid", "1e-400"]) == 0
        assert calls == [F(1, 10 ** 400)] * 5
        assert capsys.readouterr().out == out
        assert '"verdict": "fail"' not in out

    # rows below q** ~ 2.209, which the closed form refuses: each reaches the
    # float certificate; at 9/8 and 11/10 its ratios refuse, and the row
    # takes its exact verdict
    FLOAT_QS = (F(2), F(15, 8), F(7, 4), F(3, 2), F(6, 5), F(9, 8), F(11, 10))
    FLOAT_GRIDS = [([1 / q ** 2 for q in FLOAT_QS], [F(3, 13), F(6, 11), F(9, 13)], 6),
                   ([1 / q ** 2 for q in FLOAT_QS], [F(3, 13), F(6, 11), F(9, 13)], 40),
                   ([F(1, 4)], DEFAULT_T_GRID, 100)]
    REFUSING_GRIDS = [
        (DEFAULT_THETA_GRID, DEFAULT_T_GRID, 6),
        ([1 / F(q) ** 2 for q in (F(7, 3), 3, 5, 7, 11)], [F(3, 13), F(6, 11), F(9, 13)], 6),
        ([F(100, 121), F(64, 81)], [F(1, 10 ** 30), F(1, 3), F(10 ** 20 - 1, 10 ** 20)], 8),
        FLOAT_GRIDS[0]]

    @pytest.mark.parametrize("grid", REFUSING_GRIDS)
    def test_refusing_certificate_gives_the_same_result(self, grid, monkeypatch):
        certified = theta_threshold_scan(*grid)
        monkeypatch.setattr(semigroup, "_closed_form_row", lambda q: False)
        monkeypatch.setattr(stieltjes, "_certified_positive", lambda *args: False)
        assert theta_threshold_scan(*grid) == certified

    @pytest.mark.parametrize("grid", REFUSING_GRIDS)
    def test_grids_need_no_exact_power(self, grid, monkeypatch):
        # t = 1 - 10^-20 rounds to the float 1.0, and q = 11/10 and 9/8 take
        # the exact row verdict: still no cell builds an exact t-power
        def no_exact_power(*args):
            raise AssertionError("the float certificate should decide every cell")

        monkeypatch.setattr(semigroup, "_power_at", no_exact_power)
        res = theta_threshold_scan(*grid)
        assert all(cell.passed for row in res.pass_matrix for cell in row)

    @pytest.mark.parametrize("grid", FLOAT_GRIDS)
    def test_float_rows_are_certified_from_their_base(self, grid, monkeypatch):
        # one base per row from the float recursion, and one exact row
        # verdict where that recursion refuses; no t-power
        def no_exact_power(*args):
            raise AssertionError("the row certificates should decide every cell")

        bases, verdicts = [], []
        lattice_base, verdict = semigroup._lattice_base, stieltjes_verdict

        def counting_bases(q, upto):
            bases.append(q)
            return lattice_base(q, upto)

        def counting_verdicts(seq, upto):
            verdicts.append(seq.c)
            return verdict(seq, upto)

        monkeypatch.setattr(semigroup, "_power_at", no_exact_power)
        monkeypatch.setattr(semigroup, "_lattice_base", counting_bases)
        monkeypatch.setattr(semigroup, "stieltjes_verdict", counting_verdicts)
        res = theta_threshold_scan(*grid)
        assert all(cell.passed for row in res.pass_matrix for cell in row)
        qs = [q for q in self.FLOAT_QS if 1 / q ** 2 in grid[0]]  # rows by rising theta
        assert bases == qs
        # the row verdict's scale is c = b^(2 depth + 2) for q = a/b
        assert verdicts == [q.denominator ** (2 * grid[2] + 2) for q in qs if q < F(6, 5)]

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(1, 10 ** 6), b=st.integers(1, 10 ** 6), t=fine_ts,
           depth=st.integers(0, 12))
    @example(a=1, b=10 ** 6, t=F(1, 10 ** 40), depth=12)
    @example(a=1, b=10, t=F(1, 3), depth=0)
    def test_row_verdict_is_the_cumulant_verdict(self, a, b, t, depth):
        # with the closed form and the float certificate refusing, the row's
        # one verdict is that of the Fractions kappa_1..kappa_(2 depth + 2)
        # of lattice_family; and every cell, however the scan decides it, is
        # the verdict of the exact minors of its t-power
        q = 1 + F(a, b)
        res = theta_threshold_scan([1 / q ** 2], [t], depth)
        kappas = cumulants_from_moments(lattice_family(q, 2 * depth + 2)).values
        handed, verdict = [], stieltjes_verdict

        def recording(seq, upto):
            handed.append(verdict(seq, upto))
            return handed[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(semigroup, "stieltjes_verdict", recording)
            mp.setattr(semigroup, "_closed_form_row", lambda q: False)
            mp.setattr(semigroup, "_lattice_base", lambda q, upto: None)
            assert theta_threshold_scan([1 / q ** 2], [t], depth) == res
            mp.setattr(stieltjes, "_certified_positive", lambda *args: False)
            power = _power_base(lattice_family(q, 2 * depth + 1).values)
            exact = verdict(ScaledSequence(*_power_at(power, t)), depth)
        assert handed == [verdict(list(kappas), depth)]
        assert res.pass_matrix[0][0].verdict == exact

    def test_depth_100_by_floats_alone(self, monkeypatch):
        def no_exact_power(*args):
            raise AssertionError("the float certificate should decide every cell")

        monkeypatch.setattr(semigroup, "_power_at", no_exact_power)
        res = theta_threshold_scan(depth=100)
        assert all(cell.passed for row in res.pass_matrix for cell in row)
        assert len(res.pass_matrix) * len(res.t_grid) == 15


# q = a/b above q** ~ 2.209: pinned, huge, drawn from 253/100 up (above q* ~
# 2.5276, where one integer comparison decides), and drawn from 20/9 to
# 2527/1000, 2 <= b <= 10^4 (where the six exact cumulant ratios decide)
closed_form_qs = st.one_of(
    st.sampled_from([F(3), F(253, 100), F(11, 4), F(10 ** 50), F(2 ** 64 + 1, 2 ** 62),
                     F(20, 9), F(9, 4), F(7, 3), F(12, 5), F(5, 2), F(2527, 1000)]),
    st.builds(lambda a, b: F(253, 100) + F(a, b), st.integers(0, 10 ** 4),
              st.integers(1, 10 ** 4)),
    st.integers(2, 10 ** 4).flatmap(
        lambda b: st.builds(F, st.integers(-(-20 * b // 9), 2527 * b // 1000), st.just(b))))


class TestClosedForm:
    """The closed-form row test of the scan: for q above q**, every cumulant
    ratio k_n lies within the lemma's bounds, both cumulant Hankel matrices
    have only positive minors, and the exact t-power is strictly positive,
    at every depth drawn; such a row builds nothing else."""

    @settings(max_examples=80, deadline=None)
    @given(q=closed_form_qs, t=fine_ts, depth=st.integers(0, 12))
    @example(q=F(253, 100), t=F(1, 10 ** 40), depth=12)
    @example(q=F(20, 9), t=F(1, 10 ** 40), depth=12)
    def test_lemma_on_the_exact_numbers(self, q, t, depth):
        assert semigroup._closed_form_row(q)
        upto = 2 * depth + 1
        ints, (c, kappas) = semigroup._lattice_power(q, upto)
        x = 1 / q ** 2
        ks = [F(k, m) for k, m in zip(kappas, ints[1:], strict=True)]  # k_1..k_upto
        assert ks[0] == 1
        for n, k in enumerate(ks[1:], start=2):
            assert 1 - (2 * x) ** (n - 1) < k <= 1 and 1 - x <= k, n
        for shift in range(min(2, depth + 1)):  # [K_(1+s+i+j)], K_(1+m) = c c^m kappa_(1+m)
            assert all(num > 0 for num, _ in _hankel_minors((c, c, kappas), shift,
                                                            depth - shift))
        with pytest.MonkeyPatch.context() as mp:  # the verdict from its exact minors
            mp.setattr(stieltjes, "_certified_positive", lambda *args: False)
            verdict = stieltjes_verdict(ScaledSequence(*_power_at((c, kappas), t)), depth)
        assert verdict == stieltjes.PositivityVerdict("strictly-positive", depth)

    @pytest.mark.parametrize("q, accepted", [
        (F(3), True), (F(253, 100), True), (F(11, 4), True), (F(2527, 1000), True),
        (F(5, 2), True), (F(12, 5), True), (F(7, 3), True), (F(9, 4), True), (F(20, 9), True),
        (F(221, 100), True), (F(2209, 1000), False), (F(11, 5), False), (F(21, 10), False),
        (F(2), False), (F(3, 2), False)])
    def test_threshold_lies_between_2209_and_2210_thousandths(self, q, accepted):
        assert semigroup._closed_form_row(q) is accepted

    def test_closed_form_rows_build_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a closed-form row builds no base, matrix or t-power")

        monkeypatch.setattr(semigroup, "_lattice_base", refuse)
        monkeypatch.setattr(semigroup, "_power_at", refuse)
        monkeypatch.setattr(stieltjes, "_certified_positive", refuse)
        res = theta_threshold_scan([F(1, 9), F(1, 100)], depth=5000)
        assert res.depth == 5000 and res.empirical_theta_max == F(1, 9)
        certified = stieltjes.PositivityVerdict("strictly-positive", 5000)
        assert [cell.verdict for row in res.pass_matrix for cell in row] == [certified] * 6
        # the benchmark's scan grid, and rows from 20/9 to 12/5, below q*
        for grid in (([1 / F(q) ** 2 for q in (F(7, 3), 3, 5, 7, 11)],
                      [F(3, 13), F(6, 11), F(9, 13)], 6),
                     ([F(81, 400), F(16, 81), F(9, 49), F(25, 144)], DEFAULT_T_GRID, 5000)):
            assert all(cell.passed for row in theta_threshold_scan(*grid).pass_matrix
                       for cell in row)

"""Surjection counts, the generalized binomial, and the brute-force
composition references the other tests rely on."""
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from momentlab.combinatorics import (
    binom_general,
    boltzmann,
    boltzmann_ratio_bound_report,
    stirling_subset,
)

from brute_force import (
    boltzmann_by_finite_difference,
    boltzmann_from_stirling,
    compositions,
    multinomial,
)


class TestStirling:
    def test_small_table(self):
        assert stirling_subset(4, 2) == 7
        assert stirling_subset(5, 3) == 25
        assert stirling_subset(6, 3) == 90
        assert stirling_subset(0, 0) == 1
        assert stirling_subset(5, 0) == 0
        assert stirling_subset(3, 5) == 0

    def test_row_sums_are_bell_numbers(self):
        bell = [1, 1, 2, 5, 15, 52, 203, 877]
        for n, b in enumerate(bell):
            assert sum(stirling_subset(n, k) for k in range(n + 1)) == b


class TestBoltzmann:
    def test_three_characterizations_agree(self):
        for n in range(13):
            for k in range(13):
                a = boltzmann(n, k)
                assert a == boltzmann_from_stirling(n, k)
                assert a == boltzmann_by_finite_difference(n, k)

    def test_occupancy_identity(self):
        # distributing n balls over k cells, grouped by occupied subset
        for n in range(1, 13):
            for k in range(13):
                assert sum(comb(k, j) * boltzmann(n, j)
                           for j in range(k + 1)) == k ** n

    def test_edge_conventions(self):
        assert boltzmann(0, 0) == 1
        assert boltzmann(0, 3) == 0
        assert boltzmann(4, 0) == 0
        assert boltzmann(2, 5) == 0

    def test_diagonal_and_first_column(self):
        for n in range(1, 9):
            assert boltzmann(n, n) == factorial(n)
            assert boltzmann(n, 1) == 1

    @given(st.integers(min_value=1, max_value=15),
           st.integers(min_value=0, max_value=15))
    def test_occupancy_identity_random(self, n, k):
        assert sum(comb(k, j) * boltzmann(n, j)
                   for j in range(k + 1)) == k ** n


class TestRatioBoundReport:
    """The bound B(n,k+1)/B(n,k) <= ((k+1)/k)^n / (k+1)^2 fails for small
    (n, k); the report collects counterexamples instead of asserting it."""

    def test_violations_found(self):
        report = boltzmann_ratio_bound_report(6)
        pairs = {(v["n"], v["k"]) for v in report}
        assert (2, 1) in pairs
        assert (3, 1) in pairs

    def test_known_counterexample_values(self):
        by_pair = {(v["n"], v["k"]): v for v in boltzmann_ratio_bound_report(3)}
        v = by_pair[(3, 1)]
        assert v["ratio"] == 6
        assert v["bound"] == 2

    def test_reported_violations_are_real(self):
        for v in boltzmann_ratio_bound_report(8):
            n, k = v["n"], v["k"]
            lhs = Fraction(boltzmann(n, k + 1), boltzmann(n, k))
            assert lhs == v["ratio"]
            assert lhs > v["bound"]


class TestCompositions:
    def test_counts(self):
        # compositions of n into j positive parts: C(n-1, j-1)
        for n in range(1, 9):
            for j in range(1, n + 1):
                got = list(compositions(n, j))
                assert len(got) == comb(n - 1, j - 1)
                assert all(sum(c) == n and len(c) == j and min(c) >= 1
                           for c in got)

    def test_empty_when_too_many_parts(self):
        assert list(compositions(3, 4)) == []

    def test_total_count_over_j(self):
        for n in range(1, 10):
            total = sum(len(list(compositions(n, j))) for j in range(1, n + 1))
            assert total == 2 ** (n - 1)

    def test_no_duplicates(self):
        got = list(compositions(7, 3))
        assert len(got) == len(set(got))


class TestMultinomial:
    def test_values(self):
        assert multinomial(3, (1, 2)) == 3
        assert multinomial(6, (2, 2, 2)) == 90
        assert multinomial(5, (5,)) == 1

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multinomial(4, (1, 2))

    def test_matches_factorial_formula(self):
        parts = (3, 1, 2, 4)
        n = sum(parts)
        expect = factorial(n)
        for p in parts:
            expect //= factorial(p)
        assert multinomial(n, parts) == expect


class TestGeneralizedBinomial:
    def test_integer_case_matches_comb(self):
        for t in range(8):
            for j in range(8):
                assert binom_general(t, j) == comb(t, j)

    def test_half(self):
        assert binom_general(Fraction(1, 2), 2) == Fraction(-1, 8)
        assert binom_general(Fraction(1, 2), 3) == Fraction(1, 16)

    def test_j_zero(self):
        assert binom_general(Fraction(7, 3), 0) == 1

    def test_pascal_recurrence(self):
        # C(t, j) = C(t-1, j) + C(t-1, j-1) holds for rational t too
        t = Fraction(5, 7)
        for j in range(1, 9):
            assert binom_general(t, j) == (binom_general(t - 1, j)
                                           + binom_general(t - 1, j - 1))

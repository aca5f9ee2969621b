"""The brute-force combinatorics the other tests rely on: Stirling
numbers, surjection counts, compositions, multinomials and the generalized
binomial C(t, j)."""
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from brute_force import (
    binom_poly,
    boltzmann_by_finite_difference,
    boltzmann_from_stirling,
    compositions,
    multinomial,
    stirling_subset,
)

def binom_general(t, j):
    """C(t, j) from the coefficients of binom_poly(j)."""
    return sum(c * Fraction(t) ** d for d, c in enumerate(binom_poly(j)))


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
        # the last ball goes to a cell already hit or to a fresh one:
        # B(n, k) = k (B(n-1, k) + B(n-1, k-1)), B(0, k) = [k = 0]
        table = [[int(k == 0) for k in range(13)]]
        for n in range(1, 13):
            table.append([k * (table[n - 1][k] + table[n - 1][k - 1]) if k else 0
                          for k in range(13)])
        for n in range(13):
            for k in range(13):
                assert table[n][k] == boltzmann_from_stirling(n, k)
                assert table[n][k] == boltzmann_by_finite_difference(n, k)

    def test_occupancy_identity(self):
        # distributing n balls over k cells, grouped by occupied subset
        for n in range(1, 13):
            for k in range(13):
                assert sum(comb(k, j) * boltzmann_from_stirling(n, j)
                           for j in range(k + 1)) == k ** n

    def test_edge_conventions(self):
        assert boltzmann_from_stirling(0, 0) == 1
        assert boltzmann_from_stirling(0, 3) == 0
        assert boltzmann_from_stirling(4, 0) == 0
        assert boltzmann_from_stirling(2, 5) == 0

    def test_diagonal_and_first_column(self):
        for n in range(1, 9):
            assert boltzmann_from_stirling(n, n) == factorial(n)
            assert boltzmann_from_stirling(n, 1) == 1

    @given(st.integers(min_value=1, max_value=15),
           st.integers(min_value=0, max_value=15))
    def test_occupancy_identity_random(self, n, k):
        assert sum(comb(k, j) * boltzmann_from_stirling(n, j)
                   for j in range(k + 1)) == k ** n


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

"""Exact integer and rational combinatorics used by the moment operations.

Everything here returns Python ints or Fractions, no floats. The cached
recurrences are safe to share between threads: functools caches take an
internal lock and the functions are pure, so concurrent callers can only
ever observe identical values.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def stirling_subset(n: int, k: int) -> int:
    """Stirling subset number: partitions of an n-set into k nonempty blocks.

    Triangle recurrence S(n, k) = k S(n-1, k) + S(n-1, k-1), with
    S(0, 0) = 1 and S(n, 0) = S(0, k) = 0 otherwise.
    """
    if n < 0 or k < 0:
        raise ValueError("stirling_subset needs n >= 0 and k >= 0")
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0 or k > n:
        return 0
    return k * stirling_subset(n - 1, k) + stirling_subset(n - 1, k - 1)


def boltzmann(n: int, k: int) -> int:
    """Number of surjections from an n-set onto a k-set.

    For n >= 1 this is the alternating sum
    sum_{j=0}^{k-1} (-1)^j C(k, j) (k - j)^n; the n = 0 edge follows the
    surjection count itself (1 for k = 0, else 0), which keeps it equal to
    k! S(n, k) and to the k-th forward difference of x^n at x = 0 everywhere
    (the tests hold those two as references).
    """
    if n < 0 or k < 0:
        raise ValueError("boltzmann needs n >= 0 and k >= 0")
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    total = 0
    for j in range(k):
        term = math.comb(k, j) * (k - j) ** n
        total += -term if j % 2 else term
    return total


def binom_general(t: Fraction | int, j: int) -> Fraction:
    """Generalized binomial coefficient C(t, j) = t (t-1) ... (t-j+1) / j!.

    Defined for any rational t; for integer t >= 0 it agrees with the
    ordinary binomial coefficient. C(t, 0) = 1.
    """
    if j < 0:
        raise ValueError("binom_general needs j >= 0")
    t = Fraction(t)
    num = Fraction(1)
    for i in range(j):
        num *= t - i
    return num / math.factorial(j)


def boltzmann_ratio_bound_report(n_max: int) -> list[dict]:
    """Check the ratio estimate B(n, k+1)/B(n, k) <= ((k+1)/k)^n / (k+1)^2.

    The estimate is reported, not asserted, because it fails for small
    (n, k): already at n = 3, k = 1 the left side is 6/1 while the right
    side is 8/4 = 2. Returns one record per violation over
    1 <= k < n <= n_max, with exact rational values.
    """
    out = []
    for n in range(2, n_max + 1):
        for k in range(1, n):
            lhs = Fraction(boltzmann(n, k + 1), boltzmann(n, k))
            rhs = Fraction(k + 1, k) ** n / (k + 1) ** 2
            if lhs > rhs:
                out.append({"n": n, "k": k, "ratio": lhs, "bound": rhs})
    return out

"""Catalan numbers, the ballot-style triangle, and their identities.

The triangle entry is B(N, r) = (r/N) * C(2N, N-r), always an integer; it
vanishes for r > N (and for r < -N) through the binomial convention
C(a, b) = 0 outside 0 <= b <= a.
"""

from __future__ import annotations

from itertools import combinations
from math import comb


def catalan(m: int) -> int:
    if m < 0:
        raise ValueError("catalan index must be >= 0")
    return comb(2 * m, m) // (m + 1)


def catalan_triangle(N: int, r: int) -> int:
    if N < 1:
        raise ValueError("triangle row must be >= 1")
    c = comb(2 * N, N - r) if 0 <= N - r <= 2 * N else 0
    num = r * c
    if num % N:
        raise AssertionError
    return num // N


def catalan_strand_identity(n: int, i: int) -> bool:
    """C(2n, i) - C(2n, i+2) == B(n+1, i+1-n) for n <= i <= 2n."""
    if not n <= i <= 2 * n:
        raise ValueError("need n <= i <= 2n")
    lhs = comb(2 * n, i) - (comb(2 * n, i + 2) if i + 2 <= 2 * n else 0)
    return lhs == catalan_triangle(n + 1, i + 1 - n)


def segner_check(m: int) -> bool:
    """C_{m+1} == sum over i+j=m of C_i C_j."""
    return catalan(m + 1) == sum(catalan(i) * catalan(m - i) for i in range(m + 1))


def _compositions(N: int, r: int):
    """All r-tuples of positive integers summing to N."""
    if r == 1:
        yield (N,)
        return
    for cut in combinations(range(1, N), r - 1):
        prev = 0
        parts = []
        for c in cut:
            parts.append(c - prev)
            prev = c
        parts.append(N - prev)
        yield tuple(parts)


def triangle_moment_check(N: int, r: int) -> bool:
    """B(N, r) equals the sum of Catalan products over compositions of N into r parts."""
    if not 1 <= r <= N:
        raise ValueError("need 1 <= r <= N")
    total = 0
    for parts in _compositions(N, r):
        prod = 1
        for part in parts:
            prod *= catalan(part)
        total += prod
    return total == catalan_triangle(N, r)

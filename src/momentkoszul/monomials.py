"""Bidegrees and monomials in a split variable alphabet.

The ambient polynomial ring has ``num_p`` variables of bidegree (1,0) followed
by ``num_q`` variables of bidegree (0,1).  A monomial is a plain tuple of
exponents of length ``num_p + num_q``; a bidegree is a pair ``(a, b)`` of
nonnegative ints.

Canonical monomial order: descending lexicographic on the exponent tuple.
Every basis produced here lists monomials in that order, which is what makes
row-echelon forms (and hence all derived dimensions) reproducible.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add

from .linalg import InvalidInputError

BiDegree = tuple[int, int]
Monomial = tuple[int, ...]


def total(v: BiDegree) -> int:
    return v[0] + v[1]


def bidegree_of(mono: Monomial, num_p: int) -> BiDegree:
    return (sum(mono[:num_p]), sum(mono[num_p:]))


def sub_bidegrees(v: BiDegree, w: BiDegree) -> BiDegree:
    return (v[0] - w[0], v[1] - w[1])


@lru_cache(maxsize=None)
def exponent_tuples(num_vars: int, degree: int) -> tuple[Monomial, ...]:
    """All exponent tuples of the given total degree, descending lex order."""
    if num_vars == 0:
        return ((),) if degree == 0 else ()
    if num_vars == 1:
        return ((degree,),)
    out = []
    for e in range(degree, -1, -1):
        for rest in exponent_tuples(num_vars - 1, degree - e):
            out.append((e,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_basis(num_p: int, num_q: int, v: BiDegree) -> tuple[Monomial, ...]:
    """Monomials of bidegree exactly ``v``, in canonical order.

    The count is C(num_p+a-1, a) * C(num_q+b-1, b) for v = (a, b); an empty
    variable block admits only degree 0 there.
    """
    a, b = v
    if a < 0 or b < 0:
        return ()
    return tuple(
        pm + qm
        for pm in exponent_tuples(num_p, a)
        for qm in exponent_tuples(num_q, b)
    )


def ambient_dimension(num_p: int, num_q: int, v: BiDegree) -> int:
    a, b = v
    if a < 0 or b < 0:
        return 0
    if (num_p == 0 and a > 0) or (num_q == 0 and b > 0):
        return 0
    dp = comb(num_p + a - 1, a) if num_p else 1
    dq = comb(num_q + b - 1, b) if num_q else 1
    return dp * dq


@lru_cache(maxsize=None)
def basis_index(num_p: int, num_q: int, v: BiDegree) -> dict:
    """Monomial -> position in the canonical basis of bidegree v."""
    return {m: i for i, m in enumerate(monomial_basis(num_p, num_q, v))}


@lru_cache(maxsize=None)
def shifted_positions(part: Monomial, degree: int) -> tuple[int, ...]:
    """Position of ``part * e`` in ``exponent_tuples(len(part), deg part +
    degree)``, for each e of ``exponent_tuples(len(part), degree)`` in order."""
    n = len(part)
    target = exponent_tuples(n, sum(part) + degree)
    index = {e: i for i, e in enumerate(target)}
    return tuple(index[multiply_monomials(part, e)]
                 for e in exponent_tuples(n, degree))


def multiply_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(map(add, m1, m2))


def bidegrees_up_to_total(bound: int):
    """All (a, b) with a+b <= bound, by increasing total then decreasing a.

    The tie-break mirrors the canonical monomial order (p-heavy first).
    """
    for t in range(bound + 1):
        for a in range(t, -1, -1):
            yield (a, t - a)


def _non_negative(**bounds):
    """Refuse a negative bound of a brute-force window; a bound of None is
    unbounded."""
    if any(bound is not None and bound < 0 for bound in bounds.values()):
        raise InvalidInputError("window must be non-negative, got " + ", ".join(
            f"{name}={bound}" for name, bound in bounds.items()))

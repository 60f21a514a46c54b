"""Closed formulas: Hilbert series, graded Betti tables, Poincare series,
the positive-part operator, Euler-characteristic checks, and the residue
field series for the orthogonal family.

Conventions.  Hilbert series live in (s, t); trigraded Poincare series live
in (s, t, u) with u marking homological degree, so the coefficient of
s^a t^b u^i is the Betti number at (i, (a, b)).

The special-linear family for n = 1 is degenerate: the ideal is zero and the
quotient is the polynomial ring itself, so its table is just beta_0 = 1 and
its Hilbert series is that of the full ring.  All formulas below handle that
case explicitly; the generic special-linear formulas need n >= 2.
"""

from __future__ import annotations

from math import comb

from .betti import BettiTable
from .ideals import FamilyKind, RepFamily
from .monomials import total
from .series import TruncatedSeries, binomial_power, geometric_inverse_power

ST = ("s", "t")
STU = ("s", "t", "u")


def positive_part(h: TruncatedSeries) -> TruncatedSeries:
    return h.positive_part()


def projective_dimension(f: RepFamily) -> int:
    """Largest homological degree carrying a Betti number of the quotient."""
    n = f.n
    if f.kind is FamilyKind.GL:
        return 2 * n - 1
    if f.kind is FamilyKind.SL:
        return 0 if n == 1 else 2 * n
    if f.kind is FamilyKind.SO:
        return n - 1
    return 4 * n


# -- Hilbert series ---------------------------------------------------------

def hilbert_closed(f: RepFamily, order: int) -> TruncatedSeries:
    n = f.n
    one = TruncatedSeries.one(ST, order)
    if f.kind in (FamilyKind.GL, FamilyKind.SL, FamilyKind.SP):
        if f.kind is FamilyKind.SL and n == 1:
            return geometric_inverse_power(ST, order, "s", 1) * \
                geometric_inverse_power(ST, order, "t", 1)
        N = f.num_p
        h = geometric_inverse_power(ST, order, "s", N) + \
            geometric_inverse_power(ST, order, "t", N) - one
        if f.kind is FamilyKind.SL:
            h = h + TruncatedSeries.monomial(ST, order, (1, 1))
        elif f.kind is FamilyKind.SP:
            h = h + TruncatedSeries.monomial(ST, order, (1, 1), 2 * n * n - n)
        return h
    # so: (1 - st * sum_{i=0}^{n-2} (-1)^i C(n, 2+i) h_i(s, t)) / ((1-s)^n (1-t)^n)
    numerator = {(0, 0): 1}
    for i in range(0, n - 1):
        c = (-1) ** i * comb(n, 2 + i)
        for j in range(i + 1):  # h_i = sum of all degree-i monomials in s, t
            e = (1 + j, 1 + i - j)
            numerator[e] = numerator.get(e, 0) - c
    num = TruncatedSeries.make(ST, order, numerator)
    return num * geometric_inverse_power(ST, order, "s", n) * \
        geometric_inverse_power(ST, order, "t", n)


# -- graded Betti tables ----------------------------------------------------

def betti_closed(f: RepFamily) -> BettiTable:
    n = f.n
    entries = {(0, (0, 0)): 1}
    if f.kind is FamilyKind.GL:
        for i in range(1, 2 * n):
            for v1 in range(1, i + 1):
                v2 = i + 1 - v1
                c = comb(n, v1) * comb(n, v2)
                if c:
                    entries[(i, (v1, v2))] = c
    elif f.kind is FamilyKind.SL:
        if n > 1:
            series = poincare_over_S(f)
            for (a, b, i), c in series.coefficients.items():
                if i > 0:
                    entries[(i, (a, b))] = c
    elif f.kind is FamilyKind.SO:
        for i in range(1, n):
            c = comb(n, i + 1)
            for v1 in range(1, i + 1):
                entries[(i, (v1, i + 1 - v1))] = c
    else:  # sp
        entries[(1, (1, 1))] = 2 * n * n + n
        for i in range(2, 4 * n + 1):
            for v1 in range(1, i + 2):
                v2 = i + 2 - v1
                c = (2 * n * n - n) * comb(2 * n, v1 - 1) * comb(2 * n, v2 - 1) \
                    - comb(2 * n, v1) * comb(2 * n, v2)
                if c < 0:
                    raise AssertionError((i, v1, v2, c))
                if c:
                    entries[(i, (v1, v2))] = c
    return BettiTable(str(f.kind.value), n, entries, source="closed")


# -- Poincare series over the ambient ring ----------------------------------

def poincare_over_S(f: RepFamily, order: int | None = None) -> TruncatedSeries:
    """Trigraded generating function sum beta_{i,v} s^{v1} t^{v2} u^i."""
    n = f.n
    if f.kind is FamilyKind.GL:
        full = 4 * n + 2
        work = full if order is None else max(order, full)
        su = binomial_power(STU, work, "s", "u", n)
        tu = binomial_power(STU, work, "t", "u", n)
        one = TruncatedSeries.one(STU, work)
        prod = (su - one) * (tu - one)
        # every term carries u at least twice; the shift must be exact
        series = one + prod.shift_down("u")
    elif f.kind is FamilyKind.SL:
        if n == 1:
            work = 2 if order is None else order
            return TruncatedSeries.one(STU, work).restricted_to(work)
        full = 4 * n + 6
        work = full if order is None else max(order, full)
        su = binomial_power(STU, work, "s", "u", n)
        tu = binomial_power(STU, work, "t", "u", n)
        one = TruncatedSeries.one(STU, work)
        G = su * tu
        stuu = TruncatedSeries.monomial(STU, work, (1, 1, 2))
        pos_low = ((one - stuu) * G).positive_part()   # strand at total degree i+1
        pos_high = ((stuu - one) * G).positive_part()  # strand at total degree i+2
        middle = pos_low + one - su - tu
        series = one + middle.shift_down("u") + pos_high.shift_down("u", 2)
    else:
        table = betti_closed(f)
        full = max((total(v) + i for (i, v) in table.entries), default=0)
        work = full if order is None else max(order, full)
        coeffs = {(v[0], v[1], i): c for (i, v), c in table.entries.items()}
        series = TruncatedSeries.make(STU, work, coeffs)
    if order is not None:
        return series.restricted_to(order)
    return series


def poincare_k_over_so(n: int, order: int) -> TruncatedSeries:
    """Residue-field Poincare series over the orthogonal quotient:
    (1+u)^(n+1) / (1 - u(n-1))."""
    U = ("u",)
    num = TruncatedSeries.make(U, order, {(k,): comb(n + 1, k) for k in range(n + 2)})
    den = TruncatedSeries.make(U, order, {(0,): 1, (1,): -(n - 1)})
    return num * den.inverse()


def froberg_product(P: TruncatedSeries, H: TruncatedSeries, order: int) -> TruncatedSeries:
    """P(-u) * H(u), truncated; equals 1 for a Koszul algebra."""
    return (P.substitute_neg("u") * H).restricted_to(order)


# -- Euler characteristic cross-check ---------------------------------------

def euler_check(f: RepFamily, order: int, table: BettiTable | None = None,
                hilbert: TruncatedSeries | None = None):
    """Check H(s,t) * (1-s)^N (1-t)^N == sum (-1)^i beta_{i,v} s^v1 t^v2.

    Returns (ok, first_mismatch) where the mismatch is (exponents, lhs, rhs).
    """
    N = f.num_p
    H = hilbert if hilbert is not None else hilbert_closed(f, order)
    H = H.restricted_to(order)
    ps = TruncatedSeries.make(ST, order, {(k, 0): (-1) ** k * comb(N, k) for k in range(N + 1)})
    pt = TruncatedSeries.make(ST, order, {(0, k): (-1) ** k * comb(N, k) for k in range(N + 1)})
    lhs = H * ps * pt
    if table is None:
        table = betti_closed(f)
    rhs_coeffs: dict[tuple, int] = {}
    for (i, v), c in table.entries.items():
        if total(v) <= order:
            rhs_coeffs[v] = rhs_coeffs.get(v, 0) + (-1) ** i * c
    rhs = TruncatedSeries.make(ST, order, rhs_coeffs)
    diff = lhs - rhs
    if not diff.coefficients:
        return True, None
    e = min(diff.coefficients, key=lambda x: (sum(x), x))
    return False, (e, lhs.coefficient(e), rhs.coefficient(e))


# -- reference residue-field series for the special-linear quotients --------

def roos_series(which: str, order: int) -> TruncatedSeries:
    """Reference rational forms fitted to the residue-field resolutions over
    the special-linear quotients for n = 2, 3.  Conjectural: treated as
    reference data, not as ground truth."""
    SU = ("s", "u")

    def poly(terms):
        return TruncatedSeries.make(SU, order, terms)

    if which == "sl2":
        num = poly({(0, 0): 1, (1, 1): 2, (2, 2): 1})            # (1+us)^2
        one_minus = poly({(0, 0): 1, (1, 1): -1})
        den = one_minus.power(3) * poly({(0, 0): 1, (1, 1): 1}) - poly({(4, 3): 2})
        return num * den.inverse()
    if which == "sl3":
        num = poly({(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1})  # (1+us)^3
        one_minus = poly({(0, 0): 1, (1, 1): -1})
        inner = poly({(0, 0): 1, (1, 1): -2, (2, 2): -4, (3, 3): -2, (4, 4): 1})
        den = one_minus * inner - poly({(5, 4): 2})
        return num * den.inverse()
    raise ValueError("which must be 'sl2' or 'sl3'")

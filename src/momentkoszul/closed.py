"""Closed formulas: Hilbert series, graded Betti tables, Poincare series,
Euler-characteristic checks, and the residue field series for the
orthogonal family.

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
from .series import TruncatedSeries, geometric_inverse_power

ST = ("s", "t")
STU = ("s", "t", "u")


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
    """Graded Betti table of S/(mu) over S, one formula per family:

    - gl_n: C(n,a) C(n,b) at (a+b-1, (a, b)) for 1 <= a, b <= n;
    - sl_n, n >= 2: D(a,b) = C(n,a) C(n,b) - C(n,a-1) C(n,b-1) for
      1 <= a, b <= n+1, at (a+b-1, (a, b)) when D > 0 and -D at
      (a+b-2, (a, b)) when D < 0; sl_1 is beta_0 alone;
    - so_n: C(n, i+1) at (i, v) for 1 <= i < n and every v1, v2 >= 1 with
      v1 + v2 = i+1;
    - sp_n: 2n^2+n at (1, (1, 1)), and for 2 <= i <= 4n and v1 + v2 = i+2,
      (2n^2-n) C(2n,v1-1) C(2n,v2-1) - C(2n,v1) C(2n,v2) at (i, v).

    The sl table is the paper's series, with G = (1+su)^n (1+tu)^n:
    1 + u^-1([(1-stu^2)G]_+ + 1 - (1+su)^n - (1+tu)^n) + u^-2[(stu^2-1)G]_+.
    """
    n = f.n
    entries = {(0, (0, 0)): 1}
    if f.kind is FamilyKind.GL:
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                entries[(a + b - 1, (a, b))] = comb(n, a) * comb(n, b)
    elif f.kind is FamilyKind.SL:
        if n > 1:
            for a in range(1, n + 2):
                for b in range(1, n + 2):
                    d = comb(n, a) * comb(n, b) - comb(n, a - 1) * comb(n, b - 1)
                    if d > 0:
                        entries[(a + b - 1, (a, b))] = d
                    elif d < 0:
                        entries[(a + b - 2, (a, b))] = -d
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
    """Trigraded generating function sum beta_{i,v} s^{v1} t^{v2} u^i of the
    ``betti_closed`` table, truncated at ``order``; without one, its order is
    the top total degree v1 + v2 + i of the table."""
    entries = betti_closed(f).entries
    if order is None:
        order = max(total(v) + i for (i, v) in entries)
    coeffs = {(v[0], v[1], i): c for (i, v), c in entries.items()}
    return TruncatedSeries.make(STU, order, coeffs)


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

def euler_check(f: RepFamily, order: int, table: BettiTable | None = None):
    """Check H(s,t) * (1-s)^N (1-t)^N == sum (-1)^i beta_{i,v} s^v1 t^v2.

    Returns (ok, first_mismatch) where the mismatch is (exponents, lhs, rhs).
    """
    N = f.num_p
    H = hilbert_closed(f, order)
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

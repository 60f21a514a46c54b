"""Exterior-algebra computations: the rank of multiplication by the standard
symplectic-type quadratic form, square-zero symmetric-polynomial identities,
and Hilbert data of quadratically generated ideals in the exterior algebra.

The exterior algebra here has 2n generators e_1..e_n, f_1..f_n (indices
0..n-1 and n..2n-1); a basis monomial is an ascending tuple of indices.  The
distinguished quadratic form is w = sum_i e_i f_i.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, factorial

from .fields import QQ, Field, InvalidFieldError
from .linalg import Echelon, axpy


def _wedge_insert(mono: tuple[int, ...], x: int) -> tuple[int, tuple[int, ...]] | None:
    """x wedge mono: None if x occurs, else (sign, sorted monomial)."""
    if x in mono:
        return None
    below = sum(1 for y in mono if y < x)
    sign = -1 if below % 2 else 1
    out = tuple(sorted(mono + (x,)))
    return sign, out


def _wedge_pair(mono: tuple[int, ...], e: int,
                f: int) -> tuple[int, tuple[int, ...]] | None:
    """e wedge f wedge mono: f inserted first, then e in front."""
    first = _wedge_insert(mono, f)
    if first is None:
        return None
    s1, m1 = first
    second = _wedge_insert(m1, e)
    if second is None:
        return None
    s2, m2 = second
    return s1 * s2, m2


def wedge_pair_columns(n: int, i: int, fld: Field = QQ):
    """Columns of multiplication by sum_i e_i f_i from degree i to degree i+2."""
    target_index = {m: k for k, m in enumerate(combinations(range(2 * n), i + 2))}
    cols = []
    for mono in combinations(range(2 * n), i):
        # distinct j give distinct target monomials: no entries collide
        col: dict[int, object] = {}
        for j in range(n):
            term = _wedge_pair(mono, j, n + j)
            if term is not None:
                sign, m = term
                col[target_index[m]] = fld.of(sign)
        cols.append(col)
    return cols


def exterior_mult_rank(n: int, i: int, fld: Field = QQ) -> tuple[int, bool]:
    """Exact rank of w: Lambda_i -> Lambda_{i+2}, and whether it is maximal."""
    if not 0 <= i <= 2 * n - 2:
        raise ValueError("need 0 <= i <= 2n-2")
    ech = Echelon(fld.p)
    for col in wedge_pair_columns(n, i, fld):
        ech.insert(col)
    dims = (comb(2 * n, i), comb(2 * n, i + 2))
    return ech.dimension, ech.dimension == min(dims)


# -- square-zero symmetric polynomial identity --------------------------------

def _elementary_symmetric(var_indices, k: int):
    """s_k over square-zero variables: dict frozenset -> coefficient."""
    if k < 0 or k > len(var_indices):
        return {}
    return {frozenset(c): 1 for c in combinations(var_indices, k)}


def _sq_mul(a: dict, b: dict, p: int | None) -> dict:
    out: dict[frozenset, object] = {}
    for ka, ca in a.items():
        # squares vanish; for fixed ka the products ka | kb are distinct
        axpy(out, ca, {ka | kb: cb for kb, cb in b.items() if not ka & kb}, p)
    return out


def symmetric_identity_check(u_count: int, v_count: int, d: int,
                             fld: Field = QQ) -> bool:
    """Verify, over square-zero variables x_1..x_u and y_1..y_v, that

        (s_1(x)+s_1(y)) * sum_{k=0}^d (-1)^k k! (d-k)! s_k(x) s_{d-k}(y)
            = (d+1)! (s_{d+1}(y) + (-1)^d s_{d+1}(x))

    by expanding both sides and comparing coefficients exactly.
    """
    if 0 < fld.char <= d + 1:
        raise InvalidFieldError(f"identity at d={d} needs characteristic 0 or > {d + 1}")
    p = fld.p
    xs = tuple(range(u_count))
    ys = tuple(range(u_count, u_count + v_count))
    s1 = {**_elementary_symmetric(xs, 1), **_elementary_symmetric(ys, 1)}
    acc: dict[frozenset, object] = {}
    for k in range(d + 1):
        c = (-1) ** k * factorial(k) * factorial(d - k)
        axpy(acc, c, _sq_mul(_elementary_symmetric(xs, k),
                             _elementary_symmetric(ys, d - k), p), p)
    lhs = _sq_mul(s1, acc, p)
    rhs: dict[frozenset, object] = {}
    axpy(rhs, factorial(d + 1), _elementary_symmetric(ys, d + 1), p)
    axpy(rhs, (-1) ** d * factorial(d + 1), _elementary_symmetric(xs, d + 1), p)
    return lhs == rhs


# -- quadratic ideals inside the exterior algebra ------------------------------

def _bigraded_basis(n: int, a: int, b: int):
    """Basis of the (a, b) piece: a of the e's wedged with b of the f's."""
    return [
        tuple(sorted(A)) + tuple(sorted(n + j for j in B))
        for A in combinations(range(n), a)
        for B in combinations(range(n), b)
    ]


def _ideal_piece_dim(n: int, pairs, a: int, b: int) -> int:
    """dim at (a, b) of the ideal generated by e_i f_j for (i, j) in pairs.

    The piece is spanned by the products +-mu e_i f_j, each a signed basis
    monomial, so over every field its dimension is the number of distinct
    monomials hit."""
    if a < 1 or b < 1 or a > n or b > n:
        return 0
    hit = set()
    for (i, j) in pairs:
        for mu in _bigraded_basis(n, a - 1, b - 1):
            term = _wedge_pair(mu, i, n + j)
            if term is not None:
                hit.add(term[1])
    return len(hit)


def gl_ext_module_candidates(n: int) -> dict:
    """Compare two candidate exterior ideals against the cohomology module of
    the monomial-quadric quotient.

    The target has dimension C(n, a) * C(n, b) in bidegree (a, b) for
    a, b >= 1.  Candidates: the ideal generated by ALL e_i f_j, and the one
    generated by the diagonal e_j f_j only.  Returns which candidate matches,
    as observed data; monomial ideals have the same dimensions over every
    field, so no field is asked for.
    """
    full_pairs = [(i, j) for i in range(n) for j in range(n)]
    diag_pairs = [(j, j) for j in range(n)]
    full_ok = True
    diag_ok = True
    first_diag_mismatch = None
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            target = comb(n, a) * comb(n, b)
            if _ideal_piece_dim(n, full_pairs, a, b) != target:
                full_ok = False
            ddim = _ideal_piece_dim(n, diag_pairs, a, b)
            if ddim != target and diag_ok:
                diag_ok = False
                first_diag_mismatch = ((a, b), ddim, target)
    return {
        "full_matches": full_ok,
        "diagonal_matches": diag_ok,
        "first_diagonal_mismatch": first_diag_mismatch,
    }

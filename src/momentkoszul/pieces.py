"""Graded pieces of the ambient ring and of bihomogeneous ideals.

A graded piece is a finite-dimensional vector space in one bidegree.  For the
full ring the canonical monomial basis is the basis; for an ideal piece we
store the reduced row-echelon rows of the span of ``generator * monomial``
over the ambient basis, which is the canonical representative of the
subspace (independent of generator order).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import QQ, Field
from .linalg import Echelon, InvalidInputError, rank_of_vectors
from .monomials import (
    BiDegree,
    Monomial,
    ambient_dimension,
    exponent_tuples,
    monomial_basis,
    shifted_positions,
    sub_bidegrees,
)


@dataclass(frozen=True)
class GradedPiece:
    """One bidegree of a graded space.

    ``basis`` is the ambient monomial basis (column labels).  ``vectors`` is
    None for the full piece, else the canonical RREF rows of a subspace, each
    a tuple of (column, coefficient) pairs.
    """

    bidegree: BiDegree
    basis: tuple[Monomial, ...]
    vectors: tuple | None = None

    @property
    def dimension(self) -> int:
        if self.vectors is None:
            return len(self.basis)
        return len(self.vectors)


def _check_ambient(generators) -> tuple[int, int]:
    ambients = {(g.num_p, g.num_q) for g in generators}
    if len(ambients) != 1:
        raise InvalidInputError("generators live in different ambients")
    for g in generators:
        if not g.is_bihomogeneous():
            raise InvalidInputError(f"generator {g} is not bihomogeneous")
    return ambients.pop()


def ideal_span_vectors(generators, v: BiDegree, fld: Field = QQ):
    """Sparse vectors g*m (over the canonical basis of bidegree v) spanning I_v.

    One per generator g and monomial m of bidegree u = v - deg g, in that
    order, equal to the coefficients of ``g.times_monomial(m)``.  The basis
    of v is P_a x Q_b in canonical order, so a term t = t_p t_q sends the
    (i, j)-th monomial of u to position ``sp[i] * |Q_b| + sq[j]``, where
    ``sp`` and ``sq`` are the cached ``shifted_positions`` tables of t_p and
    t_q; no product monomial is built.  Each term's positions and field
    coefficient are computed once per generator, and only when some m exists.

    ``QuotientRing.piece`` skips this whole span when a cached piece
    directly below v is a zero quotient piece, since then I_v = S_v.
    """
    if not generators:
        return
    num_p, num_q = _check_ambient(generators)
    width = len(exponent_tuples(num_q, v[1]))
    for g in generators:
        w = g.bidegree()
        if w is None:
            continue
        a, b = sub_bidegrees(v, w)
        if a < 0 or b < 0:
            continue
        columns = []
        for t, _ in g.terms:
            sq = shifted_positions(t[num_p:], b)
            columns.append([i * width + j
                            for i in shifted_positions(t[:num_p], a) for j in sq])
        if not columns[0]:
            continue
        coeffs = [fld.of(c) for _, c in g.terms]
        for positions in zip(*columns):
            yield dict(zip(positions, coeffs))


def ideal_piece(generators, v: BiDegree, fld: Field = QQ) -> GradedPiece:
    """The degree-v piece of the ideal generated by bihomogeneous generators."""
    if generators:
        num_p, num_q = _check_ambient(generators)
    else:
        raise InvalidInputError("empty generator list has no ambient")
    space = Echelon(fld.p)
    for vec in ideal_span_vectors(generators, v, fld):
        space.insert(vec)
    return GradedPiece(v, monomial_basis(num_p, num_q, v), space.canonical_rows())


def quotient_dimension(generators, v: BiDegree, fld: Field = QQ) -> int:
    """dim (S/I)_v = dim S_v - dim I_v."""
    if not generators:
        raise InvalidInputError("empty generator list has no ambient")
    num_p, num_q = _check_ambient(generators)
    amb = ambient_dimension(num_p, num_q, v)
    if amb == 0:
        return 0
    return amb - rank_of_vectors(ideal_span_vectors(generators, v, fld), fld)


def pieces_equal(gens_a, gens_b, v: BiDegree, fld: Field = QQ) -> bool:
    """Whether two generating sets span the same degree-v subspace."""
    return ideal_piece(gens_a, v, fld).vectors == ideal_piece(gens_b, v, fld).vectors


def piece_contains(gens_big, gens_small, v: BiDegree, fld: Field = QQ) -> bool:
    """Whether the degree-v span of gens_small sits inside that of gens_big."""
    space = Echelon(fld.p)
    for vec in ideal_span_vectors(gens_big, v, fld):
        space.insert(vec)
    return all(space.contains(vec) for vec in ideal_span_vectors(gens_small, v, fld))

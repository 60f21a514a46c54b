"""Ideal pieces I_v spanned by bihomogeneous generators, and a reference
quotient dimension.

``ideal_span_vectors`` writes the products ``generator * monomial`` of
bidegree v as sparse vectors over the canonical monomial basis of S_v; every
route to an ideal piece starts from them.  ``QuotientRing`` (``quotient.py``)
is the one place that eliminates them, and the structure checks
``piece_contains`` and ``pieces_equal`` live beside it.  ``quotient_dimension``
ranks the same vectors on its own: it is the independent reference that tests
compare ``QuotientRing.dim`` against, so it does not route through
``QuotientRing``.
"""

from __future__ import annotations

from .fields import QQ, Field
from .linalg import InvalidInputError, rank_of_vectors
from .monomials import (
    BiDegree,
    ambient_dimension,
    exponent_tuples,
    shifted_positions,
    sub_bidegrees,
)


def _check_ambient(generators) -> tuple[int, int]:
    if not generators:
        raise InvalidInputError("empty generator list has no ambient")
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
    t_q; no product monomial is built.  Each term's field coefficient and
    positions are computed once per generator; a term whose coefficient is
    zero in the field is skipped, so every entry is a nonzero field element.

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
        columns, coeffs = [], []
        for t, c in g.terms:
            c = fld.of(c)
            if not c:
                continue
            sq = shifted_positions(t[num_p:], b)
            columns.append([i * width + j
                            for i in shifted_positions(t[:num_p], a) for j in sq])
            coeffs.append(c)
        if not columns or not columns[0]:
            continue
        for positions in zip(*columns):
            yield dict(zip(positions, coeffs))


def quotient_dimension(generators, v: BiDegree, fld: Field = QQ) -> int:
    """dim (S/I)_v = dim S_v - dim I_v."""
    num_p, num_q = _check_ambient(generators)
    amb = ambient_dimension(num_p, num_q, v)
    if amb == 0:
        return 0
    return amb - rank_of_vectors(ideal_span_vectors(generators, v, fld), fld)

"""Ideal pieces I_v spanned by bihomogeneous generators, and a reference
quotient dimension.

``ideal_span_vectors`` writes the products ``generator * monomial`` of
bidegree v as sparse vectors over the canonical monomial basis of S_v; every
route to an ideal piece starts from them.  ``QuotientRing`` (``quotient.py``)
is the one place that eliminates whole pieces, and the structure checks
``piece_contains`` and ``pieces_equal`` live beside it.  ``hilbert_oracle``
(``oracle.py``) eliminates only the products of dominant torus weight, which
it selects through ``keep``, one echelon per bidegree.
``quotient_dimension`` ranks the same vectors on its own: it is the
independent reference that tests compare ``QuotientRing.dim`` against, so it
does not route through ``QuotientRing``.
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


def ideal_span_vectors(generators, v: BiDegree, fld: Field = QQ, keep=None):
    """Sparse vectors g*m (over the canonical basis of bidegree v) spanning I_v.

    One per generator g and monomial m of bidegree u = v - deg g, in that
    order, equal to the coefficients of ``g.times_monomial(m)``.  The basis
    of v is P_a x Q_b in canonical order, so a term t = t_p t_q sends the
    (i, j)-th monomial of u to position ``sp[i] * |Q_b| + sq[j]``, where
    ``sp`` and ``sq`` are the cached ``shifted_positions`` tables of t_p and
    t_q; no product monomial is built.  Each term's field coefficient and
    positions are computed once per generator; a term whose coefficient is
    zero in the field is skipped, so every entry is a nonzero field element.

    ``keep(g, u)``, when given, returns the indices k of the monomials m of
    u (the k-th of the canonical basis of S_u) whose products are wanted,
    in the order to yield them; the other products are skipped before any
    position is computed.  It is called for a generator with a term nonzero
    in the field.  ``hilbert_oracle`` keeps the products of dominant weight.

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
        sides, coeffs = [], []
        for t, c in g.terms:
            c = fld.of(c)
            if c:
                sides.append((shifted_positions(t[:num_p], a),
                              shifted_positions(t[num_p:], b)))
                coeffs.append(c)
        if not coeffs:
            continue
        if keep is None:
            columns = [[i * width + j for i in sp for j in sq] for sp, sq in sides]
        else:
            # the k-th monomial of u is the (k // |Q_b|, k % |Q_b|)-th pair
            pairs = [divmod(k, len(sides[0][1])) for k in keep(g, (a, b))]
            columns = [[sp[i] * width + sq[j] for i, j in pairs] for sp, sq in sides]
        for positions in zip(*columns):
            yield dict(zip(positions, coeffs))


def quotient_dimension(generators, v: BiDegree, fld: Field = QQ) -> int:
    """dim (S/I)_v = dim S_v - dim I_v."""
    num_p, num_q = _check_ambient(generators)
    amb = ambient_dimension(num_p, num_q, v)
    if amb == 0:
        return 0
    return amb - rank_of_vectors(ideal_span_vectors(generators, v, fld), fld)

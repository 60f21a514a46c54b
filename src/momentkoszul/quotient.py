"""Graded quotient rings S/I presented piece by piece.

Each bidegree v gets a fixed section of the projection S_v -> (S/I)_v: the
ideal piece is kept in reduced row-echelon form and the quotient basis is the
complement of the pivot monomials, so normal forms and multiplication by a
variable become concrete sparse matrices.  The pivots are the lex-leading
monomials of I_v, so the quotient basis is the set of standard monomials and
is closed under division.  Everything is cached per ring and computed
lazily; all choices are canonical for the fixed monomial order, so repeated
runs produce identical matrices.
"""

from __future__ import annotations

from .fields import QQ, Field
from .linalg import Echelon, axpy
from .monomials import (
    BiDegree,
    ambient_dimension,
    basis_index,
    monomial_basis,
)
from .pieces import ideal_span_vectors


class QuotientPiece:
    """One bidegree of S/I: pivot data of I_v plus the complement basis."""

    __slots__ = ("bidegree", "ambient", "rref", "complement", "positions")

    def __init__(self, bidegree, ambient, rref, complement, positions):
        self.bidegree = bidegree
        self.ambient = ambient          # canonical monomial basis of S_v
        self.rref = rref                # Echelon of I_v
        self.complement = complement    # ambient indices of the quotient basis
        self.positions = positions      # ambient index -> quotient coordinate

    @property
    def dimension(self) -> int:
        return len(self.complement)


class QuotientRing:
    def __init__(self, generators, num_p: int, num_q: int, fld: Field = QQ):
        self.generators = list(generators)
        self.num_p = num_p
        self.num_q = num_q
        self.field = fld
        self._pieces: dict[BiDegree, QuotientPiece] = {}
        self._mult: dict[tuple[int, BiDegree], list[dict[int, object]]] = {}
        self._ideal_rank: dict[BiDegree, int] = {}
        self._commutes: dict[tuple[int, int, BiDegree], bool] = {}

    @property
    def nvars(self) -> int:
        return self.num_p + self.num_q

    def var_bidegree(self, x: int) -> BiDegree:
        return (1, 0) if x < self.num_p else (0, 1)

    def piece(self, v: BiDegree) -> QuotientPiece:
        got = self._pieces.get(v)
        if got is not None:
            return got
        ambient = monomial_basis(self.num_p, self.num_q, v)
        rref = Echelon(self.field.p)
        if self.generators:
            for vec in ideal_span_vectors(self.generators, v, self.field):
                rref.insert(vec)
        complement = tuple(j for j in range(len(ambient)) if j not in rref.rows)
        positions = {j: k for k, j in enumerate(complement)}
        piece = QuotientPiece(v, ambient, rref, complement, positions)
        self._pieces[v] = piece
        return piece

    def dim(self, v: BiDegree) -> int:
        if v[0] < 0 or v[1] < 0:
            return 0
        return self.piece(v).dimension

    def ideal_rank(self, v: BiDegree) -> int:
        """dim I_v by rank only (no echelon kept); cheap for large pieces.

        Every monomial of bidegree (a, b) is a p-variable times one of
        bidegree (a - 1, b) when a >= 1, and a q-variable times one of
        (a, b - 1) when b >= 1.  So if either piece directly below v is a
        zero quotient piece, I_v = S_v and nothing is eliminated.  Only
        pieces and ranks the ring already holds are consulted, never
        computed, so asking in increasing total degree (as
        ``hilbert_oracle`` does) finds them, and a lone call on a fresh ring
        eliminates.
        """
        got = self._ideal_rank.get(v)
        if got is not None:
            return got
        if any(self._known_zero(w) for w in ((v[0] - 1, v[1]), (v[0], v[1] - 1))):
            rank = ambient_dimension(self.num_p, self.num_q, v)
        elif not self.generators:
            rank = 0
        else:
            ech = Echelon(self.field.p)
            for vec in ideal_span_vectors(self.generators, v, self.field):
                ech.insert(vec)
            rank = ech.dimension
        self._ideal_rank[v] = rank
        return rank

    def _known_zero(self, w: BiDegree) -> bool:
        """Whether (S/I)_w is already known to be zero, from a cached piece
        or a cached ideal rank; w outside the quadrant is not known."""
        if w[0] < 0 or w[1] < 0:
            return False
        piece = self._pieces.get(w)
        if piece is not None:
            return not piece.dimension
        rank = self._ideal_rank.get(w)
        return rank is not None and rank == ambient_dimension(self.num_p, self.num_q, w)

    def quotient_dim_fast(self, v: BiDegree) -> int:
        """dim (S/I)_v from a cached piece, else from ``ideal_rank``, which
        reads a zero piece off a known zero piece directly below v."""
        if v[0] < 0 or v[1] < 0:
            return 0
        piece = self._pieces.get(v)
        if piece is not None:
            return piece.dimension
        return ambient_dimension(self.num_p, self.num_q, v) - self.ideal_rank(v)

    def nf(self, v: BiDegree, ambient_vec: dict) -> dict:
        """Reduce an ambient coefficient vector to quotient coordinates."""
        piece = self.piece(v)
        reduced = piece.rref.reduce(ambient_vec)
        return {piece.positions[j]: c for j, c in reduced.items()}

    def mult_by_var(self, x: int, v: BiDegree) -> list[dict]:
        """Columns of multiplication by variable x: (S/I)_v -> (S/I)_{v+deg x}.

        Entry k is the quotient-coordinate vector of x * (k-th basis monomial).
        """
        key = (x, v)
        got = self._mult.get(key)
        if got is not None:
            return got
        src = self.piece(v)
        w = self._shifted(v, x)
        tgt_index = basis_index(self.num_p, self.num_q, w)
        cols = []
        for j in src.complement:
            mono = src.ambient[j]
            shifted = mono[:x] + (mono[x] + 1,) + mono[x + 1:]
            cols.append(self.nf(w, {tgt_index[shifted]: 1}))
        self._mult[key] = cols
        return cols

    def commutes(self, x: int, y: int, v: BiDegree) -> bool:
        """Whether x * y = y * x on (S/I)_v, composing ``mult_by_var`` maps.

        Checked once per (x, y, v) and cached with the ring.  A piece above a
        zero piece is zero, so a composite through a zero piece lands in the
        zero piece (S/I)_{v + deg x + deg y}; there both sides are the zero
        map and no multiplication map is built.
        """
        key = (x, y, v) if x < y else (y, x, v)
        ok = self._commutes.get(key)
        if ok is None:
            top = self._shifted(self._shifted(v, x), y)
            ok = not self.dim(top) or self._composite(x, y, v) == self._composite(y, x, v)
            self._commutes[key] = ok
        return ok

    def _shifted(self, v: BiDegree, x: int) -> BiDegree:
        return (v[0] + 1, v[1]) if x < self.num_p else (v[0], v[1] + 1)

    def _composite(self, x: int, y: int, v: BiDegree) -> list[dict]:
        """Columns of y * x on (S/I)_v, x applied first."""
        p = self.field.p
        second = self.mult_by_var(y, self._shifted(v, x))
        out = []
        for col in self.mult_by_var(x, v):
            acc: dict = {}
            for k, c in col.items():
                axpy(acc, c, second[k], p)
            out.append(acc)
        return out

    def monomial_label(self, v: BiDegree, position: int) -> tuple:
        """The complement basis monomial at a quotient coordinate."""
        piece = self.piece(v)
        return piece.ambient[piece.complement[position]]


def ring_for_family(f, fld: Field = QQ) -> QuotientRing:
    from .ideals import generators

    f.check_field(fld)
    return QuotientRing(generators(f), f.num_p, f.num_q, fld)

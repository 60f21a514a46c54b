"""Graded quotient rings S/I presented piece by piece.

Each bidegree v gets a fixed section of the projection S_v -> (S/I)_v: the
ideal piece is kept in reduced row-echelon form and the quotient basis is the
complement of the pivot monomials, so normal forms and multiplication by a
variable become concrete sparse matrices.  The pivots are the lex-leading
monomials of I_v, so the quotient basis is the set of standard monomials and
is closed under division.  Everything is cached per ring and computed
lazily; all choices are canonical for the fixed monomial order, so repeated
runs produce identical matrices.

``QuotientRing.piece`` is the one route to (S/I)_v and its dimension.  A
``QuotientPiece`` holds the echelon of I_v (``rref``), the standard monomials
in canonical order (``basis``) and the map from ambient index to quotient
coordinate (``positions``).  Every monomial of bidegree (a, b) is a
p-variable times one of (a - 1, b) when a >= 1, and a q-variable times one of
(a, b - 1) when b >= 1.  So when a cached piece directly below v is zero,
I_v = S_v and the piece is built zero without eliminating, with an empty
echelon; asking in increasing total degree finds those pieces.  A degree
outside the quadrant is a zero piece too.
"""

from __future__ import annotations

from .fields import QQ, Field
from .linalg import Echelon, axpy
from .monomials import BiDegree, ambient_dimension, basis_index, exponent_tuples
from .pieces import ideal_span_vectors


class QuotientPiece:
    """One bidegree of S/I: the echelon of I_v and the quotient basis."""

    __slots__ = ("bidegree", "rref", "basis", "positions")

    def __init__(self, bidegree, rref, basis, positions):
        self.bidegree = bidegree
        self.rref = rref                # Echelon of I_v; empty on a zero piece
        self.basis = basis              # standard monomials, canonical order
        self.positions = positions      # ambient index -> quotient coordinate

    @property
    def dimension(self) -> int:
        return len(self.basis)


class QuotientRing:
    def __init__(self, generators, num_p: int, num_q: int, fld: Field = QQ):
        self.generators = list(generators)
        self.num_p = num_p
        self.num_q = num_q
        self.field = fld
        self._pieces: dict[BiDegree, QuotientPiece] = {}
        self._mult: dict[tuple[int, BiDegree], list[dict[int, object]]] = {}
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
        a, b = v
        rref = Echelon(self.field.p)
        basis, positions = (), {}
        below = (self._pieces.get(w) for w in ((a - 1, b), (a, b - 1)) if min(w) >= 0)
        if a >= 0 and b >= 0 and all(low is None or low.basis for low in below):
            for vec in ideal_span_vectors(self.generators, v, self.field):
                rref.insert(vec)
            complement = [j for j in range(ambient_dimension(self.num_p, self.num_q, v))
                          if j not in rref.rows]
            # ambient index j is the (j // |Q_b|, j % |Q_b|)-th pair of P_a x Q_b
            ps, qs = exponent_tuples(self.num_p, a), exponent_tuples(self.num_q, b)
            basis = tuple(ps[j // len(qs)] + qs[j % len(qs)] for j in complement)
            positions = {j: k for k, j in enumerate(complement)}
        piece = QuotientPiece(v, rref, basis, positions)
        self._pieces[v] = piece
        return piece

    def dim(self, v: BiDegree) -> int:
        return self.piece(v).dimension

    # an alias of ``dim``, kept because ``perfbench/tracing.py`` calls it
    quotient_dim_fast = dim

    def ideal_rank(self, v: BiDegree) -> int:
        """dim I_v = dim S_v - dim (S/I)_v."""
        return ambient_dimension(self.num_p, self.num_q, v) - self.dim(v)

    def nf(self, v: BiDegree, ambient_vec: dict) -> dict:
        """Reduce an ambient coefficient vector to quotient coordinates."""
        piece = self.piece(v)
        if not piece.basis:
            return {}
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
        w = self._shifted(v, x)
        tgt_index = basis_index(self.num_p, self.num_q, w)
        cols = []
        for mono in self.piece(v).basis:
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
        """The standard monomial at a quotient coordinate."""
        return self.piece(v).basis[position]


def ring_for_family(f, fld: Field = QQ) -> QuotientRing:
    from .ideals import generators

    f.check_field(fld)
    return QuotientRing(generators(f), f.num_p, f.num_q, fld)

"""Graded quotient rings S/I presented piece by piece.

Each bidegree v gets a fixed section of the projection S_v -> (S/I)_v: the
ideal piece is kept in reduced row-echelon form and the quotient basis is the
complement of the pivot monomials, so normal forms and multiplication by a
variable become concrete sparse matrices.  The pivots are the lex-leading
monomials of I_v, so the quotient basis is the set of standard monomials and
is closed under division.  Everything is cached per ring and computed
lazily; all choices are canonical for the fixed monomial order, so repeated
runs produce identical matrices.

The multiplication maps are read off the reduced rows, not reduced: x times
a standard monomial is either standard, its own coordinate, or a pivot
monomial j, which is congruent to minus the reduced row of j without its
pivot.  ``commutes`` composes two maps by lookup where a column is {k: 1},
and ``annihilator`` stacks the maps of every variable to read the socle.

``QuotientRing.piece`` is the one route to a piece (S/I)_v with a basis and
normal forms; ``hilbert_oracle`` counts dimensions by weight class without
building pieces.  A ``QuotientPiece`` holds the echelon of I_v (``rref``),
the standard monomials in canonical order (``basis``) and the map from
ambient index to quotient coordinate (``positions``).  Every monomial of bidegree (a, b) is a
p-variable times one of (a - 1, b) when a >= 1, and a q-variable times one of
(a, b - 1) when b >= 1.  So when a cached piece directly below v is zero,
I_v = S_v and the piece is built zero without eliminating, with an empty
echelon; asking in increasing total degree finds those pieces.  A degree
outside the quadrant is a zero piece too.

The structure checks ``piece_contains`` and ``pieces_equal`` compare ideal
pieces through these dimensions: J_v contains I_v exactly when
dim (S/J)_v = dim (S/(I + J))_v.  Each check holds one ring per generator
list and asks the listed degrees in increasing total degree.
"""

from __future__ import annotations

from .fields import QQ, Field
from .linalg import Echelon, axpy, kernel_of_columns
from .monomials import BiDegree, ambient_dimension, basis_index, exponent_tuples, total
from .pieces import _check_ambient, ideal_span_vectors


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

        Entry k is the quotient-coordinate vector of x * (k-th basis
        monomial), read off the reduced echelon of the target piece with no
        reduction: a standard monomial is its own coordinate, and a pivot
        monomial j is congruent to minus its reduced row without the pivot.
        The entries are those ``nf`` gives: plain ints where integral over
        QQ, values in 1..p-1 over F_p.
        """
        key = (x, v)
        got = self._mult.get(key)
        if got is not None:
            return got
        w = self._shifted(v, x)
        target, source = self.piece(w), self.piece(v).basis
        if not target.basis:
            cols = [{} for _ in source]
        else:
            rows, positions = target.rref.reduced_rows(), target.positions
            p = self.field.p
            tgt_index = basis_index(self.num_p, self.num_q, w)
            cols = []
            for mono in source:
                j = tgt_index[mono[:x] + (mono[x] + 1,) + mono[x + 1:]]
                row = rows.get(j)
                if row is None:
                    cols.append({positions[j]: 1})
                elif p is None:
                    cols.append({positions[k]: -c for k, c in row.items() if k != j})
                else:
                    cols.append({positions[k]: p - c for k, c in row.items() if k != j})
        self._mult[key] = cols
        return cols

    def annihilator(self, v: BiDegree) -> list[dict]:
        """Kernel basis of the annihilator of all the variables in (S/I)_v,
        in its quotient coordinates, by ``kernel_of_columns``.

        Column k stacks x times the k-th basis monomial for every variable
        x, the map of x at the rows after the targets of the variables
        before it.  The vectors are read off the reduced row echelon of that
        matrix, which is canonical for its row space."""
        cols = [{} for _ in range(self.dim(v))]
        offset = 0
        for x in range(self.nvars):
            for col, image in zip(cols, self.mult_by_var(x, v)):
                col.update((offset + t, c) for t, c in image.items())
            offset += self.dim(self._shifted(v, x))
        return kernel_of_columns(cols, self.field)

    def commutes(self, x: int, y: int, v: BiDegree) -> bool:
        """Whether x * y = y * x on (S/I)_v, composing ``mult_by_var`` maps.

        A piece above a zero piece is zero, so a composite through a zero
        piece lands in the zero piece (S/I)_{v + deg x + deg y}; there both
        sides are the zero map and no multiplication map is built.  Nothing
        is cached here: ``KoszulOracle.check_dd`` asks each square once.
        """
        top = self._shifted(self._shifted(v, x), y)
        return not self.dim(top) or self._composite(x, y, v) == self._composite(y, x, v)

    def _shifted(self, v: BiDegree, x: int) -> BiDegree:
        return (v[0] + 1, v[1]) if x < self.num_p else (v[0], v[1] + 1)

    def _composite(self, x: int, y: int, v: BiDegree) -> list[dict]:
        """Columns of y * x on (S/I)_v, x applied first.

        A first-map column {k: 1} composes to column k of the second map
        itself, shared and not copied: composites are only compared.  Any
        other column is summed by ``axpy``."""
        p = self.field.p
        second = self.mult_by_var(y, self._shifted(v, x))
        out = []
        for col in self.mult_by_var(x, v):
            if len(col) == 1:
                (k, c), = col.items()
                if c == 1:
                    out.append(second[k])
                    continue
            acc: dict = {}
            for k, c in col.items():
                axpy(acc, c, second[k], p)
            out.append(acc)
        return out


def _rings(fld: Field, *generator_lists) -> list[QuotientRing]:
    """One ring per generator list and one for their union, over the ambient
    that all lists share."""
    for gens in generator_lists:
        _check_ambient(gens)
    union = [g for gens in generator_lists for g in gens]
    num_p, num_q = _check_ambient(union)
    return [QuotientRing(gens, num_p, num_q, fld) for gens in (*generator_lists, union)]


def piece_contains(gens_big, gens_small, degrees, fld: Field = QQ) -> bool:
    """Whether (I_small)_v sits inside (I_big)_v for every listed degree v.

    That holds exactly when dim (S/I_big)_v = dim (S/(I_big + I_small))_v.
    Degrees are asked in increasing total degree, so that each ring reads a
    zero piece off the piece below.
    """
    big, _, joint = _rings(fld, gens_big, gens_small)
    return all(big.dim(v) == joint.dim(v) for v in sorted(degrees, key=total))


def pieces_equal(gens_a, gens_b, degrees, fld: Field = QQ) -> bool:
    """Whether A_v = B_v for every listed degree v: A, B and A + B give
    equal quotient dimensions there.  Degrees are asked as in
    ``piece_contains``."""
    a, b, joint = _rings(fld, gens_a, gens_b)
    return all(a.dim(v) == b.dim(v) == joint.dim(v)
               for v in sorted(degrees, key=total))


def ring_for_family(f, fld: Field = QQ) -> QuotientRing:
    from .ideals import generators

    f.check_field(fld)
    return QuotientRing(generators(f), f.num_p, f.num_q, fld)

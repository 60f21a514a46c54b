"""Exact sparse linear algebra: one accumulate helper and one eliminator.

A vector is a dict ``index -> value`` holding only nonzero entries.  Values
are field elements: over QQ plain ints, with a ``Fraction`` only where a value
is not integral; over F_p ints in ``range(p)``.  The routines take the
modulus ``p`` (None for QQ) instead of a ``Field``, so the inner loops do
plain int arithmetic with no method call per scalar.

* ``axpy(acc, c, vec, p)`` adds ``c * vec`` to ``acc`` in place.
* ``Echelon(p)`` keeps the row space of the vectors inserted into it.  Each
  row is keyed by its smallest index (its pivot) and scaled to pivot 1, so
  the rank and the pivot set do not depend on insertion order.  ``insert``
  copies its vector without reducing it, so, as for ``axpy``, its entries
  must be nonzero field elements; an entry that is zero in the field raises
  ``InvalidInputError`` instead of stalling the elimination.  Insertion
  reduces forward only; ``reduced_rows`` back-substitutes once, on demand, to
  the reduced row-echelon form, which is a canonical invariant of the
  subspace for the fixed index order, and ``reduce`` and ``canonical_rows``
  read it.  They hold no integral ``Fraction``: axpy over QQ can leave one,
  so ``reduced_rows`` and ``reduce`` convert it.
"""

from __future__ import annotations

from .fields import QQ, Field


class InvalidInputError(ValueError):
    """Structurally invalid input (mismatched ambients, shapes, ...)."""


def axpy(acc: dict, c, vec: dict, p: int | None = None) -> dict:
    """``acc += c * vec`` in place, reduced mod p when p is set; returns acc.

    Entries that cancel are removed, so ``acc`` stays sparse.  The entries of
    ``vec`` must be nonzero field elements.
    """
    if p is not None:
        c %= p
    if not c:
        return acc
    get = acc.get
    if p is None:
        for k, x in vec.items():
            y = get(k, 0) + c * x
            if y:
                acc[k] = y
            else:
                del acc[k]
    else:
        for k, x in vec.items():
            y = (get(k, 0) + c * x) % p
            if y:
                acc[k] = y
            else:
                del acc[k]
    return acc


class Echelon:
    """Row-echelon form of a subspace; ``p is None`` means QQ, else F_p.

    ``rows`` maps pivot index -> row with entry 1 at the pivot and no entry
    below it.  After ``reduced_rows`` (or ``reduce``) the rows are fully
    reduced: no row has an entry in another row's pivot column.
    """

    def __init__(self, p: int | None = None):
        self.p = p
        self.rows: dict[int, dict] = {}
        self._reduced = True

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def _clean(self, vec: dict) -> dict:
        """A fresh copy of ``vec`` with entries reduced mod p and zeros dropped."""
        p = self.p
        if p is None:
            return {j: x for j, x in vec.items() if x}
        return {j: y for j, x in vec.items() if (y := x % p)}

    def _plain_ints(self, vec: dict) -> dict:
        """``vec`` with every integral Fraction made a plain int (QQ only)."""
        if self.p is not None:
            return vec
        return {j: x.numerator if x.denominator == 1 else x
                for j, x in vec.items()}

    def insert(self, vec: dict) -> bool:
        """Add ``vec`` to the span; returns True when the span grows.

        ``vec`` is copied, not reduced: its entries must be nonzero field
        elements.  One that is zero in the field raises ``InvalidInputError``
        when it reaches the smallest index, and is caught in the new row
        otherwise, so it can neither stall the loop nor enter a row.  Over
        F_p a new row is stored with every entry in 1..p-1.
        """
        vec = dict(vec)
        rows, p = self.rows, self.p
        # subtract rows until the smallest index is not a pivot; ``vec`` is
        # left empty exactly when it lies in the span
        while vec:
            piv = min(vec)
            c = vec[piv]
            if not (c if p is None else c % p):
                raise InvalidInputError(f"zero entry at index {piv}")
            row = rows.get(piv)
            if row is None:
                break
            axpy(vec, -c, row, p)
        if not vec:
            return False
        if p is not None:
            # scaling to pivot 1 also reduces an entry outside 1..p-1
            if c != 1 or min(vec.values()) < 1 or max(vec.values()) >= p:
                inv = pow(c, -1, p)
                vec = {j: x * inv % p for j, x in vec.items()}
                if 0 in vec.values():
                    raise InvalidInputError("zero entry in a new row")
        elif not all(vec.values()):
            raise InvalidInputError("zero entry in a new row")
        elif c == -1:
            # the usual QQ pivot besides 1: negate, no Fraction round trip
            vec = {j: -x for j, x in vec.items()}
        elif c != 1:
            inv = QQ.inv(c)
            vec = {j: QQ.of(x * inv) for j, x in vec.items()}
        rows[piv] = vec
        self._reduced = False
        return True

    def reduced_rows(self) -> dict[int, dict]:
        """``rows`` in reduced row-echelon form, back-substituted once, on
        demand, highest pivot first, with no integral ``Fraction``; callers
        only read them."""
        rows, p = self.rows, self.p
        if not self._reduced:
            for piv in sorted(rows, reverse=True):
                row = rows[piv]
                # rows[k] for k > piv is already reduced, so clearing column k
                # never touches another pivot column of this row
                for k in [k for k in row if k != piv and k in rows]:
                    axpy(row, -row[k], rows[k], p)
            if p is None:
                for piv, row in rows.items():
                    rows[piv] = self._plain_ints(row)
            self._reduced = True
        return rows

    def reduce(self, vec: dict) -> dict:
        """Canonical remainder of ``vec``: equal for vectors congruent modulo
        the span, with no entry in a pivot column."""
        rows, p = self.reduced_rows(), self.p
        vec = self._clean(vec)
        for j in [j for j in vec if j in rows]:
            axpy(vec, -vec[j], rows[j], p)
        return self._plain_ints(vec)

    def canonical_rows(self) -> tuple[tuple[tuple[int, object], ...], ...]:
        """Reduced rows, sorted by pivot, entries sorted by index."""
        rows = self.reduced_rows()
        return tuple(tuple(sorted(rows[piv].items())) for piv in sorted(rows))


def rank_of_vectors(vectors, fld: Field = QQ) -> int:
    """Exact rank of a family of sparse vectors with field coefficients."""
    ech = Echelon(fld.p)
    for vec in vectors:
        ech.insert(vec)
    return ech.dimension


def _row_echelon(columns, p: int | None) -> Echelon:
    """Forward echelon form of the rows of the matrix whose column j is
    ``columns[j]``: row r holds ``columns[j][r]`` at index j."""
    rows: dict[int, dict] = {}
    for j, col in enumerate(columns):
        for r, c in col.items():
            rows.setdefault(r, {})[j] = c
    ech = Echelon(p)
    for row in rows.values():
        ech.insert(row)
    return ech


def rank_of_columns(columns, fld: Field = QQ, sizes=None) -> int:
    """Rank of the matrix whose column j is ``columns[j]``, by the forward
    row elimination of ``kernel_of_columns``, with no back-substitution.

    With ``sizes``, each pivot column j (one that is not a combination of
    the columns before it) counts ``sizes[j]`` times."""
    ech = _row_echelon(columns, fld.p)
    return ech.dimension if sizes is None else sum(sizes[j] for j in ech.rows)


def kernel_of_columns(columns, fld: Field = QQ) -> list[dict]:
    """Kernel basis of the map sending unit vector j to ``columns[j]``.

    Read off the reduced row space of the matrix: free column f gives
    ``e_f - sum_p R[p][f] e_p`` over the pivots p.  Vectors come in
    increasing f, with field-element entries.  Each vector holds its free
    column f at entry 1, and no other vector has an entry at f: the
    resolution reads its kernels in these private coordinates.
    """
    p = fld.p
    ech = _row_echelon(columns, p)
    kernel = {f: {f: 1} for f in range(len(columns)) if f not in ech.rows}
    for row in ech.canonical_rows():
        piv = row[0][0]
        for f, x in row[1:]:
            kernel[f][piv] = -x if p is None else p - x
    return list(kernel.values())

"""Brute-force homological oracle over the ambient polynomial ring.

Tor against the residue field is computed as homology of the exterior-algebra
complex on the variables tensored with the quotient: in each bidegree the two
differentials are assembled as explicit sparse matrices and their exact ranks
give the Betti number.  No structure theory enters: this is the independent
route against which the closed formulas are checked.

Basis of the complex in homological degree i and bidegree v: pairs (eps, m)
where eps is an ascending tuple of i distinct variable indices and m runs
over the quotient basis of (S/I)_{v - deg eps}.  The differential removes one
variable at a time with the usual alternating sign and multiplies it into the
quotient factor.

The exterior monomials of each degree i, with their bidegrees, their faces
and the pairs of variables in them, are tabulated once per shape
(``_exterior_table``), so the bases, the differentials and the d.d check
read them instead of enumerating and slicing them per bidegree.

The d.d check does not multiply the two differentials.  On the column
(eps, m), d_{i-1} . d_i is the sum over pairs {a, b} of eps of
+-(x_a x_b - x_b x_a) m, so it vanishes exactly when the differential is
assembled with those signs and every square x_a x_b = x_b x_a commutes on the
quotient piece of m.  ``check_dd`` verifies every entry of the assembled
differential against the multiplication maps, composes the squares by lookup
(maps read off the reduced rows, a column {k: 1} composed by reference) and
asks each (pair set, w) once per ``tor_over_S`` call; the lower differential
is built only where it is ranked.

``tor_over_S`` works one bidegree v at a time: a fresh ``KoszulOracle``
builds, ranks and d.d-checks the complex of v and is dropped before the next
v, serially or in a fork-pool worker.  Only the quotient ring's pieces and
multiplication maps, and the grading's pieces by weight, kept coordinates,
bound maps and checked squares, stay cached across bidegrees, until the
call returns; a pool worker keeps its own copy of each.  The exterior
tables, by shape and by shape and grading, and the orbit sizes of each
Z^n stay for the process.

Mirror.  When the ring passes ``_swaps_p_and_q``, only the bidegrees (a, b)
with a >= b are ranked, and beta_i(a, b) for a < b is read off (b, a).  The
check asks num_p = num_q and that the swap sigma: p_k <-> q_k sends every
generator into I, its normal form in its bidegree being zero over the ring's
field.  Then sigma(I) is in I, and sigma(I) = I because sigma^2 = id, so
sigma is a ring automorphism of S that keeps I, swaps the two gradings and
permutes the variables; it carries the complex of (a, b) onto that of
(b, a), and the two Betti numbers are equal exactly.  Every family here
passes; a ring that fails is ranked in every bidegree.

Orbits.  Within a ranked bidegree only one torus weight per S_n orbit is
ranked.  Variable slot k has the weight +-e_{k mod n} in Z^n
(``RepFamily.torus_weights``), and ``_torus_grading`` checks once per call,
over the ring's field, that every generator is weight-homogeneous and that
the transposition (1 2) and the n-cycle, permuting the index of every block
of n slots, each send every generator into I (``_keeps_ideal``, which also
checks the swap).  Homogeneous generators make every row of the reduced
echelon of I_v homogeneous, so normal forms and ``mult_by_var`` keep
weights, and the complex of v is the direct sum of complexes K(v, lambda),
one per weight.  The two permutations generate S_n, so every pi in S_n keeps
I, and pi, a ring automorphism that permutes the variables, carries
K(v, lambda) onto K(v, pi.lambda).  Hence
beta_i(v) = sum over dominant lambda of |S_n.lambda| beta_i(v, lambda),
dominant meaning that the coordinates descend, and exactly: ``KoszulOracle``
keeps the basis elements of dominant weight and counts each with the size
of its weight's orbit in every dimension and rank; a rank so counted sums
|S_n.lambda| times the rank of each dominant weight's block, because every
column has its entries in rows of its own weight.  A ring that fails the
check is ranked whole, as the trivial grading in Z^0: every basis element
kept, counted once.  The kept part has one block per exterior monomial eps,
the coordinates of (S/I)_{v - deg eps} whose weight plus wt(eps) is
dominant.  The exterior monomials of one bidegree e and one weight share
what they keep, so the basis of v asks once per such class
(``_exterior_classes``), skips every e whose piece v - e is zero, and visits
the monomials of a class only when it keeps a coordinate.  The
differentials read the ring's own multiplication maps in place.
``KoszulOracle._removals`` reads them from the grading, which binds each
(x, w) once per call (``_Grading.bind``) and checks it homogeneous as it
binds it.  A map that fails is never stored, so a multiplication entry in a
row of another weight fails as ``d.d != 0`` wherever the map is read, and
``columns`` never indexes a row that the face's block does not keep.

Clearing.  Within v the differentials are ranked from the highest
homological degree down, with clearing (Chen and Kerber, "Persistent
homology computation with a twist", 2011): a row of the column echelon of
d_{i+1} has smallest index j and lies in the image of d_{i+1}, so with
d.d = 0 the column of d_i at j is a combination of the columns after j, and
``rank`` skips it; by induction from the top index down, the columns left
span the same image.  Every differential is ranked by its columns, so each
leaves its pivots for the one below.  Clearing trusts d.d = 0, so each
differential is handled in one pass, top-down: d_i is d.d-checked, then
ranked, then its columns are released.  When d_i is ranked, the check of
d_{i+1} (its assembly and every square under it) and the assembly of d_i
have both passed, so d_i . d_{i+1} = 0 holds where clearing uses it.  The
Betti numbers are read only after every differential of v is checked: a
corrupted differential fails as ``d.d != 0`` before a Betti number is
derived from a cleared rank, and at most one differential's columns are
held at a time.

Hilbert series.  ``hilbert_oracle`` reads the same two symmetries off the
same checks: it eliminates only the dominant weight classes of each ideal
piece I_v with a >= b, counts each with its orbit size, and reads (a, b) with
a < b off (b, a); its docstring states the argument.

The socle of S/I in degree v, the annihilator of all the variables, is
Tor_N^S(S/I, k) in bidegree v + (num_p, num_q), N = ``ring.nvars``: there
K_N is (S/I)_v itself and d_N stacks the maps m -> x m.  ``socle`` and
``depth_zero_witness`` read it from ``QuotientRing.annihilator``, which
stacks those maps and takes their common kernel, with no Koszul complex
built: ``socle`` counts the vectors, and the witness is the first vector of
the first nonzero kernel.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import cache, partial
from itertools import combinations
from math import factorial
from operator import mul
from typing import NamedTuple

from .betti import BettiTable
from .fields import QQ, Field
from .ideals import RepFamily
from .linalg import Echelon, InvalidInputError
from .monomials import (BiDegree, _non_negative, ambient_dimension,
                        bidegrees_up_to_total, exponent_tuples, sub_bidegrees,
                        total)
from .pieces import ideal_span_vectors
from .polynomials import Polynomial, format_polynomial
from .quotient import QuotientRing, ring_for_family
from .series import TruncatedSeries


class _ExteriorTable(NamedTuple):
    """The exterior monomials of one degree i, tabulated once per shape."""

    #: (eps, deg eps) in ``combinations`` order
    monomials: tuple
    #: eps -> its faces, eps without eps[r] for each r; each face is the
    #: monomial object of the degree i - 1 table, so the faces cost no copies
    faces: dict
    #: deg eps -> the pairs {a, b} of the monomials of that bidegree
    pairs: dict


@cache
def _exterior_table(nvars: int, num_p: int, i: int) -> _ExteriorTable:
    """The degree-i exterior monomials on ``nvars`` variables, the first
    ``num_p`` of bidegree (1, 0) and the rest of bidegree (0, 1).

    Each shape is tabulated once and kept for the life of the process; the
    tables of all degrees of one shape hold its 2^nvars monomials.  Callers
    only read them."""
    lower = ({eps: eps for eps, _ in _exterior_table(nvars, num_p, i - 1).monomials}
             if i else {})
    shapes = [(a, i - a) for a in range(i + 1)]
    monomials, faces, pairs = [], {}, {}
    for eps in combinations(range(nvars), i):
        e = shapes[sum(1 for x in eps if x < num_p)]
        monomials.append((eps, e))
        faces[eps] = tuple(lower[eps[:r] + eps[r + 1:]] for r in range(i))
        pairs.setdefault(e, set()).update(combinations(eps, 2))
    return _ExteriorTable(tuple(monomials), faces,
                          {e: tuple(sorted(ab)) for e, ab in pairs.items()})


@cache
def _exterior_classes(nvars: int, num_p: int, i: int, slots: tuple) -> dict:
    """deg eps -> wt eps -> the degree-i exterior monomials of that bidegree
    and weight, as [(index, eps), ...], index the place of eps in
    ``_exterior_table`` order; ``slots`` holds the packed weight of each
    variable.

    Tabulated once per shape and grading, for the life of the process, as
    ``_exterior_table`` is."""
    table: dict[BiDegree, dict[int, list]] = {}
    for index, (eps, e) in enumerate(_exterior_table(nvars, num_p, i).monomials):
        table.setdefault(e, {}).setdefault(
            sum(slots[k] for k in eps), []).append((index, eps))
    return table


#: A weight lam in Z^n is held packed, as the integer sum of lam_c * _BASE^c,
#: so that adding weights adds their integers; this is one to one while
#: every |lam_c| < _BASE / 2, far beyond any degree the oracle can reach.
_BASE = 1 << 32


def _orbit(lam: int, n: int) -> int:
    """|S_n . lam| when the packed weight lam in Z^n is dominant, else 0."""
    coords = []
    for _ in range(n):
        c = (lam + _BASE // 2) % _BASE - _BASE // 2
        coords.append(c)
        lam = (lam - c) // _BASE
    if any(a < b for a, b in zip(coords, coords[1:])):
        return 0
    size = factorial(n)
    for m in Counter(coords).values():
        size //= factorial(m)
    return size


class _Orbits(dict):
    """Packed weight lam in Z^n -> ``_orbit(lam, n)``, computed on the first
    lookup of lam and kept."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, lam: int) -> int:
        size = self[lam] = _orbit(lam, self.n)
        return size


@cache
def _orbit_table(n: int) -> _Orbits:
    """The one ``_Orbits`` of Z^n, kept for the life of the process, as the
    exterior tables are: a pass over the same families computes no orbit
    twice."""
    return _Orbits(n)


class _Grading:
    """Torus weights of the variables of ``ring``, and the quotient
    coordinates that the oracle keeps under them.

    ``weights`` gives each variable slot a weight in Z^n; None is the
    trivial grading in Z^0, under which every coordinate has weight 0 and
    multiplicity 1, so the oracle keeps the whole complex.  A weight is
    dominant when its coordinates descend, and its S_n orbit has n! / prod
    m_c! elements, m_c the number of coordinates equal to c.  Each piece is
    grouped by weight once, the coordinates kept beside one exterior weight
    are listed once, and each multiplication map is bound and checked
    homogeneous once, for the life of the grading: one ``tor_over_S`` call.
    Orbit sizes are read from the process's one table of Z^n.
    """

    def __init__(self, ring: QuotientRing, weights=None):
        self.ring = ring
        self.n = len(weights[0]) if weights else 0
        self._slots = tuple(sum(x * _BASE ** c for c, x in enumerate(wt))
                            for wt in weights or ((),) * ring.nvars)
        self._pieces: dict[BiDegree, dict[int, list]] = {}
        self._kept: dict[BiDegree, dict[int, tuple]] = {}
        #: packed weight -> its orbit size, for both oracles
        self.orbits = _orbit_table(self.n)
        #: (x, w) -> the checked ``ring.mult_by_var(x, w)``, or None (``bind``)
        self.maps: dict[tuple[int, BiDegree], list | None] = {}
        self._commuting: dict[BiDegree, set[tuple[int, int]]] = {}
        self._sides: dict[BiDegree, tuple[list[int], list[int]]] = {}

    def weight(self, exponents) -> int:
        """The packed weight of the monomial with these exponents."""
        return sum(map(mul, exponents, self._slots))

    def side_weights(self, v: BiDegree) -> tuple[list[int], list[int]]:
        """The packed weights of P_a and of Q_b, v = (a, b), each in
        canonical order; cached for the life of the grading."""
        got = self._sides.get(v)
        if got is None:
            num_p, slots = self.ring.num_p, self._slots
            got = self._sides[v] = (
                [sum(map(mul, e, slots)) for e in exponent_tuples(num_p, v[0])],
                [sum(map(mul, e, slots[num_p:]))
                 for e in exponent_tuples(self.ring.num_q, v[1])])
        return got

    def _by_weight(self, w: BiDegree) -> dict:
        """mu -> the quotient coordinates of weight mu of (S/I)_w, ascending,
        in the order the weights first occur in the piece."""
        got = self._pieces.get(w)
        if got is None:
            got = self._pieces[w] = {}
            for pos, mono in enumerate(self.ring.piece(w).basis):
                got.setdefault(self.weight(mono), []).append(pos)
        return got

    def kept(self, w: BiDegree, eps_weight: int) -> tuple:
        """``(coords, orbits, index)`` for (S/I)_w beside an exterior weight:
        the quotient coordinates whose weight mu plus ``eps_weight`` is
        dominant, in the order of ``_by_weight(w)``; the orbit size
        |S_n . (eps_weight + mu)| of each, read from ``orbits``; and
        coordinate -> place in
        ``coords``.  () when no coordinate is kept: most (w, eps_weight)
        keep none, and share that one empty tuple."""
        by_eps = self._kept.setdefault(w, {})
        got = by_eps.get(eps_weight)
        if got is None:
            coords, orbits, sizes = [], [], self.orbits
            for mu, ps in self._by_weight(w).items():
                orbit = sizes[eps_weight + mu]
                if orbit:
                    coords += ps
                    orbits += [orbit] * len(ps)
            got = by_eps[eps_weight] = (
                (coords, orbits, dict(zip(coords, range(len(coords))))) if coords else ())
        return got

    def bind(self, x: int, w: BiDegree, fail: Exception):
        """``ring.mult_by_var(x, w)``, or None when the target piece
        (S/I)_{w + deg x} is zero, stored in ``maps`` under (x, w) for the
        life of the grading.

        The map is stored only once it is checked homogeneous: it sends
        every coordinate of weight mu of (S/I)_w into coordinates of weight
        mu + wt(x) alone.  One that is not raises ``fail`` and is not
        stored, so every later bind of it raises again."""
        ring = self.ring
        up = (w[0] + 1, w[1]) if x < ring.num_p else (w[0], w[1] + 1)
        mult = None
        if ring.dim(up):
            weight_of = {t: mu for mu, ts in self._by_weight(up).items() for t in ts}
            mult, shift = ring.mult_by_var(x, w), self._slots[x]
            if not all(weight_of.get(t) == mu + shift
                       for mu, ps in self._by_weight(w).items() for pos in ps
                       for t in mult[pos]):
                raise fail
        self.maps[x, w] = mult
        return mult

    def squares_commute(self, pairs, w: BiDegree) -> bool:
        """Whether x_a x_b = x_b x_a on (S/I)_w for every pair {a, b} in
        ``pairs``.

        Each pair found to commute on (S/I)_w is recorded, so
        ``QuotientRing.commutes`` runs at most once per (a, b, w) for the
        life of the grading."""
        done = self._commuting.setdefault(w, set())
        for ab in pairs:
            if ab not in done:
                if not self.ring.commutes(*ab, w):
                    return False
                done.add(ab)
        return True


class KoszulOracle:
    """Chain bases, differentials and ranks of the complex over one ring.

    The oracle keeps the basis elements (eps, m) whose weight
    wt(eps) + wt(m) under ``grading`` is dominant, indexed compactly: row j
    of d_{i+1} is column j of d_i.  Dimensions and ranks count each kept
    element with the orbit size of its weight.  Without a grading it keeps
    the whole complex, each element counted once.

    Every result is cached per (i, v) for the oracle's lifetime, unless
    ``release`` drops a differential's columns; the differentials dominate
    its memory.  ``_bidegree_betti`` is its one user: one oracle per
    bidegree v, its differentials checked, ranked and released top-down.
    """

    def __init__(self, ring: QuotientRing, grading: _Grading | None = None):
        self.ring = ring
        self.grading = _Grading(ring) if grading is None else grading
        self._rank: dict[tuple[int, BiDegree], int] = {}
        self._basis: dict[tuple[int, BiDegree], tuple] = {}
        self._cols: dict[tuple[int, BiDegree], list] = {}
        self._removed: dict[tuple[int, BiDegree], list] = {}
        self._cleared: dict[tuple[int, BiDegree], set[int]] = {}

    def basis(self, i: int, v: BiDegree):
        """Blocks (eps, w, offset, kept) of the kept part of the degree-(i, v)
        piece, plus the orbit size of each kept element by its index.

        A block holds the elements (eps, m), w = v - deg eps, for m the
        quotient coordinates ``kept[0]`` of (S/I)_w that ``_Grading.kept``
        keeps beside wt(eps), at the indices from ``offset`` on.  An eps with
        no kept coordinate has no block.

        ``_Grading.kept`` is asked once per class of ``_exterior_classes``
        whose piece (S/I)_w is nonzero, and only the monomials of the classes
        that keep a coordinate are visited.  Their blocks come in
        ``_exterior_table`` order, so every index is the one a walk over all
        the monomials would give."""
        key = (i, v)
        got = self._basis.get(key)
        if got is not None:
            return got
        ring, grading = self.ring, self.grading
        blocks: list = []
        orbits: list[int] = []
        if 0 <= i <= ring.nvars:
            found = []
            for e, classes in _exterior_classes(ring.nvars, ring.num_p, i,
                                                grading._slots).items():
                w = sub_bidegrees(v, e)
                if w[0] < 0 or w[1] < 0 or not ring.dim(w):
                    continue
                for eps_weight, members in classes.items():
                    k = grading.kept(w, eps_weight)
                    if k:
                        found += [(index, eps, w, k) for index, eps in members]
            # the indices are distinct, so the sort compares them alone
            found.sort()
            for _, eps, w, k in found:
                blocks.append((eps, w, len(orbits), k))
                orbits += k[1]
        result = (blocks, orbits)
        self._basis[key] = result
        return result

    def dimension(self, i: int, v: BiDegree) -> int:
        """dim K_i in bidegree v: the orbit sizes of the kept elements."""
        return sum(self.basis(i, v)[1])

    def _removals(self, i: int, v: BiDegree) -> list:
        """Per block of ``basis(i, v)``, in order, its removals
        (r odd, x, mult, offset, index): one per face of eps, eps without
        x = eps[r], whose quotient piece is nonzero.  ``mult`` is
        ``ring.mult_by_var(x, w)`` itself, and ``offset`` and ``index`` are
        the face's block offset and its coordinate -> place map.  Built once
        for ``columns`` and ``check_dd``, and dropped with the columns.

        Each face costs one lookup in ``_Grading.maps``, which holds None
        where the face's piece is zero.  A map not found there is bound by
        ``_Grading.bind``, which checks it homogeneous, and a map that is
        not raises ``d.d != 0``.  (face, x m) has the weight of (eps, m), so
        a homogeneous map sends a kept coordinate to coordinates that the
        face's block keeps.  A face with no block is given offset 0 and an
        empty index: a homogeneous map sends every kept coordinate there
        to 0."""
        key = (i, v)
        got = self._removed.get(key)
        if got is not None:
            return got
        ring, grading = self.ring, self.grading
        fail = AssertionError(f"d.d != 0 at i={i}, v={v}")
        faces = _exterior_table(ring.nvars, ring.num_p, i).faces
        targets = {eps: (off, k[2]) for eps, _, off, k in self.basis(i - 1, v)[0]}
        maps = grading.maps
        got = []
        for eps, w, _, _ in self.basis(i, v)[0]:
            removals = []
            for r, face in enumerate(faces[eps]):
                x = eps[r]
                try:
                    mult = maps[x, w]
                except KeyError:
                    mult = grading.bind(x, w, fail)
                if mult is not None:
                    removals.append((r % 2, x, mult, *targets.get(face, (0, {}))))
            got.append(removals)
        self._removed[key] = got
        return got

    def columns(self, i: int, v: BiDegree):
        """Columns of the differential K_i -> K_{i-1} in bidegree v, on the
        kept elements: entry (t, c) of a removal's map lands at its face's
        offset + index[t]."""
        key = (i, v)
        got = self._cols.get(key)
        if got is not None:
            return got
        p = self.ring.field.p
        cols = []
        for (_, _, _, (coords, _, _)), removals in zip(self.basis(i, v)[0],
                                                      self._removals(i, v)):
            for pos in coords:
                # each removal lands in its own target block: no entries collide
                col: dict[int, object] = {}
                for odd, _, mult, off, index in removals:
                    for t, c in mult[pos].items():
                        col[off + index[t]] = (-c if p is None else p - c) if odd else c
                cols.append(col)
        self._cols[key] = cols
        return cols

    def rank(self, i: int, v: BiDegree) -> int:
        """Rank of d_i in bidegree v, each pivot row counted with the orbit
        size of its weight.

        If d_{i+1} was ranked first, the pivots of its column echelon are
        cleared from d_i (module docstring); the pivot set is popped once
        read, and d_i leaves its own for d_{i-1}.  A rank asked for on its
        own finds no pivots and ranks every column.  Clearing trusts
        d.d = 0, so a caller must run ``check_dd`` before it derives
        anything from the rank.
        """
        key = (i, v)
        got = self._rank.get(key)
        if got is not None:
            return got
        if i <= 0 or i > self.ring.nvars:
            self._rank[key] = 0
            return 0
        cleared = self._cleared.pop(key, ())
        ech = Echelon(self.ring.field.p)
        for j, col in enumerate(self.columns(i, v)):
            if j not in cleared:
                ech.insert(col)
        if i > 1 and (i - 1, v) not in self._rank:
            self._cleared[(i - 1, v)] = set(ech.rows)
        orbits = self.basis(i - 1, v)[1]
        rank = self._rank[key] = sum(orbits[j] for j in ech.rows)
        return rank

    def check_dd(self, i: int, v: BiDegree):
        """Assert d_{i-1} . d_i = 0 on the bidegree-v piece, without the product.

        On the column (eps, m), m in (S/I)_w with w = v - deg eps, the
        composite lands in the blocks eps minus {a, b} as
        +-(x_a x_b m - x_b x_a m): removing a then b and b then a reach the
        same block with opposite signs.  So d.d = 0 exactly when

        * the assembly holds: ``columns(i, v)`` has one column per kept
          basis element, holding exactly the entries (-1)^r x_r m of its
          removals at the indices of ``basis(i - 1, v)``, and
        * every square commutes: x_a x_b = x_b x_a on (S/I)_w for each pair
          {a, b} of each eps (``QuotientRing.commutes``).  The monomials of
          one exterior bidegree e share w and the pair set of e, and
          ``_Grading.squares_commute`` composes each square once per
          ``tor_over_S`` call, however many bidegrees v reach it.

        This covers what the matrix product covers: built from the same
        multiplication maps, the product is zero exactly when those squares
        commute, and any wrong entry of ``columns(i, v)`` fails the assembly
        whether or not the product would show it.  Every map it reads was
        checked homogeneous where ``_removals`` bound it.
        ``columns(i - 1, v)`` is not built; where it is ranked, its own
        check covers it, which is why i = 1 (where d_0 = 0) checks the
        assembly alone.
        """
        ring, grading = self.ring, self.grading
        if i < 1 or i > ring.nvars:
            return
        fail = AssertionError(f"d.d != 0 at i={i}, v={v}")
        p = ring.field.p
        blocks = self.basis(i, v)[0]
        removals = self._removals(i, v)
        cols = self.columns(i, v)
        if len(cols) != len(self.basis(i, v)[1]):
            raise fail
        for (_, _, off, (coords, _, _)), maps in zip(blocks, removals):
            for place, pos in enumerate(coords):
                col = cols[off + place]
                count = 0
                for odd, _, mult, t, index in maps:
                    entries = mult[pos]
                    count += len(entries)
                    for tpos, c in entries.items():
                        if odd:
                            c = -c if p is None else p - c
                        if col.get(t + index[tpos]) != c:
                            raise fail
                if len(col) != count:
                    raise fail
        for e, pairs in _exterior_table(ring.nvars, ring.num_p, i).pairs.items():
            w = sub_bidegrees(v, e)
            if ring.dim(w) and not grading.squares_commute(pairs, w):
                raise fail

    def release(self, i: int, v: BiDegree):
        """Drop the columns of d_i in bidegree v, and the removals they were
        built from; its rank stays cached."""
        self._cols.pop((i, v), None)
        self._removed.pop((i, v), None)

    def betti(self, i: int, v: BiDegree) -> int:
        dim = self.dimension(i, v)
        if dim == 0:
            return 0
        b = dim - self.rank(i, v) - self.rank(i + 1, v)
        if b < 0:
            raise AssertionError((i, v, dim))
        return b


def _cores() -> int:
    """The number of cores this process may run on: its CPU affinity where
    the platform reports one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _bounded_workers(workers: int) -> int:
    """A worker count clamped to 1..``_cores()``."""
    return max(1, min(workers, _cores()))


def default_workers() -> int:
    """The worker count ``MOMENTKOSZUL_THREADS`` sets (1 when unset), clamped
    to 1..``_cores()``; a value that is not an integer is refused."""
    value = os.environ.get("MOMENTKOSZUL_THREADS", "1")
    try:
        workers = int(value)
    except ValueError:
        raise InvalidInputError(
            f"MOMENTKOSZUL_THREADS {value!r} is not an integer") from None
    return _bounded_workers(workers)


def _keeps_ideal(ring: QuotientRing, perm) -> bool:
    """Whether the permutation x_k -> x_{perm[k]} of the variables maps the
    ideal of ``ring`` into itself: each image of a generator is zero, or
    bihomogeneous with normal form zero in its bidegree, over the ring's
    field."""
    for g in ring.generators:
        terms = {}
        for m, c in g.terms:
            image = [0] * ring.nvars
            for k, e in enumerate(m):
                image[perm[k]] = e
            terms[tuple(image)] = c
        image = Polynomial.from_dict(ring.num_p, ring.num_q, terms)
        w = image.bidegree()
        if w is None:
            if image.terms:
                return False
        elif any(ring.nf(w, vec) for vec in
                 ideal_span_vectors([image], w, ring.field)):
            return False
    return True


def _swaps_p_and_q(ring: QuotientRing) -> bool:
    """Whether num_p = num_q and the swap p_k <-> q_k keeps the ideal."""
    n = ring.num_p
    return n == ring.num_q and _keeps_ideal(ring, [*range(n, 2 * n), *range(n)])


def _torus_grading(ring: QuotientRing, weights) -> _Grading:
    """The grading by ``weights`` (one weight in Z^n per slot), when every
    generator is weight-homogeneous over the ring's field and S_n keeps the
    ideal; else the trivial grading.

    S_n acts on the index of every block of n slots, slot k to
    n * (k // n) + pi(k mod n), and is generated by the transposition (1 2)
    and the n-cycle, so those two are checked."""
    grading = _Grading(ring, weights)
    n = grading.n
    homogeneous = all(
        len({grading.weight(m) for m, c in g.terms if ring.field.of(c)}) <= 1
        for g in ring.generators)
    cycles = [(1, 0, *range(2, n)), (*range(1, n), 0)] if n > 1 else []
    if homogeneous and all(
            _keeps_ideal(ring, [n * (k // n) + pi[k % n] for k in range(ring.nvars)])
            for pi in cycles):
        return grading
    return _Grading(ring)


def _bidegree_betti(ring: QuotientRing, task, grading: _Grading | None = None):
    """``(v, {i: beta_i(v)})`` for ``task = (v, degrees)``, from an oracle
    that holds the complex of v alone, by ``grading``, and is dropped on
    return.

    One pass per differential, from the top: d_i is d.d-checked, ranked
    with the pivots d_{i+1} left for clearing, and released.  The Betti
    numbers are read after the last check."""
    v, degrees = task
    oracle = KoszulOracle(ring, grading)
    live = [i for i in degrees if oracle.dimension(i, v)]
    for i in sorted({j for i in live for j in (i, i + 1)}, reverse=True):
        # d_{i+1} was checked and d_i is checked here, before clearing in
        # its rank trusts d_i . d_{i+1} = 0
        oracle.check_dd(i, v)
        oracle.rank(i, v)
        oracle.release(i, v)
    return v, {i: oracle.betti(i, v) for i in degrees}


# The job of a pool worker, set in each child by the pool's initializer; the
# fork hands it over without pickling the ring.
_worker_job = None


def _set_worker_job(job):
    global _worker_job
    _worker_job = job


def _run_worker_job(task):
    return _worker_job(task)


def _map_on_pool(job, tasks, workers: int) -> list:
    """``job`` of every task on a fork pool of ``workers``, in any order.

    The pool is closed and joined, also when a job raises, so that each
    worker ends between tasks.  ``Pool.terminate`` kills the workers
    wherever they are: one killed while it writes a result keeps the
    result queue's lock, and the pool's task thread then waits on that
    lock for good.  Only an interrupt still terminates the pool.
    ``multiprocessing`` is imported here, since only a pool needs it."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    pool = ctx.Pool(workers, initializer=_set_worker_job, initargs=(job,))
    try:
        return list(pool.imap_unordered(_run_worker_job, tasks))
    except BaseException as exc:
        if not isinstance(exc, Exception):
            pool.terminate()
        raise
    finally:
        pool.close()
        pool.join()


def tor_over_S(f: RepFamily, max_i: int | None = None,
               max_total_degree: int | None = None,
               fld: Field = QQ, workers: int | None = None) -> BettiTable:
    """Graded Betti numbers of S/I over S, by exact rank per bidegree.

    For homological degree i the bidegrees scanned are total(v) <= i + 3
    (or the explicit ``max_total_degree``).  Nonzero homology found on that
    boundary is recorded in ``boundary_hits``; the bound must then be raised
    for the table to be trusted.

    The scanned pairs (i, v) are grouped by v and run highest total degree
    first, so that a pool starts the largest complexes first, each v by
    ``_bidegree_betti`` on an oracle of its own.  The mirror bidegrees and
    the torus weights outside the dominant ones are read off, not ranked,
    where the ring passes the checks the module docstring sets out (every
    family does).  ``workers`` > 1 maps whole bidegrees, d.d checks
    included, over a fork pool; the entries and ``boundary_hits`` are
    assembled in scan order (i, then v) either way, so the result is
    bit-identical.
    """
    from .closed import projective_dimension

    ring = ring_for_family(f, fld)
    if max_i is None:
        max_i = projective_dimension(f)
    _non_negative(max_i=max_i, max_total_degree=max_total_degree)
    # the complex stops at i = nvars, so higher degrees add only zeros
    max_i = min(max_i, ring.nvars)
    bounds = [i + 3 if max_total_degree is None else max_total_degree
              for i in range(max_i + 1)]
    keys = [(i, v) for i, bound in enumerate(bounds)
            for v in bidegrees_up_to_total(bound)]
    scan: dict[BiDegree, list[int]] = {}
    for i, v in keys:
        scan.setdefault(v, []).append(i)
    mirror = _swaps_p_and_q(ring)
    grading = _torus_grading(ring, f.torus_weights)
    # a bidegree and its mirror have the same degrees i: the bounds depend
    # on total(v) alone
    tasks = sorted(((v, degrees) for v, degrees in scan.items()
                    if not mirror or v[0] >= v[1]),
                   key=lambda task: -total(task[0]))
    job = partial(_bidegree_betti, ring, grading=grading)
    workers = default_workers() if workers is None else _bounded_workers(workers)
    if workers > 1 and hasattr(os, "fork"):
        betti = dict(_map_on_pool(job, tasks, workers))
    else:
        betti = dict(map(job, tasks))
    entries = {}
    boundary = []
    for i, v in keys:
        b = betti[(v[1], v[0]) if mirror and v[0] < v[1] else v][i]
        if b:
            entries[(i, v)] = b
            if total(v) == bounds[i]:
                boundary.append((i, v))
    return BettiTable(str(f.kind.value), f.n, entries, source="oracle",
                      field=str(fld), boundary_hits=boundary)


def _weight_classes(grading: _Grading, v: BiDegree) -> dict[int, list[int]]:
    """Packed weight -> the indices of the monomials of that weight in the
    canonical basis of S_v, ascending."""
    p_weights, q_weights = grading.side_weights(v)
    width = len(q_weights)
    classes: dict[int, list[int]] = {}
    for i, x in enumerate(p_weights):
        for k, y in enumerate(q_weights, i * width):
            classes.setdefault(x + y, []).append(k)
    return classes


def _class_products(ring: QuotientRing, grading: _Grading, v: BiDegree):
    """``ideal_span_vectors`` of v cut to the products g*m whose weight
    wt(g) + wt(m) is dominant; the weight classes of each S_u, u = v - deg g,
    are tabulated once per v."""
    fld, orbits, tables = ring.field, grading.orbits, {}

    def keep(g, u):
        table = tables.get(u)
        if table is None:
            table = tables[u] = _weight_classes(grading, u)
        lam = grading.weight(next(m for m, c in g.terms if fld.of(c)))
        return [k for mu, ks in table.items() if orbits[lam + mu] for k in ks]

    return ideal_span_vectors(ring.generators, v, fld, keep)


def _class_dimension(ring: QuotientRing, grading: _Grading, v: BiDegree) -> int:
    """dim (S/I)_v by the dominant weight classes (``hilbert_oracle``)."""
    ech = Echelon(ring.field.p)
    for vec in _class_products(ring, grading, v):
        ech.insert(vec)
    p_weights, q_weights = grading.side_weights(v)
    width, orbits = len(q_weights), grading.orbits
    return ambient_dimension(ring.num_p, ring.num_q, v) - sum(
        orbits[p_weights[j // width] + q_weights[j % width]] for j in ech.rows)


def hilbert_oracle(f: RepFamily, order: int, fld: Field = QQ) -> TruncatedSeries:
    """Hilbert series of S/I by one elimination per dominant weight class.

    The ring passes the checks of ``tor_over_S`` or falls back as there
    (module docstring).  The generators are weight-homogeneous, so S_v and
    I_v split into classes S_{v,lam} and I_{v,lam} by torus weight, and
    I_{v,lam} is spanned by the products g*m of weight wt(g) + wt(m) = lam.
    Each pi in S_n keeps I and permutes the monomials of S_v, carrying the
    classes of lam onto those of pi.lam, so dim I_v is the sum over dominant
    lam of |S_n.lam| dim I_{v,lam}.  One echelon of the dominant products
    keeps every row inside one class, so its pivots j count it exactly:
    dim (S/I)_v = dim S_v - sum of |S_n.wt(j)| over the pivots j.  The swap
    p_k <-> q_k keeps I, so dim (S/I)_{(a, b)} with a < b is read off
    (b, a).  A ring that fails the S_n check is counted by the trivial
    grading (every class kept, orbit 1), and one that fails the swap check
    is eliminated in every bidegree, by the same code.

    Bidegrees come in increasing total degree, and a piece directly below a
    zero piece is zero, with no elimination: a monomial of v is a variable
    times a monomial of that piece.  Each echelon is dropped after its v.
    """
    ring = ring_for_family(f, fld)
    _non_negative(order=order)
    mirror = _swaps_p_and_q(ring)
    grading = _torus_grading(ring, f.torus_weights)
    dims: dict[BiDegree, int] = {}
    for a, b in bidegrees_up_to_total(order):
        if mirror and a < b:
            # (b, a) has the same total degree and comes first
            dims[a, b] = dims[b, a]
        elif any(not dims[w] for w in ((a - 1, b), (a, b - 1)) if min(w) >= 0):
            dims[a, b] = 0
        else:
            dims[a, b] = _class_dimension(ring, grading, (a, b))
    return TruncatedSeries.make(("s", "t"), order, {v: d for v, d in dims.items() if d})


def _annihilators(ring: QuotientRing, max_total_degree: int):
    """``(v, ring.annihilator(v))`` for each nonzero (S/I)_v with
    0 < total(v) <= ``max_total_degree``, lazily, in
    ``bidegrees_up_to_total`` order."""
    for v in bidegrees_up_to_total(max_total_degree):
        if total(v) and ring.dim(v):
            yield v, ring.annihilator(v)


def socle(f: RepFamily, max_total_degree: int, fld: Field = QQ) -> dict[BiDegree, int]:
    """Dimension, per bidegree v, of the annihilator of all the variables:
    Tor_N^S(S/I, k) in bidegree v + (num_p, num_q), N = ``ring.nvars``."""
    ring = ring_for_family(f, fld)
    _non_negative(max_total_degree=max_total_degree)
    return {v: len(kernel) for v, kernel in _annihilators(ring, max_total_degree)
            if kernel}


def depth_zero_witness(f: RepFamily, fld: Field = QQ,
                       max_total_degree: int = 4) -> tuple[BiDegree, str] | None:
    """A nonzero low-degree socle element (witnessing depth zero), if any:
    the first vector of the first nonzero annihilator, as a polynomial."""
    ring = ring_for_family(f, fld)
    _non_negative(max_total_degree=max_total_degree)
    for v, kernel in _annihilators(ring, max_total_degree):
        if kernel:
            basis = ring.piece(v).basis
            poly = Polynomial.from_dict(ring.num_p, ring.num_q, {
                basis[pos]: c for pos, c in kernel[0].items()})
            return v, format_polynomial(poly, f.doubled_names)
    return None

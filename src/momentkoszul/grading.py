"""The torus grading that the Tor oracle, the Hilbert oracle and the
residue-field resolution count by, and its two symmetry checks.

Weights.  Variable slot k has the weight +-e_{k mod n} in Z^n
(``RepFamily.torus_weights``), and a monomial the sum of the weights of its
variables.  A weight is held packed, as one int (``_BASE``), so that adding
weights adds their ints.  ``_Grading.piece_weights`` lists the weight of each
basis monomial of (S/I)_w once per piece, and every other weight of a
quotient coordinate is read from it.

The S_n check.  ``_torus_grading`` checks once per call, over the ring's
field, that every generator is weight-homogeneous and that the
transposition (1 2) and the n-cycle, permuting the index of every block of n
slots (slot k to n * (k // n) + pi(k mod n)), each send every generator into
I (``_keeps_ideal``).  The two permutations generate S_n, so every pi in
S_n keeps I; pi(I) = I because pi has finite order.  So pi is a ring
automorphism of S/I that permutes the variables and carries the weight lam
onto pi.lam.  Homogeneous generators make every row of the reduced echelon
of I_v homogeneous, so normal forms and ``QuotientRing.mult_by_var`` keep
weights, and S/I is graded by Z^2 x Z^n.  Whatever a route builds from this
graded ring splits into weight classes, and pi carries the class of
(v, lam) onto that of (v, pi.lam), so the two have the same dimension, rank
or Betti number.

Dominant weights and orbit sizes.  A weight is dominant when its
coordinates descend; each S_n orbit holds exactly one, and it has
n! / prod m_c! elements, m_c the number of coordinates equal to c
(``_orbit``).  A count in bidegree v is therefore the sum over dominant lam
of |S_n.lam| times the count of the class lam.  A vector of one weight has
its entries at coordinates of that weight alone, so one echelon of vectors
of dominant weights keeps each row inside one class, and its pivots, each
counted with the orbit size of its weight, count the full rank.  Orbit sizes
are read from one table per Z^n (``_orbit_table``), kept for the process.

The swap.  ``_swaps_p_and_q`` asks num_p = num_q and that the swap
sigma: p_k <-> q_k sends every generator into I, its normal form in its
bidegree being zero over the ring's field.  Then sigma(I) is in I, and
sigma(I) = I because sigma^2 = id, so sigma is a ring automorphism of S
that keeps I, swaps the two gradings and permutes the variables: a count in
(a, b) equals the count in (b, a), and a route computes one of the two.

Fallback.  A ring that fails the S_n check gets the trivial grading in Z^0,
every coordinate of weight 0 and orbit size 1, and the same code keeps and
counts everything once; a ring that fails the swap check is computed in
every bidegree.  Every family here passes both checks.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import factorial
from operator import mul

from .monomials import BiDegree, exponent_tuples
from .pieces import ideal_span_vectors
from .polynomials import Polynomial
from .quotient import QuotientRing

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
    coordinates that the Tor oracle keeps under them.

    ``weights`` gives each variable slot a weight in Z^n; None is the
    trivial grading in Z^0 (module docstring).  Each piece's weights are
    listed and grouped by weight once, the coordinates kept beside one
    exterior weight are listed once, and each multiplication map is bound
    and checked homogeneous once, for the life of the grading: one call of
    ``tor_over_S``, ``hilbert_oracle`` or ``resolve_k_over_quotient``.
    """

    def __init__(self, ring: QuotientRing, weights=None):
        self.ring = ring
        self.n = len(weights[0]) if weights else 0
        #: the packed weight of each variable slot
        self.slots = tuple(sum(x * _BASE ** c for c, x in enumerate(wt))
                           for wt in weights or ((),) * ring.nvars)
        self._weights: dict[BiDegree, list[int]] = {}
        self._pieces: dict[BiDegree, dict[int, list]] = {}
        self._kept: dict[BiDegree, dict[int, tuple]] = {}
        #: packed weight -> its orbit size, for every route
        self.orbits = _orbit_table(self.n)
        #: (x, w) -> the checked ``ring.mult_by_var(x, w)``, or None (``bind``)
        self.maps: dict[tuple[int, BiDegree], list | None] = {}
        self._commuting: dict[BiDegree, set[tuple[int, int]]] = {}
        self._sides: dict[BiDegree, tuple[list[int], list[int]]] = {}

    def weight(self, exponents) -> int:
        """The packed weight of the monomial with these exponents."""
        return sum(map(mul, exponents, self.slots))

    def piece_weights(self, w: BiDegree) -> list[int]:
        """The packed weight of each basis monomial of (S/I)_w, in basis
        order; cached for the life of the grading."""
        got = self._weights.get(w)
        if got is None:
            got = self._weights[w] = list(map(self.weight, self.ring.piece(w).basis))
        return got

    def side_weights(self, v: BiDegree) -> tuple[list[int], list[int]]:
        """The packed weights of P_a and of Q_b, v = (a, b), each in
        canonical order; cached for the life of the grading."""
        got = self._sides.get(v)
        if got is None:
            num_p, slots = self.ring.num_p, self.slots
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
            for pos, mu in enumerate(self.piece_weights(w)):
                got.setdefault(mu, []).append(pos)
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
            targets = self.piece_weights(up)
            mult, shift = ring.mult_by_var(x, w), self.slots[x]
            if not all(targets[t] == mu + shift
                       for mu, col in zip(self.piece_weights(w), mult) for t in col):
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

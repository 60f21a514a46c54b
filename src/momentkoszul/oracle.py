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

Symmetries.  ``grading.py`` states the torus grading, its S_n check and
the swap check once.  Here the complex of v is the direct sum of complexes
K(v, lambda), one per weight, and pi in S_n carries K(v, lambda) onto
K(v, pi.lambda), so beta_i(v) = sum over dominant lambda of |S_n.lambda|
beta_i(v, lambda); when the swap keeps I, beta_i(a, b) for a < b is read off
(b, a).  ``KoszulOracle`` keeps the basis elements of dominant weight and
counts each with the size of its weight's orbit in every dimension and
rank.  The kept part has one block per exterior monomial eps, the
coordinates of (S/I)_{v - deg eps} whose weight plus wt(eps) is
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
from functools import cache, partial
from itertools import combinations
from typing import NamedTuple

from .betti import BettiTable
from .fields import QQ, Field
from .grading import _Grading, _swaps_p_and_q, _torus_grading
from .ideals import RepFamily
from .linalg import Echelon, InvalidInputError
from .monomials import (BiDegree, _non_negative, ambient_dimension,
                        bidegrees_up_to_total, sub_bidegrees, total)
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
                                                grading.slots).items():
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

    The torus grading (``grading.py``) splits I_v into classes I_{v,lam},
    each spanned by the products g*m of weight wt(g) + wt(m) = lam, and
    dim I_v is the sum over dominant lam of |S_n.lam| dim I_{v,lam}.  So one
    echelon of the dominant products gives
    dim (S/I)_v = dim S_v - sum of |S_n.wt(j)| over its pivots j, and
    dim (S/I)_{(a, b)} with a < b is read off (b, a) when the swap keeps I.

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

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

The d.d check does not multiply the two differentials.  On the column
(eps, m), d_{i-1} . d_i is the sum over pairs {a, b} of eps of
+-(x_a x_b - x_b x_a) m, so it vanishes exactly when the differential is
assembled with those signs and every square x_a x_b = x_b x_a commutes on the
quotient piece of m.  ``check_dd`` verifies every entry of the assembled
differential against the multiplication maps, and each square once per ring;
the lower differential is built only where it is ranked.

``tor_over_S`` works one bidegree v at a time: a fresh ``KoszulOracle``
builds, ranks and d.d-checks the complex of v and is dropped before the next
v, serially or in a fork-pool worker.  Only the quotient ring's pieces,
multiplication maps and checked squares stay cached across bidegrees, until
the call returns.

Within v the differentials are ranked from the highest homological degree
down, with clearing (Chen and Kerber, "Persistent homology computation with
a twist", 2011): a row of the column echelon of d_{i+1} lies in the image of
d_{i+1}, so with d.d = 0 the column of d_i at its pivot j is a combination
of the columns after j, and ``rank`` skips it.  Since clearing trusts
d.d = 0, every rank of v comes first, then every d.d check, and only then
the Betti numbers: a corrupted differential fails as ``d.d != 0`` before a
Betti number is derived from a cleared rank.
"""

from __future__ import annotations

import multiprocessing
import os
from functools import partial
from itertools import combinations

from .betti import BettiTable
from .fields import QQ, Field
from .ideals import RepFamily
from .linalg import Echelon, kernel_of_columns, transpose
from .monomials import BiDegree, bidegrees_up_to_total, sub_bidegrees, total
from .polynomials import format_monomial, variable_names
from .quotient import QuotientRing, ring_for_family
from .series import TruncatedSeries


def _ext_bidegree(eps: tuple[int, ...], num_p: int) -> BiDegree:
    a = sum(1 for x in eps if x < num_p)
    return (a, len(eps) - a)


class ChainPiece:
    """One bidegree of the complex: labelled basis and sparse differential.

    ``basis_pairs[k]`` is the (exterior monomial, quotient basis monomial)
    pair behind column k of ``columns``; each column is a sparse vector over
    the basis of the piece one homological degree down.
    """

    __slots__ = ("i", "bidegree", "basis_pairs", "columns")

    def __init__(self, i, bidegree, basis_pairs, columns):
        self.i = i
        self.bidegree = bidegree
        self.basis_pairs = basis_pairs
        self.columns = columns

    @property
    def dimension(self) -> int:
        return len(self.basis_pairs)


class KoszulOracle:
    """Chain bases, differentials and ranks of the complex over one ring.

    Every result is cached per (i, v) for the oracle's lifetime; the
    differentials dominate its memory.  ``tor_over_S`` uses one oracle per
    bidegree v and ranks its differentials top-down, so that ``rank`` can
    clear the columns that d_{i+1} already proves dependent; until d_i is
    ranked only the pivot indices of d_{i+1} are kept.  A rank asked for
    on its own finds no pivots and ranks every column.
    """

    def __init__(self, ring: QuotientRing):
        self.ring = ring
        self._rank: dict[tuple[int, BiDegree], int] = {}
        self._basis: dict[tuple[int, BiDegree], list] = {}
        self._cols: dict[tuple[int, BiDegree], list] = {}
        self._cleared: dict[tuple[int, BiDegree], set[int]] = {}
        self._dd_done: set[tuple[int, BiDegree]] = set()

    def basis(self, i: int, v: BiDegree):
        """Blocks (eps, dim) of the degree-(i, v) piece, plus index offsets."""
        key = (i, v)
        got = self._basis.get(key)
        if got is not None:
            return got
        ring = self.ring
        blocks = []
        offset = 0
        if 0 <= i <= ring.nvars:
            for eps in combinations(range(ring.nvars), i):
                w = sub_bidegrees(v, _ext_bidegree(eps, ring.num_p))
                d = ring.dim(w)
                if d:
                    blocks.append((eps, w, offset, d))
                    offset += d
        result = (blocks, offset)
        self._basis[key] = result
        return result

    def dimension(self, i: int, v: BiDegree) -> int:
        return self.basis(i, v)[1]

    def columns(self, i: int, v: BiDegree):
        """Columns of the differential K_i -> K_{i-1} in bidegree v."""
        key = (i, v)
        got = self._cols.get(key)
        if got is not None:
            return got
        ring = self.ring
        p = ring.field.p
        blocks, _ = self.basis(i, v)
        tgt_blocks, _ = self.basis(i - 1, v)
        tgt_offset = {eps: off for eps, _, off, _ in tgt_blocks}
        cols = []
        for eps, w, _, d in blocks:
            removals = []
            for r in range(len(eps)):
                off = tgt_offset.get(eps[:r] + eps[r + 1:])
                if off is not None:
                    removals.append((r % 2, off, ring.mult_by_var(eps[r], w)))
            for pos in range(d):
                # each removal lands in its own target block: no entries collide
                col: dict[int, object] = {}
                for odd, off, mult in removals:
                    for tpos, c in mult[pos].items():
                        col[off + tpos] = (-c if p is None else p - c) if odd else c
                cols.append(col)
        self._cols[key] = cols
        return cols

    def rank(self, i: int, v: BiDegree) -> int:
        """Rank of d_i in bidegree v, skipping the columns that clearing
        proves dependent.

        If d_{i+1} was ranked first, column by column, the pivots of its
        echelon are dropped from d_i: a pivot row has smallest index j and
        lies in the image of d_{i+1}, so by d.d = 0 the column j of d_i is a
        combination of the columns after it.  By induction from the top
        index down, the columns left span the same image, so the rank does
        not change.  The pivot set is popped once read; d_i leaves its own
        for d_{i-1} when it is ranked column by column, which it is when
        its columns left number at most its rows (otherwise its rows are
        ranked and leave no pivots).  Clearing trusts d.d = 0, so a caller
        must run ``check_dd`` before it derives anything from the rank.
        """
        key = (i, v)
        got = self._rank.get(key)
        if got is not None:
            return got
        if i <= 0 or i > self.ring.nvars:
            self._rank[key] = 0
            return 0
        cleared = self._cleared.pop(key, ())
        cols = self.columns(i, v)
        if cleared:
            cols = [col for j, col in enumerate(cols) if j not in cleared]
        ech = Echelon(self.ring.field.p)
        by_columns = len(cols) <= self.dimension(i - 1, v)
        for vec in cols if by_columns else transpose(cols):
            ech.insert(vec)
        if by_columns and i > 1 and (i - 1, v) not in self._rank:
            self._cleared[(i - 1, v)] = set(ech.rows)
        self._rank[key] = ech.dimension
        return ech.dimension

    def check_dd(self, i: int, v: BiDegree):
        """Assert d_{i-1} . d_i = 0 on the bidegree-v piece, without the product.

        On the column (eps, m), m in (S/I)_w with w = v - deg eps, the
        composite lands in the blocks eps minus {a, b} as
        +-(x_a x_b m - x_b x_a m): removing a then b and b then a reach the
        same block with opposite signs.  So d.d = 0 exactly when

        * the assembly holds: ``columns(i, v)`` has one column per basis
          element, holding exactly the entries (-1)^r x_r m of its removals
          at the offsets of ``basis(i - 1, v)``, and
        * every square commutes: x_a x_b = x_b x_a on (S/I)_w for each pair
          {a, b} of each block (``QuotientRing.commutes``).

        This covers what the matrix product covers: built from the same
        multiplication maps, the product is zero exactly when those squares
        commute, and any wrong entry of ``columns(i, v)`` fails the assembly
        whether or not the product would show it.  ``columns(i - 1, v)`` is
        not built; where it is ranked, its own check covers it, which is why
        i = 1 (where d_0 = 0) checks the assembly alone.
        """
        ring = self.ring
        if i < 1 or i > ring.nvars or (i, v) in self._dd_done:
            return
        self._dd_done.add((i, v))
        fail = AssertionError(f"d.d != 0 at i={i}, v={v}")
        p = ring.field.p
        cols = self.columns(i, v)
        if len(cols) != self.dimension(i, v):
            raise fail
        target = {eps: off for eps, _, off, _ in self.basis(i - 1, v)[0]}
        for eps, w, off, d in self.basis(i, v)[0]:
            removals = []
            for r, x in enumerate(eps):
                t = target.get(eps[:r] + eps[r + 1:])
                if t is not None:
                    removals.append((r % 2, t, ring.mult_by_var(x, w)))
            for pos in range(d):
                col = cols[off + pos]
                count = 0
                for odd, t, mult in removals:
                    entries = mult[pos]
                    count += len(entries)
                    for tpos, c in entries.items():
                        if odd:
                            c = -c if p is None else p - c
                        if col.get(t + tpos) != c:
                            raise fail
                if len(col) != count:
                    raise fail
            for a, b in combinations(eps, 2):
                if not ring.commutes(a, b, w):
                    raise fail

    def betti(self, i: int, v: BiDegree) -> int:
        dim = self.dimension(i, v)
        if dim == 0:
            return 0
        b = dim - self.rank(i, v) - self.rank(i + 1, v)
        if b < 0:
            raise AssertionError((i, v, dim))
        return b

    def chain_piece(self, i: int, v: BiDegree) -> ChainPiece:
        """The labelled (i, v) piece with its differential, for inspection."""
        ring = self.ring
        pairs = []
        for eps, w, _, d in self.basis(i, v)[0]:
            for pos in range(d):
                pairs.append((eps, ring.monomial_label(w, pos)))
        return ChainPiece(i, v, pairs, self.columns(i, v))


def _bounded_workers(workers: int) -> int:
    """A worker count clamped to 1..os.cpu_count()."""
    return max(1, min(workers, os.cpu_count() or 1))


def default_workers() -> int:
    try:
        return _bounded_workers(int(os.environ.get("MOMENTKOSZUL_THREADS", "1")))
    except ValueError:
        return 1


def _bidegree_betti(ring: QuotientRing, task):
    """``(v, {i: beta_i(v)})`` for ``task = (v, degrees)``, from an oracle
    that holds the complex of v alone and is dropped on return."""
    v, degrees = task
    oracle = KoszulOracle(ring)
    live = [i for i in degrees if oracle.dimension(i, v)]
    for i in sorted({j for i in live for j in (i, i + 1)}, reverse=True):
        oracle.rank(i, v)
    for i in live:
        oracle.check_dd(i, v)
        oracle.check_dd(i + 1, v)
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
    """``job`` of every task on a fork pool of ``workers``, in any order."""
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers, initializer=_set_worker_job, initargs=(job,)) as pool:
        return list(pool.imap_unordered(_run_worker_job, tasks))


def tor_over_S(f: RepFamily, max_i: int | None = None,
               max_total_degree: int | None = None,
               fld: Field = QQ, workers: int | None = None) -> BettiTable:
    """Graded Betti numbers of S/I over S, by exact rank per bidegree.

    For homological degree i the bidegrees scanned are total(v) <= i + 3
    (or the explicit ``max_total_degree``).  Nonzero homology found on that
    boundary is recorded in ``boundary_hits``; the bound must then be raised
    for the table to be trusted.

    The scanned pairs (i, v) are grouped by v and run highest total degree
    first, so that a pool starts the largest complexes first.  Each
    bidegree gets its own ``KoszulOracle``, which in turn ranks d_i and
    d_{i+1} for every degree i of v whose piece is nonzero, top-down with
    clearing; checks d.d on (i, v) and (i + 1, v) for those degrees, in
    increasing i; and only then computes beta_i(v), because a cleared rank
    is right only where d.d = 0.  It is then dropped, so its bases,
    differentials and ranks live only while v is computed.  The quotient
    ring's pieces, multiplication maps and checked squares stay cached for
    the whole call.
    ``workers`` > 1 maps whole bidegrees, d.d checks included, over a fork
    pool; the entries and ``boundary_hits`` are assembled in scan order
    (i, then v) either way, so the result is bit-identical.
    """
    from .closed import projective_dimension

    ring = ring_for_family(f, fld)
    if max_i is None:
        max_i = projective_dimension(f)
    # the complex stops at i = nvars, so higher degrees add only zeros
    max_i = min(max_i, ring.nvars)
    bounds = [i + 3 if max_total_degree is None else max_total_degree
              for i in range(max_i + 1)]
    keys = [(i, v) for i, bound in enumerate(bounds)
            for v in bidegrees_up_to_total(bound)]
    scan: dict[BiDegree, list[int]] = {}
    for i, v in keys:
        scan.setdefault(v, []).append(i)
    tasks = sorted(scan.items(), key=lambda task: -total(task[0]))
    job = partial(_bidegree_betti, ring)
    workers = default_workers() if workers is None else _bounded_workers(workers)
    if workers > 1 and hasattr(os, "fork"):
        betti = dict(_map_on_pool(job, tasks, workers))
    else:
        betti = dict(map(job, tasks))
    entries = {}
    boundary = []
    for i, v in keys:
        b = betti[v][i]
        if b:
            entries[(i, v)] = b
            if total(v) == bounds[i]:
                boundary.append((i, v))
    return BettiTable(str(f.kind.value), f.n, entries, source="oracle",
                      field=str(fld), boundary_hits=boundary)


def hilbert_oracle(f: RepFamily, order: int, fld: Field = QQ) -> TruncatedSeries:
    """Hilbert series of S/I realized by per-bidegree quotient dimensions.

    Bidegrees come in increasing total degree, so when a piece directly
    below v is zero it is already cached, and ``QuotientRing.piece`` reads
    (S/I)_v = 0 off it (a monomial of v is a variable times a monomial of
    that piece) instead of eliminating I_v.  Every other piece is
    eliminated.
    """
    ring = ring_for_family(f, fld)
    coeffs = {}
    for v in bidegrees_up_to_total(order):
        d = ring.dim(v)
        if d:
            coeffs[v] = d
    return TruncatedSeries.make(("s", "t"), order, coeffs)


def socle(f: RepFamily, max_total_degree: int, fld: Field = QQ) -> dict[BiDegree, int]:
    """Dimension, per bidegree v, of the annihilator of all the variables.

    That annihilator in degree v is the kernel of the top Koszul
    differential on K_N = (S/I)_v, N = ``ring.nvars``, so it is
    Tor_N^S(S/I, k) in bidegree v + (num_p, num_q).
    """
    ring = ring_for_family(f, fld)
    oracle = KoszulOracle(ring)
    out = {}
    for v in bidegrees_up_to_total(max_total_degree):
        if v == (0, 0):
            continue
        k = oracle.betti(ring.nvars, (v[0] + ring.num_p, v[1] + ring.num_q))
        if k:
            out[v] = k
    return out


def depth_zero_witness(f: RepFamily, fld: Field = QQ,
                       max_total_degree: int = 4) -> tuple[BiDegree, str] | None:
    """A nonzero low-degree socle element (witnessing depth zero), if any."""
    ring = ring_for_family(f, fld)
    oracle = KoszulOracle(ring)
    names = variable_names(ring.num_p, ring.num_q, f.doubled_names)
    for v in bidegrees_up_to_total(max_total_degree):
        if v == (0, 0) or ring.dim(v) == 0:
            continue
        # the one block of K_N in this bidegree is (S/I)_v itself
        top = (v[0] + ring.num_p, v[1] + ring.num_q)
        kernel = kernel_of_columns(oracle.columns(ring.nvars, top), fld)
        if kernel:
            combo = kernel[0]
            parts = []
            for pos in sorted(combo):
                mono = ring.monomial_label(v, pos)
                c = combo[pos]
                parts.append(format_monomial(mono, names) if c == 1
                             else f"{c}*{format_monomial(mono, names)}")
            return v, " + ".join(parts)
    return None

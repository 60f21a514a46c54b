"""Minimal graded free resolution of the residue field over a quotient ring,
built degree by degree.

The free module F_s is a list of generator bidegrees; the presentation d_s is
one column per generator, a sparse vector over the graded basis of F_{s-1} in
the generator's bidegree.  The bidegrees v are scanned once, in increasing
total degree (p-heavy first).  In each v, K_v starts as the kernel of the
augmentation F_0 = S/I -> k, all of (S/I)_v for v != 0, and the steps
s = 1, ..., max_i run in order: step s chooses the generators of F_s of
degree v and hands the kernel of d_s in degree v to step s + 1 as the next
K_v.  Each step keeps its own module and columns from degree to degree, but
only the current degree's K_v is held.  The generators of degree v span a
complement of (m.K)_v in K_v, where K is the kernel of d_{s-1}:

1. The columns of d_s in degree v of the generators below v are built; they
   span (m.K)_v, because the generators below v generate K there.  Their
   kernel, read off the reduced row-echelon form of the columns, is the next
   K_v (also in 3), and their rank is the number of columns minus the
   number of kernel vectors.
2. The columns lie in K_v, so a rank above dim K_v raises ``AssertionError``
   naming the step and degree, even under ``python -O``.  A rank equal to
   dim K_v means no generator, and no other elimination runs.
3. Otherwise the generators are read off the pivots of the columns' span.
   Each vector of the basis of K_v has a coordinate that no other basis
   vector has: its free column in the reduced row-echelon form of 1, or its
   own unit coordinate in the kernel of the augmentation (a basis without
   one raises ``AssertionError``).  With the basis sorted sparsest first (a
   stable sort, so the choice is deterministic), the vector at place r gets
   coordinate d - 1 - r, d = dim K_v.  Restricted to these private
   coordinates each basis vector is a multiple of its own unit vector, so
   the restriction is injective on K_v; the columns are inserted,
   restricted, until the echelon form reaches their rank.  A basis vector
   leaves the span of (m.K)_v grown by the vectors before it exactly when
   its coordinate is not a pivot: those vectors own the higher
   coordinates, and unit vectors added from the highest coordinate down
   grow an echelon form with smallest-index pivots exactly at its
   non-pivots.  So the generators, the basis vectors at non-pivots, are the
   ones that inserting the basis into the span one vector at a time,
   sparsest first, would choose.  The generators' own columns are
   appended.  Each leaves the span of the columns before it, so no relation
   among all the columns has a coefficient on a generator's column, and the
   reduced row-echelon form reads the same kernel vectors off them as off
   the columns of 1.

The last step builds no kernel, so it does not build the columns of d_s:
there (m.K)_v is spanned by the variable multiples x.K_{v - deg x}, built
only until they fill K_v and inserted in the private coordinates of 3 (in
all coordinates in the top total degree, which has no kernel basis).  Most
of them are redundant, so the step keeps a basis of each K_u whose vectors
carry their weight and a label: the variable y of a product y.b that grew
the span of K_u, or ``nvars`` for a chosen vector.  In degree v, stage x (variables in
index order) multiplies by x only the vectors of K_{v - deg x} labelled x
or higher, Janet's multiplicative variables.  The others add nothing:
x.(y.b) = y.(x.b) with x.b in K (a submodule), which stage y < x spanned
already.  So the span, and the chosen vectors, are those of all the
multiples.  The basis of degree u is dropped with the columns of degree u,
below.

The column of (generator h, quotient basis monomial m) is h's presentation
for m = 1, and for m != 1 x times the column of (h, m/x), where x is the
first variable dividing m.  The quotient basis is the set of standard
monomials, closed under division, so m/x is a basis monomial one total
degree lower and its column was built in an earlier degree.  The columns
of a degree, and the blocks of every module's basis in it, are dropped once
both of their variable multiples are built; the columns of the top total
degree are never kept.  Multiplication by x out of degree u is bound once
per (x, u) in the degree being built (``_multiplier``): the basis positions
of u and u + deg x and x's maps on the quotient pieces are looked up once
for all the vectors it multiplies, and a zero column needs no product.

In the top total degree nothing is read later, so the steps only count, and
only the dominant classes of the torus grading (``grading.py``; under the
trivial grading the same code keeps everything and counts each element
once).  The multiplication maps of S/I keep weights.  Every generator of
F_s carries a weight, F_0's 0; the basis element (h, m) has wt(h) + wt(m),
and a chosen vector's weight is that of its entries, all equal (a vector
with entries of two weights raises ``AssertionError`` naming the step and
degree, even under ``python -O``).  So every column and every variable
multiple is weight-homogeneous.  A middle step builds only the
columns of dominant weight (coordinates descending), ranks them by the
forward row elimination alone (``linalg.rank_of_columns``), counting each
pivot column with the size |S_n.lam| of its weight's orbit, runs the rank
check of 2, and hands dim K_v - rank generators and the next dim K_v, the
number of all its columns minus the rank, on.  The last step inserts only
the products x.b of dominant weight wt(b) + wt(x), in all coordinates,
counts each that grows the span with its orbit size, stops when the count
reaches dim K_v, and counts dim K_v minus that.  No kernel basis is read off
and no generator is chosen there.

The count is exact.  Each pi in S_n turns a minimal Z^2 x Z^n-graded free
resolution of k into another one, and minimal resolutions are unique up to
isomorphism, so beta_{s,(v,lam)} = beta_{s,(v,pi.lam)}.  So are
dim (F_s)_{v,lam}, the sum of beta_{s,(w,mu)} dim (S/I)_{v-w,lam-mu} over
(w, mu), and, the resolution being exact, dim K_{v,lam} at step s, the
alternating sum of dim (F_{s+j})_{v,lam} over j >= 0, and
dim (m.K)_{v,lam} = dim K_{v,lam} - beta_{s,(v,lam)}.  The pivots of one
elimination of the dominant vectors, counted by orbit size, give the rank
of the columns in a middle step and the dimension of (m.K)_v in the last.
There the products with label >= x of weight lam span (m.K)_{v,lam}, the
weight-lam part of the span of all of them.

Minimality (no unit entry in any presentation) is checked on every chosen
vector and raises ``AssertionError`` even under ``python -O``.  That covers
all of K_v: K_v = (m.K)_v + span(chosen), and no element of (m.K)_v has an
entry at a generator of degree v, so an element of K_v with such an entry
forces one on some chosen vector.  Neither shortcut above changes (m.K)_v:
the rank-first step only skips the span when (m.K)_v = K_v, where nothing
is chosen, and the multiplicative variables span all of the multiples.
Below the top total degree every weight class is kept and counted once.  The
chosen vectors are read off the kernel's elimination and the span is a
second elimination, of the columns in the private coordinates, so the
check cross-checks the two; a middle step also requires as many chosen
vectors as dim K_v minus the rank of its columns, which fails if a column
outside K_v loses rank in the private coordinates (``AssertionError``, even
under ``python -O``).  Where the span is skipped, and in the top total
degree, where nothing is chosen, the rank check compares the two
eliminations instead.

Everything read in degree v lies in degrees componentwise <= v, so
generators above the bounds cannot influence Betti numbers inside them: the
table for (max_i, d - 1) is that for (max_i, d) cut to total degree < d, and
the one for (max_i - 1, d) is that for (max_i, d) cut to i < max_i.  A
generator of F_i has total degree at least i, so the steps past
max_total_degree add nothing and are not built: max_i is clamped to it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain

from .betti import BettiTable
from .fields import QQ, Field
from .grading import _Grading, _torus_grading
from .ideals import RepFamily
from .linalg import (
    Echelon,
    kernel_of_columns,
    rank_of_columns,
)
from .monomials import (
    BiDegree,
    _non_negative,
    basis_index,
    bidegrees_up_to_total,
    sub_bidegrees,
    total,
)
from .quotient import QuotientRing, ring_for_family


class _Module:
    """Graded basis bookkeeping for a free module with given generator
    degrees and packed torus weights."""

    def __init__(self, grading: _Grading, gens: list[BiDegree],
                 gen_weights: list[int]):
        self.ring = grading.ring
        self.grading = grading
        self.gens = gens
        self.gen_weights = gen_weights
        self._blocks: dict[BiDegree, tuple[dict, list]] = {}

    def blocks(self, v: BiDegree):
        """Returns (offsets, owners): offsets[gen] is the position of the
        generator's block; owners[pos] = (gen, w_rest, inner)."""
        got = self._blocks.get(v)
        if got is not None:
            return got
        offsets = {}
        owners = []
        for gi, w in enumerate(self.gens):
            rest = sub_bidegrees(v, w)
            if rest[0] < 0 or rest[1] < 0:
                continue
            d = self.ring.dim(rest)
            if d:
                offsets[gi] = len(owners)
                owners.extend((gi, rest, k) for k in range(d))
        result = (offsets, owners)
        self._blocks[v] = result
        return result

    def weights(self, owners) -> list[int]:
        """The weight of each basis element (gen, w_rest, inner) of
        ``owners``: the generator's weight plus its basis monomial's."""
        gens, pieces = self.gen_weights, self.grading.piece_weights
        return [gens[gi] + pieces(rest)[inner] for gi, rest, inner in owners]

    def add_generators(self, v: BiDegree, weights: list[int]):
        """Appends one generator of degree v per weight.  Their blocks come
        last in degree v; no block above v may be built yet."""
        offsets, owners = self.blocks(v)
        for gi in range(len(self.gens), len(self.gens) + len(weights)):
            offsets[gi] = len(owners)
            owners.append((gi, (0, 0), 0))
        self.gens.extend([v] * len(weights))
        self.gen_weights.extend(weights)


def _multiplier(module: _Module, x: int, u: BiDegree):
    """Multiplication by variable x from degree u of ``module`` to degree
    u + deg x, bound once for every vector of u: the owners of u, the offsets
    of u + deg x, the field's p and x's map out of each quotient degree met.
    """
    ring = module.ring
    p = ring.field.p
    e = ring.var_bidegree(x)
    owners = module.blocks(u)[1]
    offsets = module.blocks((u[0] + e[0], u[1] + e[1]))[0]
    maps: dict[BiDegree, list[dict]] = {}

    def multiply(vec: dict) -> dict:
        out: dict[int, object] = {}
        get = out.get
        for pos, c in vec.items():
            gi, rest, inner = owners[pos]
            cols = maps.get(rest)
            if cols is None:
                cols = maps[rest] = ring.mult_by_var(x, rest)
            col = cols[inner]
            if not col:
                continue
            # a generator's terms land in its block of the target degree
            off = offsets[gi]
            for tpos, m in col.items():
                k = off + tpos
                y = get(k, 0) + c * m
                if p is not None:
                    y %= p
                if y:
                    out[k] = y
                else:
                    del out[k]
        return out

    return multiply


def _first_divisions(ring: QuotientRing, w: BiDegree) -> list[tuple]:
    """(x, k) for each basis monomial m of degree w: x is the first variable
    dividing m, and m/x is basis monomial k of degree w - deg x."""
    out = []
    for mono in ring.piece(w).basis:
        x = next(y for y, e in enumerate(mono) if e)
        lower = sub_bidegrees(w, ring.var_bidegree(x))
        below = mono[:x] + (mono[x] - 1,) + mono[x + 1:]
        k = ring.piece(lower).positions[
            basis_index(ring.num_p, ring.num_q, lower)[below]]
        out.append((x, k))
    return out


def _lower_columns(ring: QuotientRing, module: _Module, next_module: _Module,
                   built: dict[BiDegree, list[dict]], v: BiDegree,
                   divisions: dict, owners: list) -> list[dict]:
    """The columns in degree v of the generators of next_module below v, one
    per basis element (gen, w_rest, inner) of ``owners``, in that order.

    The column of (generator h, basis monomial m) is x times the column of
    (h, m/x), built one total degree lower, where x is the first variable
    dividing m.  Each is a vector over module's basis in degree v.
    """
    columns = []
    # x -> (multiplication by x from u = v - deg x, the columns built in u,
    # their block offsets)
    below: dict[int, tuple] = {}
    for gi, rest, inner in owners:
        got = divisions.get(rest)
        if got is None:
            got = divisions[rest] = _first_divisions(ring, rest)
        x, k = got[inner]
        lower = below.get(x)
        if lower is None:
            u = sub_bidegrees(v, ring.var_bidegree(x))
            lower = below[x] = (_multiplier(module, x, u), built[u],
                                next_module.blocks(u)[0])
        multiply, cols, offsets = lower
        col = cols[offsets[gi] + k]
        # x.0 = 0
        columns.append(multiply(col) if col else {})
    return columns


def _private_coordinates(kvecs: list[dict], step: int,
                         v: BiDegree) -> dict[int, int]:
    """A coordinate of its own for each vector of the basis ``kvecs`` of K_v,
    numbered in reverse: kvecs[r]'s is numbered len(kvecs) - 1 - r.

    Raises ``AssertionError`` when some vector has no coordinate that no
    other vector has.
    """
    seen = Counter(chain.from_iterable(kvecs))
    last = len(kvecs) - 1
    private = {}
    for r, kv in enumerate(kvecs):
        j = next((j for j in kv if seen[j] == 1), None)
        if j is None:
            raise AssertionError(
                f"kernel basis vector with no coordinate of its own at "
                f"step {step}, degree {v}")
        private[j] = last - r
    return private


def _project(vec: dict, private: dict[int, int]) -> dict:
    """``vec`` in the private coordinates of a basis of K_v."""
    return {private[j]: x for j, x in vec.items() if j in private}


def _column_span(columns: list[dict], rank: int, private: dict[int, int],
                 p: int | None) -> Echelon:
    """An echelon form of the span of ``columns`` in the private coordinates
    ``private``, of dimension ``rank``: the columns after the one that
    reaches it are not inserted."""
    span = Echelon(p)
    for col in columns:
        if span.dimension == rank:
            break
        span.insert(_project(col, private))
    return span


def _complement(kvecs: list[dict], span: Echelon, owners: list, step: int,
                v: BiDegree) -> list[dict]:
    """The vectors of the basis ``kvecs`` of K_v, sparsest first, that leave
    ``span`` (an echelon form of (m.K)_v in the private coordinates of
    ``kvecs``) grown by those before them: kvecs[r] exactly where
    coordinate len(kvecs) - 1 - r is not a pivot of ``span``.

    Raises ``AssertionError`` on a chosen vector with an entry at a
    generator of degree v (``owners`` is the basis of degree v).
    """
    last = len(kvecs) - 1
    chosen = [kv for r, kv in enumerate(kvecs) if last - r not in span.rows]
    for kv in chosen:
        for pos in kv:
            if owners[pos][1] == (0, 0):
                raise AssertionError(
                    f"unit entry in presentation at step {step}, degree {v}")
    return chosen


def _chosen_weights(chosen: list[dict], module: _Module, step: int,
                    v: BiDegree) -> list[int]:
    """The weight of each chosen vector of degree v of ``module``: that of
    its entries.

    Raises ``AssertionError`` on a vector whose entries have more than one
    weight.
    """
    owners = module.blocks(v)[1]
    weights = iter(module.weights(
        map(owners.__getitem__, chain.from_iterable(chosen))))
    out = []
    for kv in chosen:
        seen = {next(weights) for _ in kv}
        if len(seen) != 1:
            raise AssertionError(
                f"chosen vector of {len(seen)} torus weights at step {step}, "
                f"degree {v}")
        out.append(seen.pop())
    return out


def _variable_span(module: _Module, basis: dict, v: BiDegree, dim: int,
                   private: dict[int, int] | None, sizes, p: int | None
                   ) -> tuple[Echelon, int, list[tuple[dict, int, int]]]:
    """An echelon form of (m.K)_v in the private coordinates ``private``, or
    in all coordinates where None, its dimension counted by weight, and the
    products that grew it, each with its variable and its weight.

    ``basis[u]`` is a basis of K_u of vectors with a label and a weight: a
    product y.b carries its variable y, a chosen generator ``ring.nvars``.
    Stage x inserts x.b for b in ``basis[v - deg x]`` with label >= x only:
    for a label y < x, x.(y.b) = y.(x.b) lies in y.K_{v - deg y}, which
    stage y spanned.  A product of weight lam is inserted only where
    ``sizes[lam]`` is nonzero, and a product that grows the span adds
    ``sizes[lam]`` to the count; the insertions stop once the count fills
    K_v (``dim``).
    """
    ring = module.ring
    shifts = module.grading.slots
    span = Echelon(p)
    count = 0
    grown = []
    for x in range(ring.nvars):
        u = sub_bidegrees(v, ring.var_bidegree(x))
        lower = basis.get(u)
        if not lower:
            continue
        multiply = _multiplier(module, x, u)
        shift = shifts[x]
        for b, label, weight in lower:
            if count >= dim:
                return span, count, grown
            size = sizes[weight + shift] if label >= x else 0
            if size:
                vec = multiply(b)
                if span.insert(vec if private is None
                               else _project(vec, private)):
                    count += size
                    grown.append((vec, x, weight + shift))
    return span, count, grown


def resolve_k_over_quotient(f: RepFamily, max_i: int, max_total_degree: int,
                            fld: Field = QQ) -> BettiTable:
    """Betti table of the residue field over S/I, exact within the window
    i <= max_i, total degree <= max_total_degree."""
    _non_negative(max_i=max_i, max_total_degree=max_total_degree)
    # F_i has no generator below total degree i
    max_i = min(max_i, max_total_degree)
    ring = ring_for_family(f, fld)
    grading = _torus_grading(ring, f.torus_weights)
    entries = {(0, (0, 0)): 1}
    # F_0, ..., F_max_i; F_0's generator has weight 0
    modules = [_Module(grading, [] if s else [(0, 0)],
                       [] if s else [0]) for s in range(max_i + 1)]
    # built[s - 1]: columns of d_s per degree, in modules[s]'s basis order
    built: list[dict[BiDegree, list[dict]]] = [{} for _ in range(max_i)]
    # last step: basis of K_u per degree, labelled and weighted, for
    # _variable_span
    basis: dict[BiDegree, list[tuple[dict, int, int]]] = {}
    divisions: dict[BiDegree, list[tuple]] = {}
    # below the top total degree every weight class is kept, counted once
    once: dict[int, int] = defaultdict(lambda: 1)
    for v in bidegrees_up_to_total(max_total_degree):
        # the top total degree only counts: nothing reads its kernel bases,
        # columns or chosen generators, so it keeps the dominant weight
        # classes alone, each counted with its orbit size
        keep = total(v) < max_total_degree
        sizes = once if keep else grading.orbits
        # kernel of the augmentation F_0 = R -> k; kvecs is a basis of K_v
        # where it is kept
        dim = ring.dim(v) if v != (0, 0) else 0
        kvecs = [{k: 1} for k in range(dim)] if keep else []
        for step in range(1, max_i + 1):
            module = modules[step - 1]
            if step == max_i:
                # no next kernel to build: (m.K)_v is spanned by the
                # variable multiples x.K_{v - deg x}
                private = (_private_coordinates(kvecs, step, v) if keep
                           else None)
                span, spanned, grown = _variable_span(
                    module, basis, v, dim, private, sizes, fld.p)
                if spanned > dim:
                    raise AssertionError(
                        f"variable multiples of rank {spanned} in a kernel "
                        f"of dimension {dim} at step {step}, degree {v}")
                count = dim - spanned
                if keep:
                    chosen = _complement(kvecs, span, module.blocks(v)[1],
                                         step, v)
                    basis[v] = grown + [
                        (kv, ring.nvars, w) for kv, w in
                        zip(chosen, _chosen_weights(chosen, module, step, v))]
                basis.pop((v[0], v[1] - 1), None)
            else:
                next_module, step_built = modules[step], built[step - 1]
                owners = next_module.blocks(v)[1]
                if keep:
                    columns = _lower_columns(ring, module, next_module,
                                             step_built, v, divisions, owners)
                    kernel = kernel_of_columns(columns, fld) if columns else []
                    rank = len(columns) - len(kernel)
                else:
                    # the columns of dominant weight, each pivot counted
                    # with its orbit size
                    weights = next_module.weights(owners)
                    columns = _lower_columns(
                        ring, module, next_module, step_built, v, divisions,
                        [o for o, w in zip(owners, weights) if sizes[w]])
                    rank = rank_of_columns(
                        columns, fld, [sizes[w] for w in weights if sizes[w]])
                if rank > dim:
                    raise AssertionError(
                        f"columns of rank {rank} in a kernel of dimension "
                        f"{dim} at step {step}, degree {v}")
                count = dim - rank
                dim = len(owners) - rank
                if keep:
                    if count:
                        span = _column_span(
                            columns, rank,
                            _private_coordinates(kvecs, step, v), fld.p)
                        chosen = _complement(kvecs, span, module.blocks(v)[1],
                                             step, v)
                        if len(chosen) != count:
                            raise AssertionError(
                                f"{len(chosen)} generators chosen, {count} "
                                f"expected, at step {step}, degree {v}")
                        next_module.add_generators(
                            v, _chosen_weights(chosen, module, step, v))
                        columns += chosen
                    if columns:
                        step_built[v] = columns
                    kvecs = sorted(kernel, key=len)
                # degree u is read at u + (1, 0) and, last, at u + (0, 1) = v
                step_built.pop((v[0], v[1] - 1), None)
            if count:
                entries[(step, v)] = count
        # nothing reads degree v - (0, 1) after v
        for module in modules:
            module._blocks.pop((v[0], v[1] - 1), None)
    # generators on the window edge: the next steps may have syzygies just
    # outside; the caller must widen to trust them
    boundary = sorted(key for key in entries
                      if key[0] and total(key[1]) == max_total_degree)
    return BettiTable(str(f.kind.value), f.n, entries,
                      source="oracle-resolution", field=str(fld),
                      boundary_hits=boundary)

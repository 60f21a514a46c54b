"""Minimal graded free resolution of the residue field over a quotient ring,
built degree by degree.

State per step: the free module F_s is a list of generator bidegrees; the
presentation d_s is one column per generator, a sparse vector over the graded
basis of F_{s-1} in the generator's bidegree.  For each bidegree v (scanned
in increasing total degree, p-heavy first) the kernel K_v of d_s is read off
the reduced row-echelon form of its matrix.  The new generators of F_{s+1} in
degree v span a complement of (m.K)_v in K_v: the span of the variable
multiples x.K_{v - deg x} is built first, and stops as soon as it fills K_v
(it lies inside K_v); then the kernel basis vectors, sparsest first (a stable
sort, so the choice is deterministic), are added while they leave the span,
and each one that does becomes a generator, until the span is K_v.

Minimality (no unit entry in any presentation) is checked on every chosen
vector and raises ``AssertionError`` even under ``python -O``.  That covers
all of K_v: K_v = (m.K)_v + span(chosen), and no variable multiple has an
entry at a generator of degree v, so an element of K_v with such an entry
forces one on some chosen vector.

The kernel of d_s has one column per (generator h, quotient basis monomial
m).  The column of (h, 1) is h's presentation; for m != 1 it is x times the
column of (h, m/x), where x is the first variable dividing m.  The quotient
basis is the set of standard monomials, closed under division, so m/x is a
basis monomial one total degree lower and its column was built just before.
The columns of a degree are dropped once both of their variable multiples
are built, and those of the top total degree are never kept.

Generators above the configured degree bound are invisible, but they cannot
influence Betti numbers inside the bound, so the reported window is exact.
"""

from __future__ import annotations

from .betti import BettiTable
from .fields import QQ, Field
from .ideals import RepFamily
from .linalg import Echelon, axpy, kernel_of_columns
from .monomials import (
    BiDegree,
    basis_index,
    bidegrees_up_to_total,
    sub_bidegrees,
    total,
)
from .quotient import QuotientRing, ring_for_family


class _Module:
    """Graded basis bookkeeping for a free module with given generator degrees."""

    def __init__(self, ring: QuotientRing, gens: list[BiDegree]):
        self.ring = ring
        self.gens = gens
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

    def multiply_by_var(self, x: int, v: BiDegree, vec: dict) -> dict:
        """Image in degree v + deg(x) of a degree-v element under variable x."""
        ring = self.ring
        p = ring.field.p
        _, owners = self.blocks(v)
        # one generator's terms share ``rest`` and land in one target block
        per_gen: dict[int, dict] = {}
        for pos, c in vec.items():
            gi, rest, inner = owners[pos]
            axpy(per_gen.setdefault(gi, {}), c, ring.mult_by_var(x, rest)[inner], p)
        e = ring.var_bidegree(x)
        offsets, _ = self.blocks((v[0] + e[0], v[1] + e[1]))
        out: dict[int, object] = {}
        for gi, acc in per_gen.items():
            off = offsets.get(gi)
            for tpos, m in acc.items():
                out[off + tpos] = m
        return out


def resolve_k_over_quotient(f: RepFamily, max_i: int, max_total_degree: int,
                            fld: Field = QQ) -> BettiTable:
    """Betti table of the residue field over S/I, exact within the window
    i <= max_i, total degree <= max_total_degree."""
    ring = ring_for_family(f, fld)
    bidegs = [v for v in bidegrees_up_to_total(max_total_degree)]
    entries = {(0, (0, 0)): 1}

    module = _Module(ring, [(0, 0)])
    # kernel of the augmentation F_0 = R -> k
    kernels: dict[BiDegree, list[dict]] = {}
    for v in bidegs:
        if v == (0, 0):
            continue
        d = ring.dim(v)
        if d:
            kernels[v] = [{k: 1} for k in range(d)]

    boundary = []
    for step in range(1, max_i + 1):
        new_gens: list[BiDegree] = []
        new_cols: list[dict] = []
        for v in bidegs:
            kvecs = kernels.get(v, [])
            dim = len(kvecs)
            if not dim:
                continue
            # (m.K)_v lies inside K_v: stop once it fills K_v
            span = Echelon(fld.p)
            for x in range(ring.nvars):
                e = ring.var_bidegree(x)
                v_prev = (v[0] - e[0], v[1] - e[1])
                for kv in kernels.get(v_prev, []):
                    if span.dimension == dim:
                        break
                    span.insert(module.multiply_by_var(x, v_prev, kv))
            _, owners = module.blocks(v)
            for kv in sorted(kvecs, key=len):
                if span.dimension == dim:
                    break
                if not span.insert(kv):
                    continue
                for pos in kv:
                    if owners[pos][1] == (0, 0):
                        raise AssertionError(
                            f"unit entry in presentation at step {step}, degree {v}")
                new_gens.append(v)
                new_cols.append(kv)
        for v in sorted(set(new_gens)):
            entries[(step, v)] = new_gens.count(v)
            if v[0] + v[1] == max_total_degree:
                # generators on the window edge: the next steps may have
                # syzygies just outside; the caller must widen to trust them
                boundary.append((step, v))
        next_module = _Module(ring, new_gens)
        if step == max_i:
            break
        # kernel of d_step: one column per (generator h, quotient basis
        # monomial m), in the order of next_module's basis
        kernels = {}
        built: dict[BiDegree, list[dict]] = {}
        for v in bidegs:
            _, owners = next_module.blocks(v)
            columns = []
            for gi, rest, inner in owners:
                if rest == (0, 0):
                    columns.append(new_cols[gi])
                    continue
                # x times the column of (h, m/x), built one total degree lower
                mono = ring.monomial_label(rest, inner)
                x = next(y for y, e in enumerate(mono) if e)
                e_x = ring.var_bidegree(x)
                u, lower = sub_bidegrees(v, e_x), sub_bidegrees(rest, e_x)
                below = mono[:x] + (mono[x] - 1,) + mono[x + 1:]
                k = ring.piece(lower).positions[
                    basis_index(ring.num_p, ring.num_q, lower)[below]]
                col = built[u][next_module.blocks(u)[0][gi] + k]
                columns.append(module.multiply_by_var(x, u, col))
            if columns:
                kernels[v] = kernel_of_columns(columns, fld)
                if total(v) < max_total_degree:
                    built[v] = columns
            # degree u is read at u + (1, 0) and, last, at u + (0, 1) = v
            built.pop((v[0], v[1] - 1), None)
        module = next_module

    return BettiTable(str(f.kind.value), f.n, entries,
                      source="oracle-resolution", field=str(fld),
                      boundary_hits=boundary)

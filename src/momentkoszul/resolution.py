"""Minimal graded free resolution of the residue field over a quotient ring,
built degree by degree.

State per step: the free module F_s is a list of generator bidegrees; the
presentation d_s is one column per generator, a sparse vector over the graded
basis of F_{s-1} in the generator's bidegree.  For each bidegree v (scanned
in increasing total degree, p-heavy first) the kernel of d_s is read off the
reduced row-echelon form of its matrix; new generators of F_{s+1} are
the canonical kernel rows not already reached by variable multiples of
lower-degree kernel elements.  Minimality (no unit entry in any
presentation) is asserted as each generator is chosen.

Generators above the configured degree bound are invisible, but they cannot
influence Betti numbers inside the bound, so the reported window is exact.
"""

from __future__ import annotations

from .betti import BettiTable
from .fields import QQ, Field
from .ideals import RepFamily
from .linalg import Echelon, axpy, kernel_of_columns
from .monomials import BiDegree, bidegrees_up_to_total, sub_bidegrees
from .quotient import QuotientRing, ring_for_family


class _Module:
    """Graded basis bookkeeping for a free module with given generator degrees."""

    def __init__(self, ring: QuotientRing, gens: list[BiDegree]):
        self.ring = ring
        self.gens = gens
        self._blocks: dict[BiDegree, tuple[dict, int, list]] = {}

    def blocks(self, v: BiDegree):
        """Returns (offsets, total_dim, owners): offsets[gen] is the position
        of the generator's block; owners[pos] = (gen, w_rest, inner)."""
        got = self._blocks.get(v)
        if got is not None:
            return got
        offsets = {}
        owners = []
        off = 0
        for gi, w in enumerate(self.gens):
            rest = sub_bidegrees(v, w)
            if rest[0] < 0 or rest[1] < 0:
                continue
            d = self.ring.dim(rest)
            if d:
                offsets[gi] = off
                owners.extend((gi, rest, k) for k in range(d))
                off += d
        result = (offsets, off, owners)
        self._blocks[v] = result
        return result

    def _image(self, v: BiDegree, w_target: BiDegree, vec: dict, columns) -> dict:
        """Image in degree w_target of a degree-v element under the map whose
        columns on the quotient piece of degree ``rest`` are ``columns(rest)``."""
        p = self.ring.field.p
        _, _, owners = self.blocks(v)
        # one generator's terms share ``rest`` and land in one target block
        per_gen: dict[int, dict] = {}
        for pos, c in vec.items():
            gi, rest, inner = owners[pos]
            axpy(per_gen.setdefault(gi, {}), c, columns(rest)[inner], p)
        offsets, _, _ = self.blocks(w_target)
        out: dict[int, object] = {}
        for gi, acc in per_gen.items():
            off = offsets.get(gi)
            for tpos, m in acc.items():
                out[off + tpos] = m
        return out

    def multiply_by_var(self, x: int, v: BiDegree, vec: dict) -> dict:
        """Image in degree v + deg(x) of a degree-v element under variable x."""
        e = self.ring.var_bidegree(x)
        return self._image(v, (v[0] + e[0], v[1] + e[1]), vec,
                           lambda rest: self.ring.mult_by_var(x, rest))

    def multiply_by_monomial(self, mono, v: BiDegree, vec: dict) -> dict:
        """Image in degree v + deg(mono) of a degree-v element."""
        ring = self.ring
        w_target = (v[0] + sum(mono[:ring.num_p]), v[1] + sum(mono[ring.num_p:]))
        return self._image(v, w_target, vec,
                           lambda rest: ring.mult_by_monomial(mono, rest))


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
            if not kvecs:
                continue
            span = Echelon(fld.p)
            for x in range(ring.nvars):
                e = ring.var_bidegree(x)
                v_prev = (v[0] - e[0], v[1] - e[1])
                for kv in kernels.get(v_prev, []):
                    span.insert(module.multiply_by_var(x, v_prev, kv))
            canon = Echelon(fld.p)
            for kv in kvecs:
                canon.insert(kv)
            _, _, owners = module.blocks(v)
            for row_items in canon.canonical_rows():
                row = dict(row_items)
                if not span.insert(row):
                    continue
                for pos in row:
                    gi, rest, _ = owners[pos]
                    assert rest != (0, 0), \
                        f"unit entry in presentation at step {step}, degree {v}"
                new_gens.append(v)
                new_cols.append(row)
        for v in sorted(set(new_gens)):
            entries[(step, v)] = new_gens.count(v)
            if v[0] + v[1] == max_total_degree:
                # generators on the window edge: the next steps may have
                # syzygies just outside; the caller must widen to trust them
                boundary.append((step, v))
        next_module = _Module(ring, new_gens)
        if step == max_i:
            break
        # kernel of d_step: one column per (generator, quotient basis monomial)
        kernels = {}
        for v in bidegs:
            columns = []
            for w_h, col in zip(new_gens, new_cols):
                rest = sub_bidegrees(v, w_h)
                if rest[0] < 0 or rest[1] < 0 or ring.dim(rest) == 0:
                    continue
                for mono_idx in range(ring.dim(rest)):
                    mono = ring.monomial_label(rest, mono_idx)
                    columns.append(module.multiply_by_monomial(mono, w_h, col))
            if columns:
                kernels[v] = kernel_of_columns(columns, fld)
        module = next_module

    return BettiTable(str(f.kind.value), f.n, entries,
                      source="oracle-resolution", field=str(fld),
                      boundary_hits=boundary)

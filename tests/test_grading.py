"""The grading's one weight table per quotient piece and its three readers."""

import pytest

from momentkoszul import resolution
from momentkoszul.fields import GF, QQ
from momentkoszul.grading import _torus_grading
from momentkoszul.ideals import family
from momentkoszul.monomials import bidegrees_up_to_total
from momentkoszul.quotient import ring_for_family
from momentkoszul.verify import ORACLE_RANGE

CASES = [(kind, n, fld) for kind, n in [*ORACLE_RANGE, ("sl", 4)]
         for fld in (QQ, GF(32003))]


@pytest.mark.parametrize("kind, n, fld", CASES, ids=str)
def test_piece_weights_and_their_grouping_read_the_basis_monomials(kind, n, fld):
    f = family(kind, n)
    ring = ring_for_family(f, fld)
    grading = _torus_grading(ring, f.torus_weights)
    assert grading.n == n
    for w in bidegrees_up_to_total(4):
        weights = grading.piece_weights(w)
        assert weights == [grading.weight(m) for m in ring.piece(w).basis]
        groups = grading._by_weight(w)
        # the order behind the oracle's basis indices and pinned digests
        assert list(groups) == list(dict.fromkeys(weights))
        for mu, positions in groups.items():
            assert positions == [pos for pos, lam in enumerate(weights) if lam == mu]


@pytest.mark.parametrize("kind, n, fld", CASES, ids=str)
def test_resolution_module_weights_add_the_piece_weights(monkeypatch, kind, n, fld):
    modules = []

    class Recorded(resolution._Module):
        def __init__(self, *args):
            super().__init__(*args)
            modules.append(self)

    monkeypatch.setattr(resolution, "_Module", Recorded)
    f = family(kind, n)
    resolution.resolve_k_over_quotient(f, 4, 4, fld)
    grading = modules[0].grading
    assert grading.n == n
    assert sum(len(module.gens) for module in modules) > 1
    for module in modules:
        for v in bidegrees_up_to_total(4):
            owners = module.blocks(v)[1]
            assert module.weights(owners) == [
                module.gen_weights[gi] + grading.piece_weights(rest)[inner]
                for gi, rest, inner in owners], (v, owners)

from itertools import combinations
from math import comb

import pytest

from momentkoszul.exterior import (
    exterior_mult_rank,
    gl_ext_module_candidates,
    symmetric_identity_check,
)
from momentkoszul.fields import GF, QQ, InvalidFieldError

from helpers import brute_rank, wedge_matrix_for_pair_form


def test_rank_base_case():
    assert exterior_mult_rank(1, 0) == (1, True)


def test_rank_n2_bijective_middle():
    matrix = wedge_matrix_for_pair_form(2, 1)
    assert brute_rank(matrix) == 4
    assert exterior_mult_rank(2, 1) == (4, True)


def test_rank_n3_middle():
    matrix = wedge_matrix_for_pair_form(3, 2)
    assert brute_rank(matrix) == 15
    assert exterior_mult_rank(3, 2) == (15, True)


def test_maximal_rank_all_small_n_all_fields():
    for n in range(1, 5):
        for fld in (QQ, GF(3), GF(32003)):
            for i in range(0, 2 * n - 1):
                rank, maximal = exterior_mult_rank(n, i, fld)
                assert maximal, (n, i, str(fld))
                assert rank == min(comb(2 * n, i), comb(2 * n, i + 2))


def test_symmetric_identity_degenerate_case():
    # d = 0: both sides reduce to s_1(x) + s_1(y)
    assert symmetric_identity_check(1, 1, 0)


def test_symmetric_identity_example():
    assert symmetric_identity_check(2, 3, 2)


def test_symmetric_identity_sweep():
    for u in range(1, 5):
        for v in range(1, 5):
            for d in range(5):
                assert symmetric_identity_check(u, v, d, QQ), (u, v, d)
                assert symmetric_identity_check(u, v, d, GF(7)), (u, v, d)


def test_symmetric_identity_characteristic_guard():
    with pytest.raises(InvalidFieldError):
        symmetric_identity_check(2, 2, 3, GF(3))


def test_ext_module_candidate_resolution():
    # the full quadratic ideal matches the cohomology module; the diagonal
    # one falls short already in bidegree (1, 1)
    for n in (2, 3):
        data = gl_ext_module_candidates(n)
        assert data["full_matches"]
        assert not data["diagonal_matches"]
        assert data["first_diagonal_mismatch"][0] == (1, 1)
    both = gl_ext_module_candidates(1)
    assert both["full_matches"] and both["diagonal_matches"]


def _ranked_candidates(n: int, fld) -> dict:
    # the same comparison as gl_ext_module_candidates, with each piece ranked
    # over ``fld`` by dense elimination of its signed products
    def basis(a, b):
        return [A + tuple(n + j for j in B)
                for A in combinations(range(n), a)
                for B in combinations(range(n), b)]

    def piece_rank(pairs, a, b):
        index = {m: k for k, m in enumerate(basis(a, b))}
        rows = []
        for (i, j) in pairs:
            for mu in basis(a - 1, b - 1):
                word = (i, n + j) + mu
                if len(set(word)) < len(word):
                    continue
                inversions = sum(x > y for x, y in combinations(word, 2))
                row = [0] * len(index)
                row[index[tuple(sorted(word))]] = (-1) ** inversions
                rows.append(row)
        return brute_rank(rows, fld.p) if rows else 0

    full_pairs = [(i, j) for i in range(n) for j in range(n)]
    diag_pairs = [(j, j) for j in range(n)]
    full_ok, mismatch = True, None
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            target = comb(n, a) * comb(n, b)
            full_ok = full_ok and piece_rank(full_pairs, a, b) == target
            ddim = piece_rank(diag_pairs, a, b)
            if ddim != target and mismatch is None:
                mismatch = ((a, b), ddim, target)
    return {
        "full_matches": full_ok,
        "diagonal_matches": mismatch is None,
        "first_diagonal_mismatch": mismatch,
    }


@pytest.mark.parametrize("fld", [QQ, GF(3), GF(7)], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ext_module_candidates_keep_their_pinned_values(n, fld):
    # recorded when each piece was ranked by an echelon of its products; the
    # diagonal ideal has n of the n^2 monomials of bidegree (1, 1).  The
    # answer takes no field: ranking every piece over ``fld`` gives it too,
    # since each product is a signed basis monomial
    mismatch = None if n == 1 else ((1, 1), n, n * n)
    pinned = {
        "full_matches": True,
        "diagonal_matches": n == 1,
        "first_diagonal_mismatch": mismatch,
    }
    assert gl_ext_module_candidates(n) == pinned
    assert _ranked_candidates(n, fld) == pinned

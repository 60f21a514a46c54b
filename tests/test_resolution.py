"""Minimal free resolutions of the residue field over the quotient rings."""

import pytest

from momentkoszul.closed import froberg_product, hilbert_closed, roos_series
from momentkoszul.fields import GF
from momentkoszul.ideals import family
from momentkoszul.monomials import basis_index, bidegrees_up_to_total
from momentkoszul.quotient import ring_for_family
from momentkoszul.resolution import resolve_k_over_quotient
from momentkoszul.verify import table_poincare_totals

from helpers import series_coeffs_one_var


def test_gl1_residue_field_resolution():
    # k[p,q]/(pq): periodic resolution with two generators per step, linear
    t = resolve_k_over_quotient(family("gl", 1), 5, 6)
    assert t.totals() == [1, 2, 2, 2, 2, 2]
    for i in range(6):
        assert t.top(i) == i


def test_sl2_resolution_jump():
    t = resolve_k_over_quotient(family("sl", 2), 3, 5)
    assert t.top(0) == 0 and t.top(1) == 1 and t.top(2) == 2
    assert t.top(3) == 4
    # the jump happens in the two extreme bidegrees
    assert t.beta(3, (3, 1)) == 1
    assert t.beta(3, (1, 3)) == 1


def test_gl2_froberg_from_oracle_resolution():
    f = family("gl", 2)
    t = resolve_k_over_quotient(f, 5, 6)
    P = table_poincare_totals(t, 5)
    H = hilbert_closed(f, 5).collapse("u")
    assert froberg_product(P, H, 5).is_one()


def test_gl2_residue_field_totals_match_koszul_inverse():
    # A is Koszul, so the totals are the coefficients of 1/H(-u)
    t = resolve_k_over_quotient(family("gl", 2), 5, 6)
    h = hilbert_closed(family("gl", 2), 6).collapse("u")
    denom = [(-1) ** k * h.coefficient((k,)) for k in range(7)]
    expected = series_coeffs_one_var([1], denom, 5)
    assert t.totals() == expected == [1, 4, 10, 24, 58, 140]


def test_resolution_prime_field_agrees():
    a = resolve_k_over_quotient(family("sl", 2), 3, 5)
    b = resolve_k_over_quotient(family("sl", 2), 3, 5, fld=GF(32003))
    assert a.entries == b.entries


def test_roos_series_matches_oracle_resolution():
    table = resolve_k_over_quotient(family("sl", 2), 4, 6)
    series = roos_series("sl2", 12)
    grid = {}
    for (i, v), c in table.entries.items():
        key = (i, v[0] + v[1])
        grid[key] = grid.get(key, 0) + c
    for i in range(5):
        for j in range(7):
            assert grid.get((i, j), 0) == series.coefficient((j, i)), (i, j)


def test_sl3_resolution_over_qq_is_symmetric_and_matches_prime_field():
    # over QQ the presentation matrices have non-integral entries
    a = resolve_k_over_quotient(family("sl", 3), 5, 6)
    b = resolve_k_over_quotient(family("sl", 3), 5, 6, fld=GF(32003))
    assert a.is_symmetric()
    assert a.entries == b.entries


@pytest.mark.parametrize("kind,n", [(k, n) for k in ("gl", "sl", "so", "sp")
                                    for n in (1, 2)] + [("sl", 3)])
def test_quotient_basis_is_closed_under_division(kind, n):
    # the resolution builds the column of m from that of m/x
    ring = ring_for_family(family(kind, n))
    for v in bidegrees_up_to_total(5):
        for inner in range(ring.dim(v)):
            mono = ring.monomial_label(v, inner)
            for x, e in enumerate(mono):
                if not e:
                    continue
                e_x = ring.var_bidegree(x)
                lower = (v[0] - e_x[0], v[1] - e_x[1])
                below = mono[:x] + (e - 1,) + mono[x + 1:]
                j = basis_index(ring.num_p, ring.num_q, lower)[below]
                assert j in ring.piece(lower).positions, (v, mono, x)


@pytest.mark.parametrize("kind,n,max_i,max_total", [("sp", 2, 4, 6),
                                                    ("so", 3, 5, 6)])
def test_benchmark_resolutions_are_symmetric_and_field_independent(
        kind, n, max_i, max_total):
    a = resolve_k_over_quotient(family(kind, n), max_i, max_total)
    b = resolve_k_over_quotient(family(kind, n), max_i, max_total,
                                fld=GF(32003))
    assert a.is_symmetric()
    assert a.entries == b.entries
    if kind == "sp":
        assert a.top(3) == 4

"""Closed-form Hilbert series, Betti tables and Poincare series."""

import hashlib
import json
from math import comb
from pathlib import Path

from momentkoszul.closed import (
    betti_closed,
    euler_check,
    froberg_product,
    hilbert_closed,
    poincare_k_over_so,
    poincare_over_S,
    projective_dimension,
    roos_series,
)
from momentkoszul.combinat import catalan, catalan_triangle
from momentkoszul.ideals import family
from momentkoszul.monomials import total
from momentkoszul.reference import SL_FRAMED, SL_TABLES, SP_TABLES, strand_grid
from momentkoszul.series import TruncatedSeries, geometric_inverse_power

from helpers import series_coeffs_one_var

STU = ("s", "t", "u")

#: Digests of every table and printed Poincare series in ``_pinned_cases``,
#: recorded from the earlier implementation that read the gl and sl tables
#: off their generating functions.
DIGESTS = Path(__file__).parent / "data" / "closed_digests.json"

FAMILIES_SMALL = [("gl", 1), ("gl", 2), ("gl", 3),
                  ("sl", 1), ("sl", 2), ("sl", 3),
                  ("so", 1), ("so", 2), ("so", 3),
                  ("sp", 1), ("sp", 2), ("sp", 3)]


# -- Hilbert ------------------------------------------------------------------

def test_hilbert_gl1():
    h = hilbert_closed(family("gl", 1), 6)
    assert h.coefficient((1, 1)) == 0
    assert h.coefficient((2, 0)) == 1


def test_hilbert_sl2_mixed_term():
    assert hilbert_closed(family("sl", 2), 6).coefficient((1, 1)) == 1


def test_hilbert_sp2_mixed_term():
    assert hilbert_closed(family("sp", 2), 6).coefficient((1, 1)) == 6


def test_hilbert_sl1_is_the_full_ring():
    h = hilbert_closed(family("sl", 1), 6)
    for a in range(4):
        for b in range(4):
            assert h.coefficient((a, b)) == 1


def test_hilbert_so_collapsed_closed_form():
    # collapsed series equals (1 + (n-1)s) / (1-s)^(n+1)
    for n in (1, 2, 3, 4):
        h = hilbert_closed(family("so", n), 8).collapse("s")
        expected = series_coeffs_one_var(
            [1, n - 1], [comb(n + 1, k) * (-1) ** k for k in range(n + 2)], 8)
        assert [h.coefficient((k,)) for k in range(9)] == expected


# -- Betti tables -------------------------------------------------------------

def test_reference_strand_grids_are_reproduced_exactly():
    for n, grid in SL_TABLES.items():
        assert strand_grid(betti_closed(family("sl", n))) == grid
    for n, grid in SP_TABLES.items():
        assert strand_grid(betti_closed(family("sp", n))) == grid


def _pinned_cases():
    """Orders 0, 3, 12 and 4n + 7, for gl, sl, so with n <= 40 and sp with n <= 20."""
    for kind, top in (("gl", 40), ("sl", 40), ("so", 40), ("sp", 20)):
        for n in range(1, top + 1):
            for order in sorted({0, 3, 12, 4 * n + 7}):
                yield kind, n, order


def _closed_digest(kind, n, order):
    f = family(kind, n)
    text = f"{sorted(betti_closed(f).entries.items())}\n{poincare_over_S(f, order)}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_tables_and_series_match_their_recorded_digests():
    want = json.loads(DIGESTS.read_text())
    got = {f"{k}_{n}@{o}": _closed_digest(k, n, o) for k, n, o in _pinned_cases()}
    assert got.keys() == want.keys()
    assert [key for key in want if got[key] != want[key]] == []


def _binomial_u(n, var, order):
    """(1 + x u)^n in (s, t, u), x the variable at index ``var``."""
    coeffs = {}
    for a in range(n + 1):
        e = [0, 0, a]
        e[var] = a
        coeffs[tuple(e)] = comb(n, a)
    return TruncatedSeries.make(STU, order, coeffs)


def _entries_of(*shifted):
    """Betti entries of 1 + sum u^-k * series over the (k, series) pairs;
    every term must carry u at least k times."""
    entries = {(0, (0, 0)): 1}
    for k, series in shifted:
        for (a, b, i), c in series.coefficients.items():
            assert i >= k, (a, b, i, c)
            key = (i - k, (a, b))
            entries[key] = entries.get(key, 0) + c
    return entries


def test_sl_table_is_the_paper_positive_part_series():
    # 1 + u^-1([(1-stu^2)G]_+ + 1 - (1+su)^n - (1+tu)^n) + u^-2[(stu^2-1)G]_+
    for n in range(2, 13):
        order = 4 * n + 6
        one = TruncatedSeries.one(STU, order)
        stuu = TruncatedSeries.monomial(STU, order, (1, 1, 2))
        su, tu = _binomial_u(n, 0, order), _binomial_u(n, 1, order)
        G = su * tu
        low = ((one - stuu) * G).positive_part() + one - su - tu
        high = ((stuu - one) * G).positive_part()
        assert betti_closed(family("sl", n)).entries == _entries_of((1, low), (2, high)), n


def test_gl_table_is_the_paper_product_series():
    # 1 + u^-1 ((1+su)^n - 1) ((1+tu)^n - 1)
    for n in range(1, 13):
        order = 4 * n + 2
        one = TruncatedSeries.one(STU, order)
        prod = (_binomial_u(n, 0, order) - one) * (_binomial_u(n, 1, order) - one)
        assert betti_closed(family("gl", n)).entries == _entries_of((1, prod)), n


def test_gl1_table_is_the_hypersurface():
    t = betti_closed(family("gl", 1))
    assert t.entries == {(0, (0, 0)): 1, (1, (1, 1)): 1}


def test_so3_totals():
    assert betti_closed(family("so", 3)).totals() == [1, 3, 2]


def test_totals_against_binomial_formulas():
    # the per-degree totals admit independent binomial expressions
    for n in range(1, 7):
        t = betti_closed(family("gl", n))
        for i in range(1, 2 * n):
            assert t.total_beta(i) == comb(2 * n, i + 1) - 2 * comb(n, i + 1), (n, i)
    for n in range(2, 7):
        t = betti_closed(family("sl", n))
        for i in range(1, n):
            expected = comb(2 * n, i + 1) - comb(2 * n, i - 1) - 2 * comb(n, i + 1)
            assert t.total_beta(i) == expected, (n, i)
        for i in range(n, 2 * n + 1):
            expected = comb(2 * n, i) - (comb(2 * n, i + 2) if i + 2 <= 2 * n else 0)
            assert t.total_beta(i) == expected, (n, i)
    for n in range(1, 6):
        t = betti_closed(family("sp", n))
        assert t.total_beta(1) == 2 * n * n + n
        for i in range(2, 4 * n + 1):
            expected = (2 * n * n - n) * comb(4 * n, i) - comb(4 * n, i + 2) \
                + 2 * comb(2 * n, i + 2)
            assert t.total_beta(i) == expected, (n, i)
    for n in range(1, 7):
        t = betti_closed(family("so", n))
        for i in range(1, n):
            assert t.total_beta(i) == i * comb(n, i + 1), (n, i)


def test_tables_are_symmetric():
    for kind, n in FAMILIES_SMALL:
        assert betti_closed(family(kind, n)).is_symmetric()


def test_top_degree_supports():
    for n in (1, 2, 3):
        t = betti_closed(family("gl", n))
        for i in range(1, 2 * n):
            assert t.top(i) == i + 1
    for n in (1, 2, 3):
        t = betti_closed(family("sp", n))
        assert t.top(1) == 2
        for i in range(2, 4 * n + 1):
            assert t.top(i) == i + 2


def test_sl_second_strand_is_the_catalan_triangle():
    for n in range(2, 8):
        t = betti_closed(family("sl", n))
        for i in range(n, 2 * n + 1):
            assert t.total_beta(i) == catalan_triangle(n + 1, i + 1 - n), (n, i)
        assert t.total_beta(n) == catalan(n + 1)
    for n, framed in SL_FRAMED.items():
        assert betti_closed(family("sl", n)).total_beta(n) == framed


def test_projective_dimension_matches_table_support():
    for kind, n in FAMILIES_SMALL:
        f = family(kind, n)
        assert betti_closed(f).max_i() == projective_dimension(f)


# -- Poincare series ----------------------------------------------------------

def test_poincare_gl1():
    p = poincare_over_S(family("gl", 1), 4)
    assert p.coefficients == {(0, 0, 0): 1, (1, 1, 1): 1}


def test_poincare_gl2_first_degree():
    p = poincare_over_S(family("gl", 2))
    assert p.coefficient((1, 1, 1)) == 4
    assert comb(4, 2) - 2 * comb(2, 2) == 4


def test_poincare_sl2_second_degree_support():
    p = poincare_over_S(family("sl", 2))
    entries = {(a, b): c for (a, b, i), c in p.coefficients.items() if i == 2}
    assert sum(entries.values()) == 5
    assert entries == {(1, 3): 1, (2, 2): 3, (3, 1): 1}  # all in total degree 4


def test_poincare_matches_table_everywhere():
    for kind, n in FAMILIES_SMALL:
        f = family(kind, n)
        series = poincare_over_S(f)
        table = betti_closed(f)
        got = {(i, (a, b)): c for (a, b, i), c in series.coefficients.items()}
        assert got == table.entries, (kind, n)


def test_poincare_specialization_reproduces_totals():
    for kind, n in [("gl", 2), ("gl", 3), ("sl", 2), ("sl", 3), ("sp", 2)]:
        f = family(kind, n)
        table = betti_closed(f)
        series = poincare_over_S(f)
        by_i = {}
        for (a, b, i), c in series.coefficients.items():
            by_i[i] = by_i.get(i, 0) + c
        for i in range(0, min(table.max_i(), 10) + 1):
            assert by_i.get(i, 0) == table.total_beta(i)


# -- Euler characteristic -----------------------------------------------------

def test_euler_check_closed_tables_order_10():
    for kind, n in FAMILIES_SMALL:
        ok, mismatch = euler_check(family(kind, n), 10)
        assert ok, (kind, n, mismatch)


def test_euler_check_reports_first_mismatch():
    f = family("gl", 2)
    broken = betti_closed(f)
    broken.entries[(1, (1, 1))] += 1
    ok, mismatch = euler_check(f, 8, table=broken)
    assert not ok
    assert mismatch[0] == (1, 1)


# -- residue-field series over the orthogonal quotient ------------------------

def test_poincare_k_over_so_n1():
    p = poincare_k_over_so(1, 3)
    assert [p.coefficient((k,)) for k in range(4)] == [1, 2, 1, 0]


def test_poincare_k_over_so_small_orders():
    assert poincare_k_over_so(2, 4).coefficient((1,)) == 4
    assert poincare_k_over_so(3, 4).coefficient((1,)) == 6
    # independent expansion of (1+u)^(n+1) / (1 - (n-1)u)
    for n in (2, 3, 4):
        expected = series_coeffs_one_var(
            [comb(n + 1, k) for k in range(n + 2)], [1, -(n - 1)], 8)
        p = poincare_k_over_so(n, 8)
        assert [p.coefficient((k,)) for k in range(9)] == expected


def test_froberg_so_closed_forms():
    for n in (2, 3):
        prod = froberg_product(
            poincare_k_over_so(n, 8),
            hilbert_closed(family("so", n), 8).collapse("u"),
            8,
        )
        assert prod.is_one(), str(prod)


def test_froberg_polynomial_ring():
    # the ambient ring itself: P = (1+u)^(2n), H = 1/(1-u)^(2n)
    for n in (1, 2, 3):
        P = TruncatedSeries.make(("u",), 8, {(k,): comb(2 * n, k) for k in range(2 * n + 1)})
        H = geometric_inverse_power(("u",), 8, "u", 2 * n)
        assert froberg_product(P, H, 8).is_one()


# -- reference residue-field series -------------------------------------------

def test_roos_series_leading_terms():
    r = roos_series("sl2", 10)
    assert r.coefficient((0, 0)) == 1
    assert r.coefficient((1, 1)) == 4  # four linear forms resolve k at step one
    r3 = roos_series("sl3", 10)
    assert r3.coefficient((0, 0)) == 1
    assert r3.coefficient((1, 1)) == 6

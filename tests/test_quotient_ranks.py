"""Quotient pieces and ideal ranks: zero pieces read off the piece below,
ideal span vectors placed by index tables, and multiplication maps read off
the reduced rows."""

from functools import cache
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentkoszul import ideals, oracle, quotient, resolution
from momentkoszul.closed import hilbert_closed
from momentkoszul.fields import GF, QQ
from momentkoszul.grading import _swaps_p_and_q, _torus_grading
from momentkoszul.ideals import family, generators
from momentkoszul.linalg import Echelon, rank_of_vectors
from momentkoszul.monomials import (
    ambient_dimension,
    basis_index,
    bidegrees_up_to_total,
    monomial_basis,
    sub_bidegrees,
)
from momentkoszul.oracle import hilbert_oracle
from momentkoszul.pieces import ideal_span_vectors, quotient_dimension
from momentkoszul.polynomials import Polynomial
from momentkoszul.quotient import QuotientRing, ring_for_family
from momentkoszul.verify import ORACLE_RANGE

from helpers import deadline, dense_ideal_rank


@st.composite
def small_ideals(draw):
    """Bihomogeneous generators in an ambient with 0..2 variables of each
    kind (at least one variable), low degrees, so zero pieces are common."""
    num_p = draw(st.integers(0, 2))
    num_q = draw(st.integers(0 if num_p else 1, 2))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        w = (draw(st.integers(0, 2)) if num_p else 0,
             draw(st.integers(0, 2)) if num_q else 0)
        monos = draw(st.lists(st.sampled_from(monomial_basis(num_p, num_q, w)),
                              min_size=1, max_size=3, unique=True))
        coeffs = draw(st.lists(st.integers(-2, 2).filter(bool),
                               min_size=len(monos), max_size=len(monos)))
        gens.append(Polynomial.from_dict(num_p, num_q, dict(zip(monos, coeffs))))
    return num_p, num_q, gens


@settings(max_examples=150, deadline=None)
@given(small_ideals(), st.data())
def test_ideal_rank_in_increasing_degree_equals_the_dense_rank(ideal, data):
    num_p, num_q, gens = ideal
    ring = QuotientRing(gens, num_p, num_q, QQ)
    for v in bidegrees_up_to_total(6):
        # some pieces are built first, so both caches feed the deduction
        if data.draw(st.booleans()):
            ring.piece(v)
        assert ring.ideal_rank(v) == dense_ideal_rank(gens, num_p, num_q, v), v


@pytest.mark.parametrize("fld", [QQ, GF(32003)], ids=str)
def test_ideal_rank_equals_the_eliminated_span_on_the_oracle_range(fld):
    for kind, n in ORACLE_RANGE:
        ring = ring_for_family(family(kind, n), fld)
        for v in bidegrees_up_to_total(8):
            spanned = ideal_span_vectors(ring.generators, v, fld)
            assert ring.ideal_rank(v) == rank_of_vectors(spanned, fld), (kind, n, v)


@pytest.mark.parametrize("kind, n", [("gl", 3), ("sl", 3), ("sp", 2)])
def test_hilbert_oracle_eliminates_no_mixed_piece_past_degree_three(
        monkeypatch, kind, n):
    reached = []
    real = oracle._class_products

    def spy(ring, grading, v):
        reached.append(v)
        return real(ring, grading, v)

    monkeypatch.setattr(oracle, "_class_products", spy)
    f = family(kind, n)
    assert hilbert_oracle(f, 10).coefficients == hilbert_closed(f, 10).coefficients
    assert (1, 1) in reached
    assert [v for v in reached if v[0] >= 1 and v[1] >= 1 and sum(v) >= 4] == []


def _series_by_pieces(ring, order):
    """The Hilbert series coefficients read off ``ring.dim``: the
    ``QuotientRing`` route, which eliminates every piece whole."""
    return {v: d for v in bidegrees_up_to_total(order) if (d := ring.dim(v))}


def _recording_class_products(monkeypatch):
    """Spy on the products the class route eliminates: (grading.n, v) per
    call."""
    calls = []
    real = oracle._class_products

    def spy(ring, grading, v):
        calls.append((grading.n, v))
        return real(ring, grading, v)

    monkeypatch.setattr(oracle, "_class_products", spy)
    return calls


@pytest.mark.parametrize("fld", [QQ, GF(32003)], ids=str)
@pytest.mark.parametrize("kind, n", [*ORACLE_RANGE, ("so", 4), ("so", 5)])
def test_hilbert_oracle_by_classes_equals_the_quotient_pieces(kind, n, fld):
    f = family(kind, n)
    want = _series_by_pieces(ring_for_family(f, fld), 10)
    assert hilbert_oracle(f, 10, fld).coefficients == want


@pytest.mark.parametrize("fld", [QQ, GF(32003)], ids=str)
def test_a_ring_that_fails_the_permutation_check_is_counted_whole(monkeypatch, fld):
    # sl_3 without p1*q2 fails the S_3 check (test_oracle.py): every weight
    # class is kept, with orbit 1
    p1q2 = Polynomial.from_dict(3, 3, {(1, 0, 0, 0, 1, 0): 1})
    real = ideals.generators
    monkeypatch.setattr(ideals, "generators",
                        lambda f: [g for g in real(f) if g != p1q2])
    f = family("sl", 3)
    ring = ring_for_family(f, fld)
    assert len(ring.generators) == 7
    assert _torus_grading(ring, f.torus_weights).n == 0
    calls = _recording_class_products(monkeypatch)
    assert hilbert_oracle(f, 8, fld).coefficients == _series_by_pieces(ring, 8)
    assert {n for n, _ in calls} == {0}


@pytest.mark.parametrize("fld", [QQ, GF(32003)], ids=str)
def test_a_ring_that_fails_the_swap_check_is_eliminated_in_every_bidegree(
        monkeypatch, fld):
    # sl_3 with p1*p2, p1*p3 and p2*p3 added: S_3 keeps the ideal, but the
    # swap sends p1*p2 to q1*q2, which is not in it
    extra = [Polynomial.from_dict(3, 3, {tuple(int(k in pair) for k in range(6)): 1})
             for pair in combinations(range(3), 2)]
    real = ideals.generators
    monkeypatch.setattr(ideals, "generators", lambda f: [*real(f), *extra])
    f = family("sl", 3)
    ring = ring_for_family(f, fld)
    assert len(ring.generators) == 11
    assert not _swaps_p_and_q(ring)
    assert _torus_grading(ring, f.torus_weights).n == 3
    calls = _recording_class_products(monkeypatch)
    series = hilbert_oracle(f, 8, fld).coefficients
    assert series == _series_by_pieces(ring, 8)
    assert series[(0, 3)] != series[(3, 0)]
    assert {n for n, _ in calls} == {3}
    assert any(v[0] < v[1] for _, v in calls)


def test_hilbert_oracle_inserts_a_fraction_of_the_products_of_so4(monkeypatch):
    inserted = 0
    real = Echelon.insert

    def counting(self, vec):
        nonlocal inserted
        inserted += 1
        return real(self, vec)

    monkeypatch.setattr(Echelon, "insert", counting)
    f = family("so", 4)
    assert hilbert_oracle(f, 10).coefficients == hilbert_closed(f, 10).coefficients
    # 77,220 when every piece was eliminated whole through QuotientRing.piece;
    # 4,175 by the dominant weight classes and the mirror
    assert inserted <= 77_220 // 2


def test_a_term_zero_in_the_field_changes_no_piece():
    # over GF(p) the terms p * m and 2p * m vanish: the padded generators
    # span the same ideal as the plain ones, and no span vector holds a zero
    p = 32003
    f = family("sl", 2)
    gens = generators(f)
    g = gens[0]
    extra = next(m for m in monomial_basis(f.num_p, f.num_q, g.bidegree())
                 if m not in dict(g.terms))
    padded = [Polynomial.from_dict(f.num_p, f.num_q, {**dict(g.terms), extra: p}),
              *gens[1:],
              Polynomial.from_dict(f.num_p, f.num_q, {extra: 2 * p})]
    fld = GF(p)
    plain_ring = QuotientRing(gens, f.num_p, f.num_q, fld)
    padded_ring = QuotientRing(padded, f.num_p, f.num_q, fld)
    with deadline(60):
        for v in bidegrees_up_to_total(5):
            assert all(all(vec.values()) for vec in ideal_span_vectors(padded, v, fld))
            plain, got = plain_ring.piece(v), padded_ring.piece(v)
            assert got.basis == plain.basis, v
            assert got.rref.canonical_rows() == plain.rref.canonical_rows(), v


def test_ideal_rank_far_up_on_a_fresh_ring_does_not_recurse():
    ring = ring_for_family(family("gl", 1))
    assert ring.ideal_rank((700, 700)) == 1


def test_hilbert_oracle_over_the_cross_check_prime():
    for kind, n in ORACLE_RANGE:
        f = family(kind, n)
        fp = hilbert_oracle(f, 10, GF(32003)).coefficients
        assert fp == hilbert_oracle(f, 10).coefficients, (kind, n)
        assert fp == hilbert_closed(f, 10).coefficients, (kind, n)


@pytest.mark.parametrize("fld", [QQ, GF(32003)], ids=str)
@pytest.mark.parametrize("num_p, num_q", [(2, 0), (0, 3)])
def test_span_vectors_in_one_sided_ambients(fld, num_p, num_q):
    gens = []
    for k in range(4):
        w = (k, 0) if num_p else (0, k)
        basis = monomial_basis(num_p, num_q, w)
        gens.append(Polynomial.from_dict(
            num_p, num_q, {m: c for c, m in enumerate(basis, start=1)}))
    sizes = {}
    for v in bidegrees_up_to_total(5):
        index = basis_index(num_p, num_q, v)
        expected = [
            {index[mono]: fld.of(c) for mono, c in g.times_monomial(m).terms}
            for g in gens
            for m in monomial_basis(num_p, num_q, sub_bidegrees(v, g.bidegree()))
        ]
        got = list(ideal_span_vectors(gens, v, fld))
        assert [list(vec.items()) for vec in got] == \
            [list(vec.items()) for vec in expected], v
        sizes[v] = len(got)
    # every degree on the ambient's own axis has vectors, every other none
    assert all(bool(k) == ((v[1] if num_p else v[0]) == 0) for v, k in sizes.items())


def test_ranks_outside_the_quadrant_prove_nothing():
    f = family("gl", 1)
    ring = ring_for_family(f)
    assert ring.ideal_rank((-1, 0)) == 0 and ring.ideal_rank((0, -1)) == 0
    assert ring.ideal_rank((0, 0)) == 0


DEGREES = tuple(bidegrees_up_to_total(7))


@cache
def _independent_dims(kind, n, fld) -> dict:
    """dim (S/I)_v by ``pieces.quotient_dimension``; so_1 has no generators."""
    f = family(kind, n)
    gens = generators(f)
    return {v: quotient_dimension(gens, v, fld) if gens
            else ambient_dimension(f.num_p, f.num_q, v) for v in DEGREES}


@pytest.mark.parametrize("fld", [QQ, GF(32003)], ids=str)
@pytest.mark.parametrize("order", ["increasing", "decreasing", "shuffled"])
def test_piece_dimension_does_not_depend_on_the_order_asked(fld, order):
    for kind, n in ORACLE_RANGE:
        degrees = list(DEGREES)
        if order == "decreasing":
            degrees.reverse()
        elif order == "shuffled":
            Random(f"{kind}{n}").shuffle(degrees)
        ring = ring_for_family(family(kind, n), fld)
        want = _independent_dims(kind, n, fld)
        for v in degrees:
            assert ring.dim(v) == want[v], (kind, n, order, v)


def test_maps_into_a_zero_piece_are_empty():
    zeros = 0
    for kind, n in ORACLE_RANGE:
        ring = ring_for_family(family(kind, n))
        for v in DEGREES:
            ring.piece(v)
        for v in DEGREES:
            for x in range(ring.nvars):
                w = ring._shifted(v, x)
                if ring.dim(w):
                    continue
                zeros += 1
                assert ring.nf(w, {0: 1}) == {}, (kind, n, w)
                cols = ring.mult_by_var(x, v)
                assert len(cols) == ring.dim(v)
                assert all(col == {} for col in cols), (kind, n, x, v)
    assert zeros
    ring = ring_for_family(family("gl", 1))
    assert ring.piece((-1, 0)).dimension == 0
    assert ring.piece((0, -1)).dimension == 0
    assert ring.dim((0, 0)) == 1


def _tails_ring(fld) -> QuotientRing:
    """A ring whose maps have columns other than {k: 1}: in bidegree (2, 0)
    back-substitution leaves p1^2 + Fraction(1) p2^2 over QQ.  Every nonzero
    column of the families' maps is {k: 1}."""
    gens = [Polynomial.from_dict(2, 1, {(2, 0, 0): 2, (1, 1, 0): 1, (0, 2, 0): 1}),
            Polynomial.from_dict(2, 1, {(1, 1, 0): 1, (0, 2, 0): -1})]
    return QuotientRing(gens, 2, 1, fld)


def _typed(col: dict) -> dict:
    return {k: (c, type(c)) for k, c in col.items()}


@pytest.mark.parametrize("fld", [QQ, GF(32003)], ids=str)
def test_mult_by_var_equals_the_normal_form_route(fld):
    # each column against ``nf`` of the shifted monomial, value and type
    rings = [ring_for_family(family(kind, n), fld) for kind, n in ORACLE_RANGE]
    for ring in rings + [_tails_ring(fld)]:
        for w in bidegrees_up_to_total(4):
            for x in range(ring.nvars):
                up = ring._shifted(w, x)
                index = basis_index(ring.num_p, ring.num_q, up)
                want = [ring.nf(up, {index[m[:x] + (m[x] + 1,) + m[x + 1:]]: 1})
                        for m in ring.piece(w).basis]
                got = ring.mult_by_var(x, w)
                assert list(map(_typed, got)) == list(map(_typed, want)), (
                    ring.generators, x, w)


def _dense(cols, rows: int) -> list[list]:
    return [[col.get(r, 0) for col in cols] for r in range(rows)]


@pytest.mark.parametrize("fld", [QQ, GF(32003)], ids=str)
def test_composite_equals_the_dense_product(monkeypatch, fld):
    axpys = []
    real_axpy = quotient.axpy

    def counting_axpy(acc, c, vec, p=None):
        axpys.append(1)
        return real_axpy(acc, c, vec, p)

    monkeypatch.setattr(quotient, "axpy", counting_axpy)
    rings = [ring_for_family(family(kind, n), fld)
             for kind, n in [("sl", 2), ("sp", 1), ("so", 3)]]
    shared = 0
    for ring in rings + [_tails_ring(fld)]:
        for w in bidegrees_up_to_total(3):
            for x in range(ring.nvars):
                mid = ring._shifted(w, x)
                first = ring.mult_by_var(x, w)
                for y in range(ring.nvars):
                    top = ring._shifted(mid, y)
                    second = ring.mult_by_var(y, mid)
                    a = _dense(first, ring.dim(mid))
                    b = _dense(second, ring.dim(top))
                    product = [[sum(b[r][k] * a[k][j] for k in range(len(a)))
                                for j in range(ring.dim(w))] for r in range(len(b))]
                    if fld.p is not None:
                        product = [[c % fld.p for c in row] for row in product]
                    got = ring._composite(x, y, w)
                    assert _dense(got, ring.dim(top)) == product, (ring.generators, x, y, w)
                    shared += sum(any(col is c for c in second) for col in got)
    # both branches ran: columns shared with the second map, and sums
    assert shared and axpys


RESOLVE_WINDOWS = (("sl", 3, 5, 7), ("sp", 2, 4, 6), ("so", 3, 5, 6), ("gl", 3, 5, 6))


@pytest.mark.parametrize("kind, n, max_i, max_total_degree", RESOLVE_WINDOWS)
def test_resolution_eliminates_no_piece_above_a_zero_piece(
        monkeypatch, kind, n, max_i, max_total_degree):
    reached, rings = [], []
    real_span, real_ring = quotient.ideal_span_vectors, resolution.ring_for_family

    def spy(gens, v, fld=QQ):
        reached.append(v)
        return real_span(gens, v, fld)

    def keep(f, fld=QQ):
        rings.append(real_ring(f, fld))
        return rings[-1]

    monkeypatch.setattr(quotient, "ideal_span_vectors", spy)
    monkeypatch.setattr(resolution, "ring_for_family", keep)
    resolution.resolve_k_over_quotient(family(kind, n), max_i, max_total_degree)
    pieces = rings[0]._pieces
    zero = {v for v, piece in pieces.items() if min(v) >= 0 and not piece.dimension}
    above = [v for v in reached
             if (v[0] - 1, v[1]) in zero or (v[0], v[1] - 1) in zero]
    assert above == []

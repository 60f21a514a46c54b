"""Quotient pieces and ideal ranks: zero pieces read off the piece below,
and ideal span vectors placed by index tables."""

from functools import cache
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentkoszul import quotient, resolution
from momentkoszul.closed import hilbert_closed
from momentkoszul.fields import GF, QQ
from momentkoszul.ideals import family, generators
from momentkoszul.linalg import rank_of_vectors
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

from helpers import dense_ideal_rank


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
    real = quotient.ideal_span_vectors

    def spy(gens, v, fld=QQ):
        reached.append(v)
        return real(gens, v, fld)

    monkeypatch.setattr(quotient, "ideal_span_vectors", spy)
    f = family(kind, n)
    assert hilbert_oracle(f, 10).coefficients == hilbert_closed(f, 10).coefficients
    assert (1, 1) in reached
    assert [v for v in reached if v[0] >= 1 and v[1] >= 1 and sum(v) >= 4] == []


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

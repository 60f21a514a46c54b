"""Monomial bases, polynomials, and graded pieces."""

from fractions import Fraction
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentkoszul.fields import GF, QQ, InvalidFieldError
from momentkoszul.ideals import family, generators
from momentkoszul.linalg import InvalidInputError
from momentkoszul.monomials import (
    ambient_dimension,
    basis_index,
    bidegree_of,
    monomial_basis,
    sub_bidegrees,
)
from momentkoszul.pieces import (
    ideal_piece,
    ideal_span_vectors,
    pieces_equal,
    quotient_dimension,
)
from momentkoszul.polynomials import Polynomial, format_polynomial

from helpers import brute_rank


def test_monomial_basis_single():
    assert monomial_basis(1, 1, (1, 1)) == ((1, 1),)


def test_monomial_basis_mixed_count():
    basis = monomial_basis(2, 2, (1, 1))
    assert len(basis) == 4
    # canonical order: p1q1, p1q2, p2q1, p2q2
    assert basis == ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))


def test_monomial_basis_pure_block():
    basis = monomial_basis(2, 2, (2, 0))
    assert basis == ((2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0))


def test_empty_block_constant():
    assert monomial_basis(0, 0, (0, 0)) == ((),)
    assert monomial_basis(0, 2, (1, 0)) == ()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 4), st.integers(0, 4))
def test_basis_count_formula(num_p, num_q, a, b):
    basis = monomial_basis(num_p, num_q, (a, b))
    assert len(basis) == ambient_dimension(num_p, num_q, (a, b))
    if num_p and num_q:
        assert len(basis) == comb(num_p + a - 1, a) * comb(num_q + b - 1, b)
    for m in basis:
        assert bidegree_of(m, num_p) == (a, b)


def test_polynomial_arithmetic_and_bidegree():
    p = Polynomial.from_dict(2, 2, {(1, 0, 1, 0): 1})
    q = Polynomial.from_dict(2, 2, {(0, 1, 0, 1): 1})
    diff = p - q
    assert diff.bidegree() == (1, 1)
    assert diff.is_bihomogeneous()
    prod = p * q
    assert prod.bidegree() == (2, 2)
    mixed = p + p * q
    assert not mixed.is_bihomogeneous()
    assert (p - p).is_zero()


def test_polynomial_formatting():
    p = Polynomial.from_dict(2, 2, {(1, 0, 1, 0): 1, (0, 1, 0, 1): -1})
    assert format_polynomial(p) == "p1*q1 - p2*q2"
    sq = Polynomial.from_dict(1, 1, {(2, 1): 2})
    assert format_polynomial(sq) == "2*p1^2*q1"


def test_ideal_piece_hypersurface():
    gens = generators(family("gl", 1))
    assert ideal_piece(gens, (1, 1)).dimension == 1
    assert ideal_piece(gens, (2, 0)).dimension == 0


def test_ideal_piece_dimension_against_brute_force():
    gens = generators(family("sl", 2))
    basis = monomial_basis(2, 2, (1, 1))
    index = {m: k for k, m in enumerate(basis)}
    rows = []
    for g in gens:
        row = [0] * len(basis)
        for m, c in g.terms:
            row[index[m]] = c
        rows.append(row)
    assert brute_rank(rows) == 3
    assert ideal_piece(gens, (1, 1)).dimension == 3


def test_ideal_piece_is_generator_order_independent():
    gens = generators(family("sp", 2))
    shuffled = list(gens)
    Random(3).shuffle(shuffled)
    for v in [(1, 1), (2, 1), (2, 2)]:
        assert ideal_piece(gens, v).vectors == ideal_piece(shuffled, v).vectors


def test_quotient_dimension_examples():
    assert quotient_dimension(generators(family("gl", 1)), (1, 1)) == 0
    assert quotient_dimension(generators(family("sl", 2)), (1, 1)) == 1
    # the symplectic quotient vanishes just above its socle degree
    assert quotient_dimension(generators(family("sp", 1)), (2, 1)) == 0
    assert quotient_dimension(generators(family("sp", 1)), (1, 2)) == 0


def test_quotient_dimension_prime_field_agrees():
    gens = generators(family("sp", 2))
    for v in [(1, 1), (2, 2), (3, 1), (0, 4)]:
        assert quotient_dimension(gens, v, QQ) == quotient_dimension(gens, v, GF(32003))


def test_mixed_ambient_rejected():
    a = Polynomial.from_dict(1, 1, {(1, 1): 1})
    b = Polynomial.from_dict(2, 2, {(1, 0, 1, 0): 1})
    with pytest.raises(InvalidInputError):
        ideal_piece([a, b], (1, 1))


def test_pieces_equal_detects_difference():
    gl = generators(family("gl", 2))
    sl = generators(family("sl", 2))
    assert not pieces_equal(gl, sl, (1, 1))
    assert pieces_equal(gl, gl, (2, 1))


@st.composite
def bihomogeneous_generators(draw):
    """A few bihomogeneous polynomials of mixed bidegrees, rational coefficients."""
    num_p, num_q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        w = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
        monos = draw(st.lists(st.sampled_from(monomial_basis(num_p, num_q, w)),
                              min_size=1, max_size=4, unique=True))
        coeffs = draw(st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool),
            min_size=len(monos), max_size=len(monos)))
        gens.append(Polynomial.from_dict(num_p, num_q, dict(zip(monos, coeffs))))
    return gens


@settings(max_examples=80, deadline=None)
@given(bihomogeneous_generators(), st.tuples(st.integers(0, 4), st.integers(0, 4)),
       st.sampled_from([QQ, GF(32003)]))
def test_span_vectors_match_polynomial_products(gens, v, fld):
    num_p, num_q = gens[0].num_p, gens[0].num_q
    index = basis_index(num_p, num_q, v)
    expected = [
        {index[mono]: fld.of(c) for mono, c in g.times_monomial(m).terms}
        for g in gens
        for m in monomial_basis(num_p, num_q, sub_bidegrees(v, g.bidegree()))
    ]
    got = list(ideal_span_vectors(gens, v, fld))
    assert [list(vec.items()) for vec in got] == [list(vec.items()) for vec in expected]


def test_span_vectors_embed_coefficients_only_for_used_generators():
    fp = GF(32003)
    # 1/32003 has no image in F_32003; the generator has bidegree (2, 0)
    bad = Polynomial.from_dict(2, 1, {(2, 0, 0): Fraction(1, 32003), (1, 1, 0): 1})
    good = Polynomial.from_dict(2, 1, {(1, 0, 1): 1})
    assert len(list(ideal_span_vectors([bad, good], (1, 2), fp))) == 1
    with pytest.raises(InvalidFieldError):
        list(ideal_span_vectors([bad, good], (2, 1), fp))

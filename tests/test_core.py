"""Monomial bases, polynomials, and graded pieces."""

import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentkoszul.fields import GF, QQ, InvalidFieldError
from momentkoszul.ideals import family, generators, sp_relabeled_generators
from momentkoszul.linalg import InvalidInputError
from momentkoszul.monomials import (
    ambient_dimension,
    basis_index,
    bidegree_of,
    bidegrees_up_to_total,
    monomial_basis,
    sub_bidegrees,
    total,
)
from momentkoszul.pieces import ideal_span_vectors, quotient_dimension
from momentkoszul.polynomials import Polynomial, format_polynomial
from momentkoszul.quotient import QuotientRing, piece_contains, pieces_equal

from helpers import brute_rank, echelon_contains, echelon_equal


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
    ring = QuotientRing(generators(family("gl", 1)), 1, 1)
    assert ring.ideal_rank((1, 1)) == 1
    assert ring.ideal_rank((2, 0)) == 0


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
    assert QuotientRing(gens, 2, 2).ideal_rank((1, 1)) == 3


def test_ideal_piece_is_generator_order_independent():
    gens = generators(family("sp", 2))
    shuffled = list(gens)
    Random(3).shuffle(shuffled)
    ring, other = QuotientRing(gens, 4, 4), QuotientRing(shuffled, 4, 4)
    for v in [(1, 1), (2, 1), (2, 2)]:
        assert (ring.piece(v).rref.canonical_rows()
                == other.piece(v).rref.canonical_rows())
        assert ring.piece(v).basis == other.piece(v).basis


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
        quotient_dimension([a, b], (1, 1))


def test_pieces_equal_detects_difference():
    gl = generators(family("gl", 2))
    sl = generators(family("sl", 2))
    assert not pieces_equal(gl, sl, [(1, 1)])
    assert pieces_equal(gl, gl, [(2, 1)])


def test_empty_and_mixed_generator_lists_are_refused():
    gl2, gl3 = generators(family("gl", 2)), generators(family("gl", 3))
    calls = [lambda x, y: piece_contains(x, y, [(1, 1)]),
             lambda x, y: pieces_equal(x, y, [(1, 1)])]
    for call in calls:
        for args in [([], gl2), (gl2, []), ([], [])]:
            with pytest.raises(InvalidInputError, match="empty generator list"):
                call(*args)
        for args in [(gl2, gl3), (gl3, gl2)]:
            with pytest.raises(InvalidInputError, match="different ambients"):
                call(*args)
    with pytest.raises(InvalidInputError, match="empty generator list"):
        quotient_dimension([], (1, 1))
    with pytest.raises(InvalidInputError, match="different ambients"):
        quotient_dimension([*gl2, *gl3], (1, 1))


STRUCTURE_DEGREES = [v for v in bidegrees_up_to_total(6) if total(v) >= 2]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pieces_equal_sees_a_dropped_or_altered_relabeled_generator(n):
    sp = generators(family("sp", n))
    alt = sp_relabeled_generators(n)
    assert pieces_equal(sp, alt, STRUCTURE_DEGREES)
    first = alt[0]
    (mono, c), *rest = first.terms
    flipped = Polynomial.from_dict(first.num_p, first.num_q,
                                   {mono: -c, **dict(rest)})
    assert not pieces_equal(sp, alt[1:], STRUCTURE_DEGREES)
    assert not pieces_equal(sp, [flipped, *alt[1:]], STRUCTURE_DEGREES)


def test_piece_contains_refuses_the_wrong_inclusions():
    gl, sl, so = (generators(family(kind, 3)) for kind in ("gl", "sl", "so"))
    assert piece_contains(gl, sl, STRUCTURE_DEGREES)
    assert not piece_contains(sl, gl, STRUCTURE_DEGREES)
    assert not piece_contains(so, sl, STRUCTURE_DEGREES)


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


@settings(max_examples=60, deadline=None)
@given(bihomogeneous_generators(), st.data(), st.sampled_from([QQ, GF(32003)]))
def test_structure_checks_agree_with_a_per_degree_echelon(gens, data, fld):
    # a and b share a generator; degrees come shuffled, with gaps
    k = data.draw(st.integers(1, len(gens)))
    a, b = gens[:k], gens[k - 1:]
    degrees = data.draw(st.lists(st.sampled_from(list(bidegrees_up_to_total(4))),
                                 unique=True, max_size=15))
    # flipping one sign keeps every shape, so only the spans can differ
    (mono, c), *rest = gens[0].terms
    flipped = [Polynomial.from_dict(gens[0].num_p, gens[0].num_q,
                                    {mono: -c, **dict(rest)}), *gens[1:]]
    for big, small in [(a, b), (b, a), (gens, a), (gens, flipped)]:
        assert (piece_contains(big, small, degrees, fld)
                == echelon_contains(big, small, degrees, fld))
    for x, y in [(a, b), (gens, flipped)]:
        assert pieces_equal(x, y, degrees, fld) == echelon_equal(x, y, degrees, fld)


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


def test_integrity_checks_survive_python_O():
    """Each check raises AssertionError itself, so ``python -O`` keeps it."""
    src = Path(__file__).parent.parent / "src"
    script = (
        "assert False, 'asserts are on'\n"
        "from momentkoszul import betti, closed, combinat, ideals\n"
        "from momentkoszul.ideals import family\n"
        "closed.comb = lambda n, k: 10 ** k\n"
        "combinat.comb = lambda n, k: 1\n"
        "ideals.RepFamily.generator_count = property(lambda f: 0)\n"
        "checks = [lambda: betti.BettiTable('x', 1, {(1, (1, 1)): -3}),\n"
        "          lambda: closed.betti_closed(family('sp', 1)),\n"
        "          lambda: ideals.generators(family('gl', 2)),\n"
        "          lambda: combinat.catalan_triangle(3, 1)]\n"
        "for check in checks:\n"
        "    try:\n"
        "        check()\n"
        "        print('accepted')\n"
        "    except AssertionError as e:\n"
        "        print('refused', e.args)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "refused ()", "refused ((2, 1, 3, -9900),)", "refused ()", "refused ()"]


def test_every_export_resolves_once():
    import momentkoszul

    names = momentkoszul.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(momentkoszul, name)]
    assert not missing
    retired = {"LinearMap", "rank", "positive_part", "top_degree_obstruction"}
    assert not retired & set(names)
    assert not [name for name in retired if hasattr(momentkoszul, name)]

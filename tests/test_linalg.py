from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentkoszul.fields import GF, QQ
from momentkoszul.ideals import family
from momentkoszul.linalg import (
    Echelon,
    InvalidInputError,
    kernel_of_columns,
    rank_of_columns,
    rank_of_vectors,
)
from momentkoszul.oracle import KoszulOracle
from momentkoszul.quotient import ring_for_family

from helpers import brute_rank, brute_rref, deadline

fractional_matrices = st.lists(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
             min_size=3, max_size=3),
    min_size=1, max_size=4)


def test_rank_zero_matrix():
    for fld in (QQ, GF(7)):
        assert rank_of_vectors([{}] * 3, fld) == 0


def test_rank_identity():
    for fld in (QQ, GF(7)):
        assert rank_of_vectors([{j: 1} for j in range(4)], fld) == 4


def test_rank_matches_brute_force():
    rng = Random(7)
    for _ in range(25):
        rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
        expected = brute_rank(rows)
        vectors = [{j: Fraction(x) for j, x in enumerate(r) if x} for r in rows]
        assert rank_of_vectors(vectors, QQ) == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                min_size=1, max_size=5))
def test_rank_agrees_over_large_prime(rows):
    # small integer matrices: no entry interaction can reach 32003
    vec_q = [{j: Fraction(x) for j, x in enumerate(r) if x} for r in rows]
    vec_p = [{j: x for j, x in enumerate(r) if x % 32003} for r in rows]
    assert rank_of_vectors(vec_q, QQ) == rank_of_vectors(vec_p, GF(32003))


P = 32003

# (modulus or None for QQ, rows already inserted, the vector with a zero)
ZERO_ENTRIES = [
    (None, [], {0: 0}),
    (P, [], {0: 0}),
    (P, [], {0: P}),
    (None, [], {0: Fraction(0), 2: 1}),
    # the zero sits at an index whose row is already there
    (None, [{0: 1, 1: 1}], {0: 0, 1: 3}),
    (P, [{0: 1, 1: 1}], {0: 2 * P, 1: 3}),
    # the zero reaches an existing pivot only after a row is subtracted
    (None, [{0: 1}, {1: 1}], {0: 5, 1: 0}),
    (P, [{0: 1}, {1: 1}], {0: 5, 1: P}),
    # the zero is not at the smallest index and no row is in its way
    (None, [], {0: 1, 3: 0}),
    (P, [], {0: 1, 3: P}),
    (P, [], {0: 2, 3: 0}),
]


@pytest.mark.parametrize("p, rows, vec", ZERO_ENTRIES)
def test_insert_refuses_an_entry_that_is_zero_in_the_field(p, rows, vec):
    ech = Echelon(p)
    for row in rows:
        ech.insert(row)
    before = {piv: dict(row) for piv, row in ech.rows.items()}
    with deadline(10), pytest.raises(InvalidInputError, match="zero entry"):
        ech.insert(vec)
    assert ech.rows == before


def test_insert_copies_its_vector_and_stores_reduced_rows():
    vec = {0: 2, 1: 4}
    ech = Echelon(P)
    assert ech.insert(vec)
    assert vec == {0: 2, 1: 4}
    # a pivot of 1 needs no scaling, but -3 and P + 5 are still reduced
    assert ech.insert({2: 1, 3: -3, 4: P + 5})
    assert ech.rows == {0: {0: 1, 1: 2}, 2: {2: 1, 3: P - 3, 4: 5}}


def test_echelon_insert_reports_growth():
    ech = Echelon()
    assert ech.insert({0: 1, 1: 2})
    assert ech.insert({1: 1})
    assert not ech.insert({0: 2, 1: 5})  # = 2*(first) + (second)
    assert ech.dimension == 2


def test_kernel_tracking_combination_is_exact():
    # columns of [[1,1,2],[0,1,1]]: third = first + second
    cols = [{0: 1}, {0: 1, 1: 1}, {0: 2, 1: 1}]
    kernel = kernel_of_columns(cols, QQ)
    assert len(kernel) == 1
    combo = kernel[0]
    acc = {}
    for j, c in combo.items():
        for r, x in cols[j].items():
            acc[r] = acc.get(r, 0) + c * x
    assert all(v == 0 for v in acc.values())


def test_kernel_mod_p():
    cols = [{0: 1}, {0: 1, 1: 1}, {0: 2, 1: 1}]
    kernel = kernel_of_columns(cols, GF(5))
    assert len(kernel) == 1


def test_echelon_canonical_rows_are_order_independent():
    vecs = [
        {0: Fraction(1), 2: Fraction(3)},
        {1: Fraction(2), 2: Fraction(1)},
        {0: Fraction(2), 1: Fraction(2), 2: Fraction(7)},
    ]
    a = Echelon()
    b = Echelon()
    for v in vecs:
        a.insert(dict(v))
    for v in reversed(vecs):
        b.insert(dict(v))
    assert a.canonical_rows() == b.canonical_rows()
    assert a.dimension == 2


def test_echelon_reduce_is_canonical_section():
    space = Echelon()
    space.insert({0: Fraction(1), 1: Fraction(1)})
    r1 = space.reduce({0: Fraction(2), 1: Fraction(2), 2: Fraction(1)})
    r2 = space.reduce({2: Fraction(1)})
    assert r1 == r2 == {2: Fraction(1)}
    assert not space.reduce({0: Fraction(-3), 1: Fraction(-3)})


def test_kernel_of_rank_one_pair():
    # columns (2, 4) and (1, 2): v0 - 2*v1 = 0 spans the kernel
    kernel = kernel_of_columns([{0: 2, 1: 4}, {0: 1, 1: 2}], QQ)
    assert kernel == [{1: 1, 0: Fraction(-1, 2)}]


@settings(max_examples=40, deadline=None)
@given(fractional_matrices)
def test_rank_with_fractional_entries_matches_brute_force(rows):
    expected = brute_rank(rows)
    vectors = [{j: x for j, x in enumerate(r) if x} for r in rows]
    assert rank_of_vectors(vectors, QQ) == expected


@settings(max_examples=60, deadline=None)
@given(fractional_matrices, st.randoms(use_true_random=False))
def test_canonical_rows_match_brute_rref_in_any_order(rows, rnd):
    expected = tuple(
        tuple((j, x) for j, x in enumerate(r) if x) for r in brute_rref(rows)
    )
    order = list(rows)
    rnd.shuffle(order)
    ech = Echelon()
    for r in order:
        ech.insert({j: x for j, x in enumerate(r) if x})
    assert ech.canonical_rows() == expected


@settings(max_examples=60, deadline=None)
@given(fractional_matrices)
def test_kernel_of_fractional_columns(rows):
    # the columns of the matrix ``rows`` (3 of them), as sparse vectors
    cols = [{r: row[j] for r, row in enumerate(rows) if row[j]} for j in range(3)]
    kernel = kernel_of_columns(cols, QQ)
    assert len(kernel) == 3 - brute_rank(rows)
    for combo in kernel:
        acc = {}
        for j, c in combo.items():
            for r, x in cols[j].items():
                acc[r] = acc.get(r, 0) + c * x
        assert all(v == 0 for v in acc.values())


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([None, 7, P]),
       st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5),
                max_size=6),
       st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5),
                min_size=1, max_size=4))
def test_independent_columns_leave_the_kernel_unchanged(p, columns, extra):
    # the resolution appends its generators' columns, each outside the span
    # of the columns before it, and keeps the kernel of the others
    fld = QQ if p is None else GF(p)

    def vector(entries):
        return {j: x % p if p else x for j, x in enumerate(entries)
                if (x % p if p else x)}

    cols = [vector(entries) for entries in columns]
    span = Echelon(p)
    for col in cols:
        span.insert(col)
    appended = [vec for vec in map(vector, extra) if span.insert(vec)]
    assert (kernel_of_columns(cols + appended, fld)
            == kernel_of_columns(cols, fld))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([None, 7, P]),
       st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5),
                max_size=7))
def test_rank_of_columns_is_the_rank_the_kernel_leaves(p, columns):
    # the resolution's top total degree counts with the rank alone; it must
    # be the number of columns minus the kernel's dimension, and the rank
    # of the columns inserted as vectors
    fld = QQ if p is None else GF(p)
    cols = [{j: x % p if p else x for j, x in enumerate(entries)
             if (x % p if p else x)} for entries in columns]
    rank = rank_of_columns(cols, fld)
    assert rank == len(cols) - len(kernel_of_columns(cols, fld))
    assert rank == rank_of_vectors(cols, fld)
    assert rank == brute_rank(columns, p)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([None, 7, P]), fractional_matrices)
def test_each_kernel_vector_owns_its_free_column(p, rows):
    # the resolution reads (m.K)_v in these coordinates, one per kernel
    # vector; the free columns are those that leave the rank of the columns
    # before them unchanged
    fld = QQ if p is None else GF(p)
    if p is not None:
        rows = [[x.numerator * pow(x.denominator, -1, p) % p for x in row]
                for row in rows]
    cols = [{r: row[j] for r, row in enumerate(rows) if row[j]}
            for j in range(3)]
    free = [j for j in range(3)
            if brute_rank([row[:j + 1] for row in rows], p)
            == brute_rank([row[:j] for row in rows], p)]
    kernel = kernel_of_columns(cols, fld)
    assert len(kernel) == len(free)
    for f, kv in zip(free, kernel):
        assert kv[f] == 1
        assert not any(f in other for other in kernel if other is not kv)


def test_results_hold_no_integral_fraction():
    # back-substitution over QQ leaves Fraction(1, 1) in one row of this
    # kernel; kernel vectors become presentations of the resolution
    columns = KoszulOracle(ring_for_family(family("sl", 3))).columns(3, (2, 2))
    kernel = kernel_of_columns(columns, QQ)
    assert kernel[8][34] == 1
    for kv in kernel:
        assert all(type(x) is int or x.denominator != 1 for x in kv.values())
    # the same on a small case, for canonical_rows and for reduce
    ech = Echelon()
    ech.insert({0: 1, 1: Fraction(1, 2)})
    ech.insert({1: 1, 2: 2})
    assert ech.canonical_rows() == (((0, 1), (2, -1)), ((1, 1), (2, 2)))
    assert all(type(x) is int for row in ech.canonical_rows() for _, x in row)
    left = ech.reduce({0: Fraction(3, 2), 1: Fraction(1, 4)})
    assert left == {2: 1} and type(left[2]) is int

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentkoszul.series import SeriesError, TruncatedSeries, geometric_inverse_power

STU = ("s", "t", "u")


def test_geometric_inverse_power_coefficients():
    s = geometric_inverse_power(("s",), 5, "s", 3)
    # 1/(1-s)^3: C(k+2, 2)
    assert [s.coefficient((k,)) for k in range(6)] == [1, 3, 6, 10, 15, 21]


def test_multiplication_truncates_by_total_degree():
    a = geometric_inverse_power(("s",), 4, "s", 1)
    prod = a * a
    assert [prod.coefficient((k,)) for k in range(5)] == [1, 2, 3, 4, 5]


def test_inverse_is_two_sided():
    den = TruncatedSeries.make(("u",), 8, {(0,): 1, (1,): -2, (3,): 5})
    inv = den.inverse()
    assert (den * inv).is_one()
    assert (inv * den).is_one()


def test_inverse_requires_unit_constant():
    with pytest.raises(SeriesError):
        TruncatedSeries.make(("u",), 4, {(0,): 2}).inverse()


def test_positive_part_example():
    h = TruncatedSeries.make(STU, 6, {(0, 0, 0): 1, (1, 1, 0): -1, (2, 0, 1): 2})
    assert h.positive_part().coefficients == {(0, 0, 0): 1, (2, 0, 1): 2}


exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(exponents, st.integers(-5, 5), max_size=8))
def test_positive_part_is_idempotent(coeffs):
    h = TruncatedSeries.make(STU, 9, coeffs)
    once = h.positive_part()
    assert once.positive_part() == once
    assert all(c > 0 for c in once.coefficients.values())


def test_positive_part_drops_exactly_the_negatives():
    # [(1 - s t u^2) (1+su)^2 (1+tu)^2]_+ : positive and negative supports split
    order = 12
    su = TruncatedSeries.make(STU, order, {(0, 0, 0): 1, (1, 0, 1): 2, (2, 0, 2): 1})
    tu = TruncatedSeries.make(STU, order, {(0, 0, 0): 1, (0, 1, 1): 2, (0, 2, 2): 1})
    G = su * tu
    h = (TruncatedSeries.one(STU, order) - TruncatedSeries.monomial(STU, order, (1, 1, 2))) * G
    pos = h.positive_part()
    for e, c in h.coefficients.items():
        if c > 0:
            assert pos.coefficient(e) == c
        else:
            assert pos.coefficient(e) == 0


def test_substitute_neg_and_collapse():
    h = TruncatedSeries.make(("s", "u"), 6, {(0, 0): 1, (1, 1): 3, (0, 2): 2})
    neg = h.substitute_neg("u")
    assert neg.coefficient((1, 1)) == -3
    assert neg.coefficient((0, 2)) == 2
    tot = h.collapse("u")
    assert tot.coefficient((2,)) == 3 + 2


def test_variable_order_is_enforced():
    with pytest.raises(SeriesError):
        TruncatedSeries.make(("u", "s"), 3, {})


def test_power_matches_repeated_multiplication():
    a = TruncatedSeries.make(("s",), 6, {(0,): 1, (1,): -1})
    assert a.power(3) == a * a * a
    assert a.power(0).is_one()


small_series = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.integers(-4, 4), max_size=5,
).map(lambda c: TruncatedSeries.make(STU, 6, c))


@settings(max_examples=40, deadline=None)
@given(small_series, small_series, small_series)
def test_ring_axioms_within_truncation(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)

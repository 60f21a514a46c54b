"""Coefficient fields: the primality check behind ``fp:P`` and QQ scalars."""

import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from momentkoszul.fields import GF, QQ, InvalidFieldError, _is_prime, parse_field


def _trial_division(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


@given(st.integers(-5, 20000))
def test_is_prime_matches_trial_division(p):
    assert _is_prime(p) == _trial_division(p)


def test_large_prime_moduli_are_accepted_quickly():
    start = time.perf_counter()
    assert GF(2 ** 61 - 1).p == 2 ** 61 - 1
    assert GF(10 ** 18 + 3).p == 10 ** 18 + 3
    assert time.perf_counter() - start < 0.5


def test_composite_moduli_are_rejected():
    with pytest.raises(InvalidFieldError):
        GF(2 ** 61 + 1)
    # a strong pseudoprime to every prime base up to 23
    with pytest.raises(InvalidFieldError):
        GF(149491 * 747451 * 34233211)


@pytest.mark.parametrize("p", [2 ** 64, 2 ** 89 - 1])
def test_moduli_from_two_to_the_64_are_rejected(p):
    with pytest.raises(InvalidFieldError):
        GF(p)


def test_rationals_are_plain_ints_when_integral():
    assert type(QQ.of(Fraction(6, 3))) is int
    assert type(QQ.inv(-1)) is int
    assert QQ.of(Fraction(1, 2)) == Fraction(1, 2)


@pytest.mark.parametrize("spec", ["fp:abc", "fp:", "FP:7.5"])
def test_a_modulus_that_is_not_an_integer_names_the_spec(spec):
    with pytest.raises(InvalidFieldError,
                       match=f"modulus of field spec '{spec}' is not an integer"):
        parse_field(spec)

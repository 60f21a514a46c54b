import pytest

from momentkoszul.fields import GF, InvalidFieldError
from momentkoszul.ideals import family, generators, sp_relabeled_generators
from momentkoszul.monomials import bidegrees_up_to_total, total
from momentkoszul.quotient import piece_contains, pieces_equal
from momentkoszul.polynomials import format_polynomial


@pytest.mark.parametrize("kind,count", [
    ("gl", lambda n: n * n),
    ("sl", lambda n: n * n - 1),
    ("so", lambda n: n * (n - 1) // 2),
    ("sp", lambda n: 2 * n * n + n),
])
def test_generator_counts(kind, count):
    for n in range(1, 11):
        assert len(generators(family(kind, n))) == count(n)


def test_every_generator_is_a_quadric_of_bidegree_one_one():
    for kind in ("gl", "sl", "so", "sp"):
        for n in (1, 2, 3, 5):
            for g in generators(family(kind, n)):
                assert g.bidegree() == (1, 1)


def test_gl2_generators():
    got = [format_polynomial(g) for g in generators(family("gl", 2))]
    assert got == ["p1*q1", "p1*q2", "p2*q1", "p2*q2"]


def test_sl2_generators():
    got = [format_polynomial(g) for g in generators(family("sl", 2))]
    assert got == ["p1*q2", "p2*q1", "p1*q1 - p2*q2"]


def test_so2_generator():
    got = [format_polynomial(g) for g in generators(family("so", 2))]
    assert got == ["p1*q2 - p2*q1"]


def test_sp1_generators():
    got = [format_polynomial(g, doubled=True) for g in generators(family("sp", 1))]
    assert got == ["p11*q11 - p21*q21", "p11*q21", "p21*q11"]


def test_sl_ideal_inside_gl_ideal():
    degrees = [v for v in bidegrees_up_to_total(6) if total(v) >= 2]
    for n in (2, 3):
        gl = generators(family("gl", n))
        sl = generators(family("sl", n))
        assert piece_contains(gl, sl, degrees), n


def test_sp_relabeled_generators_span_the_same_pieces():
    degrees = [v for v in bidegrees_up_to_total(6) if total(v) >= 2]
    for n in (1, 2, 3):
        std = generators(family("sp", n))
        alt = sp_relabeled_generators(n)
        assert pieces_equal(std, alt, degrees), n


def test_characteristic_two_is_rejected_at_construction():
    # the field type itself excludes p = 2, so no symplectic computation can
    # ever run in characteristic two
    with pytest.raises(InvalidFieldError):
        GF(2)


def test_sp_relabeled_guard_is_defensive():
    class FakeCharTwo:
        char = 2

    with pytest.raises(InvalidFieldError):
        sp_relabeled_generators(2, fld=FakeCharTwo())


def test_family_validation():
    with pytest.raises(ValueError):
        family("gl", 0)
    with pytest.raises(ValueError):
        family("xx", 2)


def test_sl_characteristic_guard():
    f = family("sl", 6)
    with pytest.raises(InvalidFieldError):
        f.check_field(GF(3))
    f.check_field(GF(5))  # 5 > 7/2

import json
from math import comb

import pytest

from momentkoszul import verdicts
from momentkoszul.betti import BettiTable
from momentkoszul.closed import betti_closed
from momentkoszul.ideals import family, generators
from momentkoszul.verdicts import (
    Evidence,
    KoszulVerdict,
    _diagonal_inequality,
    aci_obstruction,
    quadratic_monomial_certificate,
    resolution_jump,
    serre_linear_strand_certificate,
    verdict,
)


def test_monomial_certificate():
    assert quadratic_monomial_certificate(generators(family("gl", 3)))
    assert not quadratic_monomial_certificate(generators(family("sl", 2)))
    assert not quadratic_monomial_certificate(generators(family("sp", 1)))


def test_aci_examples():
    violated, first = aci_obstruction(betti_closed(family("sp", 2)))
    assert violated and first == (2, 100, 45)
    violated, first = aci_obstruction(betti_closed(family("sp", 3)))
    assert violated and first == (2, 525, 210)
    violated, _ = aci_obstruction(betti_closed(family("gl", 3)))
    assert not violated


def test_aci_diagonal_value_formula():
    # the violating entry is 5/3 n^2 (4n^2 - 1), an integer for every n
    for n in range(1, 11):
        violated, first = aci_obstruction(betti_closed(family("sp", n)))
        assert violated
        i, lhs, rhs = first
        assert i == 2
        num = 5 * n * n * (4 * n * n - 1)
        assert num % 3 == 0
        assert lhs == num // 3
        assert rhs == comb(2 * n * n + n, 2)
        assert lhs > rhs


def test_serre_certificate_values():
    s, full = serre_linear_strand_certificate(betti_closed(family("so", 3)))
    assert full and s == 2
    s, full = serre_linear_strand_certificate(betti_closed(family("sl", 3)))
    assert (s, full) == (2, False)
    s, full = serre_linear_strand_certificate(betti_closed(family("sp", 2)))
    assert (s, full) == (1, False)


def test_serre_prefix_is_n_minus_1_for_sl():
    for n in range(2, 11):
        s, full = serre_linear_strand_certificate(betti_closed(family("sl", n)))
        assert s == n - 1 and not full


def test_top_degree_obstruction_examples():
    assert resolution_jump(family("sl", 2))[0] == (3, 4)
    assert resolution_jump(family("gl", 2), max_i=5, max_total_degree=6)[0] is None
    assert resolution_jump(family("so", 2), max_i=5, max_total_degree=6)[0] is None


def test_top_degree_obstruction_sl3():
    # confirms the jump top_{n+1} = n+2 at n = 3 as well
    assert resolution_jump(family("sl", 3))[0] == (4, 5)


def test_verdicts_match_the_main_theorem():
    # gl and so are Koszul, sl and sp are not; sl_1 is the zero ideal
    expected = {("gl", n): "koszul" for n in range(1, 9)}
    expected.update({("so", n): "koszul" for n in range(1, 9)})
    expected.update({("sp", n): "not-koszul" for n in range(1, 9)})
    expected.update({("sl", n): "not-koszul" for n in range(2, 7)})
    expected["sl", 1] = "koszul"
    for (kind, n), want in expected.items():
        v = verdict(family(kind, n))
        assert v.verdict == want, (kind, n, v.summary())


def _evidence(passed):
    return Evidence("hand-made", f"passed={passed}", passed,
                    cited="a source" if passed is False else None)


@pytest.mark.parametrize("passed, want", [
    ((), "undetermined"),
    ((None,), "undetermined"),
    ((None, True), "koszul"),
    ((True, True), "koszul"),
    ((False, None), "not-koszul"),
])
def test_the_verdict_is_read_off_the_evidence_by_one_rule(passed, want):
    assert KoszulVerdict("gl", 2, [_evidence(p) for p in passed]).verdict == want


def test_a_certificate_and_an_obstruction_together_raise():
    both = KoszulVerdict("gl", 2, [_evidence(p) for p in (True, None, False)])
    with pytest.raises(AssertionError, match="gl_2"):
        both.verdict
    with pytest.raises(AssertionError):
        both.summary()


def test_a_failed_linear_strand_is_informational(monkeypatch):
    # a certificate that does not hold proves nothing: it is reported as info
    # and leaves the so verdict undetermined
    monkeypatch.setattr(verdicts, "serre_linear_strand_certificate",
                        lambda table: (1, False))
    v = verdict(family("so", 3))
    assert v.verdict == "undetermined"
    assert "[info] linear-strand-certificate: top(i) <= i+1 holds through s=1" \
        in v.summary()
    assert json.loads(v.render_json())["verdict"] == "undetermined"


def test_diagonal_inequality_names_a_non_quadratic_beta_1():
    # beta_1 = 3 has the quadratic part 2: the violation at i = 1 compares
    # beta_1 with that part, not with C(beta_1, 1)
    table = BettiTable("hand", 1, {(1, (1, 1)): 2, (1, (2, 1)): 1})
    assert aci_obstruction(table) == (True, (1, 3, 2))
    e = _diagonal_inequality(table)
    assert str(e) == ("[fail] diagonal-inequality-obstruction: "
                      "beta_1 is 3 > 2, its part in total degree 2")


def test_the_diagonal_inequality_fails_sl2_and_finds_nothing_past_it():
    # a violation of the Avramov-Conca-Iyengar bound proves non-Koszulness
    # for sl as for sp; sl_3..sl_6 satisfy it, so their verdicts rest on the
    # resolution jump alone
    v = verdict(family("sl", 2))
    assert [str(e) for e in v.evidence if e.name == "diagonal-inequality-obstruction"] \
        == ["[fail] diagonal-inequality-obstruction: "
            "beta_2 in total degree 4 is 5 > C(beta_1, 2) = 3"]
    for n in range(3, 7):
        f = family("sl", n)
        assert aci_obstruction(betti_closed(f)) == (False, None), n
        assert "diagonal-inequality-obstruction" not in \
            [e.name for e in verdict(f).evidence], n


def test_degenerate_sl1_is_koszul():
    # the n = 1 special-linear ideal is zero: the quotient is regular
    v = verdict(family("sl", 1))
    assert v.verdict == "koszul"


def test_certificate_and_obstruction_never_both_fire():
    for kind in ("gl", "sl", "so", "sp"):
        for n in (1, 2, 3, 4):
            v = verdict(family(kind, n))
            fired_pass = [e for e in v.evidence if e.passed is True]
            fired_fail = [e for e in v.evidence if e.passed is False]
            assert not (fired_pass and fired_fail), v.summary()


def test_evidence_is_recorded():
    v = verdict(family("sp", 3))
    names = [e.name for e in v.evidence]
    assert "diagonal-inequality-obstruction" in names
    assert v.verdict == "not-koszul"


def test_only_the_sl_jump_beyond_the_oracle_is_cited():
    v = verdict(family("sl", 4))
    cited = [e for e in v.evidence if e.cited is not None]
    assert [(e.name, e.cited) for e in cited] == \
        [("resolution-top-degree-obstruction", "arXiv 1705.02688")]
    assert "[fail, cited from arXiv 1705.02688] resolution-top-degree" in v.summary()
    for kind, n in [("gl", 2), ("sl", 2), ("so", 3), ("sp", 3)]:
        assert all(e.cited is None for e in verdict(family(kind, n)).evidence)

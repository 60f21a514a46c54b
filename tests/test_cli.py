import json
import time

import pytest

from momentkoszul import cli
from momentkoszul.cli import (
    MAX_CATALAN_N,
    MAX_EXTERIOR_N,
    MAX_FAMILY_N,
    MAX_ORACLE_N,
    MAX_ORACLE_N_SP,
    MAX_SERIES_ORDER,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gens_sl2(capsys):
    code, out, _ = run(capsys, "gens", "--family", "sl", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["p1*q2", "p2*q1", "p1*q1 - p2*q2"]


def test_gens_so2_single_line(capsys):
    code, out, _ = run(capsys, "gens", "--family", "so", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["p1*q2 - p2*q1"]


def test_gens_sp1_json(capsys):
    code, out, _ = run(capsys, "gens", "--family", "sp", "--n", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 3
    assert payload[0]["polynomial"] == "p11*q11 - p21*q21"


def test_betti_closed_sl4_strand(capsys):
    code, out, _ = run(capsys, "betti", "--family", "sl", "--n", "4",
                       "--source", "closed")
    assert code == 0
    strand2 = [line for line in out.splitlines() if line.strip().startswith("2")]
    assert strand2 and strand2[0].split() == \
        ["2", "-", "-", "-", "-", "42", "48", "27", "8", "1"]


def test_betti_both_agreement_exit_codes(capsys):
    code, out, _ = run(capsys, "betti", "--family", "gl", "--n", "1",
                       "--source", "both")
    assert code == 0
    assert "tables agree" in out
    code, out, _ = run(capsys, "betti", "--family", "sp", "--n", "2",
                       "--source", "both")
    assert code == 0
    assert "tables agree" in out


def test_betti_json_schema(capsys):
    code, out, _ = run(capsys, "betti", "--family", "sl", "--n", "2",
                       "--source", "closed", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"family", "n", "field", "source", "entries"}
    keys = [(e["i"], e["v1"], e["v2"]) for e in payload["entries"]]
    assert keys == sorted(keys)
    assert all(set(e) == {"i", "v1", "v2", "beta"} for e in payload["entries"])


def test_betti_oracle_resource_bound(capsys):
    code, _, err = run(capsys, "betti", "--family", "sp", "--n", "4",
                       "--source", "oracle")
    assert code == 2
    assert "resource bound" in err


@pytest.mark.parametrize("kind, n", [("sl", "6"), ("sp", "4")])
@pytest.mark.parametrize("source", ["oracle", "both"])
def test_betti_oracle_above_the_cap_exits_2_at_once(capsys, kind, n, source):
    start = time.perf_counter()
    code, out, err = run(capsys, "betti", "--family", kind, "--n", n,
                         "--source", source)
    assert time.perf_counter() - start < 1
    assert code == 2 and not out
    assert "--force" in err


@pytest.mark.parametrize("kind, n", [("gl", MAX_ORACLE_N), ("sl", MAX_ORACLE_N),
                                     ("so", MAX_ORACLE_N), ("sp", MAX_ORACLE_N_SP)])
def test_betti_oracle_at_the_cap_runs(monkeypatch, capsys, kind, n):
    import momentkoszul.cli as cli
    from momentkoszul.closed import betti_closed

    # the closed table stands in for the oracle, which takes seconds at the cap
    monkeypatch.setattr(cli, "tor_over_S", lambda f, **_: betti_closed(f))
    code, out, _ = run(capsys, "betti", "--family", kind, "--n", str(n),
                       "--source", "both")
    assert code == 0 and "tables agree" in out


def test_invalid_inputs_exit_2(capsys):
    code, _, _ = run(capsys, "gens", "--family", "xx", "--n", "2")
    assert code == 2
    code, _, _ = run(capsys, "gens", "--family", "gl", "--n", "0")
    assert code == 2
    code, _, err = run(capsys, "betti", "--family", "sl", "--n", "6",
                       "--source", "closed", "--field", "fp:3")
    assert code == 2 and "characteristic" in err


@pytest.mark.parametrize("source", ["closed", "oracle", "both"])
def test_betti_negative_max_i_exits_2_before_any_work(capsys, monkeypatch, source):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a table was computed")

    monkeypatch.setattr(cli, "betti_closed", refuse)
    monkeypatch.setattr(cli, "tor_over_S", refuse)
    code, out, err = run(capsys, "betti", "--family", "gl", "--n", "2",
                         "--source", source, "--max-i", "-1")
    assert code == 2 and not out
    assert "--max-i must be at least 0, got -1" in err


def test_a_modulus_that_is_not_an_integer_exits_2(capsys):
    code, out, err = run(capsys, "betti", "--family", "gl", "--n", "1",
                         "--source", "closed", "--field", "fp:abc")
    assert code == 2 and not out
    assert err == "error: modulus of field spec 'fp:abc' is not an integer\n"


def test_a_worker_count_that_is_not_an_integer_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("MOMENTKOSZUL_THREADS", "two")
    code, out, err = run(capsys, "betti", "--family", "gl", "--n", "1",
                         "--source", "oracle")
    assert code == 2 and not out
    assert err == "error: MOMENTKOSZUL_THREADS 'two' is not an integer\n"


def test_moduli_from_two_to_the_64_exit_2(capsys):
    for p in (2 ** 64, 2 ** 89 - 1):
        code, _, err = run(capsys, "betti", "--family", "gl", "--n", "1",
                           "--source", "closed", "--field", f"fp:{p}")
        assert code == 2 and "2**64" in err


@pytest.mark.parametrize("argv", [
    ["gens", "--family", "sp"],
    ["koszul", "--family", "sp"],
    ["betti", "--family", "sp"],
    ["hilbert", "--family", "gl", "--order", "4"],
    ["poincare", "--family", "sp", "--order", "20"],
])
def test_family_n_above_the_cap_exits_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv, "--n", str(MAX_FAMILY_N + 1))
    assert time.perf_counter() - start < 1
    assert code == 2 and f"at most {MAX_FAMILY_N}" in err


@pytest.mark.parametrize("command", ["hilbert", "poincare"])
@pytest.mark.parametrize("order", [-1, MAX_SERIES_ORDER + 1, 100000])
def test_series_order_outside_range_exits_2_at_once(capsys, command, order):
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--family", "gl", "--n", "100",
                         "--order", str(order))
    assert time.perf_counter() - start < 1
    assert code == 2 and not out
    assert f"between 0 and {MAX_SERIES_ORDER}" in err


@pytest.mark.parametrize("command", ["hilbert", "poincare"])
def test_series_order_at_the_cap_runs(capsys, command):
    code, out, _ = run(capsys, command, "--family", "gl", "--n", "1",
                       "--order", str(MAX_SERIES_ORDER))
    assert code == 0 and out


def test_catalan_n_above_the_cap_exits_2_at_once(capsys):
    for n in (MAX_CATALAN_N + 1, 3000000):
        start = time.perf_counter()
        code, out, err = run(capsys, "catalan", "--n", str(n))
        assert time.perf_counter() - start < 1
        assert code == 2 and not out and f"at most {MAX_CATALAN_N}" in err


def test_catalan_at_the_cap_prints_every_digit(capsys):
    code, out, _ = run(capsys, "catalan", "--n", str(MAX_CATALAN_N))
    assert code == 0 and len(out.strip()) == 4209


def test_koszul_sp3(capsys):
    code, out, _ = run(capsys, "koszul", "--family", "sp", "--n", "3")
    assert code == 0
    assert "not-koszul" in out
    assert "525 > C(beta_1, 2) = 210" in out


def test_koszul_json_says_which_evidence_is_cited(capsys):
    code, out, _ = run(capsys, "koszul", "--family", "sl", "--n", "4",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "not-koszul"
    assert payload["evidence"][-1] == {
        "name": "resolution-top-degree-obstruction",
        "detail": ("oracle bound exceeded at n=4; the degree jump at step n+1 "
                   "is established for the family in general and not "
                   "recomputed here"),
        "passed": False,
        "cited": "arXiv 1705.02688",
    }
    code, out, _ = run(capsys, "koszul", "--family", "sl", "--n", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "not-koszul"
    jump = payload["evidence"][-1]
    assert jump["name"] == "resolution-top-degree-obstruction"
    assert jump["passed"] is False and jump["cited"] is None


def test_koszul_text_is_the_default_format(capsys):
    _, text, _ = run(capsys, "koszul", "--family", "sp", "--n", "2")
    _, explicit, _ = run(capsys, "koszul", "--family", "sp", "--n", "2",
                         "--format", "text")
    assert text == explicit
    assert text.startswith("sp_2: not-koszul\n")


def test_koszul_warns_about_boundary_hits(capsys, monkeypatch):
    import momentkoszul.verdicts as verdicts
    code, plain, err = run(capsys, "koszul", "--family", "sl", "--n", "2")
    assert code == 0 and err == ""
    real = verdicts.resolve_k_over_quotient

    def narrowed(f, max_i, max_total_degree, fld):
        # total degree 4 puts the step-3 jump to (3, 1), (1, 3) on the edge
        return real(f, max_i, max_total_degree - 1, fld)

    monkeypatch.setattr(verdicts, "resolve_k_over_quotient", narrowed)
    code, out, err = run(capsys, "koszul", "--family", "sl", "--n", "2")
    assert code == 0
    assert out == plain
    assert err == ("warning: homology on the degree boundary at "
                   "[(3, (1, 3)), (3, (3, 1))]; raise the bound\n")


def test_exterior_n3(capsys):
    code, out, _ = run(capsys, "exterior", "--n", "3")
    assert code == 0
    assert "maximal rank at every i" in out


def test_exterior_n_outside_range_exits_2(capsys):
    for n in (-2, 0, MAX_EXTERIOR_N + 1):
        start = time.perf_counter()
        code, out, err = run(capsys, "exterior", "--n", str(n))
        assert time.perf_counter() - start < 1
        assert code == 2 and not out and "--n must be between" in err
    code, out, _ = run(capsys, "exterior", "--n", "1")
    assert code == 0 and "maximal rank at every i" in out


def test_catalan(capsys):
    code, out, _ = run(capsys, "catalan", "--n", "5")
    assert code == 0
    assert out.strip() == "42"


def test_hilbert_collapse(capsys):
    code, out, _ = run(capsys, "hilbert", "--family", "so", "--n", "3",
                       "--order", "3", "--collapse")
    assert code == 0
    assert out.strip() == "1 + 6*s + 18*s^2 + 40*s^3"


def test_poincare_gl1(capsys):
    code, out, _ = run(capsys, "poincare", "--family", "gl", "--n", "1",
                       "--order", "4")
    assert code == 0
    assert out.strip() == "1 + s*t*u"


def test_verify_reference_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "appendixB")
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


@pytest.mark.parametrize("suite", ["euler", "structure", "froberg", "socle", "verdicts"])
def test_verify_suite_by_name(capsys, suite):
    code, out, _ = run(capsys, "verify", "--suite", suite)
    assert code == 0
    assert "FAIL" not in out
    assert out.splitlines()[-1].endswith("checks passed")


def test_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "betti", "--family", "sp", "--n", "2",
                     "--source", "closed", "--format", "csv")
    _, out2, _ = run(capsys, "betti", "--family", "sp", "--n", "2",
                     "--source", "closed", "--format", "csv")
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "gens.txt"
    code = main(["gens", "--family", "gl", "--n", "2", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text().splitlines() == ["p1*q1", "p1*q2", "p2*q1", "p2*q2"]


def test_betti_both_mismatch_exits_1(monkeypatch, capsys):
    import momentkoszul.cli as cli
    from momentkoszul.closed import betti_closed as real_closed

    def broken(f):
        table = real_closed(f)
        table.entries[(1, (1, 1))] += 1
        return table

    monkeypatch.setattr(cli, "betti_closed", broken)
    code, out, _ = run(capsys, "betti", "--family", "gl", "--n", "1",
                       "--source", "both")
    assert code == 1
    assert "DIFF" in out


@pytest.mark.parametrize("argv", [["catalan", "--n", "5"], ["verify", "--suite", "appendixB"]])
@pytest.mark.parametrize("missing_parent", [False, True])
def test_unwritable_out_exits_2(tmp_path, capsys, argv, missing_parent):
    target = tmp_path / "missing" / "out.txt" if missing_parent else tmp_path
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2 and not out
    assert err.startswith(f"error: cannot write {target}: ")

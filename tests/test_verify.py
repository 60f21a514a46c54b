from momentkoszul import verify
from momentkoszul.verify import (
    SUITES,
    run_suite,
    suite_reference_tables,
    suite_euler,
    suite_froberg,
    suite_hilbert,
    suite_socle,
    suite_structure,
    suite_verdicts,
)


def _all_pass(checks):
    failures = [(name, detail) for name, ok, detail in checks if not ok]
    assert not failures, failures


def test_reference_table_suite():
    _all_pass(suite_reference_tables())


def test_hilbert_suite():
    _all_pass(suite_hilbert())


def test_euler_suite():
    _all_pass(suite_euler())


def test_structure_suite():
    _all_pass(suite_structure())


def test_froberg_suite():
    _all_pass(suite_froberg())


def test_socle_suite():
    _all_pass(suite_socle())


def test_verdict_suite():
    _all_pass(suite_verdicts())


def test_run_suite_exit_codes():
    checks, code = run_suite("appendixB")
    assert code == 0 and checks
    try:
        run_suite("nope")
    except ValueError:
        pass
    else:
        raise AssertionError("unknown suite must be rejected")


def test_run_suite_all_is_the_named_suites_in_order(monkeypatch):
    # each suite is replaced by a stub check named after it, under both the
    # name ``SUITES`` holds and its module-level function name
    for name, run in list(SUITES.items()):
        def stub(name=name):
            return [(name, True, "")]
        monkeypatch.setitem(SUITES, name, stub)
        monkeypatch.setattr(verify, run.__name__, stub)
    checks, code = run_suite("all")
    assert code == 0
    assert checks == [c for name in SUITES for c in run_suite(name)[0]]
    assert [name for name, _, _ in checks] == list(SUITES)

"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench -q``."""

import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from momentkoszul import (  # noqa: E402
    GF, QQ, family, resolve_k_over_quotient, tor_over_S, verify)
from momentkoszul.oracle import hilbert_oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced(fn):
    tr = tracing.Tracer()
    result = fn(tr)
    return result, tr


def test_staged_oracle_counts_repeat_and_match_untraced():
    f = family("sl", 2)
    for fld in (QQ, GF(30011)):
        (a, tr_a), (b, tr_b) = (_traced(lambda tr: tracing.staged_tor(tr, "x", f, fld))
                                for _ in range(2))
        assert tr_a.counts == tr_b.counts
        assert all(tr_a.counts[name] > 0 for name in
                   ("quotient.pieces", "oracle.columns_nnz", "linalg.rank_sum"))
        plain = tor_over_S(f, fld=fld, workers=1)
        for table in (a, b):
            assert table.entries == plain.entries
            assert table.boundary_hits == plain.boundary_hits


def test_staged_resolution_and_hilbert_counts_repeat():
    f = family("gl", 2)
    runs = [_traced(lambda tr: tracing.staged_resolve(tr, "x", f, 4, 5))
            for _ in range(2)]
    assert runs[0][1].counts == runs[1][1].counts
    assert runs[0][1].counts["resolution.generators"] > 0
    assert runs[0][0].entries == resolve_k_over_quotient(f, 4, 5).entries
    series = [_traced(lambda tr: tracing.staged_hilbert(tr, "x", f, 6))
              for _ in range(2)]
    assert series[0][1].counts == series[1][1].counts
    assert series[0][1].counts["pieces.span_vectors"] > 0
    assert series[0][0].coefficients == hilbert_oracle(f, 6).coefficients


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    tr.spans = [["outer", 0.0, 10.0, None, "x"], ["inner", 2.0, 5.0, 0, "x"],
                ["inner", 6.0, 7.0, 0, "x"]]
    assert tr.self_times() == {"outer": 6.0, "inner": 4.0}


def test_every_printed_metric_is_in_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert run.E2E_UNITS == e2e
    assert run.layer_units() == layers
    printed = set(tracing.layer_metrics(tracing.Tracer())) | set(run.EXTRA_LAYER_UNITS)
    assert printed == set(layers)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_seed_picks_prime_and_order_reproducibly():
    for seed in range(6):
        a = workloads.build("oracle-fp", seed)
        assert a == workloads.build("oracle-fp", seed)
        assert a[0].field.p in workloads.PRIMES
    orders = {tuple(i.label for i in workloads.build("resolve-qq", s))
              for s in range(8)}
    assert len(orders) > 1


def test_verify_items_are_the_suites_of_run_suite_all():
    src = inspect.getsource(verify.run_suite)
    body = src[src.index('"all"'):src.index("elif")]
    assert re.findall(r"suite_(\w+)\(\)", body) == list(workloads.VERIFY_SUITES)


def test_primes_are_odd_primes_above_30000():
    for p in workloads.PRIMES:
        assert p >= 30000 and GF(p).p == p


def test_pool_is_bounded_by_cores():
    cores = len(os.sched_getaffinity(0))
    assert 1 <= run.pool_workers() <= min(2, cores)


def test_fails_without_the_package():
    bare = ROOT / "perfbench" / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    args = ["--workload", "oracle-qq", "--seed", "1", "--seconds", "1", "--trace", "0"]
    try:
        done = subprocess.run([sys.executable, *SPEC["command"][1:], *args],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout.strip() == ""

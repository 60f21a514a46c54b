"""Benchmark of momentkoszul on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  The run is a closed loop with one caller:
the workload's items run one after the other, each checked by an independent
route, and passes over the items repeat until the next one would end after
``--seconds``.  At least one pass always runs.

The machine this runs on may be shared, and its speed drifts by tens of per
cent over minutes.  So a fixed stdlib reference loop runs before the first
item and after every item, and pass times are reported in units of that loop
(``wall_ref``, ``cpu_ref``): each item's time over the mean of the two loops
around it.  The raw pass times in seconds are printed as well.

``--trace 0`` reports the end-to-end metrics: pass wall and CPU time in
reference units, the median of several set-up probes, peak resident memory
and the share of items whose check passed.  ``--trace 1`` alternates an
untraced pass with a staged, traced pass (see ``tracing.py``), reports the
per-layer metrics and writes the spans to ``perfbench/out/``.

A line per metric, with the seed and any failing item, goes to standard
output; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 on a complete run,
1 when the benchmark itself could not run, 2 on bad arguments or a checkout
without ``src/momentkoszul``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
#: Iterations of the reference loop; about 0.1 s on a 2-core x86 VM.
REFERENCE_SIZE = 50_000

E2E_UNITS = {"wall_ref": "ref", "cpu_ref": "ref", "setup_s": "s",
             "peak_rss_mib": "MiB", "ok_frac": "ratio"}
#: Raw pass times, printed by every run and reported by traced runs.
PASS_UNITS = {"pass.wall_s": "s", "pass.cpu_s": "s", "ref.loop_s": "s"}
EXTRA_LAYER_UNITS = {"oracle.pool_x2_speedup": "ratio",
                     "trace.overhead_s": "s", "src.lines": "count",
                     **PASS_UNITS}


def _cpu() -> float:
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def reference_loop(n: int = REFERENCE_SIZE) -> int:
    """Fixed work in the shape of the package's inner loops (sparse integer
    accumulation in a dict), independent of the package."""
    acc: dict[int, int] = {}
    for k in range(n):
        for j in range(6):
            idx = (k * 7 + j * 13) % 997
            v = acc.get(idx, 0) + k * j
            if v % 5:
                acc[idx] = v
            else:
                acc.pop(idx, None)
    return len(acc)


def timed_reference() -> tuple[float, float]:
    """Wall and CPU time of one reference loop, with the collector paused so
    the package's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0, c0 = time.perf_counter(), _cpu()
        reference_loop()
        return time.perf_counter() - t0, _cpu() - c0
    finally:
        if enabled:
            gc.enable()


def pool_workers() -> int:
    """Workers for the pool pass: two, never more than the usable cores."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return max(1, min(2, cores))


def setup_samples(workload: str, seed: int) -> list[float]:
    probe = str(BENCH / "setup_probe.py")
    out = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run([sys.executable, probe, workload, str(seed)],
                              capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        out.append(float(done.stdout.split()[-1]) - start)
    return out


class Pass(NamedTuple):
    outcomes: list      # (item, name, ok, detail)
    walls: list         # per item, its check included
    cpus: list
    ref_walls: list     # reference loops: one before each item, one after all
    ref_cpus: list


def run_pass(items, runner, checker=None) -> Pass:
    """Run and check every item, with a reference loop around each."""
    from workloads import check

    p = Pass([], [], [], [], [])
    for item in items:
        for refs, t in zip((p.ref_walls, p.ref_cpus), timed_reference()):
            refs.append(t)
        t0, c0 = time.perf_counter(), _cpu()
        result = runner(item)
        p.outcomes.extend((item.label, *o) for o in (checker or check)(item, result))
        p.walls.append(time.perf_counter() - t0)
        p.cpus.append(_cpu() - c0)
    for refs, t in zip((p.ref_walls, p.ref_cpus), timed_reference()):
        refs.append(t)
    return p


def pass_time(passes: list[Pass], column: str) -> float:
    """Time of one pass in seconds: each item's median over the passes, summed.

    Taking medians per item keeps a burst of load on the machine that slows
    one item of one pass out of the figure.
    """
    return sum(statistics.median(t)
               for t in zip(*(getattr(p, column) for p in passes)))


def pass_ref(passes: list[Pass], column: str) -> float:
    """Time of one pass in reference loops: each item's time over the mean of
    the loops before and after it, its median over the passes, summed."""
    refs = "ref_" + column
    ratios = [[t / ((getattr(p, refs)[k] + getattr(p, refs)[k + 1]) / 2)
               for k, t in enumerate(getattr(p, column))] for p in passes]
    return sum(statistics.median(r) for r in zip(*ratios))


def raw_times(passes: list[Pass]) -> dict[str, float]:
    return {"pass.wall_s": pass_time(passes, "walls"),
            "pass.cpu_s": pass_time(passes, "cpus"),
            "ref.loop_s": statistics.median(t for p in passes for t in p.ref_walls)}


def repeat(seconds: float, one_round) -> list:
    """Run rounds until the next one, as long as the last, would end late."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(one_round())
        t1 = time.perf_counter()
        if (t1 - start) + (t1 - t0) > seconds:
            return rounds


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "momentkoszul").glob("*.py")))


def untraced(items, seconds):
    from workloads import run_item

    passes = repeat(seconds, lambda: run_pass(items, run_item))
    outcomes = [o for p in passes for o in p.outcomes]
    metrics = {"wall_ref": pass_ref(passes, "walls"),
               "cpu_ref": pass_ref(passes, "cpus")}
    return outcomes, metrics, raw_times(passes)


def traced(workload, items, seed, seconds):
    """Rounds of (untraced pass, traced pass[, pool pass on oracle-fp])."""
    import tracing
    from momentkoszul import tor_over_S
    from workloads import run_item

    workers = pool_workers()
    tracers, problems = [], []

    def one_round():
        plain = run_pass(items, run_item)
        tr = tracing.Tracer()
        tracers.append(tr)
        staged_pass = run_pass(items, partial(tracing.staged_item, tr),
                               partial(tracing.staged_check, tr))
        pool = None
        if workload == "oracle-fp":
            pool = run_pass(items, lambda it: tor_over_S(
                it.family, fld=it.field, workers=workers))
        return plain, staged_pass, pool

    rounds = repeat(seconds, one_round)
    outcomes = []
    for plain, staged_pass, pool in rounds:
        outcomes += plain.outcomes + staged_pass.outcomes
        outcomes += pool.outcomes if pool else []
        if [o[:3] for o in staged_pass.outcomes] != [o[:3] for o in plain.outcomes]:
            problems.append("staged pass outcomes differ from the untraced pass")
    layers = [tracing.layer_metrics(tr) for tr in tracers]
    for name in tracing.COUNT_METRICS:
        if len({m[name] for m in layers}) != 1:
            problems.append(f"count {name} differs between traced passes")
    metrics = {name: statistics.median(m[name] for m in layers)
               for name in layers[0]}
    metrics.update(raw_times([r[0] for r in rounds]))
    plain_s = metrics["pass.wall_s"]
    metrics["trace.overhead_s"] = pass_time([r[1] for r in rounds], "walls") - plain_s
    metrics["oracle.pool_x2_speedup"] = \
        plain_s / pass_time([r[2] for r in rounds], "walls") if rounds[0][2] else 0.0
    metrics["src.lines"] = src_lines()
    OUT.mkdir(exist_ok=True)
    tracing.dump(OUT / f"trace-{workload}-seed{seed}.json",
                 {"workload": workload, "seed": seed, "pool_workers": workers},
                 tracers)
    return outcomes, metrics, problems


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric a traced run prints."""
    import tracing

    units = {m: "s" for m in tracing.SPAN_METRICS.values()}
    units.update({m: "count" for m in tracing.COUNT_METRICS})
    units.update({"pieces.span_useful": "ratio", "linalg.rank_yield": "ratio"})
    units.update(EXTRA_LAYER_UNITS)
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "momentkoszul" / "__init__.py").is_file():
        print(f"no momentkoszul package under {SRC}", file=sys.stderr)
        return 2
    # One worker everywhere, including the verify suite's oracle runs.
    os.environ["MOMENTKOSZUL_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import momentkoszul
    from workloads import KNOWN_DEFECTS, WORKLOADS, build

    if Path(momentkoszul.__file__).resolve().parent != SRC / "momentkoszul":
        print(f"momentkoszul imported from {momentkoszul.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    setup = setup_samples(args.workload, args.seed)
    items = build(args.workload, args.seed)
    if args.trace:
        outcomes, metrics, problems = traced(args.workload, items, args.seed,
                                             args.seconds)
        units = layer_units()
    else:
        outcomes, metrics, raw = untraced(items, args.seconds)
        problems = []
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mib"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["ok_frac"] = sum(1 for o in outcomes if o[2]) / len(outcomes)
        units = E2E_UNITS

    failed = [o for o in outcomes if not o[2]]
    unexpected = {(item, name) for item, name, _, _ in failed
                  if (args.workload, item) not in KNOWN_DEFECTS}
    print(f"workload={args.workload} seed={args.seed} items="
          f"{','.join(i.label for i in items)} field={items[0].field}")
    for item, name, _, detail in sorted(set(failed)):
        known = KNOWN_DEFECTS.get((args.workload, item))
        print(f"FAILED {item if item == name else f'{item} {name}'}: {detail}"
              + (f" [known defect: {known}]" if known else ""))
    for problem in problems:
        print(f"PROBLEM {problem}")
    if not args.trace:
        for name in sorted(raw):
            print(f"{name} = {raw[name]:.6g} {PASS_UNITS[name]}")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": not unexpected and not problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

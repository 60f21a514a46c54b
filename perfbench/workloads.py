"""Workloads of the momentkoszul benchmark: the items each one runs, built
from a seed, and an independent check of every item's result.

Every workload is run with one caller and ``workers=1``; items run one after
the other.  A check never reuses the route that produced the result: oracle
tables are compared with the closed forms, residue-field resolutions with
their symmetry, their known degree jumps and the Froberg identity, and the
verify suite with its own cross-checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from momentkoszul import (
    GF,
    QQ,
    Field,
    RepFamily,
    betti_closed,
    family,
    froberg_product,
    generators,
    hilbert_closed,
    resolve_k_over_quotient,
    tor_over_S,
)
from momentkoszul import verify
from momentkoszul.verify import ORACLE_RANGE, table_poincare_totals

#: Odd primes >= 30,000; the seed picks the ``oracle-fp`` field from these.
PRIMES = (30011, 30013, 30029, 30047, 30059, 30071, 30089, 30091, 30097,
          30103, 32003)

WORKLOADS = ("oracle-qq", "oracle-fp", "resolve-qq", "verify-all")

ORACLE_QQ = (("gl", 4), ("sl", 4), ("so", 4), ("sp", 2))
ORACLE_FP = (("gl", 5), ("sl", 5), ("so", 5), ("sp", 2))
#: (kind, n, max_i, max_total_degree) of each resolution.
RESOLVE_QQ = (("sl", 3, 5, 7), ("sp", 2, 4, 6), ("so", 3, 5, 6), ("gl", 3, 5, 6))
#: Known residue-field degree jumps, family -> (i, top_i).
JUMPS = {("sl", 3): (4, 5), ("sp", 2): (3, 4)}
#: Koszul families: the Froberg identity P(-u) H(u) = 1 must hold.
KOSZUL = ("gl", "so")
#: The suites of ``verify.run_suite("all")``, in its order.  Each is one
#: ``verify-all`` item, so the reference loop runs between them.
VERIFY_SUITES = ("reference_tables", "hilbert", "exterior", "euler", "structure",
                 "froberg", "socle", "verdicts", "betti")

#: Items whose check fails at the time the benchmark was written, with the
#: cause.  They still run, are timed and are counted in ``failed``; a failure
#: of any other item makes the run incorrect.
KNOWN_DEFECTS = {
    ("resolve-qq", "sl_3"):
        "linalg.kernel_of_columns clears each column's denominators and "
        "returns combinations of the scaled columns; over QQ beta_5,(2,4) = 52 "
        "and the table is asymmetric (F_32003 and F_10007 give 6)",
}


@dataclass(frozen=True)
class Item:
    """One unit of work: an oracle table, a resolution or a verify suite."""

    kind: str                      # "oracle" | "resolve" | "verify"
    family: RepFamily | None = None
    field: Field = QQ
    max_i: int = 0
    max_total_degree: int = 0
    suite: str = ""

    @property
    def label(self) -> str:
        return self.suite or str(self.family)


def build(workload: str, seed: int) -> list[Item]:
    """The workload's items, in the order the seed picks.

    Building also constructs every family's generators and the field, which
    is the set-up a user pays before the first item.
    """
    rng = random.Random(seed)
    if workload == "oracle-qq":
        items = [Item("oracle", family(k, n)) for k, n in ORACLE_QQ]
    elif workload == "oracle-fp":
        fld = GF(rng.choice(PRIMES))
        items = [Item("oracle", family(k, n), fld) for k, n in ORACLE_FP]
    elif workload == "resolve-qq":
        items = [Item("resolve", family(k, n), QQ, i, d)
                 for k, n, i, d in RESOLVE_QQ]
    elif workload == "verify-all":
        for k, n in ORACLE_RANGE:
            generators(family(k, n))
        return [Item("verify", suite=s) for s in VERIFY_SUITES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    for item in items:
        generators(item.family)
        item.family.check_field(item.field)
    return items


def run_item(item: Item):
    """Compute the item's result through the public entry point."""
    if item.kind == "oracle":
        return tor_over_S(item.family, fld=item.field, workers=1)
    if item.kind == "resolve":
        return resolve_k_over_quotient(item.family, item.max_i,
                                       item.max_total_degree, item.field)
    return getattr(verify, f"suite_{item.suite}")()


def check(item: Item, result) -> list[tuple[str, bool, str]]:
    """Outcomes ``(name, ok, detail)``: one per oracle or resolution item,
    one per verify check."""
    if item.kind == "verify":
        return list(result)
    problems = []
    f = item.family
    if item.kind == "oracle":
        diff = betti_closed(f).diff(result)
        if diff:
            problems.append(f"{len(diff)} entries differ from the closed form, "
                            f"first {diff[0]}")
        if result.boundary_hits:
            problems.append(f"homology on the degree boundary: "
                            f"{result.boundary_hits}")
    else:
        if not result.is_symmetric():
            asym = sorted((i, v, c) for (i, v), c in result.entries.items()
                          if c != result.beta(i, (v[1], v[0])))
            problems.append(f"asymmetric table, first {asym[0]}")
        key = (f.kind.value, f.n)
        if key in JUMPS:
            i, top = JUMPS[key]
            if result.top(i) != top:
                problems.append(f"top_{i} = {result.top(i)}, expected {top}")
        if f.kind.value in KOSZUL:
            order = item.max_i
            prod = froberg_product(table_poincare_totals(result, order),
                                   hilbert_closed(f, order).collapse("u"), order)
            if not prod.is_one():
                problems.append(f"Froberg product is {prod}, expected 1")
    return [(item.label, not problems, "; ".join(problems))]

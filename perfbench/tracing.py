"""Traced run of the benchmark: spans around each layer's public functions.

The layers are called in dependency order, so each span is that layer's self
time.  For one Tor item the stages run

    QuotientRing.piece -> KoszulOracle.basis -> QuotientRing.mult_by_var
    -> KoszulOracle.columns -> KoszulOracle.rank -> KoszulOracle.check_dd

and every stage finds the caches of the stages before it filled.  A
resolution gets its quotient pieces before ``resolve_k_over_quotient`` runs;
the Hilbert oracle gets its ideal ranks before the series is assembled.  The
verify suites run one by one with their oracle, Hilbert, structure,
resolution and closed-form calls replaced by the staged or spanned versions
below.

Spans (name, start, end, parent, item) and deterministic counts stay in
memory; ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import ExitStack, contextmanager
from unittest import mock

from momentkoszul import QQ, BettiTable, TruncatedSeries, resolution, verify
from momentkoszul.closed import projective_dimension
from momentkoszul.monomials import (
    ambient_dimension,
    bidegrees_up_to_total,
    sub_bidegrees,
    total,
)
from momentkoszul.oracle import KoszulOracle
from momentkoszul.quotient import ring_for_family
from workloads import VERIFY_SUITES, check

#: Span name -> per-layer metric holding the spans' summed self time.
SPAN_METRICS = {
    "quotient.piece": "quotient.piece_s",
    "quotient.ideal_rank": "quotient.ideal_rank_s",
    "pieces.structure": "pieces.structure_s",
    "oracle.basis": "oracle.basis_s",
    "quotient.mult": "quotient.mult_s",
    "oracle.columns": "oracle.columns_s",
    "linalg.rank": "linalg.rank_s",
    "oracle.dd": "oracle.dd_s",
    "resolution.resolve": "resolution.resolve_s",
    "closed": "closed.s",
    **{f"verify.{s}": f"verify.{s}_s" for s in VERIFY_SUITES},
}

#: Counts a traced pass reports as they are.
COUNT_METRICS = ("quotient.pieces", "quotient.ideal_rows", "pieces.span_vectors",
                 "oracle.columns_nnz", "oracle.chain_pieces",
                 "oracle.max_piece_dim", "linalg.rank_sum",
                 "resolution.generators")


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, item]
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, item: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, item])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def add(self, name: str, n: int):
        self.counts[name] = self.counts.get(name, 0) + n

    def maximum(self, name: str, n: int):
        self.counts[name] = max(self.counts.get(name, 0), n)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus direct children."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - child
        return out

    def as_json_dict(self) -> dict:
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "item": i}
                      for n, s, e, p, i in self.spans],
            "counts": dict(sorted(self.counts.items())),
        }


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Every per-layer metric one traced pass gives; layers it did not reach
    read 0."""
    times = tr.self_times()
    out = {metric: times.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
    c = tr.counts
    for name in COUNT_METRICS:
        out[name] = c.get(name, 0)
    out["pieces.span_useful"] = _ratio(c.get("pieces.span_rank", 0),
                                       c.get("pieces.span_vectors", 0))
    out["linalg.rank_yield"] = _ratio(c.get("linalg.rank_sum", 0),
                                      c.get("linalg.rank_vectors", 0))
    return out


def _ratio(a: int, b: int) -> float:
    return a / b if b else 0.0


def dump(path, meta: dict, tracers: list[Tracer]):
    with open(path, "w") as fh:
        json.dump({**meta, "passes": [t.as_json_dict() for t in tracers]}, fh)


# -- quotient pieces ----------------------------------------------------------

def _span_vectors(ring, v) -> int:
    """How many vectors ``ideal_span_vectors`` yields for I_v."""
    return sum(ambient_dimension(ring.num_p, ring.num_q,
                                 sub_bidegrees(v, g.bidegree()))
               for g in ring.generators)


def _fill_pieces(tr: Tracer, ring, degrees):
    for v in sorted(degrees):
        piece = ring.piece(v)
        rows = piece.rref.dimension
        tr.add("quotient.pieces", 1)
        tr.add("quotient.ideal_rows", rows)
        tr.add("pieces.span_rank", rows)
        tr.add("pieces.span_vectors", _span_vectors(ring, v))


# -- Tor oracle ---------------------------------------------------------------

def _quotient_degrees(ring, j: int, v) -> list:
    """Bidegrees of the quotient pieces in chain piece (j, v): v minus each
    exterior bidegree (a, j - a) that fits below it."""
    if not 0 <= j <= ring.nvars:
        return []
    out = []
    for a in range(max(0, j - ring.num_q), min(j, ring.num_p) + 1):
        w = (v[0] - a, v[1] - (j - a))
        if w[0] >= 0 and w[1] >= 0:
            out.append(w)
    return out


def _rank_vectors(oracle: KoszulOracle, i: int, v) -> int:
    """Vectors ``KoszulOracle.rank`` feeds its eliminator: the columns, or
    the nonzero rows when there are fewer rows than columns."""
    cols = oracle.columns(i, v)
    if len(cols) <= oracle.dimension(i - 1, v):
        return len(cols)
    return len({r for col in cols for r in col})


def staged_tor(tr: Tracer, item: str, f, fld=QQ) -> BettiTable:
    """``tor_over_S(f, fld=fld, workers=1)``, one layer at a time."""
    ring = ring_for_family(f, fld)
    oracle = KoszulOracle(ring)
    nvars = ring.nvars
    betti_keys = [(i, v) for i in range(projective_dimension(f) + 1)
                  for v in bidegrees_up_to_total(i + 3)]

    with tr.span("quotient.piece", item):
        first = {w for i, v in betti_keys for w in _quotient_degrees(ring, i, v)}
        _fill_pieces(tr, ring, first)
        live = [(i, v) for i, v in betti_keys
                if any(ring.dim(w) for w in _quotient_degrees(ring, i, v))]
        rank_keys = sorted({(k, v) for i, v in live for k in (i, i + 1)
                            if 1 <= k <= nvars})
        dd_keys = sorted({(k, v) for i, v in live for k in (i, i + 1)
                          if 2 <= k <= nvars})
        col_keys = sorted(set(rank_keys) | set(dd_keys)
                          | {(k - 1, v) for k, v in dd_keys})
        basis_keys = sorted(set(betti_keys)
                            | {(k - d, v) for k, v in col_keys for d in (0, 1)})
        rest = {w for j, v in basis_keys for w in _quotient_degrees(ring, j, v)}
        _fill_pieces(tr, ring, rest - first)

    with tr.span("oracle.basis", item):
        for key in basis_keys:
            oracle.basis(*key)
    dims = [oracle.dimension(*key) for key in basis_keys]
    tr.add("oracle.chain_pieces", sum(1 for d in dims if d))
    tr.maximum("oracle.max_piece_dim", max(dims))

    with tr.span("quotient.mult", item):
        for i, v in col_keys:
            targets = {eps for eps, _, _, _ in oracle.basis(i - 1, v)[0]}
            for eps, w, _, _ in oracle.basis(i, v)[0]:
                for r in range(len(eps)):
                    if eps[:r] + eps[r + 1:] in targets:
                        ring.mult_by_var(eps[r], w)

    with tr.span("oracle.columns", item):
        for key in col_keys:
            oracle.columns(*key)
    tr.add("oracle.columns_nnz",
           sum(len(col) for key in col_keys for col in oracle.columns(*key)))

    with tr.span("linalg.rank", item):
        for key in rank_keys:
            oracle.rank(*key)
    tr.add("linalg.rank_sum", sum(oracle.rank(*key) for key in rank_keys))
    tr.add("linalg.rank_vectors", sum(_rank_vectors(oracle, *key)
                                      for key in rank_keys))

    with tr.span("oracle.dd", item):
        for key in dd_keys:
            oracle.check_dd(*key)

    # The table as tor_over_S assembles it; every rank is cached by now.
    entries, boundary = {}, []
    for i, v in betti_keys:
        b = oracle.betti(i, v)
        if b:
            entries[(i, v)] = b
            if total(v) == i + 3:
                boundary.append((i, v))
    return BettiTable(str(f.kind.value), f.n, entries, source="oracle",
                      field=str(fld), boundary_hits=boundary)


# -- resolution and Hilbert oracle ---------------------------------------------

def staged_resolve(tr: Tracer, item: str, f, max_i: int,
                   max_total_degree: int, fld=QQ) -> BettiTable:
    """``resolve_k_over_quotient`` on a ring whose pieces are already built.

    The resolution touches exactly the pieces of total degree up to its
    window, so they are built first and the ring is handed in.
    """
    ring = ring_for_family(f, fld)
    with tr.span("quotient.piece", item):
        _fill_pieces(tr, ring, bidegrees_up_to_total(max_total_degree))
    with mock.patch.object(resolution, "ring_for_family", lambda *_: ring), \
            tr.span("resolution.resolve", item):
        table = resolution.resolve_k_over_quotient(f, max_i, max_total_degree, fld)
    tr.add("resolution.generators", sum(table.entries.values()))
    return table


def staged_hilbert(tr: Tracer, item: str, f, order: int,
                   fld=QQ) -> TruncatedSeries:
    """``hilbert_oracle``, with every ideal rank taken before the series."""
    ring = ring_for_family(f, fld)
    degrees = list(bidegrees_up_to_total(order))
    with tr.span("quotient.ideal_rank", item):
        ranks = [ring.ideal_rank(v) for v in degrees]
    tr.add("pieces.span_rank", sum(ranks))
    tr.add("pieces.span_vectors", sum(_span_vectors(ring, v) for v in degrees))
    coeffs = {}
    for v in degrees:
        d = ring.quotient_dim_fast(v)
        if d:
            coeffs[v] = d
    return TruncatedSeries.make(("s", "t"), order, coeffs)


# -- items ----------------------------------------------------------------------

def staged_item(tr: Tracer, item):
    """One workload item, stage by stage, under an ``item`` span."""
    with tr.span("item", item.label):
        if item.kind == "oracle":
            return staged_tor(tr, item.label, item.family, item.field)
        if item.kind == "resolve":
            return staged_resolve(tr, item.label, item.family, item.max_i,
                                  item.max_total_degree, item.field)
        return traced_verify(tr, item.label, item.suite)


def staged_check(tr: Tracer, item, result):
    """``workloads.check`` under a ``closed`` span: the closed forms it uses
    are most of its time."""
    with tr.span("closed", item.label):
        return check(item, result)


# -- verify ---------------------------------------------------------------------

def _spanned(tr: Tracer, item: str, name: str, fn):
    def call(*args, **kwargs):
        with tr.span(name, item):
            return fn(*args, **kwargs)
    return call


def traced_verify(tr: Tracer, item: str, suite: str) -> list:
    """The checks of one verify suite, under a span of its own."""
    patches = {
        "tor_over_S": lambda f, fld=QQ: staged_tor(tr, item, f, fld),
        "hilbert_oracle":
            lambda f, order, fld=QQ: staged_hilbert(tr, item, f, order, fld),
        "resolve_k_over_quotient":
            lambda f, i, d, fld=QQ: staged_resolve(tr, item, f, i, d, fld),
    }
    for name in ("pieces_equal", "piece_contains"):
        patches[name] = _spanned(tr, item, "pieces.structure", getattr(verify, name))
    for name in ("betti_closed", "hilbert_closed", "euler_check", "froberg_product"):
        patches[name] = _spanned(tr, item, "closed", getattr(verify, name))
    with ExitStack() as stack:
        for name, fn in patches.items():
            stack.enter_context(mock.patch.object(verify, name, fn))
        with tr.span(f"verify.{suite}", item):
            return getattr(verify, f"suite_{suite}")()

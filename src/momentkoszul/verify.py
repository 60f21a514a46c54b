"""Cross-verification suites: closed forms against the brute-force oracle,
the bundled reference tables, and the combinatorial identities.

Every check returns (name, ok, detail); suites aggregate them.  The ``betti``
suite is the expensive one (full graded Tor for every family in range).
"""

from __future__ import annotations

from .closed import (
    betti_closed,
    euler_check,
    froberg_product,
    hilbert_closed,
    poincare_k_over_so,
)
from .combinat import (
    catalan,
    catalan_strand_identity,
    segner_check,
    triangle_moment_check,
)
from .exterior import exterior_mult_rank, symmetric_identity_check
from .fields import DEFAULT_PRIME, GF, QQ
from .ideals import family, generators, sp_relabeled_generators
from .monomials import bidegrees_up_to_total, total
from .oracle import depth_zero_witness, hilbert_oracle, socle, tor_over_S
from .quotient import piece_contains, pieces_equal
from .reference import SL_FRAMED, SL_TABLES, SP_TABLES, strand_grid
from .resolution import resolve_k_over_quotient
from .verdicts import verdict


ORACLE_RANGE = [("gl", 1), ("gl", 2), ("gl", 3),
                ("sl", 1), ("sl", 2), ("sl", 3),
                ("so", 1), ("so", 2), ("so", 3),
                ("sp", 1), ("sp", 2)]

#: Truncation order of the ``hilbert`` and ``euler`` suites.
SERIES_ORDER = 10


def check(name, ok, detail=""):
    return (name, bool(ok), detail)


def suite_reference_tables():
    checks = []
    for kind, tables in (("sl", SL_TABLES), ("sp", SP_TABLES)):
        for n, grid in tables.items():
            got = strand_grid(betti_closed(family(kind, n)))
            checks.append(check(f"reference-table {kind}_{n}", got == grid,
                                "" if got == grid else f"got {sorted(got.items())}"))
    for n, framed in SL_FRAMED.items():
        got = betti_closed(family("sl", n)).total_beta(n)
        ok = got == framed == catalan(n + 1)
        checks.append(check(f"framed-catalan sl_{n}", ok, f"beta_{n} = {got}"))
    for n in range(1, 11):
        ok = all(catalan_strand_identity(n, i) for i in range(n, 2 * n + 1))
        checks.append(check(f"catalan-strand-identity n={n}", ok))
    checks.append(check("segner-recursion m<=8",
                        all(segner_check(m) for m in range(9))))
    checks.append(check("triangle-moment N<=8",
                        all(triangle_moment_check(N, r)
                            for N in range(1, 9) for r in range(1, N + 1))))
    return checks


def suite_hilbert():
    checks = []
    for kind, n in ORACLE_RANGE:
        f = family(kind, n)
        closed = hilbert_closed(f, SERIES_ORDER)
        oracle = hilbert_oracle(f, SERIES_ORDER)
        ok = closed.coefficients == oracle.coefficients
        detail = ""
        if not ok:
            diff = closed - oracle
            e = min(diff.coefficients, key=lambda x: (sum(x), x))
            detail = f"first mismatch at {e}"
        checks.append(check(f"hilbert {f}", ok, detail))
    return checks


def suite_betti():
    checks = []
    for kind, n in ORACLE_RANGE:
        f = family(kind, n)
        closed = betti_closed(f)
        oracle = tor_over_S(f, fld=QQ)
        diff = closed.diff(oracle)
        ok = not diff and not oracle.boundary_hits
        detail = ""
        if diff:
            detail = f"first diff {diff[0]}"
        elif oracle.boundary_hits:
            detail = f"homology on the degree boundary: {oracle.boundary_hits}"
        checks.append(check(f"betti {f} [{QQ}]", ok, detail))
    return checks


def suite_exterior():
    checks = []
    for n in range(1, 5):
        for fld in (QQ, GF(3), GF(DEFAULT_PRIME)):
            ok = all(exterior_mult_rank(n, i, fld)[1] for i in range(0, 2 * n - 1))
            checks.append(check(f"exterior-maximal-rank n={n} [{fld}]", ok))
    for fld in (QQ, GF(7)):
        ok = all(
            symmetric_identity_check(u, v, d, fld)
            for u in range(1, 5) for v in range(1, 5) for d in range(5)
        )
        checks.append(check(f"square-zero-identity u,v<=4 d<=4 [{fld}]", ok))
    return checks


def suite_euler():
    checks = []
    for kind, n in ORACLE_RANGE:
        f = family(kind, n)
        ok, mismatch = euler_check(f, SERIES_ORDER)
        checks.append(check(f"euler {f}", ok, "" if ok else str(mismatch)))
    return checks


def suite_structure():
    """Generator-level cross-checks: inclusions and alternative generators."""
    checks = []
    degrees = [v for v in bidegrees_up_to_total(6) if total(v) >= 2]
    for n in (1, 2, 3):
        gl = generators(family("gl", n))
        sl = generators(family("sl", n))
        # sl_1 has no generators, and an empty list has no ambient
        ok = not sl or piece_contains(gl, sl, degrees)
        checks.append(check(f"sl-inside-gl n={n}", ok))
    for n in (1, 2, 3):
        sp = generators(family("sp", n))
        alt = sp_relabeled_generators(n)
        checks.append(check(f"sp-relabeled-generators n={n}",
                            pieces_equal(sp, alt, degrees)))
    return checks


def suite_froberg():
    checks = []
    for n in (2, 3):
        f = family("so", n)
        prod = froberg_product(
            poincare_k_over_so(n, 8), hilbert_closed(f, 8).collapse("u"), 8)
        checks.append(check(f"froberg so_{n} (closed, order 8)", prod.is_one(),
                            "" if prod.is_one() else str(prod)))
    f = family("gl", 2)
    table = resolve_k_over_quotient(f, 5, 6)
    pseries = table_poincare_totals(table, 5)
    hseries = hilbert_closed(f, 5).collapse("u")
    prod = froberg_product(pseries, hseries, 5)
    checks.append(check("froberg gl_2 (oracle resolution, order 6)", prod.is_one(),
                        "" if prod.is_one() else str(prod)))
    return checks


def table_poincare_totals(table, order: int):
    """Totals of a Betti table as a series in u."""
    from .series import TruncatedSeries

    coeffs = {}
    for (i, _), c in table.entries.items():
        if i <= order:
            coeffs[(i,)] = coeffs.get((i,), 0) + c
    return TruncatedSeries.make(("u",), order, coeffs)


def suite_socle():
    checks = []
    expected = {
        ("gl", 2): None,
        ("so", 2): None,
        ("so", 3): None,
        ("sl", 2): (1, 1),
        ("sl", 3): (1, 1),
        ("sp", 1): (1, 1),
        ("sp", 2): (1, 1),
    }
    for (kind, n), want in expected.items():
        f = family(kind, n)
        witness = depth_zero_witness(f)
        if want is None:
            checks.append(check(f"no-low-degree-socle {f}", witness is None,
                                "" if witness is None else str(witness)))
        else:
            ok = witness is not None and witness[0] == want
            checks.append(check(f"socle-witness {f}", ok, str(witness)))
    soc = socle(family("sp", 2), 4)
    checks.append(check("socle sp_2 rank", soc == {(1, 1): 6}, str(soc)))
    return checks


def suite_verdicts():
    checks = []
    expected = {
        ("gl", 1): "koszul", ("gl", 5): "koszul",
        ("so", 2): "koszul", ("so", 3): "koszul",
        ("sl", 2): "not-koszul", ("sl", 4): "not-koszul",
        ("sp", 1): "not-koszul", ("sp", 2): "not-koszul", ("sp", 4): "not-koszul",
    }
    for (kind, n), want in expected.items():
        got = verdict(family(kind, n)).verdict
        checks.append(check(f"verdict {kind}_{n}", got == want, got))
    return checks


#: The named suites, in the order ``run_suite("all")`` runs them.
SUITES = {
    "appendixB": suite_reference_tables,
    "hilbert": suite_hilbert,
    "exterior": suite_exterior,
    "euler": suite_euler,
    "structure": suite_structure,
    "froberg": suite_froberg,
    "socle": suite_socle,
    "verdicts": suite_verdicts,
    "betti": suite_betti,
}


def run_suite(name: str):
    """Run one suite (or everything); returns (checks, exit_code)."""
    if name == "all":
        checks = []
        checks += suite_reference_tables()
        checks += suite_hilbert()
        checks += suite_exterior()
        checks += suite_euler()
        checks += suite_structure()
        checks += suite_froberg()
        checks += suite_socle()
        checks += suite_verdicts()
        checks += suite_betti()
    elif name in SUITES:
        checks = SUITES[name]()
    else:
        raise ValueError(f"unknown suite {name!r}")
    code = 0 if all(ok for _, ok, _ in checks) else 1
    return checks, code

"""Koszulness certificates and obstructions, combined into per-family verdicts.

Positive certificates: quadratic monomial generators; a complete linear
strand over the ambient ring (top(i) = i+1 through the projective dimension).
Obstructions: the diagonal Betti-number inequality beta_i at total degree 2i
against C(beta_1, i); a residue-field resolution whose top degree jumps above
the homological degree.  A truncated product check (the residue-field series
against the Hilbert series) is recorded as evidence only, since a finite window
can never certify Koszulness.

The verdict is read off the evidence by one rule: "not-koszul" when some
evidence has ``passed=False`` (an obstruction that holds, computed or cited),
"koszul" when some has ``passed=True`` (a certificate that holds), and
"undetermined" otherwise.  A certificate that fails and an obstruction that
finds nothing are informational (``passed=None``).  Evidence of both kinds at
once is a contradiction and raises ``AssertionError``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field as dc_field
from math import comb

from .betti import BettiTable
from .closed import betti_closed, froberg_product, hilbert_closed, poincare_k_over_so
from .fields import QQ, Field
from .ideals import FamilyKind, RepFamily, generators
from .monomials import total
from .resolution import resolve_k_over_quotient


@dataclass
class Evidence:
    """One certificate or obstruction: computed here when ``cited`` is None,
    otherwise taken from the source ``cited`` names."""

    name: str
    detail: str
    passed: bool | None  # None: informational only
    cited: str | None = None

    def __str__(self) -> str:
        status = {True: "pass", False: "fail", None: "info"}[self.passed]
        if self.cited:
            status += f", cited from {self.cited}"
        return f"[{status}] {self.name}: {self.detail}"


@dataclass
class KoszulVerdict:
    family: str
    n: int
    evidence: list[Evidence] = dc_field(default_factory=list)
    # (i, v) of a computed resolution at its degree bound, as in BettiTable
    boundary_hits: list = dc_field(default_factory=list)

    @property
    def verdict(self) -> str:
        passed = {e.passed for e in self.evidence}
        if True in passed and False in passed:
            raise AssertionError(
                f"{self.family}_{self.n}: a certificate and an obstruction both hold")
        if False in passed:
            return "not-koszul"
        return "koszul" if True in passed else "undetermined"

    def summary(self) -> str:
        head = f"{self.family}_{self.n}: {self.verdict}"
        return "\n".join([head] + [f"  {e}" for e in self.evidence])

    def render_json(self) -> str:
        return json.dumps({
            "family": self.family,
            "n": self.n,
            "verdict": self.verdict,
            "evidence": [asdict(e) for e in self.evidence],
        }, indent=2)


def quadratic_monomial_certificate(gens) -> bool:
    """True iff every generator is a single monomial of total degree 2."""
    for g in gens:
        v = g.bidegree()
        if v is None or total(v) != 2 or not g.is_monomial():
            return False
    return True


def aci_obstruction(table: BettiTable):
    """Check beta_1 = beta_1 in degree 2, then beta_i at total 2i <= C(beta_1, i).

    Returns (violated, first_violation) with first_violation = (i, lhs, rhs).
    """
    beta1 = table.total_beta(1)
    beta1_deg2 = sum(c for (i, v), c in table.entries.items() if i == 1 and total(v) == 2)
    if beta1 != beta1_deg2:
        return True, (1, beta1, beta1_deg2)
    for i in range(2, table.max_i() + 1):
        lhs = sum(c for (j, v), c in table.entries.items() if j == i and total(v) == 2 * i)
        rhs = comb(beta1, i)
        if lhs > rhs:
            return True, (i, lhs, rhs)
    return False, None


def serre_linear_strand_certificate(table: BettiTable) -> tuple[int, bool]:
    """Largest s with top(i) <= i+1 for all i <= s; full when s reaches the
    projective dimension of the table (then the algebra is Koszul)."""
    pd = table.max_i()
    s = 0
    for i in range(1, pd + 1):
        top = table.top(i)
        if top is not None and top > i + 1:
            break
        s = i
    return s, s == pd


def resolution_jump(f: RepFamily, fld: Field = QQ,
                    max_i: int | None = None,
                    max_total_degree: int | None = None):
    """``(jump, boundary_hits)`` of the residue-field resolution in the
    window (default i <= n + 1, total degree <= n + 3): jump is the first
    (i, top_i) with top_i > i, or None; boundary_hits is the table's."""
    max_i = f.n + 1 if max_i is None else max_i
    max_total_degree = f.n + 3 if max_total_degree is None else max_total_degree
    table = resolve_k_over_quotient(f, max_i, max_total_degree, fld)
    for i in range(1, max_i + 1):
        top = table.top(i)
        if top is not None and top > i:
            return (i, top), table.boundary_hits
    return None, table.boundary_hits


def _diagonal_inequality(table: BettiTable) -> Evidence | None:
    """The first violation of the diagonal inequality in ``table`` as an
    obstruction that holds, or None.  Every Koszul algebra satisfies the
    inequality (Avramov, Conca and Iyengar, 2010), so a violation fails the
    family whatever other evidence it has."""
    violated, first = aci_obstruction(table)
    if not violated:
        return None
    i, lhs, rhs = first
    detail = (f"beta_1 is {lhs} > {rhs}, its part in total degree 2" if i == 1
              else f"beta_{i} in total degree {2 * i} is {lhs} > C(beta_1, {i}) = {rhs}")
    return Evidence("diagonal-inequality-obstruction", detail, False)


def verdict(f: RepFamily, fld: Field = QQ) -> KoszulVerdict:
    """Collect the family's evidence: the monomial certificate for gl (and
    the empty sl_1), the linear strand for so, the resolution jump for sl
    (computed for n <= 3, cited above), the diagonal inequality for sp, and
    for sl where it breaks (sl_2)."""
    n = f.n
    mono_cert = quadratic_monomial_certificate(generators(f))
    ev = [Evidence(
        "quadratic-monomial-certificate",
        "all generators are quadratic monomials" if mono_cert
        else "generators include non-monomial quadrics",
        mono_cert or None,
    )]
    out = KoszulVerdict(f.kind.value, n, ev)
    if mono_cert:
        return out
    table = betti_closed(f)

    if f.kind is FamilyKind.SO:
        s, full = serre_linear_strand_certificate(table)
        ev.append(Evidence(
            "linear-strand-certificate",
            f"top(i) <= i+1 holds through s={s} of projective dimension {table.max_i()}",
            full or None,
        ))
        check = froberg_product(poincare_k_over_so(n, 8),
                                hilbert_closed(f, 8).collapse("u"), 8)
        ev.append(Evidence(
            "series-product-check",
            "P(-u) * H(u) = 1 through order 8" if check.is_one()
            else f"P(-u) * H(u) != 1: {check}",
            None,
        ))
    elif f.kind is FamilyKind.SP:
        ev.append(_diagonal_inequality(table) or Evidence(
            "diagonal-inequality-obstruction", "no violation in the closed table", None))
    elif f.kind is FamilyKind.SL:
        diagonal = _diagonal_inequality(table)
        if diagonal:
            ev.append(diagonal)
        if n <= 3:
            jump, out.boundary_hits = resolution_jump(f, fld)
            ev.append(Evidence(
                "resolution-top-degree-obstruction",
                f"top_{jump[0]} of the residue field resolution is {jump[1]} > {jump[0]}"
                if jump else "no jump found inside the resource window",
                False if jump else None,
            ))
        else:
            ev.append(Evidence(
                "resolution-top-degree-obstruction",
                f"oracle bound exceeded at n={n}; the degree jump at step n+1 is "
                "established for the family in general and not recomputed here",
                False,
                cited="arXiv 1705.02688",
            ))
    return out

"""Sparse bihomogeneous-capable polynomials with exact rational coefficients.

A polynomial stores only its nonzero terms, as ``Monomial -> coefficient``,
each coefficient as given: a plain int (every moment-map generator has
coefficients +-1) or a ``Fraction``.  Coefficients are mapped into a field
only when a matrix is assembled.  The ambient is the pair (num_p, num_q).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .linalg import InvalidInputError
from .monomials import BiDegree, Monomial, bidegree_of, multiply_monomials


@dataclass(frozen=True)
class Polynomial:
    num_p: int
    num_q: int
    terms: tuple[tuple[Monomial, object], ...]  # canonical: descending lex

    @staticmethod
    def from_dict(num_p: int, num_q: int, terms: dict) -> "Polynomial":
        items = tuple(
            (m, c) for m, c in sorted(terms.items(), reverse=True) if c != 0)
        return Polynomial(num_p, num_q, items)

    @property
    def nvars(self) -> int:
        return self.num_p + self.num_q

    def is_zero(self) -> bool:
        return not self.terms

    def is_bihomogeneous(self) -> bool:
        return not self.terms or self.bidegree() is not None

    def bidegree(self) -> BiDegree | None:
        """Common bidegree of all terms, or None for 0 / inhomogeneous input."""
        return self._bidegree

    @cached_property
    def _bidegree(self) -> BiDegree | None:
        # computed once: the polynomial is frozen
        degs = {bidegree_of(m, self.num_p) for m, _ in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def times_monomial(self, mono: Monomial) -> "Polynomial":
        return Polynomial(
            self.num_p, self.num_q,
            tuple((multiply_monomials(m, mono), c) for m, c in self.terms),
        )

    def _same_ambient(self, other: "Polynomial"):
        if (self.num_p, self.num_q) != (other.num_p, other.num_q):
            raise InvalidInputError("mixed ambient variable counts")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._same_ambient(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, 0) + c
        return Polynomial.from_dict(self.num_p, self.num_q, acc)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.num_p, self.num_q, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._same_ambient(other)
        acc: dict[Monomial, object] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = multiply_monomials(m1, m2)
                acc[m] = acc.get(m, 0) + c1 * c2
        return Polynomial.from_dict(self.num_p, self.num_q, acc)

    def __str__(self) -> str:
        return format_polynomial(self)


def variable_names(num_p: int, num_q: int, doubled: bool = False) -> list[str]:
    """p1..pN / q1..qN; a doubled alphabet (the symplectic ambient, num_p = 2n)
    flattens the double index as p1j, p2j / q1j, q2j."""
    if doubled:
        if num_p % 2:
            raise ValueError("doubled naming needs an even variable count")
        n = num_p // 2
        ps = [f"p1{j}" for j in range(1, n + 1)] + [f"p2{j}" for j in range(1, n + 1)]
        qs = [f"q1{j}" for j in range(1, n + 1)] + [f"q2{j}" for j in range(1, n + 1)]
        return ps + qs
    return [f"p{i}" for i in range(1, num_p + 1)] + [f"q{i}" for i in range(1, num_q + 1)]


def format_monomial(mono: Monomial, names: list[str]) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(names[i])
        elif e > 1:
            parts.append(f"{names[i]}^{e}")
    return "*".join(parts) if parts else "1"


def format_polynomial(poly: Polynomial, doubled: bool = False) -> str:
    if poly.is_zero():
        return "0"
    names = variable_names(poly.num_p, poly.num_q, doubled)
    out = []
    for k, (m, c) in enumerate(poly.terms):
        mono = format_monomial(m, names)
        mag = abs(c)
        body = mono if (mag == 1 and mono != "1") else (
            str(mag) if mono == "1" else f"{mag}*{mono}"
        )
        if k == 0:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out)

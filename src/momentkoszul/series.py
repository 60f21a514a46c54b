"""Integer-coefficient power series in up to three variables, truncated by
total degree.

A series carries its variable tuple (a subset of (s, t, u), in that order),
its truncation order, and a sparse map exponent-tuple -> int.  All ring
operations are exact up to the truncation order; anything of higher total
degree is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

CANONICAL_VARS = ("s", "t", "u")


class SeriesError(ValueError):
    pass


@dataclass(frozen=True)
class TruncatedSeries:
    variables: tuple[str, ...]
    order: int
    coefficients: dict  # exponent tuple -> int, total degree <= order, no zeros

    @staticmethod
    def make(variables, order: int, coefficients: dict | None = None) -> "TruncatedSeries":
        variables = tuple(variables)
        if any(v not in CANONICAL_VARS for v in variables):
            raise SeriesError(f"variables must come from {CANONICAL_VARS}")
        if tuple(sorted(variables, key=CANONICAL_VARS.index)) != variables:
            raise SeriesError("variables must be listed in canonical (s, t, u) order")
        coeffs = {}
        for e, c in (coefficients or {}).items():
            if len(e) != len(variables):
                raise SeriesError("exponent arity mismatch")
            if sum(e) <= order and c != 0:
                coeffs[tuple(e)] = c
        return TruncatedSeries(variables, order, coeffs)

    @staticmethod
    def one(variables, order: int) -> "TruncatedSeries":
        variables = tuple(variables)
        return TruncatedSeries.make(variables, order, {(0,) * len(variables): 1})

    @staticmethod
    def monomial(variables, order: int, exponents, coeff: int = 1) -> "TruncatedSeries":
        return TruncatedSeries.make(variables, order, {tuple(exponents): coeff})

    def coefficient(self, exponents) -> int:
        return self.coefficients.get(tuple(exponents), 0)

    def _exp(self, var: str) -> int:
        return self.variables.index(var)

    def _compatible(self, other: "TruncatedSeries") -> int:
        if self.variables != other.variables:
            raise SeriesError("variable mismatch")
        return min(self.order, other.order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = self._compatible(other)
        acc = dict(self.coefficients)
        for e, c in other.coefficients.items():
            acc[e] = acc.get(e, 0) + c
        return TruncatedSeries.make(self.variables, order, acc)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries.make(
            self.variables, self.order, {e: -c for e, c in self.coefficients.items()}
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = self._compatible(other)
        acc: dict[tuple, int] = {}
        for e1, c1 in self.coefficients.items():
            d1 = sum(e1)
            for e2, c2 in other.coefficients.items():
                if d1 + sum(e2) > order:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        return TruncatedSeries.make(self.variables, order, acc)

    def power(self, k: int) -> "TruncatedSeries":
        if k < 0:
            raise SeriesError("negative power; use inverse() first")
        result = TruncatedSeries.one(self.variables, self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be a unit integer (+-1)."""
        c0 = self.coefficient((0,) * len(self.variables))
        if c0 not in (1, -1):
            raise SeriesError(f"inverse needs constant term +-1, got {c0}")
        # Newton-free recursion by total degree: b_d = -c0 * sum_{0<e<=d} a_e b_{d-e}
        by_degree: dict[int, dict[tuple, int]] = {}
        for e, c in self.coefficients.items():
            by_degree.setdefault(sum(e), {})[e] = c
        inv: dict[tuple, int] = {(0,) * len(self.variables): c0}
        inv_by_degree: dict[int, dict[tuple, int]] = {0: dict(inv)}
        for d in range(1, self.order + 1):
            layer: dict[tuple, int] = {}
            for da, terms in by_degree.items():
                if da == 0 or da > d:
                    continue
                lower = inv_by_degree.get(d - da)
                if not lower:
                    continue
                for ea, ca in terms.items():
                    for eb, cb in lower.items():
                        e = tuple(x + y for x, y in zip(ea, eb))
                        layer[e] = layer.get(e, 0) - c0 * ca * cb
            layer = {e: c for e, c in layer.items() if c}
            if layer:
                inv_by_degree[d] = layer
                inv.update(layer)
        return TruncatedSeries.make(self.variables, self.order, inv)

    def substitute_neg(self, var: str) -> "TruncatedSeries":
        """Substitute var -> -var."""
        i = self._exp(var)
        return TruncatedSeries.make(
            self.variables, self.order,
            {e: (-c if e[i] % 2 else c) for e, c in self.coefficients.items()},
        )

    def collapse(self, target: str) -> "TruncatedSeries":
        """Map every variable to ``target`` (total-degree specialization)."""
        acc: dict[tuple, int] = {}
        for e, c in self.coefficients.items():
            key = (sum(e),)
            acc[key] = acc.get(key, 0) + c
        return TruncatedSeries.make((target,), self.order, acc)

    def positive_part(self) -> "TruncatedSeries":
        """Drop exactly the terms with negative coefficient."""
        return TruncatedSeries.make(
            self.variables, self.order,
            {e: c for e, c in self.coefficients.items() if c > 0},
        )

    def restricted_to(self, order: int) -> "TruncatedSeries":
        return TruncatedSeries.make(self.variables, order, self.coefficients)

    def is_one(self) -> bool:
        return self.coefficients == {(0,) * len(self.variables): 1}

    def terms_sorted(self):
        return sorted(self.coefficients.items(), key=lambda item: (sum(item[0]), item[0]))

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for e, c in self.terms_sorted():
            body = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.variables, e) if k
            )
            mag = abs(c)
            txt = body if (mag == 1 and body) else (f"{mag}*{body}" if body else str(mag))
            parts.append(("- " if c < 0 else "+ ") + txt if parts else
                         ("-" + txt if c < 0 else txt))
        return " ".join(parts)


def geometric_inverse_power(variables, order: int, var: str, n: int) -> TruncatedSeries:
    """The expansion of 1/(1-var)^n: coefficient of var^a is C(n+a-1, a)."""
    variables = tuple(variables)
    i = variables.index(var)
    coeffs = {}
    for a in range(order + 1):
        e = [0] * len(variables)
        e[i] = a
        coeffs[tuple(e)] = comb(n + a - 1, a)
    return TruncatedSeries.make(variables, order, coeffs)

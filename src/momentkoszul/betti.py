"""Graded Betti tables: entries, totals, strand layout, serialization.

A table maps (homological degree i, bidegree v) to a positive integer.  The
text rendering follows the familiar strand layout: columns are i, row r
collects the entries of total internal degree i + r, zeros print as dashes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .monomials import BiDegree, total


@dataclass
class BettiTable:
    family: str
    n: int
    entries: dict  # (i, (v1, v2)) -> positive int
    source: str = "closed"          # "closed" | "oracle" | "oracle-resolution"
    field: str = "QQ"
    boundary_hits: list = dc_field(default_factory=list)  # (i, v) at the degree bound

    def __post_init__(self):
        self.entries = {
            (i, tuple(v)): int(c) for (i, v), c in self.entries.items() if c
        }
        if not all(c > 0 for c in self.entries.values()):
            raise AssertionError

    def beta(self, i: int, v: BiDegree) -> int:
        return self.entries.get((i, tuple(v)), 0)

    def total_beta(self, i: int) -> int:
        return sum(c for (j, _), c in self.entries.items() if j == i)

    def totals(self) -> list[int]:
        out = [self.total_beta(i) for i in range(self.max_i() + 1)]
        return out

    def max_i(self) -> int:
        return max((i for (i, _) in self.entries), default=0)

    def top(self, i: int) -> int | None:
        degs = [total(v) for (j, v) in self.entries if j == i]
        return max(degs) if degs else None

    def is_symmetric(self) -> bool:
        return all(
            c == self.entries.get((i, (v[1], v[0])), 0)
            for (i, v), c in self.entries.items()
        )

    def restricted(self, max_i: int | None = None) -> "BettiTable":
        if max_i is None:
            return self
        return BettiTable(
            self.family, self.n,
            {(i, v): c for (i, v), c in self.entries.items() if i <= max_i},
            self.source, self.field, list(self.boundary_hits),
        )

    def sorted_entries(self):
        return sorted(self.entries.items())

    def diff(self, other: "BettiTable") -> list[tuple[int, BiDegree, int, int]]:
        """Entries where the two tables disagree: (i, v, self, other)."""
        keys = set(self.entries) | set(other.entries)
        out = []
        for key in sorted(keys):
            a = self.entries.get(key, 0)
            b = other.entries.get(key, 0)
            if a != b:
                out.append((key[0], key[1], a, b))
        return out

    # -- rendering ---------------------------------------------------------

    def render_text(self) -> str:
        max_i = self.max_i()
        grid = strand_grid(self)
        strands = {r for (r, _) in grid} | {0}
        header = [""] + [str(i) for i in range(max_i + 1)]
        rows = [header]
        for r in range(min(strands), max(strands) + 1):
            row = [str(r)]
            for i in range(max_i + 1):
                c = grid.get((r, i), 0)
                row.append(str(c) if c else "-")
            rows.append(row)
        widths = [max(len(row[k]) for row in rows) for k in range(len(header))]
        lines = [
            "  ".join(cell.rjust(widths[k]) for k, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        label = f"{self.family}_{self.n} ({self.source}, {self.field})"
        return label + "\n" + "\n".join(lines)

    def render_csv(self) -> str:
        lines = ["i,v1,v2,beta"]
        for (i, v), c in self.sorted_entries():
            lines.append(f"{i},{v[0]},{v[1]},{c}")
        return "\n".join(lines)

    def as_json_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "field": self.field,
            "source": self.source,
            "entries": [
                {"i": i, "v1": v[0], "v2": v[1], "beta": c}
                for (i, v), c in self.sorted_entries()
            ],
        }

    def render_json(self) -> str:
        return json.dumps(self.as_json_dict(), indent=2)


def strand_grid(table: BettiTable) -> dict:
    """Collapse a graded table to its (strand, i) -> total grid, where the
    strand is the total internal degree minus i."""
    grid: dict[tuple[int, int], int] = {}
    for (i, v), c in table.entries.items():
        key = (total(v) - i, i)
        grid[key] = grid.get(key, 0) + c
    return grid

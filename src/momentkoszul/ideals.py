"""Generator lists for the moment-map ideals of the four classical families.

Conventions (n >= 1 throughout):

* gl: n p-variables, n q-variables; generators p_i q_j for all i, j.
* sl: same ambient; p_i q_j for i != j, then the differences
  p_i q_i - p_{i+1} q_{i+1} for i = 1..n-1.
* so: same ambient; the 2x2 minors p_i q_j - p_j q_i for i < j.
* sp: 2n p-variables (p_11..p_1n, p_21..p_2n) and likewise 2n q-variables.
  Generators, in display order:
    (1) p_1i q_1j - p_2i q_2j          for all i, j
    (2) p_1i q_2i for all i, then p_2i q_1i for all i
    (3) p_1i q_2j + p_1j q_2i          for i < j
    (4) p_2i q_1j + p_2j q_1i          for i < j
  totalling 2n^2 + n quadrics.

All generators are bihomogeneous of bidegree (1,1).  Enumeration order is
row-major over (i, j) within each sub-list; this fixes the output of the
``gens`` command.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .fields import Field, InvalidFieldError
from .polynomials import Polynomial


class FamilyKind(str, Enum):
    GL = "gl"
    SL = "sl"
    SO = "so"
    SP = "sp"


@dataclass(frozen=True)
class RepFamily:
    kind: FamilyKind
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def num_p(self) -> int:
        return 2 * self.n if self.kind is FamilyKind.SP else self.n

    @property
    def num_q(self) -> int:
        return self.num_p

    @property
    def doubled_names(self) -> bool:
        """Whether variables print with the flattened double index (sp only)."""
        return self.kind is FamilyKind.SP

    @property
    def generator_count(self) -> int:
        n = self.n
        return {
            FamilyKind.GL: n * n,
            FamilyKind.SL: n * n - 1,
            FamilyKind.SO: n * (n - 1) // 2,
            FamilyKind.SP: 2 * n * n + n,
        }[self.kind]

    def check_field(self, fld: Field):
        """Raise when the field characteristic breaks this family's theory."""
        if self.kind is FamilyKind.SL and fld.char != 0 and fld.char <= (self.n + 1) / 2:
            raise InvalidFieldError(
                f"sl with n={self.n} needs characteristic 0 or > {(self.n + 1) / 2}"
            )
        if self.kind is FamilyKind.SP and fld.char == 2:
            raise InvalidFieldError("sp requires characteristic != 2")

    def __str__(self) -> str:
        return f"{self.kind.value}_{self.n}"


def family(kind: str, n: int) -> RepFamily:
    return RepFamily(FamilyKind(kind.lower()), n)


def _pq(num_p: int, i: int, j: int, coeff=1) -> Polynomial:
    """coeff * p_i q_j (1-based indices into each block)."""
    mono = [0] * (2 * num_p)
    mono[i - 1] = 1
    mono[num_p + j - 1] += 1
    return Polynomial.from_dict(num_p, num_p, {tuple(mono): coeff})


def generators(f: RepFamily) -> list[Polynomial]:
    """The moment-map quadrics of the standard representation, in canonical order."""
    n = f.n
    N = f.num_p
    gens: list[Polynomial] = []
    if f.kind is FamilyKind.GL:
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                gens.append(_pq(N, i, j))
    elif f.kind is FamilyKind.SL:
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    gens.append(_pq(N, i, j))
        for i in range(1, n):
            gens.append(_pq(N, i, i) - _pq(N, i + 1, i + 1))
    elif f.kind is FamilyKind.SO:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                gens.append(_pq(N, i, j) - _pq(N, j, i))
    else:  # sp; p_1i is slot i, p_2i is slot n+i, same for q
        p1 = lambda i: i
        p2 = lambda i: n + i
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                gens.append(_pq(N, p1(i), p1(j)) - _pq(N, p2(i), p2(j)))
        for i in range(1, n + 1):
            gens.append(_pq(N, p1(i), p2(i)))
        for i in range(1, n + 1):
            gens.append(_pq(N, p2(i), p1(i)))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                gens.append(_pq(N, p1(i), p2(j)) + _pq(N, p1(j), p2(i)))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                gens.append(_pq(N, p2(i), p1(j)) + _pq(N, p2(j), p1(i)))
    if len(gens) != f.generator_count:
        raise AssertionError
    return gens


def sp_relabeled_generators(n: int, fld: Field | None = None) -> list[Polynomial]:
    """Equivalent generating set for the symplectic ideal (char != 2 only).

    With a_i := p_1i, b_i := q_1i, c_i := p_2i, d_i := q_2i the ideal is also
    generated by a_i b_j - c_i d_j, a_i d_j + a_j d_i and c_i b_j + c_j b_i
    over all pairs (i, j).  The two sets span the same graded pieces exactly
    when 2 is invertible.
    """
    if fld is not None and fld.char == 2:
        raise InvalidFieldError("relabeled symplectic generators need characteristic != 2")
    N = 2 * n
    a = lambda i: i          # p_1i
    c = lambda i: n + i      # p_2i
    b = lambda j: j          # q_1j
    d = lambda j: n + j      # q_2j
    gens: list[Polynomial] = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            gens.append(_pq(N, a(i), b(j)) - _pq(N, c(i), d(j)))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            gens.append(_pq(N, a(i), d(j)) + _pq(N, a(j), d(i)))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            gens.append(_pq(N, c(i), b(j)) + _pq(N, c(j), b(i)))
    return gens

"""Exact coefficient fields: arbitrary-precision rationals and odd prime fields.

Rational elements are plain ints when integral and `fractions.Fraction`
otherwise; prime-field elements are plain ints in ``range(p)``.  A field
object only bundles the arithmetic; vectors and matrices elsewhere store raw
elements and pass the field alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class InvalidFieldError(ValueError):
    """A field violates a characteristic guard of the requested computation."""


#: Moduli at or above this bound are refused: the Miller-Rabin bases below
#: are proven deterministic only up to about 3.3e24.
MAX_MODULUS = 2 ** 64

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin on the first 12 prime bases (p < 2**64)."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _rational(a):
    """A rational as a plain int when integral, else as a Fraction."""
    if isinstance(a, int):
        return a
    a = Fraction(a)
    return a.numerator if a.denominator == 1 else a


@dataclass(frozen=True)
class Field:
    """Coefficient field: rationals when ``p`` is None, else F_p with p an odd prime."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if self.p >= MAX_MODULUS:
                raise InvalidFieldError(f"modulus must be below 2**64, got {self.p}")
            if not _is_prime(self.p) or self.p < 3:
                raise InvalidFieldError(f"modulus must be a prime >= 3, got {self.p}")

    @property
    def char(self) -> int:
        return 0 if self.p is None else self.p

    def of(self, a):
        """Embed an integer (or Fraction, for the rationals) into the field."""
        if self.p is None:
            return _rational(a)
        if isinstance(a, Fraction):
            num = a.numerator % self.p
            den = a.denominator % self.p
            if den == 0:
                raise InvalidFieldError(f"denominator {a.denominator} vanishes mod {self.p}")
            return num * pow(den, self.p - 2, self.p) % self.p
        return a % self.p

    def inv(self, a):
        if self.p is None:
            return _rational(1 / Fraction(a))
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def __str__(self) -> str:
        return "QQ" if self.p is None else f"F{self.p}"


QQ = Field()

#: Default prime for fast cross-checks; large enough that no computation in
#: the supported range hits an accidental characteristic collision.
DEFAULT_PRIME = 32003


def GF(p: int) -> Field:
    return Field(p)


def parse_field(text: str) -> Field:
    """Parse a CLI field spec: ``qq`` or ``fp:P``."""
    t = text.strip().lower()
    if t in ("qq", "q", "rational", "rationals"):
        return QQ
    if t.startswith("fp:"):
        try:
            modulus = int(t[3:])
        except ValueError:
            raise InvalidFieldError(
                f"modulus of field spec {text!r} is not an integer") from None
        return GF(modulus)
    raise InvalidFieldError(f"unrecognized field spec {text!r} (use 'qq' or 'fp:P')")

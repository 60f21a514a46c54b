"""Exact computations around the moment-map ideals of the classical standard
representations: generators, Hilbert series, graded Betti tables (closed forms
and a brute-force homological oracle), and Koszulness tests.
"""

from .betti import BettiTable
from .closed import (
    betti_closed,
    euler_check,
    froberg_product,
    hilbert_closed,
    poincare_k_over_so,
    poincare_over_S,
    projective_dimension,
    roos_series,
)
from .combinat import (
    catalan,
    catalan_strand_identity,
    catalan_triangle,
    segner_check,
    triangle_moment_check,
)
from .exterior import (
    exterior_mult_rank,
    gl_ext_module_candidates,
    symmetric_identity_check,
)
from .fields import GF, QQ, Field, InvalidFieldError, parse_field
from .ideals import RepFamily, family, generators, sp_relabeled_generators
from .linalg import InvalidInputError
from .monomials import monomial_basis
from .oracle import depth_zero_witness, hilbert_oracle, socle, tor_over_S
from .pieces import quotient_dimension
from .polynomials import Polynomial
from .resolution import resolve_k_over_quotient
from .series import TruncatedSeries
from .verdicts import (
    KoszulVerdict,
    aci_obstruction,
    quadratic_monomial_certificate,
    serre_linear_strand_certificate,
    verdict,
)

__all__ = [
    "BettiTable", "Field", "GF", "InvalidFieldError",
    "InvalidInputError", "KoszulVerdict", "Polynomial", "QQ",
    "RepFamily", "TruncatedSeries", "aci_obstruction", "betti_closed",
    "catalan", "catalan_strand_identity", "catalan_triangle",
    "depth_zero_witness", "euler_check", "exterior_mult_rank", "family",
    "froberg_product", "generators", "gl_ext_module_candidates",
    "hilbert_closed", "hilbert_oracle",
    "monomial_basis", "parse_field", "poincare_k_over_so",
    "poincare_over_S", "projective_dimension",
    "quadratic_monomial_certificate", "quotient_dimension",
    "resolve_k_over_quotient", "roos_series", "segner_check",
    "serre_linear_strand_certificate", "socle", "sp_relabeled_generators",
    "symmetric_identity_check", "tor_over_S",
    "triangle_moment_check", "verdict",
]

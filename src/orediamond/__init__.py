"""Exact certificates for differential operator rings R[theta; delta].

Decides, with verifiable certificates, whether the simple quotients of
R[theta; delta] embed every essential extension behavior the theory
predicts (the "diamond" property) for R one of Q[x], Q[x, x^-1], and
Q[x, y], together with the supporting machinery: exact polynomial
arithmetic, Groebner bases, Darboux polynomial search, and Ore-algebra
computations.
"""

from .rational import Q
from .poly import (
    BiPoly,
    DomainError,
    LaurentUniPoly,
    UniPoly,
    exact_divide,
    gcd,
    rational_roots,
    squarefree_decomposition,
    squarefree_part,
    uni_gcd,
)
from .groebner import buchberger, has_common_zero_with, is_unit_ideal, normal_form
from .derivation import (
    Derivation,
    NilpotencyVerdict,
    ShamsuddinResult,
    UniDerivation,
    locally_nilpotent_bounded,
    shamsuddin_analyze,
)
from .darboux import (
    DarbouxCert,
    DarbouxReport,
    PencilCert,
    PencilMembers,
    darboux_search,
    first_integral_search,
    pencil_members_through,
)
from .ore import (
    OreContext,
    OrePoly,
    WitnessCert,
    essential_witness,
    mul,
)
from .diamond import (
    DIAMOND,
    LAURENT_UNI,
    NOT_DIAMOND,
    POLY_BI,
    POLY_UNI,
    UNKNOWN,
    Verdict,
    classify_primitivity,
    decide,
    delta_simple_dim1_check,
    singular_darboux_audit,
)
from .parse import (
    ParseError,
    parse_derivation,
    parse_ore,
    parse_polynomial,
    render_derivation,
)

__version__ = "1.0.0"

__all__ = [
    "Q",
    "BiPoly",
    "UniPoly",
    "LaurentUniPoly",
    "DomainError",
    "exact_divide",
    "gcd",
    "squarefree_part",
    "squarefree_decomposition",
    "rational_roots",
    "uni_gcd",
    "buchberger",
    "normal_form",
    "is_unit_ideal",
    "has_common_zero_with",
    "Derivation",
    "UniDerivation",
    "NilpotencyVerdict",
    "ShamsuddinResult",
    "locally_nilpotent_bounded",
    "shamsuddin_analyze",
    "DarbouxCert",
    "PencilCert",
    "DarbouxReport",
    "PencilMembers",
    "darboux_search",
    "first_integral_search",
    "pencil_members_through",
    "OreContext",
    "OrePoly",
    "WitnessCert",
    "mul",
    "essential_witness",
    "POLY_UNI",
    "LAURENT_UNI",
    "POLY_BI",
    "DIAMOND",
    "NOT_DIAMOND",
    "UNKNOWN",
    "Verdict",
    "decide",
    "classify_primitivity",
    "singular_darboux_audit",
    "delta_simple_dim1_check",
    "ParseError",
    "parse_polynomial",
    "parse_derivation",
    "parse_ore",
    "render_derivation",
]

"""The argument checks of the public API, each with its exact message,
and the OrePoly operators the other suites never call."""

import pytest

from orediamond import (
    BiPoly,
    DarbouxCert,
    Derivation,
    DomainError,
    OreContext,
    OrePoly,
    PencilCert,
    UniDerivation,
    UniPoly,
    darboux_search,
    decide,
    delta_simple_dim1_check,
    essential_witness,
    exact_divide,
    first_integral_search,
    gcd,
    has_common_zero_with,
    linalg,
    rational_roots,
    shamsuddin_analyze,
    squarefree_decomposition,
    squarefree_part,
)
from orediamond.multipoly import MPoly, mpoly_exact_divide, mpoly_resultant
from orediamond.unifactor import factor_univariate, is_irreducible
from util import bi, uni

UNI_CTX = OreContext("poly1", Derivation(bi("1"), BiPoly.zero()))
EULER = Derivation(bi("x"), bi("y"))

# (name, call, message)
CHECKS = [
    # the Ore layer
    ("check_element", lambda: UNI_CTX.check_element(bi("y")), "coefficient involves y in a univariate context"),
    (
        "essential_witness",
        lambda: essential_witness(UNI_CTX, OrePoly.theta(), BiPoly.zero()),
        "witness requires a nonzero ring element",
    ),
    ("essential_witness zero f", lambda: essential_witness(UNI_CTX, OrePoly.zero(), bi("x")), "witness requires f != 0"),
    # certificates
    (
        "DarbouxCert constant",
        lambda: DarbouxCert(EULER, bi("3"), BiPoly.zero()),
        "Darboux certificate requires a nonconstant polynomial",
    ),
    ("DarbouxCert cofactor", lambda: DarbouxCert(EULER, bi("x"), bi("2")), "Darboux certificate failed verification"),
    (
        "PencilCert cofactor",
        lambda: PencilCert(EULER, bi("x"), bi("y"), bi("2")),
        "pencil certificate failed verification",
    ),
    (
        "PencilCert proportional",
        lambda: PencilCert(EULER, bi("x"), bi("2*x"), bi("1")),
        "pencil requires non-proportional members",
    ),
    (
        "darboux_search settled",
        lambda: darboux_search(Derivation(bi("x^2"), bi("x*y")), 2, settled=bool),
        "settled needs coprime dx and dy",
    ),
    (
        "first_integral_search zero field",
        lambda: first_integral_search(Derivation(BiPoly.zero(), BiPoly.zero()), 3),
        "every polynomial is Darboux for the zero derivation",
    ),
    ("first_integral_search bound", lambda: first_integral_search(EULER, 0), "degree bound must be at least 1"),
    # resultants
    (
        "mpoly_exact_divide",
        lambda: mpoly_exact_divide(MPoly.var(3, 0), MPoly.zero(3)),
        "division by the zero polynomial",
    ),
    (
        "mpoly_resultant",
        lambda: mpoly_resultant(MPoly.zero(3), MPoly.var(3, 0), 0),
        "resultant of the zero polynomial",
    ),
    (
        "mpoly_resultant constants",
        lambda: mpoly_resultant(uni("3"), uni("2"), 0),
        "both inputs constant in the eliminated variable",
    ),
    (
        "has_common_zero_with",
        lambda: has_common_zero_with([bi("x")], BiPoly.zero()),
        "the zero polynomial vanishes everywhere; give a nonzero p",
    ),
    # polynomials
    ("pow", lambda: bi("x") ** -1, "negative power of a polynomial"),
    ("to_bipoly", lambda: MPoly.var(3, 2).to_bipoly(), "extra variables present"),
    ("constant_value", lambda: bi("x").constant_value(), "not a constant polynomial"),
    ("leading_exp", lambda: BiPoly.zero().leading_exp(), "zero polynomial has no leading term"),
    ("variable count", lambda: MPoly.var(3, 0) + bi("x"), "variable count mismatch"),
    ("as_unipoly", lambda: bi("x*y").as_unipoly(0), "other variables present"),
    ("BiPoly.monomial", lambda: BiPoly.monomial(-1, 0), "negative exponent in polynomial ring"),
    ("exact_divide", lambda: exact_divide(bi("x"), BiPoly.zero()), "division by the zero polynomial"),
    ("gcd", lambda: gcd(BiPoly.zero(), BiPoly.zero()), "gcd(0, 0) is undefined"),
    ("squarefree_part", lambda: squarefree_part(BiPoly.zero()), "square-free part of the zero polynomial"),
    ("rational_roots", lambda: rational_roots(UniPoly.zero()), "roots of the zero polynomial"),
    ("squarefree_decomposition", lambda: squarefree_decomposition(UniPoly.zero()), "square-free decomposition of zero"),
    # derivations
    ("shamsuddin_analyze", lambda: shamsuddin_analyze(UniPoly.zero(), uni("x")), "a must be nonzero for the Shamsuddin form"),
    # factorization
    ("factor_univariate", lambda: factor_univariate(UniPoly.zero()), "factorization of the zero polynomial"),
    ("is_irreducible", lambda: is_irreducible(uni("3")), "irreducibility is for positive-degree polynomials"),
    # rings
    (
        "delta_simple_dim1_check",
        lambda: delta_simple_dim1_check("poly3", UniDerivation(uni("1"))),
        "unknown ring spec 'poly3'",
    ),
    ("decide", lambda: decide("poly3", UniDerivation(uni("1"))), "unknown ring spec 'poly3'"),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS])
def test_check_message(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


def test_solve_of_no_rows():
    assert linalg.solve([], []) == ([], [])


class TestOrePolyOperators:
    f = OrePoly([bi("x"), bi("1")])
    g = OrePoly([bi("y"), bi("1"), bi("2")])

    def test_subtraction_and_negation(self):
        assert self.f - self.g == OrePoly([bi("x - y"), BiPoly.zero(), bi("-2")])
        assert -self.f == OrePoly([bi("-1*x"), bi("-1")])
        assert self.f - self.f == OrePoly.zero()

    def test_hash_follows_equality(self):
        assert hash(self.f) == hash(OrePoly([bi("x"), bi("1")]))
        assert len({self.f, OrePoly([bi("x"), bi("1")]), self.g}) == 2

    def test_bool_is_nonzero(self):
        assert self.f and not OrePoly.zero()

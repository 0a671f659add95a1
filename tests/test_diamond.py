"""The verdict engine: pinned decisions, primitivity classification,
the singular-locus audit, and status invariants."""

import pytest

from orediamond import (
    BiPoly,
    Derivation,
    DomainError,
    Q,
    UniDerivation,
    classify_primitivity,
    darboux_search,
    decide,
    delta_simple_dim1_check,
    singular_darboux_audit,
)
from orediamond.diamond import DIAMOND, NOT_DIAMOND, UNKNOWN
from util import bi, lau, uni


def final_example_derivation():
    f = bi("x*y + y - 1") * bi("y")
    return Derivation(f, -bi("y^2") * f)


class TestDecideUnivariate:
    def test_laurent_monomial(self):
        v = decide("laurent1", UniDerivation(lau("x^3"), laurent=True))
        assert (v.status, v.certified) == (DIAMOND, True)

    def test_laurent_binomial(self):
        v = decide("laurent1", UniDerivation(lau("x^2 + x"), laurent=True))
        assert (v.status, v.certified) == (NOT_DIAMOND, True)

    def test_poly_constant(self):
        v = decide("poly1", UniDerivation(uni("5")))
        assert (v.status, v.certified) == (DIAMOND, True)

    def test_poly_monomial(self):
        v = decide("poly1", UniDerivation(uni("x^2")))
        assert (v.status, v.certified) == (NOT_DIAMOND, True)

    def test_poly_out_of_scope(self):
        v = decide("poly1", UniDerivation(uni("x^2 + 1")))
        assert v.status == UNKNOWN

    def test_zero_derivations(self):
        assert decide("poly1", UniDerivation(uni("0"))).status == DIAMOND
        assert decide("laurent1", UniDerivation(lau("0"), laurent=True)).status == DIAMOND


class TestDecideBivariate:
    def test_triangular_nilpotent(self):
        v = decide("poly2", Derivation(bi("1"), bi("x")))
        assert (v.status, v.certified) == (DIAMOND, True)
        assert v.trace[0].kind == "locally_nilpotent"
        assert v.trace[0].verdict.order == 3

    def test_nilpotent_beyond_fifty_steps(self):
        # y -> x^60 -> 60*x^59 -> ... -> 60! -> 0 takes 62 steps
        v = decide("poly2", Derivation(bi("1"), bi("x^60")), 1)
        assert (v.status, v.certified) == (DIAMOND, True)
        assert v.trace[0].to_json() == {"kind": "locally_nilpotent", "order": 62}

    def test_euler_violation(self):
        v = decide("poly2", Derivation(bi("x"), bi("y")))
        assert (v.status, v.certified) == (NOT_DIAMOND, True)
        violation = v.trace[-1]
        assert violation.kind == "singular_violation"
        assert violation.p in (bi("x"), bi("y"))

    def test_shamsuddin_unique_darboux(self):
        v = decide("poly2", Derivation(bi("1"), bi("y")))
        assert (v.status, v.certified) == (NOT_DIAMOND, True)
        assert v.trace[0].kind == "shamsuddin"
        assert v.trace[0].result.status == "unique_darboux"

    def test_shamsuddin_d_simple(self):
        v = decide("poly2", Derivation(bi("1"), bi("x*y + 1")))
        assert (v.status, v.certified) == (NOT_DIAMOND, True)
        assert v.trace[0].kind == "shamsuddin"
        assert v.trace[0].result.status == "d_simple"

    def test_quadratic_family_diamond(self):
        v = decide("poly2", Derivation(bi("1"), bi("x*y^2")))
        assert (v.status, v.certified) == (DIAMOND, False)
        assert v.evidence_bound >= 3
        pencils = [
            c.pencil for c in v.trace if c.kind == "no_max_delta_ideal_not_primitive"
        ]
        assert pencils and (pencils[0].p, pencils[0].q, pencils[0].cofactor) == (
            bi("y"),
            bi("x^2*y + 2"),
            bi("x*y"),
        )

    def test_final_example(self):
        v = decide("poly2", final_example_derivation())
        assert (v.status, v.certified) == (DIAMOND, False)
        audit = v.trace[0]
        assert audit.kind == "singular_locus_audit"
        members = {(i.parameter, i.poly) for i in audit.report.incidences}
        assert (Q(0), bi("y")) in members
        assert (Q(1), bi("x*y + y - 1")) in members
        assert not audit.report.violations
        pencils = [c.verdict.pencil for c in v.trace if c.kind == "primitivity"]
        assert (pencils[0].p, pencils[0].q, pencils[0].cofactor) == (
            bi("y"),
            bi("x*y - 1"),
            bi("-1*y"),
        )

    def test_zero_derivation(self):
        v = decide("poly2", Derivation(BiPoly.zero(), BiPoly.zero()))
        assert (v.status, v.certified) == (DIAMOND, True)

    def test_ring_mismatch_rejected(self):
        with pytest.raises(DomainError):
            decide("poly2", UniDerivation(uni("x")))
        with pytest.raises(DomainError):
            decide("poly1", Derivation(bi("x"), bi("y")))


class TestPrimitivity:
    def test_euler_not_primitive(self):
        verdict = classify_primitivity(Derivation(bi("x"), bi("y")), 1)
        assert verdict.status == "not_primitive"
        assert (verdict.pencil.p, verdict.pencil.q, verdict.pencil.cofactor) == (
            bi("x"),
            bi("y"),
            bi("1"),
        )

    def test_shamsuddin_primitive(self):
        verdict = classify_primitivity(Derivation(bi("1"), bi("y")), 4)
        assert verdict.status == "primitive_certified"
        assert verdict.reason.status == "unique_darboux"
        assert verdict.reason.solution.is_zero

    def test_quadratic_not_primitive(self):
        verdict = classify_primitivity(Derivation(bi("1"), bi("x*y^2")), 3)
        assert verdict.status == "not_primitive"
        assert (verdict.pencil.p, verdict.pencil.q, verdict.pencil.cofactor) == (
            bi("y"),
            bi("x^2*y + 2"),
            bi("x*y"),
        )

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            classify_primitivity(Derivation(BiPoly.zero(), BiPoly.zero()), 2)


class TestSingularAudit:
    def test_euler_violation_row(self):
        d = Derivation(bi("x"), bi("y"))
        report = singular_darboux_audit(d, darboux_search(d, 2))
        rows = {i.poly: i for i in report.incidences}
        assert bi("x") in rows
        row = rows[bi("x")]
        assert row.meets_locus and row.divides_dx and not row.divides_dy
        assert row.violation

    def test_final_example_all_pass(self):
        d = final_example_derivation()
        reduced = Derivation(bi("1"), bi("-1*y^2"))
        report = singular_darboux_audit(d, darboux_search(reduced, 6))
        assert report.incidences and not report.violations
        polys = {i.poly for i in report.incidences}
        assert polys == {bi("y"), bi("x*y + y - 1")}

    def test_empty_locus_rejected(self):
        d = Derivation(bi("1"), bi("x*y^2"))
        with pytest.raises(DomainError):
            singular_darboux_audit(d, darboux_search(d, 3))


class TestDeltaSimpleDim1:
    def test_laurent_monomial(self):
        assert delta_simple_dim1_check("laurent1", UniDerivation(lau("x^3"), laurent=True))

    def test_laurent_binomial(self):
        assert not delta_simple_dim1_check(
            "laurent1", UniDerivation(lau("x^2 + x"), laurent=True)
        )

    def test_poly_constant(self):
        assert delta_simple_dim1_check("poly1", UniDerivation(uni("5")))
        assert not delta_simple_dim1_check("poly1", UniDerivation(uni("x")))

    def test_bivariate_rejected(self):
        with pytest.raises(DomainError):
            delta_simple_dim1_check("poly2", Derivation(bi("x"), bi("y")))


class TestVerdictInvariants:
    SAMPLES = [
        ("poly2", Derivation(bi("1"), bi("x"))),
        ("poly2", Derivation(bi("x"), bi("y"))),
        ("poly2", Derivation(bi("1"), bi("y"))),
        ("poly2", Derivation(bi("1"), bi("x*y^2"))),
        ("poly2", final_example_derivation()),
    ]

    def test_determinism(self):
        for spec, d in self.SAMPLES:
            a = decide(spec, d)
            b = decide(spec, d)
            assert a.to_json() == b.to_json()

    def test_scaling_invariance_of_status(self):
        for spec, d in self.SAMPLES:
            base = decide(spec, d)
            for alpha in (Q(2), Q(-3), Q(1, 2)):
                scaled = decide(spec, Derivation(alpha * d.dx, alpha * d.dy))
                assert scaled.status == base.status
                assert scaled.certified == base.certified

    def test_monotonic_in_bound(self):
        for spec, d in self.SAMPLES:
            low = decide(spec, d, darboux_bound=4)
            high = decide(spec, d, darboux_bound=7)
            if low.certified:
                assert (high.status, high.certified) == (low.status, low.certified)

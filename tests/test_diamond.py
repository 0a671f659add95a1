"""The verdict engine: pinned decisions, primitivity classification,
the singular-locus audit, and status invariants."""

import importlib.util
import json
import random
import signal
from contextlib import contextmanager
from pathlib import Path

import pytest

from orediamond import (
    BiPoly,
    Derivation,
    DomainError,
    LaurentUniPoly,
    Q,
    UniDerivation,
    UniPoly,
    classify_primitivity,
    darboux,
    darboux_search,
    decide,
    delta_simple_dim1_check,
    diamond,
    gcd,
    groebner,
    singular_darboux_audit,
)
from orediamond.cli import main
from orediamond.darboux import coprime_part
from orediamond.diamond import DIAMOND, NOT_DIAMOND, UNKNOWN
from orediamond.parse import parse_derivation
from util import bi, lau, uni

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("cli_diff", ROOT / "tools" / "cli_diff.py")
cli_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_diff)


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

    def test_laurent_negative_monomials(self):
        """alpha*x^n makes Q[x, 1/x] delta-simple for n < 0 too."""
        for text in ("x^-1", "3*x^-2", "-3/2*x^-1", "x^-7"):
            v = decide("laurent1", UniDerivation(lau(text), laurent=True))
            assert (v.status, v.certified) == (DIAMOND, True), text
            assert v.trace[0].inverted is None

    def test_laurent_inverted(self):
        """A non-monomial with a negative power and degree <= 2 is decided
        as -x^2*f(1/x), recorded in the step; one of higher degree is not."""
        v = decide("laurent1", UniDerivation(lau("x^-1 + 1"), laurent=True))
        assert (v.status, v.certified) == (NOT_DIAMOND, True)
        assert v.trace[0].inverted == lau("-1*x^3 - x^2")
        assert v.trace[0].to_json()["inverted"] == "-1*x^3 - x^2"
        assert decide("laurent1", UniDerivation(lau("x^2 + x"), laurent=True)).trace[0].inverted is None
        v = decide("laurent1", UniDerivation(lau("2*x^-3 - x^4 + 7"), laurent=True))
        assert (v.status, v.certified, v.trace[0].inverted) == (UNKNOWN, False, None)

    def test_laurent_answers_survive_inversion(self):
        """x -> 1/x is an automorphism of Q[x, 1/x] taking delta(x) = f to
        -x^2*f(1/x): the two fields get the same status, certified flag
        and delta-simplicity."""
        rng = random.Random(28)
        statuses = set()
        for _ in range(120):
            terms = {rng.randint(-3, 3): Q(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2])) for _ in range(rng.randint(1, 3))}
            f = sum((LaurentUniPoly.monomial(n, c) for n, c in terms.items()), LaurentUniPoly.zero())
            g = sum((LaurentUniPoly.monomial(2 - n, -c) for n, c in terms.items()), LaurentUniPoly.zero())
            vf, vg = (decide("laurent1", UniDerivation(h, laurent=True)) for h in (f, g))
            assert (vf.status, vf.certified) == (vg.status, vg.certified), (f.render(), g.render())
            assert delta_simple_dim1_check("laurent1", UniDerivation(f, laurent=True)) == delta_simple_dim1_check(
                "laurent1", UniDerivation(g, laurent=True)
            )
            statuses.add(vf.status)
        assert statuses == {DIAMOND, NOT_DIAMOND, UNKNOWN}

    def test_poly_constant(self):
        v = decide("poly1", UniDerivation(uni("5")))
        assert (v.status, v.certified) == (DIAMOND, True)

    def test_poly_monomial(self):
        v = decide("poly1", UniDerivation(uni("x^2")))
        assert (v.status, v.certified) == (NOT_DIAMOND, True)

    def test_poly_shifted_monomial(self):
        """alpha*(x - a)^n is decided as alpha*x^n, with a in the step;
        moving its constant term off the shift leaves it undecided."""
        rng = random.Random(26)
        for n in range(1, 7):
            alpha = Q(rng.choice([-3, 1, 2]), rng.choice([1, 2, 5]))
            a = Q(rng.choice([-4, -1, 1, 3]), rng.choice([1, 3]))
            dx = alpha * UniPoly([-a, 1]) ** n
            v = decide("poly1", UniDerivation(dx))
            assert (v.status, v.certified) == (NOT_DIAMOND, True)
            (step,) = v.trace
            assert (step.kind, step.alpha, step.n, step.a) == ("uni_monomial", alpha, n, a)
            plain = decide("poly1", UniDerivation(alpha * UniPoly.monomial(n))).trace[0]
            assert (plain.kind, plain.alpha, plain.n, plain.a) == ("uni_monomial", alpha, n, None)
            if n >= 2:
                assert decide("poly1", UniDerivation(dx + UniPoly.one())).status == UNKNOWN

    def test_poly_out_of_scope(self):
        v = decide("poly1", UniDerivation(uni("x^2 + 1")))
        assert v.status == UNKNOWN

    def test_zero_derivations(self):
        assert decide("poly1", UniDerivation(uni("0"))).status == DIAMOND
        assert decide("laurent1", UniDerivation(lau("0"), laurent=True)).status == DIAMOND

    def test_laurent_ring_takes_a_polynomial_derivation(self):
        v = decide("laurent1", UniDerivation(uni("x^2 + x")))
        assert v.to_json() == decide("laurent1", UniDerivation(lau("x^2 + x"), laurent=True)).to_json()
        assert (v.status, v.certified) == (NOT_DIAMOND, True)

    @pytest.mark.parametrize(
        "spec, deriv, bound, message",
        [
            ("poly2", Derivation(bi("1"), bi("x")), 0, "bound must be at least 1"),
            ("poly1", UniDerivation(lau("x"), laurent=True), 6, "Laurent derivation supplied for a polynomial ring"),
        ],
    )
    def test_rejects(self, spec, deriv, bound, message):
        with pytest.raises(DomainError) as exc:
            decide(spec, deriv, bound)
        assert str(exc.value) == message


class TestDecideBivariate:
    def test_triangular_nilpotent(self):
        v = decide("poly2", Derivation(bi("1"), bi("x")))
        assert (v.status, v.certified) == (DIAMOND, True)
        assert v.trace[0].kind == "locally_nilpotent"
        assert v.trace[0].order == 3

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
        assert v.trace[0].status == "unique_darboux"

    def test_shamsuddin_d_simple(self):
        v = decide("poly2", Derivation(bi("1"), bi("x*y + 1")))
        assert (v.status, v.certified) == (NOT_DIAMOND, True)
        assert v.trace[0].kind == "shamsuddin"
        assert v.trace[0].status == "d_simple"

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
        d = final_example_derivation()
        v = decide("poly2", d)
        assert (v.status, v.certified) == (DIAMOND, False)
        audit = v.trace[0]
        assert audit.kind == "singular_locus_audit"
        members = {(i.parameter, i.poly) for i in audit.incidences}
        assert (Q(0), bi("y")) in members
        assert (Q(1), bi("x*y + y - 1")) in members
        assert not any(i.violation for i in audit.incidences)
        pencils = [c.pencil for c in v.trace if c.kind == "primitivity"]
        # the search ran on delta/g, g = y*(x*y + y - 1): the cofactor
        # -y of delta/g enters times g
        assert (pencils[0].p, pencils[0].q, pencils[0].cofactor) == (
            bi("y"),
            bi("x*y - 1"),
            bi("-1*x*y^3 - y^3 + y^2"),
        )
        assert pencils[0].verify(d)

    def test_irrational_members_through_the_locus_leave_unknown(self):
        # the pencil x^3 + 1/2*y^3 + 3*y + t meets the singular locus
        # only at irrational t, so no member is audited
        v = decide("poly2", Derivation(bi("y^2 + 2"), bi("-2*x^2")), 6)
        assert (v.status, v.certified) == (UNKNOWN, False)
        (audit,) = v.trace
        assert audit.to_json() == {
            "kind": "singular_locus_audit",
            "locus_proper": True,
            "incidences": [],
            "residual_nonrational": True,
        }
        assert "irrational t" in audit.describe()

    def test_unit_ideal_without_pencil_is_uncertified(self):
        v = decide("poly2", Derivation(bi("-7*x*y"), bi("2")), 6)
        assert (v.status, v.certified) == (NOT_DIAMOND, False)
        assert [c.to_json() for c in v.trace] == [
            {"kind": "primitivity", "status": "primitive_evidence", "bound": 6}
        ]

    def test_audit_passes_without_pencil_is_uncertified(self):
        v = decide("poly2", Derivation(bi("-4*x*y"), bi("-3*x - 2")), 6)
        assert (v.status, v.certified) == (NOT_DIAMOND, False)
        audit, primitivity = v.trace
        assert [(i.poly, i.meets_locus) for i in audit.incidences] == [(bi("x"), False)]
        assert not any(i.violation for i in audit.incidences) and not audit.residual_nonrational
        assert primitivity.to_json() == {"kind": "primitivity", "status": "primitive_evidence", "bound": 6}

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
        audit = singular_darboux_audit(d, darboux_search(d, 2))
        rows = {i.poly: i for i in audit.incidences}
        assert bi("x") in rows
        row = rows[bi("x")]
        assert row.meets_locus and row.divides_dx and not row.divides_dy
        assert row.violation

    def test_final_example_all_pass(self):
        d = final_example_derivation()
        reduced = Derivation(bi("1"), bi("-1*y^2"))
        audit = singular_darboux_audit(d, darboux_search(reduced, 6))
        assert audit.incidences and not any(i.violation for i in audit.incidences)
        polys = {i.poly for i in audit.incidences}
        assert polys == {bi("y"), bi("x*y + y - 1")}

    def test_empty_locus_reported(self):
        # the pencil (y, x^2*y + 2) is found, but dx = 1 leaves no locus
        d = Derivation(bi("1"), bi("x*y^2"))
        report = darboux_search(d, 3)
        assert report.pencils
        audit = singular_darboux_audit(d, report)
        assert audit.locus_proper is False
        assert audit.incidences == [] and not any(i.violation for i in audit.incidences) and not audit.residual_nonrational

    def test_locus_basis_computed_once(self, monkeypatch):
        """One decide computes the reduced basis of (dx, dy) once: the
        audit's incidence tests and pencil eliminations start from it."""
        for dx, dy in (
            ("x*y^2 + y^2 - y", "-1*x*y^4 - y^4 + y^3"),  # a finite pencil through the locus
            ("x^2 - y^2", "2*x*y"),  # an "all" pencil, with a generic member
            ("x - x*y", "x*y - y"),  # two certificates
            ("1", "x*y^2"),  # an empty locus
        ):
            d = Derivation(bi(dx), bi(dy))
            locus = groebner.buchberger([d.dx, d.dy])
            calls = []

            def counting(gens, key, _basis=groebner._basis):
                calls.append((list(gens), key))
                return _basis(gens, key)

            with monkeypatch.context() as m:
                m.setattr(groebner, "_basis", counting)
                decide("poly2", d, 6)
            locus_bases = [
                gens for gens, key in calls if key is groebner._degree_lex and groebner.buchberger(gens) == locus
            ]
            assert len(locus_bases) == 1, (dx, dy)


def _field(dx, dy):
    return parse_derivation(f"dx={dx}; dy={dy}", "poly2")


def _full_search_verdict(deriv, bound):
    """(status, certified, evidence_bound) of the Darboux path with the
    search run to the bound and the whole report audited."""
    report = darboux_search(coprime_part(deriv, gcd(deriv.dx, deriv.dy)), bound)
    audit = singular_darboux_audit(deriv, report)
    violations = [i for i in audit.incidences if i.violation]
    if violations:
        return NOT_DIAMOND, violations[0].poly.total_degree() == 1 or report.complete_up_to_bound, bound
    if audit.residual_nonrational:
        return UNKNOWN, False, bound
    return (DIAMOND if report.pencils else NOT_DIAMOND), False, bound


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the body once seconds of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestDegreeOneStop:
    """decide ends the Darboux search after degree 1 when the audit of
    the report through degree 1 finds a violation by a line."""

    def test_verdicts_match_the_search_to_the_bound(self):
        workloads, _ = cli_diff._orebench()
        fields = [(name, dx, dy) for name, dx, dy, _, _ in workloads.NAMED] + cli_diff.survey()[:60]
        searched = 0
        for label, dx, dy in fields:
            verdict = decide("poly2", _field(dx, dy), 6)
            kinds = [step.kind for step in verdict.trace]
            if "singular_locus_audit" not in kinds and "primitivity" not in kinds:
                continue  # decided before any search
            searched += 1
            got = (verdict.status, verdict.certified, verdict.evidence_bound)
            assert got == _full_search_verdict(_field(dx, dy), 6), label
        assert searched >= 60

    def test_former_hangs_answer_with_a_line(self):
        """r74 and r114 of the survey and the known hang (5x^2, 3y^2 - 5)
        ran for minutes in rational_roots when searched to the bound."""
        workloads, oracle = cli_diff._orebench()
        rng = random.Random(7)
        survey = [workloads.random_derivation(rng) for _ in range(cli_diff.SURVEY_SIZE)]
        cases = [
            (*map(oracle.render, survey[74]), "y"),
            (*map(oracle.render, survey[114]), "x"),
            ("5*x^2", "3*y^2 - 5", "x"),
        ]
        for dx, dy, line in cases:
            with _deadline(5):
                verdict = decide("poly2", _field(dx, dy), 6)
            step = verdict.trace[-1]
            assert (verdict.status, verdict.certified, verdict.evidence_bound) == (NOT_DIAMOND, True, 6), (dx, dy)
            assert (step.kind, step.p, step.searched_degree) == ("singular_violation", bi(line), 1), (dx, dy)

    def test_lotka_volterra_searches_degree_1_only(self, monkeypatch):
        degrees = []

        def counting(ab_parts, n, p_top, c_top, known, _cascade=darboux._cascade):
            degrees.append(n)
            return _cascade(ab_parts, n, p_top, c_top, known)

        monkeypatch.setattr(darboux, "_cascade", counting)
        verdict = decide("poly2", _field("x - x*y", "x*y - y"), 6)
        assert degrees and set(degrees) == {1}
        step = verdict.trace[-1]
        assert step.kind == "singular_violation" and step.searched_degree == 1
        assert step.to_json()["searched_degree"] == 1 and "stopped at degree 1" in step.text


class TestFirstPencilStop:
    """On an empty locus decide reads only the first pencil: the search
    stops at it and no audit runs."""

    def test_one_xy2_searches_through_degree_3_without_an_audit(self, monkeypatch, capsys):
        argv = ["decide", "--ring", "poly2", "--deriv", "dx=1; dy=x*y^2", "--bound", "6", "--json"]
        (pin,) = [p for p in json.loads((ROOT / "tests" / "planar_cli_pins.json").read_text()) if p["argv"] == argv]
        degrees, audits = [], []

        def counting(ab_parts, n, p_top, c_top, known, _cascade=darboux._cascade):
            degrees.append(n)
            return _cascade(ab_parts, n, p_top, c_top, known)

        monkeypatch.setattr(darboux, "_cascade", counting)
        monkeypatch.setattr(diamond, "singular_darboux_audit", lambda *args: audits.append(args))
        assert main(argv) == pin["code"]
        assert capsys.readouterr().out == pin["out"]
        assert degrees and max(degrees) == 3 and audits == []


class TestIncidenceTests:
    """Each decide tests a polynomial against the locus at most once: the
    degree-1 hook and the final audit share one memo."""

    @staticmethod
    def _counting(monkeypatch):
        calls = []
        for module in (diamond, darboux):

            def counting(basis, poly, _test=module.has_common_zero_with):
                calls.append(poly)
                return _test(basis, poly)

            monkeypatch.setattr(module, "has_common_zero_with", counting)
        return calls

    def test_hook_and_final_audit_test_each_polynomial_once(self, monkeypatch):
        # final-example: delta/g = (1, -y^2) has one line, y, which divides
        # dx and dy: the hook tests it and settles nothing, and the final
        # audit reads that test from the memo
        calls = self._counting(monkeypatch)
        in_hook = []

        def search(deriv, bound, *, settled=None, _search=darboux_search):
            def hook(report):
                before = len(calls)
                answer = settled(report)
                in_hook.append((calls[before:], answer))
                return answer

            return _search(deriv, bound, settled=hook)

        monkeypatch.setattr(diamond, "darboux_search", search)
        verdict = decide("poly2", final_example_derivation(), 6)
        assert in_hook == [([bi("y")], False)]
        assert len(calls) > 1 and len(calls) == len(set(calls))
        assert {i.poly for i in verdict.trace[0].incidences} == {bi("y"), bi("x*y + y - 1")}
        assert (verdict.status, verdict.certified) == (DIAMOND, False)

    def test_no_polynomial_is_tested_twice(self, monkeypatch):
        calls = self._counting(monkeypatch)
        workloads, _ = cli_diff._orebench()
        fields = [(name, dx, dy) for name, dx, dy, _, _ in workloads.NAMED] + cli_diff.survey()
        total = 0
        for label, dx, dy in fields:
            calls.clear()
            decide("poly2", _field(dx, dy), 6)
            assert len(calls) == len(set(calls)), label
            total += len(calls)
        assert total >= 100


class TestDeltaSimpleDim1:
    def test_laurent_monomial(self):
        assert delta_simple_dim1_check("laurent1", UniDerivation(lau("x^3"), laurent=True))

    def test_laurent_negative_monomial(self):
        assert delta_simple_dim1_check("laurent1", UniDerivation(lau("x^-2"), laurent=True))

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

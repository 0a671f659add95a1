"""The verdict engine for property (*) of R[theta; delta].

Property (*) here: every cyclic essential extension of a simple left
module over the operator ring is Artinian.  The decision tree combines
the structural facts implemented by the other modules: commutative and
locally nilpotent cases are always (*), Shamsuddin derivations never
are, and for the remaining planar derivations the verdict follows the
primitivity / maximal-invariant-ideal analysis driven by Darboux data.
"""

from .rational import QZERO
from .poly import BiPoly, DomainError, LaurentUniPoly, UniPoly, exact_divide, gcd
from .derivation import (
    Derivation,
    UniDerivation,
    locally_nilpotent_bounded,
    shamsuddin_analyze,
)
from .darboux import (
    INFINITY,
    darboux_search,
    first_integral_search,
    pencil_members_through,
)
from .groebner import has_common_zero_with, is_unit_ideal

POLY_UNI = "poly1"
LAURENT_UNI = "laurent1"
POLY_BI = "poly2"

RING_SPECS = (POLY_UNI, LAURENT_UNI, POLY_BI)

DIAMOND = "Diamond"
NOT_DIAMOND = "NotDiamond"
UNKNOWN = "Unknown"


class Certificate:
    """Base: one re-verifiable reasoning step."""

    kind = "certificate"

    def describe(self):
        raise NotImplementedError

    def to_json(self):
        return {"kind": self.kind, "detail": self.describe()}


class CommutativeCase(Certificate):
    kind = "commutative"

    def describe(self):
        return "delta = 0: the operator ring is a commutative-coefficient polynomial ring over a Noetherian ring; property holds"


class LocallyNilpotentCert(Certificate):
    kind = "locally_nilpotent"

    def __init__(self, verdict):
        self.verdict = verdict

    def describe(self):
        return f"delta is locally nilpotent (order {self.verdict.order} on the generators); property holds"

    def to_json(self):
        return {"kind": self.kind, "order": self.verdict.order}


class LaurentRule(Certificate):
    kind = "laurent_rule"

    def __init__(self, dx, monomial):
        self.dx = dx
        self.monomial = monomial  # (alpha, n) or None

    def describe(self):
        if self.monomial:
            alpha, n = self.monomial
            return f"Laurent ring with delta(x) = {alpha}*x^{n}: the ring is delta-simple of Krull dimension 1; property holds"
        return f"Laurent ring with delta(x) = {self.dx.render()} not a monomial: a proper nonzero delta-ideal exists; property fails"

    def to_json(self):
        out = {"kind": self.kind, "dx": self.dx.render()}
        if self.monomial:
            out["alpha"] = str(self.monomial[0])
            out["n"] = self.monomial[1]
        return out


class UniConstantCert(Certificate):
    kind = "uni_constant"

    def __init__(self, alpha):
        self.alpha = alpha

    def describe(self):
        return f"delta(x) = {self.alpha} is a nonzero constant: Q[x] is delta-simple of Krull dimension 1; property holds"

    def to_json(self):
        return {"kind": self.kind, "alpha": str(self.alpha)}


class UniMonomialCert(Certificate):
    kind = "uni_monomial"

    def __init__(self, alpha, n):
        self.alpha = alpha
        self.n = n

    def describe(self):
        return f"delta(x) = {self.alpha}*x^{self.n} with n >= 1: the operator ring fails the property"

    def to_json(self):
        return {"kind": self.kind, "alpha": str(self.alpha), "n": self.n}


class UnivariateOutOfScope(Certificate):
    kind = "univariate_out_of_scope"

    def __init__(self, dx):
        self.dx = dx

    def describe(self):
        return f"delta(x) = {self.dx.render()} is neither constant nor a monomial: no implemented rule decides this univariate case"

    def to_json(self):
        return {"kind": self.kind, "dx": self.dx.render()}


class ShamsuddinCert(Certificate):
    kind = "shamsuddin"

    def __init__(self, a, b, result):
        self.a = a
        self.b = b
        self.result = result

    def describe(self):
        shape = f"delta = c*(dx + (a*y + b)*dy) with a = {self.a.render()}, b = {self.b.render()}"
        if self.result.status == "d_simple":
            return f"{shape}: no polynomial solves c' = a*c + b, the ring is delta-simple in dimension 2; property fails"
        return (
            f"{shape}: unique Darboux element y - ({self.result.solution.render()}), "
            "the ring is delta-primitive, hence primitive; property fails"
        )

    def to_json(self):
        out = {"kind": self.kind, "a": self.a.render(), "b": self.b.render(), "status": self.result.status}
        if self.result.solution is not None:
            out["c"] = self.result.solution.render()
        return out


class NotPrimitive:
    status = "not_primitive"

    def __init__(self, pencil):
        self.pencil = pencil


class PrimitiveEvidence:
    status = "primitive_evidence"

    def __init__(self, bound):
        self.bound = bound


class PrimitiveCertified:
    status = "primitive_certified"

    def __init__(self, reason):
        self.reason = reason


class PrimitivityCert(Certificate):
    kind = "primitivity"

    def __init__(self, verdict):
        self.verdict = verdict

    def describe(self):
        v = self.verdict
        if v.status == "not_primitive":
            return (
                f"rational first integral {v.pencil.p.render()} / {v.pencil.q.render()} "
                f"(shared cofactor {v.pencil.cofactor.render()}): the operator ring is not primitive"
            )
        if v.status == "primitive_certified":
            return "primitivity certified via the Shamsuddin unique-solution analysis"
        return f"no rational first integral up to degree {v.bound}: evidence that the operator ring is primitive"

    def to_json(self):
        out = {"kind": self.kind, "status": self.verdict.status}
        if self.verdict.status == "not_primitive":
            out["pencil"] = {
                "p": self.verdict.pencil.p.render(),
                "q": self.verdict.pencil.q.render(),
                "cofactor": self.verdict.pencil.cofactor.render(),
            }
        elif self.verdict.status == "primitive_evidence":
            out["bound"] = self.verdict.bound
        return out


class NoMaxDeltaIdealAndNotPrimitive(Certificate):
    kind = "no_max_delta_ideal_not_primitive"

    def __init__(self, pencil):
        self.pencil = pencil

    def describe(self):
        return (
            "delta(x), delta(y) generate the unit ideal (no maximal invariant ideal) and a rational "
            f"first integral {self.pencil.p.render()} / {self.pencil.q.render()} rules out primitivity; property holds"
        )

    def to_json(self):
        return {
            "kind": self.kind,
            "pencil": {
                "p": self.pencil.p.render(),
                "q": self.pencil.q.render(),
                "cofactor": self.pencil.cofactor.render(),
            },
        }


class SingularViolation(Certificate):
    kind = "singular_violation"

    def __init__(self, p, failed_generator):
        self.p = p
        self.failed_generator = failed_generator  # "dx" or "dy"

    def describe(self):
        return (
            f"Darboux polynomial {self.p.render()} passes through the singular locus but does not divide "
            f"{self.failed_generator}; property fails"
        )

    def to_json(self):
        return {"kind": self.kind, "p": self.p.render(), "fails": self.failed_generator}


class Incidence:
    """Audit row for one Darboux polynomial or pencil member."""

    __slots__ = ("poly", "parameter", "meets_locus", "divides_dx", "divides_dy")

    def __init__(self, poly, parameter, meets_locus, divides_dx, divides_dy):
        self.poly = poly
        self.parameter = parameter
        self.meets_locus = meets_locus
        self.divides_dx = divides_dx
        self.divides_dy = divides_dy

    @property
    def violation(self):
        return self.meets_locus and not (self.divides_dx and self.divides_dy)

    def to_json(self):
        out = {
            "member": self.poly.render(),
            "meets_locus": self.meets_locus,
            "divides_dx": self.divides_dx,
            "divides_dy": self.divides_dy,
        }
        if self.parameter is not None:
            out["t"] = "inf" if self.parameter == INFINITY else str(self.parameter)
        return out


class SingularLocusReport:
    __slots__ = ("locus_proper", "incidences", "residual_nonrational")

    def __init__(self, locus_proper, incidences, residual_nonrational):
        self.locus_proper = locus_proper
        self.incidences = list(incidences)
        self.residual_nonrational = residual_nonrational

    @property
    def violations(self):
        return [i for i in self.incidences if i.violation]


class SingularLocusAudit(Certificate):
    kind = "singular_locus_audit"

    def __init__(self, report):
        self.report = report

    def describe(self):
        rows = []
        for i in self.report.incidences:
            tag = "" if i.parameter is None else (
                " (t=inf)" if i.parameter == INFINITY else f" (t={i.parameter})"
            )
            status = "violates" if i.violation else (
                "passes" if i.meets_locus else "misses locus"
            )
            rows.append(f"{i.poly.render()}{tag}: {status}")
        return "singular-locus audit of Darboux members: " + "; ".join(rows) if rows else "singular-locus audit: no Darboux members to check"

    def to_json(self):
        return {
            "kind": self.kind,
            "locus_proper": self.report.locus_proper,
            "incidences": [i.to_json() for i in self.report.incidences],
            "residual_nonrational": self.report.residual_nonrational,
        }


class Verdict:
    __slots__ = ("status", "certified", "evidence_bound", "trace")

    def __init__(self, status, certified, evidence_bound, trace):
        self.status = status
        self.certified = certified
        self.evidence_bound = evidence_bound
        self.trace = list(trace)

    def to_json(self):
        return {
            "status": self.status,
            "certified": self.certified,
            "evidence_bound": self.evidence_bound,
            "trace": [c.to_json() for c in self.trace],
        }

    def __repr__(self):
        return f"Verdict({self.status}, certified={self.certified})"


def _shamsuddin_shape(deriv):
    """(a, b) with delta = c*(dx + (a*y + b)*dy), c nonzero rational, a != 0;
    None when delta is not of that shape."""
    dx, dy = deriv.dx, deriv.dy
    if not dx.is_constant or dx.is_zero:
        return None
    c = dx.constant_value()
    if dy.deg_y() != 1:
        return None
    a_part = BiPoly({(i, 0): co for (i, j), co in dy.terms.items() if j == 1})
    b_part = BiPoly({(i, 0): co for (i, j), co in dy.terms.items() if j == 0})
    if a_part.is_zero:
        return None
    inv = 1 / c
    a_u = (inv * a_part).as_unipoly("x")
    b_u = (inv * b_part).as_unipoly("x")
    return a_u, b_u


def classify_primitivity(deriv, bound):
    """Primitivity of the operator ring from first-integral evidence."""
    if deriv.is_zero:
        raise DomainError("primitivity classification requires delta != 0")
    shape = _shamsuddin_shape(deriv)
    if shape is not None:
        return PrimitiveCertified(shamsuddin_analyze(*shape))
    pencil = first_integral_search(deriv, bound)
    if pencil is not None:
        return NotPrimitive(pencil)
    return PrimitiveEvidence(bound)


def singular_darboux_audit(deriv, report):
    """Check delta(R) <= Rp for every Darboux member through the
    singular locus V(delta(x), delta(y))."""
    gens = [deriv.dx, deriv.dy]
    if is_unit_ideal([g for g in gens if not g.is_zero]):
        raise DomainError("the singular locus is empty")
    incidences = []
    residual = False

    def audit(poly, parameter, meets):
        incidences.append(
            Incidence(
                poly,
                parameter,
                meets,
                exact_divide(deriv.dx, poly) is not None,
                exact_divide(deriv.dy, poly) is not None,
            )
        )

    for cert in report.certs:
        audit(cert.p, None, has_common_zero_with(gens, cert.p))
    for pencil in report.pencils:
        through = pencil_members_through(pencil, gens)
        residual = residual or through.residual_nonrational
        if through.kind == "all":
            for t, member in ((QZERO, pencil.p), (INFINITY, pencil.q)):
                if not member.is_constant:
                    audit(member, t, True)
            generic = pencil.p + pencil.q  # a representative generic member
            if not generic.is_constant and not any(
                generic.monic() == i.poly.monic() for i in incidences
            ):
                audit(generic, "generic", True)
        else:
            for t, member in through.members:
                audit(member, t, True)
    return SingularLocusReport(True, incidences, residual)


def delta_simple_dim1_check(spec, deriv):
    """Decidable delta-simplicity for the one-dimensional rings."""
    if spec == POLY_BI:
        raise DomainError("delta-simplicity of Q[x,y] is not decided by this rule")
    dx = deriv.dx
    if spec == POLY_UNI:
        return dx.is_constant and not dx.is_zero
    if spec == LAURENT_UNI:
        mono = dx.as_monomial()
        return mono is not None and mono[1] >= 0
    raise DomainError(f"unknown ring spec {spec!r}")


def _decide_poly_uni(deriv, bound):
    dx = deriv.dx
    if dx.is_zero:
        return Verdict(DIAMOND, True, bound, [CommutativeCase()])
    if dx.is_constant:
        return Verdict(DIAMOND, True, bound, [UniConstantCert(dx.constant_value())])
    coeffs = [(i, c) for i, c in enumerate(dx.coeffs) if c]
    if len(coeffs) == 1:
        n, alpha = coeffs[0]
        return Verdict(NOT_DIAMOND, True, bound, [UniMonomialCert(alpha, n)])
    return Verdict(UNKNOWN, False, bound, [UnivariateOutOfScope(dx)])


def _decide_laurent(deriv, bound):
    dx = deriv.dx
    if dx.is_zero:
        return Verdict(DIAMOND, True, bound, [CommutativeCase()])
    mono = dx.as_monomial()
    if mono is not None:
        if mono[1] >= 0:
            return Verdict(DIAMOND, True, bound, [LaurentRule(dx, mono)])
        return Verdict(UNKNOWN, False, bound, [LaurentRule(dx, mono)])
    if dx.min_degree() >= 0:
        return Verdict(NOT_DIAMOND, True, bound, [LaurentRule(dx, None)])
    return Verdict(UNKNOWN, False, bound, [LaurentRule(dx, None)])


def _decide_poly_bi(deriv, darboux_bound):
    if deriv.is_zero:
        return Verdict(DIAMOND, True, darboux_bound, [CommutativeCase()])
    nil = locally_nilpotent_bounded(deriv)
    if nil.status == "nilpotent":
        return Verdict(DIAMOND, True, darboux_bound, [LocallyNilpotentCert(nil)])
    shape = _shamsuddin_shape(deriv)
    if shape is not None:
        result = shamsuddin_analyze(*shape)
        return Verdict(
            NOT_DIAMOND, True, darboux_bound, [ShamsuddinCert(shape[0], shape[1], result)]
        )
    g = gcd(deriv.dx, deriv.dy)
    if g.is_constant:
        reduced = deriv
    else:
        reduced = Derivation(
            exact_divide(deriv.dx, g), exact_divide(deriv.dy, g)
        )
    report = darboux_search(reduced, darboux_bound)
    if is_unit_ideal([deriv.dx, deriv.dy]):
        if report.pencils:
            pencil = report.pencils[0]
            trace = [
                PrimitivityCert(NotPrimitive(pencil)),
                NoMaxDeltaIdealAndNotPrimitive(pencil),
            ]
            return Verdict(DIAMOND, False, darboux_bound, trace)
        trace = [PrimitivityCert(PrimitiveEvidence(darboux_bound))]
        return Verdict(NOT_DIAMOND, False, darboux_bound, trace)
    audit = singular_darboux_audit(deriv, report)
    trace = [SingularLocusAudit(audit)]
    violations = audit.violations
    if violations:
        worst = violations[0]
        which = "dy" if worst.divides_dx else "dx"
        trace.append(SingularViolation(worst.poly, which))
        certain = worst.poly.total_degree() == 1 or report.complete_up_to_bound
        return Verdict(NOT_DIAMOND, certain, darboux_bound, trace)
    if audit.residual_nonrational:
        return Verdict(UNKNOWN, False, darboux_bound, trace)
    if report.pencils:
        trace.append(PrimitivityCert(NotPrimitive(report.pencils[0])))
        return Verdict(DIAMOND, False, darboux_bound, trace)
    trace.append(PrimitivityCert(PrimitiveEvidence(darboux_bound)))
    return Verdict(NOT_DIAMOND, False, darboux_bound, trace)


def decide(spec, deriv, darboux_bound=6):
    """Decide the property for R[theta; delta] over the given ring."""
    if darboux_bound < 1:
        raise DomainError("bound must be at least 1")
    if spec == POLY_BI:
        if not isinstance(deriv, Derivation):
            raise DomainError("bivariate ring needs a Derivation with dx and dy")
        return _decide_poly_bi(deriv, darboux_bound)
    if not isinstance(deriv, UniDerivation):
        raise DomainError("univariate rings need a univariate derivation")
    if spec == POLY_UNI:
        if deriv.laurent:
            raise DomainError("Laurent derivation supplied for a polynomial ring")
        return _decide_poly_uni(deriv, darboux_bound)
    if spec == LAURENT_UNI:
        if not deriv.laurent:
            deriv = UniDerivation(deriv.dx, laurent=True)
        return _decide_laurent(deriv, darboux_bound)
    raise DomainError(f"unknown ring spec {spec!r}")

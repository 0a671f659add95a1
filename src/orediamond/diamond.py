"""The verdict engine for property (*) of R[theta; delta].

Property (*) here: every cyclic essential extension of a simple left
module over the operator ring is Artinian.  The decision tree combines
the structural facts implemented by the other modules: commutative and
locally nilpotent cases are always (*), Shamsuddin derivations never
are, and for the remaining planar derivations the verdict follows the
primitivity / maximal-invariant-ideal analysis driven by Darboux data.
"""

from .rational import QZERO
from .poly import DomainError, exact_divide, gcd
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
from .groebner import buchberger, has_common_zero_with

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

    def __init__(self, dx, monomial, finding):
        self.dx = dx
        self.monomial = monomial  # (alpha, n) or None
        self.finding = finding  # the case _decide_laurent decided, or left open

    def describe(self):
        shown = "{}*x^{}".format(*self.monomial) if self.monomial else self.dx.render()
        return f"Laurent ring with delta(x) = {shown}{self.finding}"

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


class PrimitivityCert(Certificate):
    """Primitivity of the operator ring, by status: "not_primitive" with
    the pencil of a rational first integral, "primitive_certified" with
    the Shamsuddin analysis as reason, "primitive_evidence" with the
    degree bound searched in vain."""

    kind = "primitivity"

    def __init__(self, status, pencil=None, bound=None, reason=None):
        self.status = status
        self.pencil = pencil
        self.bound = bound
        self.reason = reason

    def describe(self):
        if self.status == "not_primitive":
            return (
                f"rational first integral {self.pencil.p.render()} / {self.pencil.q.render()} "
                f"(shared cofactor {self.pencil.cofactor.render()}): the operator ring is not primitive"
            )
        if self.status == "primitive_certified":
            return "primitivity certified via the Shamsuddin unique-solution analysis"
        return f"no rational first integral up to degree {self.bound}: evidence that the operator ring is primitive"

    def to_json(self):
        out = {"kind": self.kind, "status": self.status}
        if self.status == "not_primitive":
            out["pencil"] = self.pencil.to_json()
        elif self.status == "primitive_evidence":
            out["bound"] = self.bound
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
        return {"kind": self.kind, "pencil": self.pencil.to_json()}


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


class SingularLocusAudit(Certificate):
    """The Darboux members checked against the singular locus; an empty
    locus has locus_proper False and no incidences."""

    kind = "singular_locus_audit"

    def __init__(self, locus_proper, incidences, residual_nonrational):
        self.locus_proper = locus_proper
        self.incidences = list(incidences)
        self.residual_nonrational = residual_nonrational

    @property
    def violations(self):
        return [i for i in self.incidences if i.violation]

    def describe(self):
        rows = []
        for i in self.incidences:
            tag = "" if i.parameter is None else (
                " (t=inf)" if i.parameter == INFINITY else f" (t={i.parameter})"
            )
            status = "violates" if i.violation else (
                "passes" if i.meets_locus else "misses locus"
            )
            rows.append(f"{i.poly.render()}{tag}: {status}")
        if self.residual_nonrational:
            rows.append("pencil members at irrational t: meet the locus, not checked")
        return "singular-locus audit of Darboux members: " + "; ".join(rows) if rows else "singular-locus audit: no Darboux members to check"

    def to_json(self):
        return {
            "kind": self.kind,
            "locus_proper": self.locus_proper,
            "incidences": [i.to_json() for i in self.incidences],
            "residual_nonrational": self.residual_nonrational,
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
    b_part, a_part = dy.coeffs_in(1)
    inv = 1 / c
    a_u = (inv * a_part).as_unipoly(0)
    b_u = (inv * b_part).as_unipoly(0)
    return a_u, b_u


def classify_primitivity(deriv, bound):
    """The PrimitivityCert of the operator ring: certified for a
    Shamsuddin derivation, not primitive when a rational first integral
    of degree at most bound exists, else evidence of primitivity."""
    if deriv.is_zero:
        raise DomainError("primitivity classification requires delta != 0")
    shape = _shamsuddin_shape(deriv)
    if shape is not None:
        return PrimitivityCert("primitive_certified", reason=shamsuddin_analyze(*shape))
    pencil = first_integral_search(deriv, bound)
    if pencil is not None:
        return PrimitivityCert("not_primitive", pencil=pencil)
    return PrimitivityCert("primitive_evidence", bound=bound)


def singular_darboux_audit(deriv, report):
    """The SingularLocusAudit of report's Darboux members: check
    delta(R) <= Rp for every member p through the singular locus
    V(delta(x), delta(y)).

    basis, the reduced graded lex basis G of the nonzero ones among
    delta(x), delta(y), is computed once, and every incidence test and
    pencil_members_through start from G instead of the generators.  The
    answers are the same, a reduced basis being unique: (G, p) and
    (delta(x), delta(y), p) have one graded lex basis, (G, p + t*q) and
    (delta(x), delta(y), p + t*q) one lex eliminant.  An empty locus,
    G = [1], is reported as locus_proper False with no incidences."""
    basis = buchberger([g for g in (deriv.dx, deriv.dy) if not g.is_zero])
    if any(g.is_constant for g in basis):
        return SingularLocusAudit(False, [], False)
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
        audit(cert.p, None, has_common_zero_with(basis, cert.p))
    for pencil in report.pencils:
        through = pencil_members_through(pencil, basis)
        residual = residual or through.residual_nonrational
        if through.kind == "all":
            # "all" is cofinite when V(basis) is a curve, so each member
            # audited here is checked against the locus on its own
            for t, member in ((QZERO, pencil.p), (INFINITY, pencil.q)):
                if not member.is_constant:
                    audit(member, t, has_common_zero_with(basis, member))
            generic = pencil.p + pencil.q  # a representative generic member
            if not generic.is_constant and not any(
                generic.monic() == i.poly.monic() for i in incidences
            ):
                audit(generic, "generic", has_common_zero_with(basis, generic))
        else:
            for t, member in through.members:
                audit(member, t, True)
    return SingularLocusAudit(True, incidences, residual)


def _delta_simple(spec, dx):
    """Q[x] is delta-simple exactly when delta(x) is a nonzero constant,
    Q[x, 1/x] when delta(x) = alpha*x^n with n >= 0."""
    mono = dx.as_monomial()
    return mono is not None and (mono[1] == 0 if spec == POLY_UNI else mono[1] >= 0)


def delta_simple_dim1_check(spec, deriv):
    """Decidable delta-simplicity for the one-dimensional rings."""
    if spec == POLY_BI:
        raise DomainError("delta-simplicity of Q[x,y] is not decided by this rule")
    if spec not in RING_SPECS:
        raise DomainError(f"unknown ring spec {spec!r}")
    return _delta_simple(spec, deriv.dx)


def _decide_poly_uni(deriv, bound):
    dx = deriv.dx
    if dx.is_zero:
        return Verdict(DIAMOND, True, bound, [CommutativeCase()])
    mono = dx.as_monomial()
    if mono is None:
        return Verdict(UNKNOWN, False, bound, [UnivariateOutOfScope(dx)])
    if _delta_simple(POLY_UNI, dx):
        return Verdict(DIAMOND, True, bound, [UniConstantCert(mono[0])])
    return Verdict(NOT_DIAMOND, True, bound, [UniMonomialCert(*mono)])


def _decide_laurent(deriv, bound):
    dx = deriv.dx
    if dx.is_zero:
        return Verdict(DIAMOND, True, bound, [CommutativeCase()])
    mono = dx.as_monomial()
    if _delta_simple(LAURENT_UNI, dx):
        status, finding = DIAMOND, ": the ring is delta-simple of Krull dimension 1; property holds"
    elif mono is not None:
        status, finding = UNKNOWN, ", a monomial of negative degree: no implemented rule decides this Laurent case"
    elif dx.min_degree() >= 0:
        status, finding = NOT_DIAMOND, " not a monomial: a proper nonzero delta-ideal exists; property fails"
    else:
        status, finding = UNKNOWN, " not a monomial, with a negative power of x: no implemented rule decides this Laurent case"
    return Verdict(status, status != UNKNOWN, bound, [LaurentRule(dx, mono, finding)])


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
    g = gcd(deriv.dx, deriv.dy)  # monic, so 1 when constant
    reduced = Derivation(exact_divide(deriv.dx, g), exact_divide(deriv.dy, g))
    report = darboux_search(reduced, darboux_bound)
    audit = singular_darboux_audit(deriv, report)
    trace = []
    if audit.locus_proper:
        trace.append(audit)
        violations = audit.violations
        if violations:
            worst = violations[0]
            which = "dy" if worst.divides_dx else "dx"
            trace.append(SingularViolation(worst.poly, which))
            certain = worst.poly.total_degree() == 1 or report.complete_up_to_bound
            return Verdict(NOT_DIAMOND, certain, darboux_bound, trace)
        if audit.residual_nonrational:
            return Verdict(UNKNOWN, False, darboux_bound, trace)
    if not report.pencils:
        trace.append(PrimitivityCert("primitive_evidence", bound=darboux_bound))
        return Verdict(NOT_DIAMOND, False, darboux_bound, trace)
    pencil = report.pencils[0]
    trace.append(PrimitivityCert("not_primitive", pencil=pencil))
    if not audit.locus_proper:
        trace.append(NoMaxDeltaIdealAndNotPrimitive(pencil))
    return Verdict(DIAMOND, False, darboux_bound, trace)


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

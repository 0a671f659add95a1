"""The verdict engine for property (*) of R[theta; delta].

Property (*) here: every cyclic essential extension of a simple left
module over the operator ring is Artinian.  The decision tree combines
the structural facts implemented by the other modules: commutative and
locally nilpotent cases are always (*), Shamsuddin derivations never
are, and for the remaining planar derivations the verdict follows the
primitivity / maximal-invariant-ideal analysis driven by Darboux data.

A Verdict's trace lists the steps of that argument.  Each step, the
singular-locus audit and the primitivity classification among them, is
a Step record (kind, text, fields), its text built where the step is.
"""

from math import comb

from .rational import Q, QZERO
from .poly import DomainError, LaurentUniPoly, UniPoly, exact_divide, gcd
from .derivation import (
    Derivation,
    UniDerivation,
    _shamsuddin_shape,
    locally_nilpotent_bounded,
    shamsuddin_analyze,
)
from .darboux import (
    INFINITY,
    PencilCert,
    coprime_part,
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


class Step:
    """One reasoning step of a verdict: its kind, its text, and the fields
    its JSON carries, which read as attributes (step.p, step.pencil).
    to_json() gives the kind and every field that is not None, an answer
    object by its to_json(), a polynomial by its render(), a rational as
    its str, a list item by item, anything else as it is."""

    def __init__(self, kind, text, **fields):
        self.kind = kind
        self.text = text
        self.fields = fields
        vars(self).update(fields)

    def describe(self):
        return self.text

    def to_json(self):
        out = {"kind": self.kind}
        out.update((name, _json_value(v)) for name, v in self.fields.items() if v is not None)
        return out


def _json_value(value):
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    if hasattr(value, "to_json"):
        return value.to_json()
    if hasattr(value, "render"):
        return value.render()
    if isinstance(value, Q):
        return str(value)
    return value


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


def _primitivity_step(pencil, bound):
    """The primitivity step: not primitive with the pencil of a rational
    first integral; with no pencil, evidence of primitivity from the
    search up to bound, or certified when no search ran (bound None)."""
    if pencil is not None:
        status, bound = "not_primitive", None
        text = (
            f"rational first integral {pencil.p.render()} / {pencil.q.render()} "
            f"(shared cofactor {pencil.cofactor.render()}): the operator ring is not primitive"
        )
    elif bound is None:
        status, text = "primitive_certified", "primitivity certified via the Shamsuddin unique-solution analysis"
    else:
        status = "primitive_evidence"
        text = f"no rational first integral up to degree {bound}: evidence that the operator ring is primitive"
    return Step("primitivity", text, status=status, pencil=pencil, bound=bound)


def classify_primitivity(deriv, bound):
    """The primitivity Step of the operator ring: certified for a
    Shamsuddin derivation, not primitive when a rational first integral
    of degree at most bound exists, else evidence of primitivity."""
    if deriv.is_zero:
        raise DomainError("primitivity classification requires delta != 0")
    if _shamsuddin_shape(deriv) is not None:
        return _primitivity_step(None, None)
    return _primitivity_step(first_integral_search(deriv, bound), bound)


def _locus_basis(deriv):
    """The reduced graded lex basis G of the nonzero ones among delta(x),
    delta(y), and whether their common zeros are a proper locus (G != [1])."""
    basis = buchberger([g for g in (deriv.dx, deriv.dy) if not g.is_zero])
    return basis, not any(g.is_constant for g in basis)


def _divides_both(deriv, poly):
    """(poly divides delta(x), poly divides delta(y))."""
    return exact_divide(deriv.dx, poly) is not None, exact_divide(deriv.dy, poly) is not None


def singular_darboux_audit(deriv, report, locus=None, memo=None):
    """The singular_locus_audit Step of report's Darboux members: check
    delta(R) <= Rp for every member p through the singular locus
    V(delta(x), delta(y)), one Incidence per member.

    locus is _locus_basis(deriv), computed here when not given: every
    incidence test and pencil_members_through start from its basis G
    instead of the generators.  The answers are the same, a reduced basis
    being unique: (G, p) and (delta(x), delta(y), p) have one graded lex
    basis, (G, p + t*q) and (delta(x), delta(y), p + t*q) one lex
    eliminant.  memo maps each polynomial audited to its (meets_locus,
    divides_dx, divides_dy), filled here and read first, so an audit that
    shares it with an earlier one tests each polynomial once; a member
    that pencil_members_through returns enters with meets_locus True.  An
    empty locus, G = [1], is reported as locus_proper False with no
    incidences."""
    basis, locus_proper = locus or _locus_basis(deriv)
    certs, pencils = (report.certs, report.pencils) if locus_proper else ((), ())
    memo = {} if memo is None else memo
    incidences = []
    residual = False

    def audit(poly, parameter, meets=None):
        if poly not in memo:
            if meets is None:
                meets = has_common_zero_with(basis, poly)
            memo[poly] = (meets, *_divides_both(deriv, poly))
        incidences.append(Incidence(poly, parameter, *memo[poly]))

    for cert in certs:
        audit(cert.p, None)
    for pencil in pencils:
        through = pencil_members_through(pencil, basis)
        residual = residual or through.residual_nonrational
        if through.kind == "all":
            # "all" is cofinite when V(basis) is a curve, so each member
            # audited here is checked against the locus on its own
            for t, member in ((QZERO, pencil.p), (INFINITY, pencil.q)):
                if not member.is_constant:
                    audit(member, t)
            generic = pencil.p + pencil.q  # a representative generic member
            if not generic.is_constant and not any(
                generic.monic() == i.poly.monic() for i in incidences
            ):
                audit(generic, "generic")
        else:
            for t, member in through.members:
                audit(member, t, True)
    rows = []
    for i in incidences:
        tag = "" if i.parameter is None else (" (t=inf)" if i.parameter == INFINITY else f" (t={i.parameter})")
        status = "violates" if i.violation else ("passes" if i.meets_locus else "misses locus")
        rows.append(f"{i.poly.render()}{tag}: {status}")
    if residual:
        rows.append("pencil members at irrational t: meet the locus, not checked")
    text = (
        "singular-locus audit of Darboux members: " + "; ".join(rows)
        if rows
        else "singular-locus audit: no Darboux members to check"
    )
    return Step(
        "singular_locus_audit",
        text,
        locus_proper=locus_proper,
        incidences=incidences,
        residual_nonrational=residual,
    )


def _delta_simple(spec, dx):
    """Q[x] is delta-simple exactly when delta(x) is a nonzero constant,
    Q[x, 1/x] when delta(x) = alpha*x^n, any n: a proper nonzero ideal is
    (p), p in Q[x] of degree >= 1, and delta(p) = alpha*p'*x^n is not in it."""
    mono = dx.as_monomial()
    return mono is not None and (spec != POLY_UNI or mono[1] == 0)


def delta_simple_dim1_check(spec, deriv):
    """Decidable delta-simplicity for the one-dimensional rings."""
    if spec == POLY_BI:
        raise DomainError("delta-simplicity of Q[x,y] is not decided by this rule")
    if spec not in RING_SPECS:
        raise DomainError(f"unknown ring spec {spec!r}")
    return _delta_simple(spec, deriv.dx)


_COMMUTATIVE = (
    "delta = 0: the operator ring is a commutative-coefficient polynomial ring over a "
    "Noetherian ring; property holds"
)


def _commutative():
    return DIAMOND, True, [Step("commutative", _COMMUTATIVE, detail=_COMMUTATIVE)]


def _decide_poly_uni(dx):
    if dx.is_zero:
        return _commutative()
    alpha = dx.lc()
    if _delta_simple(POLY_UNI, dx):
        text = f"delta(x) = {alpha} is a nonzero constant: Q[x] is delta-simple of Krull dimension 1; property holds"
        return DIAMOND, True, [Step("uni_constant", text, alpha=alpha)]
    n = dx.degree()
    a = -dx.coeff(n - 1) / (n * alpha)
    # dx = alpha*(x - a)^n when it is alpha*x^n (a = 0) or has the n + 1 nonzero
    # coefficients alpha*C(n,k)*(-a)^(n-k) of x^k, checked from the top down
    if len(dx.terms) != (n + 1 if a else 1) or a and any(
        dx.coeff(k) != alpha * comb(n, k) * (-a) ** (n - k) for k in range(n - 2, -1, -1)
    ):
        text = f"delta(x) = {dx.render()} is neither constant nor a monomial: no implemented rule decides this univariate case"
        return UNKNOWN, False, [Step("univariate_out_of_scope", text, dx=dx)]
    shown = f"{alpha}*x^{n}"
    if a:
        u = UniPoly([-a, 1]).render()
        shown = f"{alpha}*({u})^{n}, that is delta(u) = {alpha}*u^{n} for u = {u},"
    text = f"delta(x) = {shown} with n >= 1: the operator ring fails the property"
    return NOT_DIAMOND, True, [Step("uni_monomial", text, alpha=alpha, n=n, a=a or None)]


def _decide_laurent(dx):
    if dx.is_zero:
        return _commutative()
    mono = dx.as_monomial()
    alpha, n = mono or (None, None)
    shown = f"{alpha}*x^{n}" if mono else dx.render()
    inverted = None
    if _delta_simple(LAURENT_UNI, dx):
        status, finding = DIAMOND, ": the ring is delta-simple of Krull dimension 1; property holds"
    elif dx.min_degree() >= 0 or dx.max_degree() <= 2:
        if dx.min_degree() < 0:
            # x -> 1/x maps delta(x) = f to -x^2*f(1/x), which has no negative power
            inverted = sum((LaurentUniPoly.monomial(2 - k, -dx.coeff(k)) for (k,) in dx.terms), LaurentUniPoly.zero())
            shown += f", that is delta(x) = {inverted.render()} after x -> 1/x,"
        status, finding = NOT_DIAMOND, " not a monomial: a proper nonzero delta-ideal exists; property fails"
    else:
        status, finding = UNKNOWN, " not a monomial, with a negative power of x: no implemented rule decides this Laurent case"
    step = Step("laurent_rule", f"Laurent ring with delta(x) = {shown}{finding}", dx=dx, alpha=alpha, n=n, inverted=inverted)
    return status, status != UNKNOWN, [step]


def _decide_poly_bi(deriv, darboux_bound):
    """The planar verdict's (status, certified, trace), as every decider
    returns it; decide stamps darboux_bound as the evidence_bound.  Past
    the locally nilpotent and Shamsuddin rules, the Darboux search runs on
    delta/g, g = gcd(delta(x), delta(y)), and the singular-locus audit
    reads its report.

    A violation by a degree-1 polynomial is a proof at every bound: a
    line is irreducible, and the certain rule below (degree 1, or a
    complete search) certifies it whatever the bound.  So when the locus
    is proper, the search stops after degree 1 if the audit of the report
    through degree 1 finds one (darboux_search's settled): the verdict is
    NotDiamond, certified, and the singular_violation step carries
    searched_degree 1.  The search to the bound finds the same line at
    degree 1 and audits it again, as a certificate or as a pencil member
    at its t, so it answers NotDiamond too; a pencil whose every member
    meets the locus is audited through p, q and one generic member alone.
    The first violation it names can differ (a line absorbed into a
    larger pencil is audited after the certificates), and it is certified
    unless that first one has degree above 1 in an incomplete search.
    On the named corpus and the survey status and certified agree
    (tests/test_diamond.py).  The two audits share one memo, so the final
    one reuses the incidence and divisibility tests of the degree-1 one.
    An empty locus (G = [1]) has no maximal delta-ideal, so the verdict
    reads only the first pencil (first_integral_search) and runs no
    audit."""
    if deriv.is_zero:
        return _commutative()
    nil = locally_nilpotent_bounded(deriv)
    if nil.status == "nilpotent":
        text = f"delta is locally nilpotent (order {nil.order} on the generators); property holds"
        return DIAMOND, True, [Step("locally_nilpotent", text, order=nil.order)]
    shape = _shamsuddin_shape(deriv)
    if shape is not None:
        a, b = shape
        result = shamsuddin_analyze(a, b)
        text = f"delta = c*(dx + (a*y + b)*dy) with a = {a.render()}, b = {b.render()}"
        if result.status == "d_simple":
            text += ": no polynomial solves c' = a*c + b, the ring is delta-simple in dimension 2; property fails"
        else:
            text += (
                f": unique Darboux element y - ({result.solution.render()}), "
                "the ring is delta-primitive, hence primitive; property fails"
            )
        return NOT_DIAMOND, True, [Step("shamsuddin", text, a=a, b=b, status=result.status, c=result.solution)]
    g = gcd(deriv.dx, deriv.dy)
    reduced = coprime_part(deriv, g)
    locus = _locus_basis(deriv)  # (basis, proper), for both audits
    trace = []
    if not locus[1]:
        pencil = first_integral_search(reduced, darboux_bound)
    else:
        memo, early = {}, []  # both audits' tests; the degree-1 audit, if it settles

        def settled(report):
            audit = singular_darboux_audit(deriv, report, locus, memo)
            if any(i.violation and i.poly.total_degree() == 1 for i in audit.incidences):
                early.append(audit)
            return bool(early)

        report = darboux_search(reduced, darboux_bound, settled=settled)
        audit = early[0] if early else singular_darboux_audit(deriv, report, locus, memo)
        trace.append(audit)
        violations = [i for i in audit.incidences if i.violation]
        if violations:
            worst = violations[0]
            which = "dy" if worst.divides_dx else "dx"
            text = (
                f"Darboux polynomial {worst.poly.render()} passes through the singular locus but does not divide "
                f"{which}; property fails"
            )
            if early:
                text += " (the Darboux search stopped at degree 1: a line is a proof at any bound)"
            step = Step("singular_violation", text, p=worst.poly, fails=which, searched_degree=1 if early else None)
            trace.append(step)
            return NOT_DIAMOND, worst.poly.total_degree() == 1 or report.complete_up_to_bound, trace
        if audit.residual_nonrational:
            return UNKNOWN, False, trace
        pencil = report.pencils[0] if report.pencils else None
    # a pencil of delta/g is one of delta, its cofactor times g
    if pencil is not None:
        pencil = PencilCert(deriv, pencil.p, pencil.q, g * pencil.cofactor)
    trace.append(_primitivity_step(pencil, darboux_bound))
    if pencil is None:
        return NOT_DIAMOND, False, trace
    if not locus[1]:
        text = (
            "delta(x), delta(y) generate the unit ideal (no maximal invariant ideal) and a rational "
            f"first integral {pencil.p.render()} / {pencil.q.render()} rules out primitivity; property holds"
        )
        trace.append(Step("no_max_delta_ideal_not_primitive", text, pencil=pencil))
    return DIAMOND, False, trace


def decide(spec, deriv, darboux_bound=6):
    """Decide the property for R[theta; delta] over the given ring; the
    Verdict's evidence_bound is darboux_bound on every path."""
    if darboux_bound < 1:
        raise DomainError("bound must be at least 1")
    if spec == POLY_BI:
        if not isinstance(deriv, Derivation):
            raise DomainError("bivariate ring needs a Derivation with dx and dy")
        status, certified, trace = _decide_poly_bi(deriv, darboux_bound)
    elif not isinstance(deriv, UniDerivation):
        raise DomainError("univariate rings need a univariate derivation")
    elif spec == POLY_UNI:
        if deriv.laurent:
            raise DomainError("Laurent derivation supplied for a polynomial ring")
        status, certified, trace = _decide_poly_uni(deriv.dx)
    elif spec == LAURENT_UNI:
        if not deriv.laurent:
            deriv = UniDerivation(deriv.dx, laurent=True)
        status, certified, trace = _decide_laurent(deriv.dx)
    else:
        raise DomainError(f"unknown ring spec {spec!r}")
    return Verdict(status, certified, darboux_bound, trace)

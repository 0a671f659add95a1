"""Derivations of Q[x], Q[x, x^-1] and Q[x, y].

A derivation is determined by its values on the generators; apply()
extends by the Leibniz rule.  Also here: the exact local-nilpotency
test and the analysis of Shamsuddin-type derivations d/dx + (a(x)y +
b(x)) d/dy.
"""

from .rational import QZERO, QONE, q
from .poly import BiPoly, DomainError, LaurentUniPoly, UniPoly, exact_divide
from . import linalg


class Derivation:
    """Derivation of Q[x, y] with dx = delta(x), dy = delta(y)."""

    __slots__ = ("dx", "dy")

    def __init__(self, dx, dy):
        self.dx = dx if isinstance(dx, BiPoly) else BiPoly.const(dx)
        self.dy = dy if isinstance(dy, BiPoly) else BiPoly.const(dy)

    def apply(self, p):
        return self.dx * p.deriv_x() + self.dy * p.deriv_y()

    @property
    def is_zero(self):
        return self.dx.is_zero and self.dy.is_zero

    def cofactor(self, p):
        """c with delta(p) = c*p, or None when p is not Darboux."""
        if p.is_zero or p.is_constant:
            raise DomainError("a Darboux candidate must be nonconstant")
        return exact_divide(self.apply(p), p)

    def is_darboux(self, p):
        return self.cofactor(p) is not None

    def __eq__(self, other):
        if isinstance(other, Derivation):
            return self.dx == other.dx and self.dy == other.dy
        return NotImplemented

    def __repr__(self):
        return f"Derivation(dx={self.dx.render()}, dy={self.dy.render()})"


class UniDerivation:
    """Derivation of Q[x] or Q[x, x^-1] with dx = delta(x)."""

    __slots__ = ("dx", "laurent")

    def __init__(self, dx, laurent=False):
        if laurent:
            if isinstance(dx, UniPoly):
                dx = LaurentUniPoly.from_uni(dx)
            elif not isinstance(dx, LaurentUniPoly):
                dx = LaurentUniPoly.const(dx)
        else:
            if isinstance(dx, LaurentUniPoly):
                dx = dx.as_unipoly()
            elif not isinstance(dx, UniPoly):
                dx = UniPoly.const(dx)
        self.dx = dx
        self.laurent = laurent

    def apply(self, p):
        if self.laurent:
            if isinstance(p, UniPoly):
                p = LaurentUniPoly.from_uni(p)
            return self.dx * p.derivative()
        return self.dx * p.derivative()

    @property
    def is_zero(self):
        return self.dx.is_zero

    def __repr__(self):
        kind = "laurent" if self.laurent else "poly"
        return f"UniDerivation({kind}, dx={self.dx.render()})"


# An iterate with more terms than this ends the nilpotency test with
# "unknown"; it bounds the cost of a single call.
TERM_LIMIT = 2000


class NilpotencyVerdict:
    """Outcome of the local-nilpotency test.

    status "nilpotent" carries the order: the least k with delta^k(x) =
    delta^k(y) = 0.  status "not_nilpotent" carries the rule that decided
    it as reason, "divergence" or "order_bound".  status "unknown" has
    reason "term_limit": an iterate outgrew TERM_LIMIT terms first.
    """

    __slots__ = ("status", "order", "reason")

    def __init__(self, status, order=None, reason=None):
        self.status = status  # "nilpotent" | "not_nilpotent" | "unknown"
        self.order = order
        self.reason = reason

    def __repr__(self):
        return f"NilpotencyVerdict({self.status}, order={self.order}, reason={self.reason})"


def locally_nilpotent_bounded(deriv):
    """Decide local nilpotency of a Q[x, y] derivation exactly.

    Nilpotency on x and y implies nilpotency everywhere (the Leibniz
    rule bounds the order on products and sums).  Two classical facts
    settle it, with d = max(deg delta(x), deg delta(y)):

    Divergence.  A locally nilpotent delta has d(delta x)/dx +
    d(delta y)/dy = 0.  exp(t*delta) is an automorphism of Q[x, y] for
    every t, so its Jacobian determinant is a polynomial in t that never
    vanishes, hence constant; its derivative at t = 0 is div delta.

    Order bound.  A locally nilpotent delta kills x and y within d + 2
    applications.  By Rentschler (1968), delta = h(f)*(f_y d/dx - f_x
    d/dy) with (f, g) an automorphism of the plane, so delta(f) = 0 and
    delta(g) = c*h(f) with c = -J(f, g) a nonzero constant; on Q[f, g]
    delta is c*h(f) d/dg.  While deg g > deg f, the top forms of f and g
    are powers of one common form (Abhyankar-Moh), so subtracting a
    multiple of a power of f from g lowers deg g; take deg g <= deg f.
    Write x = P(f, g).  Then delta^k(x) = (c*h(f))^k * (d^k P/dg^k)(f, g),
    so the order on x is deg_g P + 1.  A plane automorphism and its
    inverse have the same degree, so deg P <= deg f; and one partial of
    f has degree deg f - 1 (Euler's identity on its top form), so
    d >= deg f - 1.  Hence the order on x, and likewise on y, is at most
    deg f + 1 <= d + 2.

    An iterate with more than TERM_LIMIT terms makes the answer unknown.
    """
    if deriv.is_zero:
        return NilpotencyVerdict("nilpotent", order=1)
    if not (deriv.dx.deriv_x() + deriv.dy.deriv_y()).is_zero:
        return NilpotencyVerdict("not_nilpotent", reason="divergence")
    bound = max(deriv.dx.total_degree(), deriv.dy.total_degree()) + 2
    worst = 0
    for gen in (BiPoly.var_x(), BiPoly.var_y()):
        p = gen
        k = 0
        while not p.is_zero:
            if k == bound:
                return NilpotencyVerdict("not_nilpotent", reason="order_bound")
            p = deriv.apply(p)
            k += 1
            if len(p.terms) > TERM_LIMIT:
                return NilpotencyVerdict("unknown", reason="term_limit")
        worst = max(worst, k)
    return NilpotencyVerdict("nilpotent", order=worst)


class ShamsuddinResult:
    """Outcome of the first-order linear solve c' = a*c + b over Q[x]."""

    __slots__ = ("status", "solution")

    def __init__(self, status, solution=None):
        self.status = status  # "d_simple" | "unique_darboux"
        self.solution = solution

    def __repr__(self):
        return f"ShamsuddinResult({self.status}, solution={self.solution})"


def shamsuddin_analyze(a, b):
    """Analyze d/dx + (a*y + b) d/dy with a, b in Q[x], a nonzero.

    The derivation sends y - c to a*(y - c) exactly when c' = a*c + b;
    solvability of that linear ODE in Q[x] separates the unique-Darboux
    case from the d-simple case.
    """
    if a.is_zero:
        raise DomainError("a must be nonzero for the Shamsuddin form")
    if b.is_zero:
        return ShamsuddinResult("unique_darboux", UniPoly.zero())
    da, db = a.degree(), b.degree()
    if db < da:
        return ShamsuddinResult("d_simple")
    m = db - da
    # rows indexed by x-degree of c' - a*c - b, columns by coefficients of c
    nrows = max(db, m + da) + 1
    rows = [[QZERO] * (m + 1) for _ in range(nrows)]
    rhs = [QZERO] * nrows
    for k in range(m + 1):
        if k:
            rows[k - 1][k] += q(k)  # from c'
        for j, aj in enumerate(a.coeffs):
            rows[j + k][k] -= aj  # from -a*c
    for i, bi in enumerate(b.coeffs):
        rhs[i] = bi
    sol, kernel = linalg.solve(rows, rhs)
    if sol is None:
        return ShamsuddinResult("d_simple")
    c = UniPoly(sol)
    # a nonzero forces uniqueness; a kernel vector would be a nonzero
    # solution of c' = a*c, impossible by degree count
    if kernel:
        raise DomainError("unexpected solution family in Shamsuddin solve")
    return ShamsuddinResult("unique_darboux", c)

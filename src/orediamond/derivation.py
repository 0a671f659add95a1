"""Derivations of Q[x], Q[x, x^-1] and Q[x, y].

A derivation is determined by its values on the generators; apply()
extends by the Leibniz rule.  p is a Darboux polynomial with cofactor c
exactly when poly.exact_divide(apply(p), p) is c.  Also here: the exact
local-nilpotency test, and the shape and analysis of Shamsuddin-type
derivations d/dx + (a(x)y + b(x)) d/dy.
"""

from math import lcm

from .poly import BiPoly, DomainError, LaurentUniPoly, UniPoly, kdelta, kpack, kunpack


class Derivation:
    """Derivation of Q[x, y] with dx = delta(x), dy = delta(y)."""

    __slots__ = ("dx", "dy")

    def __init__(self, dx, dy):
        self.dx = dx if isinstance(dx, BiPoly) else BiPoly.const(dx)
        self.dy = dy if isinstance(dy, BiPoly) else BiPoly.const(dy)

    def apply(self, p):
        """delta(p), in one pass of the packed delta step: every monomial
        it forms has total degree at most deg p + rise()."""
        if not p.terms:
            return p
        s = (p.total_degree() + self.rise()).bit_length()
        den, ox, oy = self.packed(s)
        return p._lowest(p.nvars, p.den * den, kunpack(kdelta({}, kpack(p.terms, s), s, ox, oy), s))

    def rise(self):
        """max(d - 1, 0), d the larger total degree of dx and dy: delta
        raises no total degree by more."""
        return max(self.dx.total_degree() - 1, self.dy.total_degree() - 1, 0)

    def packed(self, s):
        """(L, ox, oy) for poly.kdelta at shift s: L the lcm of the
        denominators of dx and dy, and ox and oy the terms of L*dx/x and
        L*dy/y as (key offset, int) pairs."""
        dx, dy = self.dx, self.dy
        den = lcm(dx.den, dy.den)
        ox = [(((a - 1) << s) + b, c * (den // dx.den)) for (a, b), c in dx.terms.items()]
        oy = [((a << s) + b - 1, c * (den // dy.den)) for (a, b), c in dy.terms.items()]
        return den, ox, oy

    @property
    def is_zero(self):
        return self.dx.is_zero and self.dy.is_zero

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
        """delta(p) = dx * p'; library API, as Derivation.apply."""
        # an MPoly product takes the type of its left operand, dx
        return self.dx * p.derivative()

    @property
    def is_zero(self):
        """Library API, as Derivation.is_zero."""
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


def shamsuddin_analyze(a, b):
    """Analyze d/dx + (a*y + b) d/dy with a, b in Q[x], a nonzero.

    The derivation sends y - c to a*(y - c) exactly when c' = a*c + b;
    solvability of that linear ODE in Q[x] separates the unique-Darboux
    case from the d-simple case.  It is solved from the top down: c_k*x^k
    adds -lc(a)*c_k*x^(k + deg a) and lower terms to c' - a*c - b, so the
    coefficient of x^(k + deg a) fixes c_k once the higher ones are known;
    a remainder left below x^(deg a) means no solution.  A solution is
    unique: deg(a*c) > deg c' for c != 0, so c' = a*c has none.
    """
    if a.is_zero:
        raise DomainError("a must be nonzero for the Shamsuddin form")
    if b.is_zero:
        return ShamsuddinResult("unique_darboux", UniPoly.zero())
    da, lc = a.degree(), a.lc()
    c, rest = UniPoly.zero(), -b  # rest = c' - a*c - b
    for k in range(b.degree() - da, -1, -1):
        term = UniPoly.monomial(k, rest.coeff(k + da) / lc)
        c += term
        rest += term.derivative() - a * term
    if rest.is_zero:
        return ShamsuddinResult("unique_darboux", c)
    return ShamsuddinResult("d_simple")

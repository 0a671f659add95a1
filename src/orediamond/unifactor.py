"""Factorization in Q[t] by elementary exact methods.

Strategy: Yun square-free decomposition, then per square-free factor
strip all rational roots and all monic quadratic factors with rational
coefficients (found by symbolic division with parametric quadratic and
elimination; _quadratic_factor proves the search exhaustive).  What
remains has no linear or quadratic factor, so a remainder of degree at
most five is certifiably irreducible.  certified=False means one thing
only: a leftover factor of degree 6 or more, which could still split
(e.g. as two cubics).
"""

from .poly import DomainError, UniPoly, exact_divide, rational_roots, squarefree_decomposition, uni_gcd
from .multipoly import MPoly, mpoly_resultant


class FactorReport:
    """Monic factorization p = unit * prod(atom^mult)."""

    __slots__ = ("unit", "factors", "certified")

    def __init__(self, unit, factors, certified):
        self.unit = unit
        self.factors = list(factors)
        self.certified = certified

    def __repr__(self):
        return f"FactorReport(unit={self.unit}, factors={self.factors}, certified={self.certified})"


def _quadratic_factor(f):
    """A monic rational quadratic factor of f, or None when it has none.

    f is monic of degree n >= 3 without rational roots.  Dividing f by
    t^2 + a*t + b leaves r1*t + r0 with r1, r0 in Q[a, b], and their
    common zeros over C are the (a, b) with t^2 + a*t + b dividing f:
    finitely many, as f has finitely many monic quadratic factors over
    C, and at least one.  At b = 0 the divisor is t*(t + a), so
    r0(a, 0) = f(0) != 0 and r1(a, 0) = (f(0) - f(-a))/a has degree
    n - 1: neither is zero.  Were both free of b, their common zeros
    would be empty or infinite, so the resultant in b is defined; it is
    nonzero, as a common factor of positive degree in b has infinitely
    many zeros; it lies in (r0, r1) ∩ Q[a] (Cox, Little & O'Shea, 3.6),
    so it vanishes at a common zero and is a nonconstant polynomial in
    a.  At each of its roots a0, r1 and r0 are not both zero as
    polynomials in b, which would again give infinitely many common
    zeros, so their gcd is defined, and a rational root b0 of it makes
    t^2 + a0*t + b0 divide f.
    """
    a_var, b_var = MPoly.var(2, 0), MPoly.var(2, 1)
    rem = [MPoly.const(2, c) for c in f.coeffs]
    for k in range(len(rem) - 1, 1, -1):
        # c_k = f_k - a*c_(k+1) - b*c_(k+2) has a^(n-k) with coefficient (-1)^(n-k) (f monic), so c_k != 0
        c = rem[k]
        rem[k - 1] = rem[k - 1] - c * a_var
        rem[k - 2] = rem[k - 2] - c * b_var
    r1, r0 = rem[1], rem[0]
    for a0 in rational_roots(mpoly_resultant(r0, r1, 1).as_unipoly(0)):
        u0, u1 = (r.substitute({0: a0}).as_unipoly(1) for r in (r0, r1))
        roots = rational_roots(uni_gcd(u0, u1))
        if roots:
            return UniPoly([roots[0], a0, 1])
    return None


def _factor_squarefree(f):
    """Atoms of a monic square-free f; returns (atoms, certified).  Without
    rational roots a cubic has no quadratic factor, its cofactor linear."""
    atoms = []
    for r in rational_roots(f):
        lin = UniPoly([-r, 1])
        atoms.append(lin)
        f = exact_divide(f, lin)
    while f.degree() >= 4 and (quad := _quadratic_factor(f)) is not None:
        atoms.append(quad)
        f = exact_divide(f, quad)
    # f has no factor of degree 1 or 2 now, so below degree 6 it is irreducible
    if f.degree() >= 2:
        atoms.append(f)
    return atoms, f.degree() < 6


def factor_univariate(p):
    """Complete monic factorization of p over Q, with a certainty flag."""
    if p.is_zero:
        raise DomainError("factorization of the zero polynomial")
    unit = p.lc()
    if p.degree() == 0:
        return FactorReport(unit, [], True)
    factors = []
    certified = True
    for sqf, mult in squarefree_decomposition(p):
        atoms, ok = _factor_squarefree(sqf)
        certified = certified and ok
        for a in atoms:
            factors.append((a, mult))
    factors.sort(key=lambda fm: (fm[0].degree(), fm[0].coeffs))
    return FactorReport(unit, factors, certified)


def is_irreducible(p):
    """(irreducible, certified) for p in Q[t]."""
    if p.is_zero or p.degree() <= 0:
        raise DomainError("irreducibility is for positive-degree polynomials")
    if p.degree() == 1:
        return True, True
    rep = factor_univariate(p)
    if len(rep.factors) == 1 and rep.factors[0][1] == 1:
        return True, rep.certified
    return False, True

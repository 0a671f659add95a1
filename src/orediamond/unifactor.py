"""Factorization in Q[t] by elementary exact methods.

Strategy: Yun square-free decomposition, then per square-free factor
strip all rational roots and all monic quadratic factors with rational
coefficients (found by symbolic division with parametric quadratic and
elimination).  What remains has no linear or quadratic factor, so a
remainder of degree at most five is certifiably irreducible; higher
degrees could still split (e.g. as two cubics) and are reported with
certified=False.
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
    """A monic rational quadratic factor of f (degree >= 3), or None.

    Returns (factor, certain) where certain=False means the search was
    inconclusive rather than exhaustive.
    """
    a_var, b_var = MPoly.var(2, 0), MPoly.var(2, 1)
    rem = [MPoly.const(2, c) for c in f.coeffs]
    for k in range(len(rem) - 1, 1, -1):
        c = rem[k]
        if c.is_zero:
            continue
        rem[k] = MPoly.zero(2)
        rem[k - 1] = rem[k - 1] - c * a_var
        rem[k - 2] = rem[k - 2] - c * b_var
    r1, r0 = rem[1], rem[0]
    if r1.is_zero and r0.is_zero:
        raise DomainError("degenerate division remainder")
    if r1.is_zero or r0.is_zero:
        # solutions form a curve in one equation; outside this search's reach
        return None, False
    try:
        res = mpoly_resultant(r0, r1, 1)
    except DomainError:
        return None, False
    if res.is_zero:
        return None, False
    if res.is_constant:
        return None, True
    a_poly = res.as_unipoly(0)
    for a0 in rational_roots(a_poly):
        u1 = r1.substitute({0: a0}).as_unipoly(1)
        u0 = r0.substitute({0: a0}).as_unipoly(1)
        if u1.is_zero and u0.is_zero:
            continue
        if u1.is_zero or u0.is_zero:
            g = u0 if u1.is_zero else u1
        else:
            g = uni_gcd(u0, u1)
        if g.is_constant:
            continue
        for b0 in rational_roots(g):
            cand = UniPoly([b0, a0, 1])
            if exact_divide(f, cand) is not None:
                return cand, True
    return None, True


def _factor_squarefree(f):
    """Atoms of a monic square-free f; returns (atoms, certified)."""
    atoms = []
    certified = True
    for r in rational_roots(f):
        lin = UniPoly([-r, 1])
        atoms.append(lin)
        f = exact_divide(f, lin)
    while f.degree() >= 3:
        quad, certain = _quadratic_factor(f)
        if quad is None:
            if not certain:
                certified = False
            break
        atoms.append(quad)
        f = exact_divide(f, quad)
    if f.degree() == 2:
        atoms.append(f)
    elif f.degree() >= 3:
        atoms.append(f)
        if f.degree() >= 6:
            certified = False
    return atoms, certified


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

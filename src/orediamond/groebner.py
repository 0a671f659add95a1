"""Groebner bases in Q[x, y] under graded lexicographic order (x > y).

Plain Buchberger with the coprime-leading-term criterion and full
interreduction; two variables keep the pair sets small enough that no
further strategy is needed.  The reductions work on the rational view of
each BiPoly (rational_terms) and build a BiPoly from the result;
buchberger builds each basis element's view, with its leading exponent
and coefficient, once and hands them to normal_form.
"""

from .rational import QONE
from .poly import BiPoly, DomainError, _degree_lex, kmul_term, ksub


def _lcm_exp(ea, eb):
    return (max(ea[0], eb[0]), max(ea[1], eb[1]))


def _divisible(exp, by):
    return exp[0] >= by[0] and exp[1] >= by[1]


def _lead(g):
    """(leading exponent, leading coefficient, rational terms) of a nonzero g."""
    return g.leading_exp(), g.lc(), g.rational_terms()


def normal_form(p, basis, leads=None):
    """Remainder of p on division by basis (every term fully reduced).
    leads, when given, holds _lead(g) for every g of basis, so that a
    caller reducing many polynomials builds them once."""
    if not basis:
        return p
    if leads is None:
        leads = [_lead(g) for g in basis if not g.is_zero]
    rem = p.rational_terms()
    out = {}
    while rem:
        rexp = max(rem, key=_degree_lex)
        c = rem[rexp]
        for gexp, glc, gterms in leads:
            if _divisible(rexp, gexp):
                shift = (rexp[0] - gexp[0], rexp[1] - gexp[1])
                rem = ksub(rem, kmul_term(gterms, shift, c / glc))
                break
        else:
            out[rexp] = c
            del rem[rexp]
    return BiPoly(out)


def _s_poly(fl, gl):
    """The S-polynomial of the elements whose _lead data are fl and gl."""
    (fe, flc, fterms), (ge, glc, gterms) = fl, gl
    l = _lcm_exp(fe, ge)
    tf = kmul_term(fterms, (l[0] - fe[0], l[1] - fe[1]), QONE / flc)
    tg = kmul_term(gterms, (l[0] - ge[0], l[1] - ge[1]), QONE / glc)
    return BiPoly(ksub(tf, tg))


def s_polynomial(f, g):
    return _s_poly(_lead(f), _lead(g))


def buchberger(gens):
    """Reduced Groebner basis of the ideal generated by gens."""
    basis = [g.monic() for g in gens if not g.is_zero]
    if not basis:
        raise DomainError("the zero ideal has no Groebner basis here; give a nonzero generator")
    leads = [_lead(g) for g in basis]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop()
        fe, ge = leads[i][0], leads[j][0]
        if _lcm_exp(fe, ge) == (fe[0] + ge[0], fe[1] + ge[1]):
            continue  # coprime leading terms
        r = normal_form(_s_poly(leads[i], leads[j]), basis, leads)
        if not r.is_zero:
            r = r.monic()
            basis.append(r)
            leads.append(_lead(r))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    # minimalize: drop generators whose leading term another divides
    basis.sort(key=lambda g: _degree_lex(g.leading_exp()))
    minimal = []
    for g in basis:
        ge = g.leading_exp()
        if not any(_divisible(ge, h.leading_exp()) for h in minimal):
            minimal.append(g)
    # reduce each generator by the others
    leads = [_lead(g) for g in minimal]
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        reduced.append(normal_form(g, others, leads[:i] + leads[i + 1 :]).monic())
    reduced.sort(key=lambda g: _degree_lex(g.leading_exp()))
    return reduced


def in_ideal(p, gens):
    """Ideal membership via normal form against a Groebner basis."""
    return normal_form(p, buchberger(gens)).is_zero


def is_unit_ideal(gens):
    """True when the generators have no common zero over the algebraic
    closure, i.e. the ideal is all of Q[x, y]."""
    basis = buchberger(gens)
    return len(basis) == 1 and basis[0].is_constant and not basis[0].is_zero


def has_common_zero_with(gens, p):
    """True when p vanishes somewhere on the zero set of gens."""
    if p.is_zero:
        raise DomainError("the zero polynomial vanishes everywhere; give a nonzero p")
    return not is_unit_ideal(list(gens) + [p])

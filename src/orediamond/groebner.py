"""Groebner bases in Q[x_0, ..., x_{n-1}], on int numerators.

The polynomials are MPoly of any arity (BiPoly is the 2-variable case).
Buchberger's algorithm takes the pair of least lcm first, skips pairs by
the coprime-leading-term and chain criteria, and interreduces (Cox,
Little & O'Shea, Ideals, Varieties, and Algorithms, 2.10).  Reduction
and S-polynomials are fraction-free on the int numerators, and each
result is brought to lowest terms once.  buchberger, normal_form and the
ideal predicates use graded lexicographic order; _eliminate computes a
lexicographic basis, whose elements free of x_0, ..., x_{k-1} form a
Groebner basis of I ∩ Q[x_k, ..., x_{n-1}] by the elimination theorem
(ibid., 3.1).  Both orders take variable 0 first.  The verbs run
buchberger, has_common_zero_with (and through it is_unit_ideal) and
_eliminate; ideal membership is normal_form(p, buchberger(gens)).is_zero.
"""

from math import gcd
from operator import add, ge, sub

from .rational import Q
from .poly import DomainError, _degree_lex, _scaled, kmul_int, ksub


def _lcm_exp(ea, eb):
    return tuple(map(max, ea, eb))


def _divisible(exp, by):
    return all(map(ge, exp, by))


def _lead(g, key):
    """(leading exponent under key, leading numerator, g) of a nonzero g."""
    e = max(g.terms, key=key)
    return e, g.terms[e], g


def normal_form(p, basis):
    """Remainder of p on division by basis in graded lex order, every
    term fully reduced, with p's type; no verb runs it, a tracer target."""
    return _reduce(p, _degree_lex, [_lead(g, _degree_lex) for g in basis if g])


def _reduce(p, key, leads):
    """Remainder of p on division by the elements whose _lead data under
    the order key are leads, every term fully reduced, with p's type.

    To cancel the leading term c*X^e of the remainder by g, whose leading
    numerator is a, the remainder is multiplied by m = a/gcd(a, c) and
    c/gcd(a, c)*X^(e - lexp g) times g's numerators is subtracted; the
    factors m multiply into the denominator, so the result is the
    remainder that division over Q gives."""
    if not leads:
        return p
    rem, den, out = dict(p.terms), p.den, {}
    while rem:
        rexp = max(rem, key=key)
        c = rem[rexp]
        for gexp, a, g in leads:
            if _divisible(rexp, gexp):
                h = gcd(a, c)
                m, k = (a // h, c // h) if a > 0 else (-a // h, -c // h)
                if m != 1:
                    rem, out, den = _scaled(rem, m), _scaled(out, m), den * m
                rem = ksub(rem, kmul_int(g.terms, {tuple(map(sub, rexp, gexp)): k}))
                break
        else:
            out[rexp] = rem.pop(rexp)
    return p._lowest(p.nvars, den, out)


def _s_poly(fl, gl):
    """The S-polynomial of the elements whose _lead data are fl and gl:
    X^(l-fe)*f/lc(f) - X^(l-ge)*g/lc(g) = (ga*X^(l-fe)*F - fa*X^(l-ge)*G) / (fa*ga),
    F and G being the numerators and fa, ga their leading ones."""
    (fe, fa, f), (ge_, ga, g) = fl, gl
    l = _lcm_exp(fe, ge_)
    h = gcd(fa, ga)
    sf, sg, den = ga // h, fa // h, fa * ga // h
    if den < 0:
        sf, sg, den = -sf, -sg, -den
    tf = kmul_int(f.terms, {tuple(map(sub, l, fe)): sf})
    tg = kmul_int(g.terms, {tuple(map(sub, l, ge_)): sg})
    return f._lowest(f.nvars, den, ksub(tf, tg))


def _basis(gens, key):
    """Reduced Groebner basis of the ideal of gens in the order key,
    ascending by leading term."""
    leads = [_lead(g, key) for g in gens if g]
    if not leads:
        raise DomainError("the zero ideal has no Groebner basis here; give a nonzero generator")
    pairs = {(i, j) for j in range(len(leads)) for i in range(j)}
    while pairs:
        i, j = min(pairs, key=lambda ij: (key(_lcm_exp(leads[ij[0]][0], leads[ij[1]][0])), ij))
        pairs.remove((i, j))
        fe, ge_ = leads[i][0], leads[j][0]
        l = _lcm_exp(fe, ge_)
        if l == tuple(map(add, fe, ge_)) or any(
            _divisible(l, leads[k][0]) and not pairs & {(i, k), (k, i), (j, k), (k, j)}
            for k in range(len(leads))
            if k not in (i, j)
        ):
            continue  # coprime leading terms, or the chain criterion
        r = _reduce(_s_poly(leads[i], leads[j]), key, leads)
        if r:
            leads.append(_lead(r, key))
            pairs.update((k, len(leads) - 1) for k in range(len(leads) - 1))
    # minimalize: drop generators whose leading term another divides
    leads.sort(key=lambda lead: key(lead[0]))
    minimal = []
    for lead in leads:
        if not any(_divisible(lead[0], other[0]) for other in minimal):
            minimal.append(lead)
    # reduce each generator by the others; its leading term stays, and so
    # does the order
    reduced = []
    for i, (e, _, g) in enumerate(minimal):
        r = _reduce(g, key, minimal[:i] + minimal[i + 1 :])
        reduced.append(r * Q(r.den, r.terms[e]))
    return reduced


def buchberger(gens):
    """Reduced Groebner basis of the ideal generated by gens, in graded
    lex order."""
    return _basis(gens, _degree_lex)


def _eliminate(gens, k):
    """The reduced Groebner basis of I ∩ Q[x_k, ..., x_{n-1}], I the
    ideal of gens: the elements of I's reduced lex basis free of x_0, ...,
    x_{k-1}.  Empty when the intersection is 0."""
    # an exponent tuple is its own lexicographic key
    return [g for g in _basis(gens, tuple) if not any(any(e[:k]) for e in g.terms)]


def is_unit_ideal(gens):
    """True when the generators have no common zero over the algebraic
    closure, i.e. the ideal is the whole polynomial ring."""
    basis = buchberger(gens)
    return len(basis) == 1 and basis[0].is_constant and not basis[0].is_zero


def has_common_zero_with(gens, p):
    """True when p vanishes somewhere on the zero set of gens."""
    if p.is_zero:
        raise DomainError("the zero polynomial vanishes everywhere; give a nonzero p")
    return not is_unit_ideal(list(gens) + [p])

"""Groebner engine: pinned examples, structural properties, the
Macaulay-matrix linear-algebra membership oracle, and sympy."""

import random

import pytest

from orediamond import (
    BiPoly,
    DomainError,
    Q,
    buchberger,
    has_common_zero_with,
    is_unit_ideal,
    normal_form,
)
from orediamond.groebner import _eliminate, _lead, _s_poly
from orediamond.poly import _degree_lex
from orediamond.multipoly import MPoly
from util import bi, macaulay_member, random_bipoly


def s_poly(f, g):
    """The S-polynomial of f and g in graded lex order, as Buchberger's
    algorithm forms it."""
    return _s_poly(_lead(f, _degree_lex), _lead(g, _degree_lex))


class TestBuchberger:
    def test_already_reduced(self):
        assert buchberger([bi("x"), bi("y")]) == [bi("y"), bi("x")] or buchberger(
            [bi("x"), bi("y")]
        ) == [bi("x"), bi("y")]

    def test_unit_from_difference(self):
        assert buchberger([bi("x"), bi("x + 1")]) == [bi("1")]

    def test_proper_ideal_with_complex_zero(self):
        basis = buchberger([bi("x^2 + y^2 + 2"), bi("x^2 - y^2")])
        assert bi("1") not in basis
        assert not is_unit_ideal([bi("x^2 + y^2 + 2"), bi("x^2 - y^2")])

    def test_all_zero_rejected(self):
        with pytest.raises(DomainError):
            buchberger([BiPoly.zero(), BiPoly.zero()])

    def test_idempotence(self):
        rng = random.Random(201)
        for _ in range(10):
            gens = [random_bipoly(rng, maxdeg=3, nonzero=True) for _ in range(2)]
            basis = buchberger(gens)
            assert buchberger(basis) == basis


class TestNormalForm:
    def test_substitution(self):
        gb = buchberger([bi("x - y")])
        assert normal_form(bi("x^2*y"), gb) == bi("y^3")

    def test_member_reduces_to_zero(self):
        gb = buchberger([bi("x"), bi("y")])
        assert normal_form(bi("x^2 + y"), gb).is_zero

    def test_irreducible_stays(self):
        gb = buchberger([bi("x^2"), bi("y")])
        assert normal_form(bi("x + 1"), gb) == bi("x + 1")

    def test_canonical_form(self):
        rng = random.Random(202)
        gens = [bi("x^2 - y"), bi("x*y - 1")]
        gb = buchberger(gens)
        for _ in range(20):
            p = random_bipoly(rng, maxdeg=4)
            noise = sum(
                (random_bipoly(rng, maxdeg=2) * g for g in gens), BiPoly.zero()
            )
            assert normal_form(p, gb) == normal_form(p + noise, gb)

    def test_s_polynomial_definition(self):
        """S(f, g) = X^(l-fe)*f/lc(f) - X^(l-ge)*g/lc(g), with rational and
        negative leading coefficients."""
        assert s_poly(bi("2*x^2 + y"), bi("3*x*y + x")) == bi("1/2*y^2 - 1/3*x^2")
        rng = random.Random(204)
        for _ in range(40):
            f, g = (random_bipoly(rng, maxdeg=3, nonzero=True) * Q(rng.choice([-3, 2]), rng.randrange(1, 5)) for _ in range(2))
            (fi, fj), (gi, gj) = f.leading_exp(), g.leading_exp()
            li, lj = max(fi, gi), max(fj, gj)
            want = BiPoly.monomial(li - fi, lj - fj) * f * (1 / f.lc()) - BiPoly.monomial(li - gi, lj - gj) * g * (1 / g.lc())
            assert s_poly(f, g) == want

    def test_spoly_reduces_in_basis(self):
        gens = [bi("x^2 + y"), bi("x*y + x")]
        gb = buchberger(gens)
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                assert normal_form(s_poly(gb[i], gb[j]), gb).is_zero


class TestUnitIdeal:
    def test_constant_generator(self):
        assert is_unit_ideal([bi("1"), bi("x*y^2")])

    def test_origin_common_zero(self):
        assert not is_unit_ideal([bi("x"), bi("y")])

    def test_shared_factor_ideal(self):
        f = bi("x*y + y - 1") * bi("y")
        g = -bi("y^3") * bi("x*y + y - 1")
        assert not is_unit_ideal([f, g])


class TestCommonZero:
    def test_origin(self):
        assert has_common_zero_with([bi("x"), bi("y")], bi("x"))

    def test_empty_variety(self):
        assert not has_common_zero_with([bi("1")], bi("y"))

    def test_pencil_member_missing_locus(self):
        f = bi("x*y + y - 1") * bi("y")
        g = -bi("y^3") * bi("x*y + y - 1")
        assert not has_common_zero_with([f, g], bi("x*y - 1"))
        assert has_common_zero_with([f, g], bi("y"))
        assert has_common_zero_with([f, g], bi("x*y + y - 1"))

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            has_common_zero_with([bi("x")], BiPoly.zero())


class TestMacaulayOracle:
    def test_agreement_on_random_ideals(self):
        rng = random.Random(203)
        checked = 0
        while checked < 20:
            gens = [random_bipoly(rng, maxdeg=3, nonzero=True) for _ in range(2)]
            if any(g.is_constant for g in gens):
                continue
            checked += 1
            gb = buchberger(gens)
            # constructed member: both answers must be yes
            u1 = random_bipoly(rng, maxdeg=2)
            u2 = random_bipoly(rng, maxdeg=2)
            member = u1 * gens[0] + u2 * gens[1]
            if not member.is_zero and int(member.total_degree()) <= 8:
                assert normal_form(member, gb).is_zero
                assert macaulay_member(member, gens, bound=8)
            # random probe: answers must agree
            p = random_bipoly(rng, maxdeg=3, nonzero=True)
            assert normal_form(p, gb).is_zero == macaulay_member(p, gens, bound=8)


def test_reduced_basis_matches_sympy():
    """A reduced Groebner basis is unique, so buchberger's equals sympy's
    grlex basis (x > y), each made monic."""
    sp = pytest.importorskip("sympy")
    x, y = sp.symbols("x y")
    rng = random.Random(311)
    for _ in range(25):
        gens = [random_bipoly(rng, maxdeg=3, nonzero=True) for _ in range(rng.randrange(2, 4))]
        exprs = [
            sum(sp.Rational(c.numerator, c.denominator) * x**i * y**j for (i, j), c in g.rational_terms().items())
            for g in gens
        ]
        theirs = [
            BiPoly({e: Q(int(c.p), int(c.q)) for e, c in sp.Poly(h, x, y).terms()}).monic()
            for h in sp.groebner(exprs, x, y, order="grlex").exprs
        ]
        ours = buchberger(gens)
        assert len(ours) == len(theirs) and set(ours) == set(theirs)


def _mpoly(rng, nvars, maxdeg, nterms):
    """Seeded nonzero polynomial with rational coefficients; a BiPoly in
    two variables."""
    terms = {}
    for _ in range(nterms):
        exp = [0] * nvars
        for _ in range(rng.randrange(maxdeg + 1)):
            exp[rng.randrange(nvars)] += 1
        terms[tuple(exp)] = Q(rng.randrange(-9, 10), rng.randrange(1, 4))
    p = BiPoly(terms) if nvars == 2 else MPoly(nvars, terms)
    return p if p else p._const(1)


def _to_sympy(sp, p, syms):
    return sp.Add(
        *(
            sp.Rational(c.numerator, c.denominator) * sp.Mul(*(s**e for s, e in zip(syms, exp)))
            for exp, c in p.rational_terms().items()
        )
    )


def _from_sympy(sp, expr, syms):
    return MPoly(len(syms), {e: Q(int(c.p), int(c.q)) for e, c in sp.Poly(expr, *syms).terms()})


def test_normal_form_matches_sympy_reduced():
    """normal_form against the remainder of sympy.reduced on the grlex
    basis, in two and three variables with rational coefficients; the
    bases agree too, and the remainder keeps the input's type."""
    sp = pytest.importorskip("sympy")
    rng = random.Random(312)
    for trial in range(30):
        nvars = 2 + trial % 2
        syms = sp.symbols(f"v0:{nvars}")
        gens = [_mpoly(rng, nvars, 2, 3) for _ in range(rng.randrange(1, 4))]
        theirs = sp.groebner([_to_sympy(sp, g, syms) for g in gens], *syms, order="grlex")
        basis = buchberger(gens)
        assert len(basis) == len(theirs.exprs)
        assert set(basis) == {_from_sympy(sp, h, syms).monic() for h in theirs.exprs}
        for _ in range(4):
            p = _mpoly(rng, nvars, 4, 6)
            _, r = sp.reduced(_to_sympy(sp, p, syms), theirs.exprs, *syms, order="grlex")
            ours = normal_form(p, basis)
            assert type(ours) is type(p)
            assert ours == _from_sympy(sp, r, syms)


def test_eliminate_matches_sympy_lex():
    """_eliminate(gens, 2) against the elements of sympy's reduced lex
    basis (x > y > t) free of x and y: pencil-shaped ideals (f, g, p + t*q)
    with f, g, p, q in Q[x, y], and other ideals of Q[x, y, t]."""
    sp = pytest.importorskip("sympy")
    syms = x, y, _ = sp.symbols("x y t")
    t = MPoly.var(3, 2)
    rng = random.Random(313)
    kinds = {"zero": 0, "nonzero": 0}
    for trial in range(40):
        if trial % 2:
            f, g, p, q_ = (MPoly.from_bipoly(_mpoly(rng, 2, 2, 3), 3) for _ in range(4))
            gens = [f, g, p + t * q_]
        else:
            gens = [_mpoly(rng, 3, 2, 3) for _ in range(rng.randrange(2, 4))]
        theirs = sp.groebner([_to_sympy(sp, g, syms) for g in gens], *syms, order="lex")
        want = [_from_sympy(sp, h, syms).monic() for h in theirs.exprs if not h.has(x, y)]
        ours = _eliminate(gens, 2)
        assert ours == want
        kinds["nonzero" if ours else "zero"] += 1
    assert min(kinds.values()) >= 8

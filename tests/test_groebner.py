"""Groebner engine: pinned examples, structural properties, and the
Macaulay-matrix linear-algebra membership oracle."""

import random

import pytest

from orediamond import (
    BiPoly,
    DomainError,
    Q,
    buchberger,
    has_common_zero_with,
    in_ideal,
    is_unit_ideal,
    normal_form,
    s_polynomial,
)
from util import bi, macaulay_member, random_bipoly


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

    def test_spoly_reduces_in_basis(self):
        gens = [bi("x^2 + y"), bi("x*y + x")]
        gb = buchberger(gens)
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                assert normal_form(s_polynomial(gb[i], gb[j]), gb).is_zero


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
            assert in_ideal(p, gens) == macaulay_member(p, gens, bound=8)


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

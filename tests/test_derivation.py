"""Derivations: application, cofactors, nilpotency, and the first-order
linear (Shamsuddin) analysis."""

import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from orediamond import (
    BiPoly,
    Derivation,
    DomainError,
    Q,
    UniPoly,
    derivation,
    locally_nilpotent_bounded,
    shamsuddin_analyze,
)
from util import bi, random_bipoly, random_unipoly, uni


class TestApply:
    def test_euler(self):
        d = Derivation(bi("x"), bi("y"))
        assert d.apply(bi("x*y")) == bi("2*x*y")

    def test_negative_y_square(self):
        d = Derivation(bi("1"), bi("-1*y^2"))
        assert d.apply(bi("y")) == bi("-1*y^2")

    def test_product_rule_expansion(self):
        d = Derivation(bi("1"), bi("x*y^2"))
        assert d.apply(bi("x^2*y + 2")) == bi("2*x*y + x^3*y^2")

    def test_leibniz_random(self):
        rng = random.Random(301)
        d = Derivation(bi("x + y^2"), bi("x*y - 3"))
        for _ in range(1000):
            p = random_bipoly(rng, maxdeg=6, nterms=3)
            q_ = random_bipoly(rng, maxdeg=6, nterms=3)
            assert d.apply(p * q_) == d.apply(p) * q_ + p * d.apply(q_)


class TestCofactor:
    def test_euler_linear_form(self):
        d = Derivation(bi("x"), bi("y"))
        assert d.cofactor(bi("x - y")) == bi("1")

    def test_final_example_member(self):
        d = Derivation(bi("1"), bi("-1*y^2"))
        assert d.cofactor(bi("x*y - 1")) == bi("-1*y")

    def test_not_darboux(self):
        d = Derivation(bi("1"), bi("1"))
        assert d.cofactor(bi("x")) is None
        assert not d.is_darboux(bi("x"))

    def test_constant_rejected(self):
        d = Derivation(bi("x"), bi("y"))
        with pytest.raises(DomainError):
            d.cofactor(bi("3"))
        with pytest.raises(DomainError):
            d.cofactor(BiPoly.zero())


def _coordinate(maps):
    """First component of a composition of triangular automorphisms.

    Each map is (a, low, top) with a, top != 0: (x, y) -> (y, a*x + p(y)),
    where p has the coefficients low + [top], lowest first.
    """
    f, g = bi("x"), bi("y")
    for a, low, top in maps:
        pg = BiPoly.zero()
        for c in reversed(low + [top]):
            pg = pg * g + BiPoly.const(Q(c))
        f, g = g, Q(a) * f + pg
    return f


def _hamiltonian(f, h):
    """h(f) * (f_y d/dx - f_x d/dy), a locally nilpotent derivation
    whenever f is a coordinate."""
    hf = BiPoly.zero()
    for c in reversed(h):
        hf = hf * f + BiPoly.const(Q(c))
    return Derivation(hf * f.deriv_y(), -(hf * f.deriv_x()))


_small = st.integers(min_value=-3, max_value=3)
_nonzero = _small.filter(bool)
_triangular_maps = st.lists(
    st.tuples(_nonzero, st.lists(_small, min_size=1, max_size=2), _nonzero), min_size=1, max_size=3
)


@st.composite
def _bipolys(draw, maxdeg=4):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=maxdeg))
        j = draw(st.integers(min_value=0, max_value=maxdeg - i))
        terms[(i, j)] = Q(draw(_nonzero))
    return BiPoly(terms)


class TestNilpotency:
    def test_triangular(self):
        v = locally_nilpotent_bounded(Derivation(bi("1"), bi("x")))
        assert v.status == "nilpotent"
        assert v.order == 3

    def test_eigenvector(self):
        # x is an eigenvector of (x, 0): caught by the divergence
        v = locally_nilpotent_bounded(Derivation(bi("x"), BiPoly.zero()))
        assert (v.status, v.reason) == ("not_nilpotent", "divergence")
        # x and y are eigenvectors of (x, -y), whose divergence is 0
        v = locally_nilpotent_bounded(Derivation(bi("x"), bi("-1*y")))
        assert (v.status, v.reason) == ("not_nilpotent", "order_bound")

    def test_unknown_growth(self, monkeypatch):
        # y -> y^2 -> 2*y^3 -> ... never vanishes; the divergence 2*y says so
        v = locally_nilpotent_bounded(Derivation(bi("1"), bi("y^2")))
        assert (v.status, v.reason) == ("not_nilpotent", "divergence")
        # an iterate above the term cap stops the test undecided
        monkeypatch.setattr(derivation, "TERM_LIMIT", 1)
        v = locally_nilpotent_bounded(Derivation(bi("y^2"), bi("x^2")))
        assert (v.status, v.reason) == ("unknown", "term_limit")

    def test_nilpotent_implies_powers_vanish(self):
        d = Derivation(bi("y"), BiPoly.zero())
        v = locally_nilpotent_bounded(d)
        assert v.status == "nilpotent"
        p = bi("x")
        for _ in range(v.order):
            p = d.apply(p)
        assert p.is_zero

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(_triangular_maps, st.lists(_small, min_size=1, max_size=2).filter(any))
    def test_rentschler_form_detected(self, maps, h):
        f = _coordinate(maps)
        d = _hamiltonian(f, h)
        v = locally_nilpotent_bounded(d)
        assert v.status == "nilpotent"
        assert v.order <= max(d.dx.total_degree(), d.dy.total_degree()) + 2
        for gen in (bi("x"), bi("y")):
            p = gen
            for _ in range(v.order):
                p = d.apply(p)
            assert p.is_zero

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_bipolys(), _bipolys())
    def test_nonzero_divergence_rejected(self, dx, dy):
        assume(not (dx.deriv_x() + dy.deriv_y()).is_zero)
        v = locally_nilpotent_bounded(Derivation(dx, dy))
        assert (v.status, v.reason) == ("not_nilpotent", "divergence")

    def test_divergence_free_not_nilpotent(self):
        rng = random.Random(304)
        h = random_bipoly(rng, maxdeg=7, nterms=8)
        hamiltonian = Derivation(h.deriv_y(), -h.deriv_x())
        assert max(hamiltonian.dx.total_degree(), hamiltonian.dy.total_degree()) == 6
        for d in (Derivation(bi("y^2"), bi("x^2")), hamiltonian):
            v = locally_nilpotent_bounded(d)
            assert (v.status, v.reason) == ("not_nilpotent", "order_bound")


class TestShamsuddin:
    def test_a_one_b_zero(self):
        r = shamsuddin_analyze(uni("1"), UniPoly.zero())
        assert r.status == "unique_darboux"
        assert r.solution == UniPoly.zero()

    def test_constant_solution(self):
        r = shamsuddin_analyze(uni("x"), uni("-1*x"))
        assert r.status == "unique_darboux"
        assert r.solution == uni("1")

    def test_no_polynomial_solution(self):
        r = shamsuddin_analyze(uni("x"), uni("1"))
        assert r.status == "d_simple"

    def test_zero_a_rejected(self):
        with pytest.raises(DomainError):
            shamsuddin_analyze(UniPoly.zero(), uni("1"))

    def test_solution_gives_darboux_element(self):
        rng = random.Random(302)
        for _ in range(30):
            a = random_unipoly(rng, maxdeg=2, nonzero=True)
            b = random_unipoly(rng, maxdeg=3)
            r = shamsuddin_analyze(a, b)
            if r.status != "unique_darboux":
                continue
            c = r.solution
            # c' = a*c + b must hold exactly
            assert c.derivative() == a * c + b
            d = Derivation(
                bi("1"),
                BiPoly.from_uni(a) * bi("y") + BiPoly.from_uni(b),
            )
            p = bi("y") - BiPoly.from_uni(c)
            assert d.cofactor(p) == BiPoly.from_uni(a)


class TestClosedDarbouxFamily:
    def test_family_identity(self):
        # p = sum_k ((-1)^k / k!) a^(k) y^(n-k) with n = deg a satisfies
        # (dx - y^2 dy)(p) = -n*y*p for monic a
        rng = random.Random(303)
        d = Derivation(bi("1"), bi("-1*y^2"))
        for _ in range(25):
            deg = rng.randrange(1, 5)
            a = random_unipoly(rng, maxdeg=deg, monic=True)
            n = a.degree()
            p = BiPoly.zero()
            der = a
            for k in range(n + 1):
                coeff = Q((-1) ** k, math.factorial(k))
                p = p + coeff * BiPoly.from_uni(der) * bi("y") ** (n - k)
                der = der.derivative()
            assert (d.apply(p) + Q(n) * bi("y") * p).is_zero

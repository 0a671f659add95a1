"""Derivations: application, cofactors, nilpotency, and the first-order
linear (Shamsuddin) analysis."""

import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from orediamond import (
    BiPoly,
    DarbouxCert,
    Derivation,
    DomainError,
    LaurentUniPoly,
    Q,
    UniDerivation,
    UniPoly,
    derivation,
    exact_divide,
    locally_nilpotent_bounded,
    shamsuddin_analyze,
)
from util import bi, lau, leibniz_delta, random_bipoly, random_unipoly, uni


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

    @pytest.mark.parametrize(
        "dx, dy",
        [
            ("x + y^2", "x*y - 3"),
            ("x - x*y", "x*y - y"),
            ("1/2*x - 3/7*x*y", "2/5*y^2 + 1/3"),
            ("-5/6", "1/4*y^3 - x"),
            ("2", "-3"),
            ("1/3", "0"),
            ("0", "x^2*y - 7"),
            ("y^3 - 2/9*x", "0"),
            ("0", "0"),
        ],
        ids=["int", "lotka-volterra", "rational", "rational-constant-dx", "constant", "constant-dx-only",
             "zero-dx", "zero-dy", "zero"],
    )
    def test_matches_term_by_term_oracle(self, dx, dy):
        rng = random.Random(302)
        d = Derivation(bi(dx), bi(dy))
        inputs = [BiPoly.zero(), bi("7"), bi("x"), bi("y"), bi("x^1000 - 2/3*y^999*x + y")]
        for _ in range(60):
            p = random_bipoly(rng, maxdeg=rng.choice((1, 3, 9)), nterms=rng.randrange(1, 8))
            inputs.append(p * Q(rng.choice((1, 1, -2, 5)), rng.choice((1, 3, 14))))
        for p in inputs:
            assert d.apply(p) == leibniz_delta(d, p)


class TestUniDerivation:
    def test_coefficient_types(self):
        # a Laurent derivation takes a polynomial or a constant for delta(x)
        d = UniDerivation(uni("x^2"), laurent=True)
        assert type(d.dx) is LaurentUniPoly and d.dx == lau("x^2")
        d = UniDerivation(Q(3), laurent=True)
        assert type(d.dx) is LaurentUniPoly and d.dx == lau("3")
        # a polynomial one a Laurent polynomial without negative powers, or a constant
        d = UniDerivation(lau("x^2 + 1"))
        assert type(d.dx) is UniPoly and d.dx == uni("x^2 + 1")
        d = UniDerivation(3)
        assert type(d.dx) is UniPoly and d.dx == uni("3")

    def test_apply_and_is_zero(self):
        assert UniDerivation(uni("x^2")).apply(uni("x^3")) == uni("3*x^4")
        assert UniDerivation(lau("x"), laurent=True).apply(lau("x^-1")) == lau("-1*x^-1")
        assert UniDerivation(0).is_zero and UniDerivation(0, laurent=True).is_zero
        assert not UniDerivation(uni("x")).is_zero


class TestCofactor:
    """The cofactor of a Darboux polynomial p is exact_divide(d.apply(p), p)."""

    def test_euler_linear_form(self):
        d = Derivation(bi("x"), bi("y"))
        assert exact_divide(d.apply(bi("x - y")), bi("x - y")) == bi("1")

    def test_final_example_member(self):
        d = Derivation(bi("1"), bi("-1*y^2"))
        assert exact_divide(d.apply(bi("x*y - 1")), bi("x*y - 1")) == bi("-1*y")

    def test_not_darboux(self):
        d = Derivation(bi("1"), bi("1"))
        assert exact_divide(d.apply(bi("x")), bi("x")) is None

    def test_constant_rejected(self):
        """A constant satisfies delta(c) = 0*c, but Darboux polynomials are
        nonconstant; the zero polynomial has no cofactor at all."""
        d = Derivation(bi("x"), bi("y"))
        with pytest.raises(DomainError):
            DarbouxCert(d, bi("3"), BiPoly.zero())
        with pytest.raises(DomainError):
            DarbouxCert(d, BiPoly.zero(), BiPoly.zero())
        with pytest.raises(DomainError):
            exact_divide(d.apply(BiPoly.zero()), BiPoly.zero())


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
    def test_zero(self):
        v = locally_nilpotent_bounded(Derivation(BiPoly.zero(), BiPoly.zero()))
        assert (v.status, v.order) == ("nilpotent", 1)

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
            assert exact_divide(d.apply(p), p) == BiPoly.from_uni(a)

    def test_matches_sympy_linsolve(self):
        """Status and solution against sympy's linsolve of the coefficient
        equations of c' - a*c - b, c taken of degree deg b + 1 so that the
        oracle assumes no degree; a third of the fields are solvable by
        construction, b = c' - a*c."""
        sp = pytest.importorskip("sympy")
        x = sp.Symbol("x")

        def to_sympy(p):
            return sum(sp.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(p.coeffs))

        rng = random.Random(2525)
        seen = set()
        for k in range(60):
            a = random_unipoly(rng, maxdeg=rng.randrange(4), nonzero=True)
            if k % 3 == 0:
                c = random_unipoly(rng, maxdeg=rng.randrange(4))
                b = c.derivative() - a * c
            else:
                b = random_unipoly(rng, maxdeg=rng.randrange(5))
            r = shamsuddin_analyze(a, b)
            n = max(b.degree(), 0) + 1
            cs = sp.symbols(f"c0:{n + 1}")
            c_expr = sum(ci * x**i for i, ci in enumerate(cs))
            eqs = sp.Poly(sp.diff(c_expr, x) - to_sympy(a) * c_expr - to_sympy(b), x).all_coeffs()
            solutions = sp.linsolve(eqs, cs)
            if solutions == sp.EmptySet:
                assert r.status == "d_simple", (a, b)
            else:
                (sol,) = solutions
                assert not set().union(*(v.free_symbols for v in sol)), (a, b)
                assert r.status == "unique_darboux", (a, b)
                assert to_sympy(r.solution) == sum(v * x**i for i, v in enumerate(sol))
            seen.add((r.status, a.degree() == 0, b.degree() < a.degree()))
        # both verdicts, deg a = 0, and deg b < deg a (never solvable) occur
        assert {("d_simple", False, True), ("d_simple", False, False), ("unique_darboux", True, False)} <= seen
        assert ("unique_darboux", False, False) in seen


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

"""Exact polynomial arithmetic: pinned examples plus randomized
algebraic-law checks."""

import math
import random
from fractions import Fraction

import pytest

from orediamond import (
    BiPoly,
    DomainError,
    LaurentUniPoly,
    Q,
    UniPoly,
    exact_divide,
    gcd,
    rational_roots,
    squarefree_decomposition,
    squarefree_part,
    uni_gcd,
)
from orediamond import linalg, parse
from orediamond.multipoly import MPoly, mpoly_exact_divide, mpoly_resultant
from orediamond.poly import _pseudo_divmod, kmul_int
from util import bi, cleared, gauss_jordan, lau, random_bipoly, random_unipoly, uni


class TestExactDivide:
    def test_difference_of_squares(self):
        assert exact_divide(bi("x^2 - y^2"), bi("x - y")) == bi("x + y")

    def test_constant_term_obstructs(self):
        assert exact_divide(bi("x*y + 1"), bi("x")) is None

    def test_mixed_quotient(self):
        assert exact_divide(bi("2*x*y + x^3*y^2"), bi("x^2*y + 2")) == bi("x*y")

    def test_zero_divisor_rejected(self):
        with pytest.raises(DomainError):
            exact_divide(bi("x"), BiPoly.zero())

    def test_round_trip_random(self):
        rng = random.Random(101)
        for _ in range(200):
            p = random_bipoly(rng)
            q_ = random_bipoly(rng, nonzero=True)
            assert exact_divide(p * q_, q_) == p


def test_mpoly_exact_divide():
    rng = random.Random(113)
    for _ in range(60):
        p = _random_mpoly(rng, 4)
        d = _random_mpoly(rng, 4) + 1
        assert mpoly_exact_divide(p * d, d) == p
        assert mpoly_exact_divide(p * d + MPoly.var(4, 3) ** 7, d) is None


class TestGcd:
    def test_linear_factor(self):
        assert gcd(bi("x^2 - 1"), bi("x - 1")) == bi("x - 1")

    def test_monomials(self):
        assert gcd(bi("x*y"), bi("x")) == bi("x")

    def test_shared_quadratic_factor(self):
        f = (bi("x*y + y - 1")) * bi("y")
        g = -bi("y^3") * bi("x*y + y - 1")
        assert gcd(f, g) == (bi("y") * bi("x*y + y - 1")).monic()

    def test_both_zero_rejected(self):
        with pytest.raises(DomainError):
            gcd(BiPoly.zero(), BiPoly.zero())

    def test_divides_both_and_common_scaling(self):
        rng = random.Random(102)
        for _ in range(40):
            p = random_bipoly(rng, maxdeg=3, nonzero=True)
            q_ = random_bipoly(rng, maxdeg=3, nonzero=True)
            r = random_bipoly(rng, maxdeg=2, nonzero=True)
            g = gcd(p, q_)
            assert exact_divide(p, g) is not None
            assert exact_divide(q_, g) is not None
            assert gcd(p * r, q_ * r) == (g * r).monic()


class TestResultant:
    """mpoly_resultant eliminating y (variable 1) of two BiPoly."""

    def test_two_linear(self):
        assert mpoly_resultant(bi("y + 1"), bi("y - 1"), 1) == bi("-2")

    def test_parabola(self):
        assert mpoly_resultant(bi("y - x^2"), bi("y"), 1) == bi("x^2")

    def test_pencil_pair(self):
        assert mpoly_resultant(bi("y"), bi("x*y - 1"), 1) == bi("-1")

    def test_both_constant_rejected(self):
        with pytest.raises(DomainError):
            mpoly_resultant(bi("3"), bi("5"), 1)

    def test_zero_iff_common_factor(self):
        rng = random.Random(103)
        for _ in range(30):
            p = random_bipoly(rng, maxdeg=2, nonzero=True)
            q_ = random_bipoly(rng, maxdeg=2, nonzero=True)
            common = random_bipoly(rng, maxdeg=2, nonzero=True)
            if common.deg_y() < 1:
                common = common + bi("y")
            if p.deg_y() < 1:
                p = p + bi("y")
            if q_.deg_y() < 1:
                q_ = q_ + bi("y^2")
            # sharing a factor of positive y-degree forces a zero resultant
            assert mpoly_resultant(p * common, q_ * common, 1).is_zero
            r = mpoly_resultant(p, q_, 1)
            assert r.is_zero == (gcd(p, q_).deg_y() > 0)


class TestSquarefree:
    def test_repeated_factor_dropped(self):
        p = bi("x + y") ** 2 * bi("x - y")
        assert squarefree_part(p) == (bi("x + y") * bi("x - y")).monic()

    def test_pure_power(self):
        assert squarefree_part(bi("x^3")) == bi("x")

    def test_pencil_power(self):
        p = bi("y^2") * bi("x*y + y - 1")
        assert squarefree_part(p) == (bi("y") * bi("x*y + y - 1")).monic()

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            squarefree_part(BiPoly.zero())

    def test_nonzero_constant_has_part_one(self):
        # a unit has no irreducible factor: the empty product
        for c in ("1", "-3", "2/7"):
            assert squarefree_part(bi(c)) == BiPoly.one()

    def test_known_factorizations(self):
        rng = random.Random(104)
        for _ in range(20):
            a = random_bipoly(rng, maxdeg=2, nonzero=True)
            b = random_bipoly(rng, maxdeg=2, nonzero=True)
            if a.is_constant:
                a = a + bi("x")
            if b.is_constant:
                b = b + bi("y")
            g = gcd(a, b)
            if not g.is_constant:
                continue
            sf = squarefree_part(a * a * b)
            # the square-free part divides a*b and is divided by it up to
            # repeated factors of a and b themselves
            assert exact_divide((a * b).monic(), sf) is not None


class TestRingAxioms:
    def test_bipoly_axioms(self):
        rng = random.Random(105)
        for trial in range(1000):
            maxcoef = 10**6 if trial % 10 == 0 else 10
            p = random_bipoly(rng, maxdeg=6, nterms=3, maxcoef=maxcoef)
            q_ = random_bipoly(rng, maxdeg=6, nterms=3, maxcoef=maxcoef)
            r = random_bipoly(rng, maxdeg=6, nterms=3, maxcoef=maxcoef)
            assert (p + q_) + r == p + (q_ + r)
            assert p + q_ == q_ + p
            assert (p * q_) * r == p * (q_ * r)
            assert p * q_ == q_ * p
            assert p * (q_ + r) == p * q_ + p * r

    def test_pseudo_divmod_law(self):
        """s*a = q*b + r with len(r) < len(b), r free of trailing zeros,
        and s = |lc b|^m, m = max(len(a) - len(b) + 1, 0), on int lists."""
        rng = random.Random(106)
        for _ in range(300):
            a = [rng.randrange(-10**rng.choice((1, 6)), 10**rng.choice((1, 6))) for _ in range(rng.randrange(0, 8))]
            b = [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 5))] + [rng.choice((-7, -2, -1, 1, 3, 12))]
            quo, rem, s = _pseudo_divmod(a, b)
            assert s == abs(b[-1]) ** max(len(a) - len(b) + 1, 0)
            assert len(rem) < len(b) and (not rem or rem[-1])
            prod = [0] * max(len(quo) + len(b) - 1, len(a), len(rem), 1)
            for i, c in enumerate(quo):
                for j, d in enumerate(b):
                    prod[i + j] += c * d
            for i, c in enumerate(rem):
                prod[i] += c
            assert prod == [s * c for c in a] + [0] * (len(prod) - len(a))

    def test_laurent_axioms(self):
        rng = random.Random(107)
        for _ in range(200):
            a = lau("x^-2") * random_bipoly(rng, maxdeg=0).coeff(0, 0) + lau("x") * Q(
                rng.randrange(-5, 6)
            )
            b = lau("x^-1") * Q(rng.randrange(-5, 6)) + lau("x^3") * Q(
                rng.randrange(-5, 6)
            )
            c = lau("1") * Q(rng.randrange(-5, 6))
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


class TestUnivariateTools:
    def test_uni_gcd(self):
        assert uni_gcd(uni("x^2 - 1"), uni("x^2 - 2*x + 1")) == uni("x - 1")

    def test_resultant_common_root(self):
        assert mpoly_resultant(uni("x - 2"), uni("x^2 - 4"), 0).is_zero
        assert mpoly_resultant(uni("x - 2"), uni("x^2 + 1"), 0) == 5

    def test_rational_roots(self):
        p = uni("x^3 - x")  # roots 0, 1, -1
        assert sorted(rational_roots(p)) == [Q(-1), Q(0), Q(1)]
        p = uni("2*x - 1")
        assert rational_roots(p) == [Q(1, 2)]

    def test_squarefree_decomposition(self):
        p = uni("x - 1") ** 2 * uni("x + 2")
        parts = squarefree_decomposition(p)
        rebuilt = UniPoly.one()
        for factor, mult in parts:
            rebuilt = rebuilt * factor**mult
        assert rebuilt.monic() == p.monic()
        assert any(m == 2 for _, m in parts)


def test_kernels_do_not_store_zeros():
    rng = random.Random(108)
    p = random_bipoly(rng, nonzero=True)
    assert (p - p).rational_terms() == {}
    assert (1, 1) not in ((bi("x") + bi("y")) * (bi("x") - bi("y"))).rational_terms()
    x, y, z = (MPoly.var(3, i) for i in range(3))
    assert ((x + y * z) * (x - y * z)).rational_terms() == {
        (2, 0, 0): Q(1),
        (0, 2, 2): Q(-1),
    }


@pytest.mark.parametrize(
    "rendered, text",
    [
        (BiPoly({(1, 0): -1, (0, 0): "3/2"}).render(), "-1*x + 3/2"),
        (UniPoly([0, -1, "2/3"]).render(), "2/3*x^2 - x"),
        (LaurentUniPoly(-2, [-1, 0, 5]).render(), "5 - x^-2"),
        (BiPoly.zero().render(), "0"),
        (BiPoly.const(-2).render(), "-2"),
        (UniPoly.const(-2).render(), "-2"),
        (LaurentUniPoly.const(-2).render(), "-2"),
        (BiPoly({(2, 1): -3, (0, 3): 1}).render(), "-3*x^2*y + y^3"),
    ],
)
def test_render_pinned(rendered, text):
    assert rendered == text


# -- differential checks against sympy ---------------------------------


@pytest.fixture
def sp():
    return pytest.importorskip("sympy")


def _to_sympy(sp, terms, syms):
    return sp.Add(
        *(
            sp.Rational(c.numerator, c.denominator)
            * sp.Mul(*(s**e for s, e in zip(syms, exp)))
            for exp, c in terms.items()
        )
    )


def _uni_to_sympy(sp, u, sym):
    return _to_sympy(sp, {(i,): c for i, c in enumerate(u.coeffs)}, (sym,))


def _sympy_resultant(sp, f, g, var):
    # sympy.resultant itself gets the sign wrong for some degree pairs
    # (sympy 1.14: degree 1 against degree 3 in var), so the oracle is the
    # determinant of a Sylvester matrix built from sympy's coefficients.
    a, b = sp.Poly(f, var).all_coeffs(), sp.Poly(g, var).all_coeffs()
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * k + a + [0] * (n - 1 - k) for k in range(n)]
    rows += [[0] * k + b + [0] * (m - 1 - k) for k in range(m)]
    return sp.Matrix(rows).det(method="domain-ge")


def _random_mpoly(rng, nvars, maxdeg=2, nterms=4):
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randrange(maxdeg + 1) for _ in range(nvars))
        terms[exp] = Q(rng.randrange(-9, 10), rng.randrange(1, 4))
    return MPoly(nvars, terms)


def _random_entry(rng):
    return Q(rng.randrange(-4, 5), rng.randrange(1, 3)) if rng.random() < 0.6 else Q(0)


def _from_sympy(vec):
    return [Q(int(v.p), int(v.q)) for v in vec]


class TestAgainstSympy:
    @pytest.mark.parametrize("eliminate", ["x", "y"])
    def test_resultant_two_variables(self, sp, eliminate):
        syms = sp.symbols("x y")
        i = "xy".index(eliminate)
        lift = bi(eliminate)
        # a vanishing pivot forces one row swap in the fraction-free
        # determinant, so the sign bookkeeping is exercised
        swap = {"y": ("y^3 + 1", "y^2 + x*y"), "x": ("x^3 + 1", "x^2 + x*y")}
        pairs = [tuple(map(bi, swap[eliminate]))]
        rng = random.Random(109)
        for _ in range(25):
            p = random_bipoly(rng, maxdeg=3, nonzero=True) + lift
            pairs.append((p, random_bipoly(rng, maxdeg=3, nonzero=True) * lift - 1))
        for p, q_ in pairs:
            ours = mpoly_resultant(p, q_, i)
            assert type(ours) is BiPoly and ours.degree_in(i) <= 0
            theirs = _sympy_resultant(
                sp, _to_sympy(sp, p.rational_terms(), syms), _to_sympy(sp, q_.rational_terms(), syms), syms[i]
            )
            assert sp.expand(_to_sympy(sp, ours.rational_terms(), syms) - theirs) == 0

    def test_mpoly_resultant_three_variables(self, sp):
        syms = sp.symbols("a b c")
        a, b, c = (MPoly.var(3, i) for i in range(3))
        cases = [(a**3 + 1, a**2 + b * c * a, 0)]  # one row swap, as above
        rng = random.Random(110)
        for trial in range(20):
            i = trial % 3
            lift = MPoly.var(3, i)
            p = _random_mpoly(rng, 3) * lift + 1
            cases.append((p, _random_mpoly(rng, 3) + lift, i))
        for p, q_, i in cases:
            ours = mpoly_resultant(p, q_, i)
            theirs = _sympy_resultant(
                sp,
                _to_sympy(sp, p.rational_terms(), syms),
                _to_sympy(sp, q_.rational_terms(), syms),
                syms[i],
            )
            assert sp.expand(_to_sympy(sp, ours.rational_terms(), syms) - theirs) == 0

    def test_mpoly_resultant_shared_factor_is_zero(self, sp):
        syms = sp.symbols("a b c")
        a, b, c = (MPoly.var(3, i) for i in range(3))
        common = a * b + c - 2
        p = (a + c * c) * common
        q_ = (b * a - 1) * common
        assert mpoly_resultant(p, q_, 0).is_zero
        theirs = _sympy_resultant(
            sp,
            _to_sympy(sp, p.rational_terms(), syms),
            _to_sympy(sp, q_.rational_terms(), syms),
            syms[0],
        )
        assert sp.expand(theirs) == 0

    def test_mpoly_substitute(self, sp):
        rng = random.Random(112)
        for trial in range(60):
            nvars = 3 + trial % 4
            syms = sp.symbols(f"v0:{nvars}")
            p = _random_mpoly(rng, nvars, maxdeg=3, nterms=6)
            chosen = rng.sample(range(nvars), rng.randrange(1, nvars + 1))
            values = {i: _random_entry(rng) for i in chosen}
            ours = p.substitute(values)
            theirs = _to_sympy(sp, p.rational_terms(), syms).subs(
                {syms[i]: sp.Rational(str(v)) for i, v in values.items()}
            )
            assert sp.expand(_to_sympy(sp, ours.rational_terms(), syms) - theirs) == 0
            assert all(ours.degree_in(i) <= 0 for i in chosen)

    def test_bivariate_gcd(self, sp):
        """gcd against the monic sympy.gcd on seeded rational inputs: pairs
        with a common factor (in x and y, or in y alone), pairs free of x,
        and pairs with no common factor."""
        x, y = sp.symbols("x y")
        rng = random.Random(114)
        for trial in range(80):
            kind = trial % 4
            if kind == 2:  # free of x
                p, q_, common = (BiPoly.from_uni(random_unipoly(rng, maxdeg=2, nonzero=True), "y") for _ in range(3))
            else:
                p, q_, common = (BiPoly(_random_mpoly(rng, 2, nterms=3).rational_terms()) for _ in range(3))
            if kind == 1:  # a common factor in y alone
                common = BiPoly.from_uni(random_unipoly(rng, maxdeg=2, nonzero=True), "y")
            if kind < 3:
                p, q_ = p * common, q_ * common
            if p.is_zero or q_.is_zero:
                continue
            theirs = sp.gcd(_to_sympy(sp, p.rational_terms(), (x, y)), _to_sympy(sp, q_.rational_terms(), (x, y)))
            want = BiPoly({e: Q(int(c.p), int(c.q)) for e, c in sp.Poly(theirs, x, y).terms()}).monic()
            assert gcd(p, q_) == want

    def test_rational_roots(self, sp):
        """Seeded products of rational linear factors (repeats and the
        root 0 included) and random cofactors.  The integers stay small,
        so this does not reach the slow divisor enumeration that large
        leading or constant coefficients trigger."""
        x = sp.Symbol("x")
        rng = random.Random(113)
        for _ in range(100):
            p = random_unipoly(rng, maxdeg=rng.randrange(4), maxcoef=5, nonzero=True)
            for _ in range(rng.randrange(4)):
                root = Q(rng.randrange(-6, 7), rng.randrange(1, 5))
                p = p * UniPoly([-root, Q(rng.randrange(1, 4))])
            if p.is_constant:
                continue
            theirs = sp.roots(_uni_to_sympy(sp, p, x), x, filter="Q")
            assert rational_roots(p) == sorted(Q(int(r.p), int(r.q)) for r in theirs)

    def test_solve_and_nullspace(self, sp):
        rng = random.Random(111)
        inconsistent = 0
        for trial in range(60):
            nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 6)
            a = [[_random_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
            rhs = [Q(rng.randrange(-5, 6)) for _ in range(nrows)]
            if trial % 3 == 0 and nrows >= 2:
                # a repeated row with a different right side: inconsistent
                a[-1] = list(a[0])
                rhs[-1] = rhs[0] + 1
            sa = sp.Matrix(nrows, ncols, lambda r, c: sp.Rational(str(a[r][c])))
            sb = sp.Matrix(nrows, 1, lambda r, _: sp.Rational(str(rhs[r])))
            kernel = [_from_sympy(v) for v in sa.nullspace()]
            assert linalg.nullspace(cleared(a), ncols) == kernel
            particular, basis = linalg.solve(a, rhs)
            assert basis == kernel
            try:
                sol, params = sa.gauss_jordan_solve(sb)
            except ValueError:
                inconsistent += 1
                assert particular is None
                continue
            expected = sol.subs({t: 0 for t in params})
            assert particular == _from_sympy(expected)
        assert inconsistent >= 10


# -- products with rational coefficients --------------------------------


def _naive_product(a, b):
    """Schoolbook product of two term dicts in Fraction arithmetic."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + Fraction(ca) * Fraction(cb)
    return {e: c for e, c in out.items() if c}


def _rational_terms(rng, nvars, nterms, maxdeg=3):
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randrange(maxdeg + 1) for _ in range(nvars))
        num = rng.choice([n for n in range(-12, 13) if n])
        terms[exp] = Q(num, rng.choice([1, 2, 3, 4, 6, 9, 35]))
    return terms


def _assert_product(p, q_):
    prod = (p * q_).rational_terms()
    assert prod == _naive_product(p.rational_terms(), q_.rational_terms())
    assert all(c for c in prod.values())


class TestRationalProducts:
    def test_bipoly_random(self):
        rng = random.Random(110)
        for _ in range(60):
            p = BiPoly(_rational_terms(rng, 2, rng.randrange(1, 7)))
            q_ = BiPoly(_rational_terms(rng, 2, rng.randrange(1, 7)))
            _assert_product(p, q_)

    def test_mpoly_random(self):
        rng = random.Random(111)
        for nvars, rounds in ((3, 40), (48, 10)):
            for _ in range(rounds):
                p = MPoly(nvars, _rational_terms(rng, nvars, rng.randrange(1, 7), maxdeg=2))
                q_ = MPoly(nvars, _rational_terms(rng, nvars, rng.randrange(1, 7), maxdeg=2))
                _assert_product(p, q_)

    def test_cancellation(self):
        p = BiPoly({(1, 0): Q(1, 2), (0, 1): Q(2, 3)})
        q_ = BiPoly({(1, 0): Q(1, 2), (0, 1): Q(-2, 3)})
        assert (p * q_).rational_terms() == {(2, 0): Q(1, 4), (0, 2): Q(-4, 9)}
        _assert_product(p, q_)
        # denominators that cancel leave integer coefficients
        r = BiPoly({(1, 0): Q(3, 2), (0, 0): Q(-1, 3)}) * BiPoly({(0, 1): Q(2, 3), (0, 0): Q(6)})
        assert r.rational_terms() == {(1, 1): Q(1), (1, 0): Q(9), (0, 1): Q(-2, 9), (0, 0): Q(-2)}
        # the terms of degree one cancel
        s = MPoly(3, {(1, 0, 0): Q(1, 3), (0, 1, 0): Q(-1, 5), (0, 0, 0): Q(1)})
        t = MPoly(3, {(1, 0, 0): Q(1, 3), (0, 1, 0): Q(-1, 5), (0, 0, 0): Q(-1)})
        u = MPoly(3, {(2, 0, 0): Q(1, 9), (1, 1, 0): Q(-2, 15), (0, 2, 0): Q(1, 25)})
        assert (s * t).rational_terms() == (u - MPoly.const(3, 1)).rational_terms()

    def test_empty_and_single_term(self):
        rng = random.Random(112)
        p = BiPoly(_rational_terms(rng, 2, 5))
        assert (p * BiPoly.zero()).rational_terms() == {}
        assert (BiPoly.zero() * p).rational_terms() == {}
        mono = BiPoly({(2, 1): Q(-7, 6)})
        _assert_product(mono, p)
        _assert_product(p, mono)
        m = MPoly(48, _rational_terms(rng, 48, 4, maxdeg=2))
        assert (m * MPoly(48, {})).terms == {}
        _assert_product(MPoly(48, {tuple(range(48)): Q(5, 4)}), m)


# -- the packed two-variable product against the schoolbook one ---------


def _int_terms(rng, nterms, xs, ys):
    return {(rng.choice(xs), rng.choice(ys)): rng.choice([n for n in range(-9, 10) if n]) for _ in range(nterms)}


class TestPackedProducts:
    """kmul_int packs (i, j) into one int key for two-variable operands;
    every case below is checked against _naive_product."""

    @staticmethod
    def _check(a, b):
        ref = _naive_product(a, b)
        for x, y in ((a, b), (b, a)):
            assert kmul_int(x, y) == ref
            assert (MPoly(2, x) * MPoly(2, y)).terms == ref

    def test_y_degree_sums_at_the_shift_width(self):
        # the largest y-exponent sum is 2^k - 1 (fills s bits) or 2^k (one
        # more bit); a shift one bit too narrow carries into the x field
        rng = random.Random(150)
        for k in range(1, 11):
            for top in (2**k - 1, 2**k):
                for _ in range(4):
                    ja = rng.randrange(top + 1)
                    a = _int_terms(rng, rng.randrange(1, 6), range(4), range(ja + 1))
                    b = _int_terms(rng, rng.randrange(1, 6), range(4), range(top - ja + 1))
                    a[(rng.randrange(4), ja)] = 1
                    b[(rng.randrange(4), top - ja)] = -1
                    a[(0, 0)] = b[(0, 0)] = 2
                    self._check(a, b)

    def test_no_y_spread(self):
        # x only, constants and a common power of y: the shift is 0
        xs = {(3, 0): 2, (1, 0): -1, (0, 0): 5}
        self._check(xs, {(2, 0): 1, (0, 0): 3})
        self._check(xs, {(0, 0): 7})
        self._check({(0, 0): 4}, {(0, 0): -3})
        self._check({(2, 3): 1, (0, 3): -2}, {(5, 5): 3, (1, 5): 1, (0, 5): 1})

    def test_exponents_past_the_parser_limit(self):
        x, y = BiPoly.var_x(), BiPoly.var_y()
        big = 10 * parse.MAX_EXPONENT
        p = x**big - 3 * y ** (big + 1) + x * y**4096
        q_ = y**4095 * x**7 + 2 * x ** (3 * big) - 1
        self._check(p.terms, q_.terms)
        assert (x**big - y**big) ** 2 == x ** (2 * big) - 2 * x**big * y**big + y ** (2 * big)

    def test_empty_single_term_and_cancellation(self):
        a = {(2, 1): 3, (0, 4): -1, (1, 0): 2}
        assert kmul_int({}, a) == kmul_int(a, {}) == kmul_int({}, {}) == {}
        self._check({(5, 7): -2}, a)
        # (x - y)(x^9 + x^8*y + ... + y^9) = x^10 - y^10: all middle terms cancel
        self._check({(1, 0): 1, (0, 1): -1}, {(9 - k, k): 1 for k in range(10)})
        assert kmul_int({(1, 0): 1, (0, 1): -1}, {(9 - k, k): 1 for k in range(10)}) == {(10, 0): 1, (0, 10): -1}

    def test_negative_exponents_of_a_raw_mpoly(self):
        rng = random.Random(151)
        for _ in range(80):
            lo = rng.randrange(-40, 1)
            a = _int_terms(rng, rng.randrange(1, 7), range(-20, 21), range(lo, lo + rng.randrange(1, 40)))
            b = _int_terms(rng, rng.randrange(1, 7), range(-20, 21), range(-30, 30))
            self._check(a, b)

    def test_large_product_against_sympy(self, sp):
        x, y = BiPoly.var_x(), BiPoly.var_y()
        ours = (3 * x + 5 * y - 7) ** 40 * (x - 2 * y**2 + 1) ** 25
        sx, sy = sp.symbols("x y")
        theirs = sp.Poly(3 * sx + 5 * sy - 7, sx, sy) ** 40 * sp.Poly(sx - 2 * sy**2 + 1, sx, sy) ** 25
        assert ours.den == 1
        assert ours.terms == {e: int(c) for e, c in theirs.as_dict().items()}


def test_bipoly_rejects_negative_exponents():
    for terms in ({(-1, 0): 1}, {(0, -2): Q(3, 4)}, {(1, 1): 1, (2, -1): 5}):
        with pytest.raises(DomainError, match="negative exponent"):
            BiPoly(terms)
    # the 2-variable MPoly, like LaurentUniPoly, keeps them
    assert MPoly(2, {(-1, 0): 1}).terms == {(-1, 0): 1}


# -- integer-numerator MPoly against a Fraction reference --------------


def _ref_sum(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def _ref_deriv(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1 :]] = c * e[i]
    return out


def _ref_coeffs_in(a, i):
    out = [{} for _ in range(max((e[i] for e in a), default=-1) + 1)]
    for e, c in a.items():
        out[e[i]][e[:i] + (0,) + e[i + 1 :]] = c
    return out


def _ref_substitute(a, values):
    out = {}
    for e, c in a.items():
        e = list(e)
        for i, v in values.items():
            c *= Fraction(v) ** e[i]
            e[i] = 0
        e = tuple(e)
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def _assert_canonical(p):
    """den > 0, no zero numerator, gcd(den, numerators) = 1, zero over 1."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.terms.values())
    assert math.gcd(p.den, *p.terms.values()) == 1
    if p.is_zero:
        assert p.den == 1


def _mpoly_cases(rng):
    """Seeded (nvars, p, q) triples in 2, 3 and 48 variables."""
    for nvars, rounds, maxdeg in ((2, 30, 3), (3, 30, 3), (48, 8, 2)):
        for _ in range(rounds):
            p = _rational_terms(rng, nvars, rng.randrange(1, 7), maxdeg=maxdeg)
            q_ = _rational_terms(rng, nvars, rng.randrange(1, 7), maxdeg=maxdeg)
            yield nvars, p, q_


def _kinds(nvars):
    """(from terms, monomial) constructors of the sparse type in nvars
    variables: MPoly, and BiPoly, its 2-variable case, for two."""
    kinds = [(lambda t: MPoly(nvars, t), lambda e, c: MPoly.monomial(nvars, e, c))]
    if nvars == 2:
        kinds.append((BiPoly, lambda e, c: BiPoly.monomial(*e, c)))
    return kinds


class TestIntegerMPoly:
    def test_arithmetic(self):
        rng = random.Random(120)
        for nvars, a, b in _mpoly_cases(rng):
            c = Fraction(rng.choice([-7, -1, 2, 5]), rng.choice([1, 3, 10]))
            for make, _ in _kinds(nvars):
                p, q_ = make(a), make(b)
                assert p.rational_terms() == a
                results = {
                    "add": (p + q_, _ref_sum(a, b)),
                    "sub": (p - q_, _ref_sum(a, b, -1)),
                    "mul": (p * q_, _naive_product(a, b)),
                    "scale": (p * c, {e: v * c for e, v in a.items()}),
                    "rscale": (c * q_, {e: v * c for e, v in b.items()}),
                    "neg": (-p, {e: -v for e, v in a.items()}),
                    "zero": (p * 0, {}),
                    "cancel": (p - p, {}),
                }
                for i in range(min(nvars, 4)):
                    results[f"deriv{i}"] = (p.deriv(i), _ref_deriv(a, i))
                for name, (ours, ref) in results.items():
                    _assert_canonical(ours)
                    assert ours.rational_terms() == ref, name
                for i in range(min(nvars, 3)):
                    coeffs = p.coeffs_in(i)
                    for ours in coeffs:
                        _assert_canonical(ours)
                    assert [m.rational_terms() for m in coeffs] == _ref_coeffs_in(a, i)

    def test_combination(self):
        """MPoly.combination equals the sum of the scaled products, on
        shifts by no variable, one and several, and on sums that cancel."""
        rng = random.Random(123)
        for nvars, a, b in _mpoly_cases(rng):
            items = []
            for terms in (a, b, a):
                mono = [0] * nvars
                for i in rng.sample(range(nvars), rng.randrange(min(nvars, 3) + 1)):
                    mono[i] = rng.randrange(1, 3)
                num, den = rng.choice([-4, -1, 3, 6]), rng.choice([1, 2, 9, 35])
                items.append((num, den, tuple(mono), MPoly(nvars, terms)))
            ref = MPoly.zero(nvars)
            for num, den, mono, c in items:
                ref = ref + MPoly.monomial(nvars, mono, Q(num, den)) * c
            ours = MPoly.combination(nvars, items)
            _assert_canonical(ours)
            assert ours == ref
            # () stands for the unit monomial
            p = MPoly(nvars, a)
            zero = MPoly.combination(nvars, [(2, 3, (), p), (-4, 6, (0,) * nvars, p)])
            _assert_canonical(zero)
            assert zero.is_zero

    def test_substitute(self):
        rng = random.Random(121)
        choices = [0, -3, Fraction(-2, 3), Fraction(5, 4), 2]
        for nvars, a, _ in _mpoly_cases(rng):
            chosen = rng.sample(range(nvars), min(nvars, rng.randrange(1, 4)))
            values = {i: rng.choice(choices) for i in chosen}
            for make, _ in _kinds(nvars):
                ours = make(a).substitute(values)
                _assert_canonical(ours)
                assert ours.rational_terms() == _ref_substitute(a, values)
        # zero, negative and fractional values at once
        x, y, z = (MPoly.var(3, i) for i in range(3))
        p = x**2 * y * Q(3, 2) + x * z**3 - y**2 + 7
        ours = p.substitute({0: Q(-1, 2), 1: 0, 2: Q(2, 3)})
        assert ours == MPoly.const(3, Q(-1, 2) * Q(8, 27) + 7)

    def test_exact_divide(self):
        rng = random.Random(122)
        for nvars, a, b in _mpoly_cases(rng):
            # a non-primitive divisor, a non-integral quotient
            f = Q(rng.choice([6, 10, 4]), rng.choice([1, 7]))
            for make, _ in _kinds(nvars):
                h, d = make(a), make(b) * f
                for divide in (mpoly_exact_divide, exact_divide):
                    quo = divide(d * h, d)
                    _assert_canonical(quo)
                    assert quo == h
                    # a nonzero remainder of lower degree than d: not a multiple
                    if not d.is_constant:
                        assert divide(d * h + Q(1, 3), d) is None
        for _ in range(60):
            h = BiPoly(_rational_terms(rng, 2, rng.randrange(1, 6)))
            d = BiPoly(_rational_terms(rng, 2, rng.randrange(1, 6))) * rng.choice([6, Q(15, 7)])
            assert exact_divide(d * h, d) == h
            if not d.is_constant:
                assert exact_divide(d * h + Q(1, 2), d) is None
        # leading coefficients that do not divide: a non-multiple stops
        # at the first inexact step
        x, y = bi("x"), bi("y")
        assert exact_divide(2 * x * x + 3 * y, 2 * x + 1) is None
        assert exact_divide(4 * x * x - 1, 6 * x + 3) == x * Q(2, 3) - Q(1, 3)

    def test_canonical_form(self):
        rng = random.Random(123)
        for nvars, a, b in _mpoly_cases(rng):
            for make, monomial in _kinds(nvars):
                p, q_ = make(a), make(b)
                paths = [
                    (p + q_) - q_,
                    (p * Q(6, 5)) * Q(5, 6),
                    sum((monomial(e, c) for e, c in a.items()), make({})),
                    make(p.rational_terms()),
                    p.substitute({}),
                    -(-p),
                ]
                for other in paths:
                    _assert_canonical(other)
                    assert other == p and hash(other) == hash(p)
        zero = MPoly(3, {(1, 0, 0): Q(1, 2)}) * 2 - MPoly.var(3, 0)
        _assert_canonical(zero)
        assert zero == MPoly.zero(3) and hash(zero) == hash(MPoly.zero(3))
        for half, two in (
            (MPoly(2, {(1, 0): Q(1, 2), (0, 1): Q(3, 2)}), MPoly(2, {(1, 0): 1, (0, 1): 3})),
            (BiPoly({(1, 0): Q(1, 2), (0, 1): Q(3, 2)}), bi("x + 3*y")),
        ):
            assert (half.den, half.terms) == (2, {(1, 0): 1, (0, 1): 3})
            assert half * 2 == two
        assert MPoly.const(2, Q(-3, 4)) == Q(-3, 4)
        assert BiPoly.const(Q(-3, 4)) == Q(-3, 4)


def test_bipoly_results_stay_bipoly():
    """Every operation on a BiPoly returns a BiPoly, which Derivation and
    OrePoly require, also where the left operand is a number."""
    p, q_ = bi("1/2*x^2*y - 3*y + 2/3"), bi("x - 2*y")
    results = {
        "add": p + q_, "radd": 1 + p, "sub": p - q_, "rsub": 1 - p,
        "mul": p * q_, "scale": p * Q(2, 3), "rscale": Q(2, 3) * p, "rzero": 0 * p,
        "neg": -p, "pow": p**3, "pow0": p**0, "deriv_x": p.deriv_x(), "deriv_y": p.deriv_y(),
        "monic": p.monic(), "quotient": exact_divide(p * q_, q_),
        "coeff_in_x": p.coeffs_in(0)[1], "homogeneous": p.homogeneous_part(3),
        "zero": BiPoly.zero(), "one": BiPoly.one(), "const": BiPoly.const(Q(1, 2)),
        "monomial": BiPoly.monomial(1, 2, 3), "x": BiPoly.var_x(), "y": BiPoly.var_y(),
        "from_uni": BiPoly.from_uni(uni("x^2 - 1"), "y"), "gcd": gcd(p * q_, q_),
    }
    for name, r in results.items():
        assert type(r) is BiPoly, name
        _assert_canonical(r)
    assert p * q_ == MPoly(2, (p * q_).rational_terms())
    assert hash(p * q_) == hash(MPoly(2, (p * q_).rational_terms()))


def test_replay_matches_augmented_gauss_jordan():
    """Replaying rref's row operations on a column gives the column that
    Gauss-Jordan on the rows augmented by it computes, on rank-deficient
    systems with row swaps and zero rows, for rational and MPoly
    columns; the rows are cleared of denominators, as rref takes ints."""
    rng = random.Random(124)
    swaps = 0
    for trial in range(80):
        nrows, ncols = rng.randrange(2, 7), rng.randrange(1, 6)
        rows = [[_random_entry(rng) for _ in range(ncols)] for _ in range(nrows - 2)]
        # a combination of earlier rows and a zero row, in random places
        combo = [Q(0)] * ncols
        for row in rows:
            f = _random_entry(rng)
            combo = [a + f * b for a, b in zip(combo, row)]
        rows.insert(rng.randrange(len(rows) + 1), combo)
        rows.insert(rng.randrange(len(rows) + 1), [Q(0)] * ncols)
        rows = cleared(rows)
        if trial % 2:
            column = [_random_entry(rng) for _ in range(nrows)]
        else:
            column = [MPoly(3, _rational_terms(rng, 3, rng.randrange(0, 3))) for _ in range(nrows)]
        m, pivots, ops = linalg.rref(rows, ncols)
        swaps += sum(r != pr for r, pr, *_ in ops)
        assert len(pivots) < nrows
        aug, aug_pivots, _ = gauss_jordan([row + [v] for row, v in zip(rows, column)], ncols)
        assert aug_pivots == pivots
        assert [row[:ncols] for row in aug] == m
        assert linalg.replay(ops, column) == [row[ncols] for row in aug]
    assert swaps >= 20


def _elimination_case(rng, kind, nrows, ncols):
    """A matrix of ints, Fractions or both, with a dependent row, a zero
    row and, in most cases, a zero where the first pivot would be."""

    def entry():
        if rng.random() < 0.3:
            return 0 if kind == "int" or (kind == "mixed" and rng.random() < 0.5) else Q(0)
        n = rng.randrange(-9, 10) or -1
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return n
        return Q(n, rng.randrange(1, 6))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows - 2)]
    dependent = [0] * ncols
    for row in rows:
        f = rng.randrange(-3, 4)
        dependent = [a + f * b for a, b in zip(dependent, row)]
    rows.insert(rng.randrange(len(rows) + 1), dependent)
    rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
    if rng.random() < 0.7:
        rows[0][0] = 0
    return rows


def _rational_ops(ops):
    """rref's int row operations (r, pr, s, p, [(i, f, s_i), ...]) in
    gauss_jordan's format (r, pr, s/p, [(i, f/s_i), ...])."""
    return [(r, pr, Q(s, p), [(i, Q(f, si)) for i, f, si in elim]) for r, pr, s, p, elim in ops]


def test_rref_matches_textbook_gauss_jordan():
    """rref's integer elimination gives the rows, extra columns included,
    pivots and row operations of Fraction Gauss-Jordan, on int, Fraction
    and mixed matrices with rational extra columns, each row cleared of
    denominators; its row operations are ints, and replay carries each
    extra column as rref eliminates it."""
    rng = random.Random(909)
    seen = {"swap": 0, "negative pivot": 0, "zero row": 0, "extra column": 0, "int row": 0, "rational row": 0}
    for trial in range(240):
        kind = ("int", "fraction", "mixed")[trial % 3]
        nrows, ncols = rng.randrange(2, 8), rng.randrange(1, 7)
        rows = _elimination_case(rng, kind, nrows, ncols)
        extra = rng.randrange(0, 3)
        rows = cleared([row + [_random_entry(rng) for _ in range(extra)] for row in rows])
        m, pivots, ops = linalg.rref(rows, ncols)
        ref_m, ref_pivots, ref_ops = gauss_jordan(rows, ncols)
        assert (m, pivots, _rational_ops(ops)) == (ref_m, ref_pivots, ref_ops)
        assert all(type(v) is int for op in ops for v in op[:4] + tuple(v for e in op[4] for v in e))
        # a row whose entries are all integers, its scale 1, comes back
        # as ints, any other as Fractions
        for row in m:
            kind = int if all(v.denominator == 1 for v in row) else Q
            assert all(type(v) is kind for v in row)
            seen["int row" if kind is int else "rational row"] += any(row)
        for j in range(ncols, ncols + extra):
            assert linalg.replay(ops, [row[j] for row in rows]) == [row[j] for row in m]
        # s > 0, so a negative p marks a negative pivot
        seen["negative pivot"] += sum(p < 0 for _, _, _, p, _ in ops)
        seen["swap"] += sum(r != pr for r, pr, *_ in ops)
        seen["zero row"] += not any(m[-1][:ncols])
        seen["extra column"] += extra
    assert min(seen.values()) >= 40, seen


def test_rref_builds_no_fraction_on_ints(monkeypatch):
    """On int rows with int extra columns rref builds a Fraction only for
    a returned row that is not integral, one per nonzero entry: none when
    the reduced rows are integral, as for U*[R | E] with U unimodular, R
    in reduced row echelon form of full row rank and R, E integral."""
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(linalg, "Q", counted)
    rng = random.Random(3607)
    seen = {"integral": 0, "ops": 0, "rational rows": 0}
    for trial in range(120):
        nrows = rng.randrange(1, 6)
        ncols = nrows + rng.randrange(0, 3)
        extra = rng.randrange(1, 3)
        pivots = sorted(rng.sample(range(ncols), nrows))
        reduced = []
        for r, c in enumerate(pivots):
            row = [0] * ncols
            row[c] = 1
            for j in range(c + 1, ncols):
                if j not in pivots:
                    row[j] = rng.randrange(-4, 5)
            reduced.append(row + [rng.randrange(-4, 5) for _ in range(extra)])
        rows = [list(row) for row in reduced]
        for _ in range(3 * nrows):
            i, k = rng.sample(range(nrows), 2) if nrows > 1 else (0, 0)
            if i != k:
                f = rng.randrange(-3, 4)
                rows[i] = [a + f * b for a, b in zip(rows[i], rows[k])]
            if rng.random() < 0.3:
                rows[i], rows[k] = rows[k], rows[i]
            if rng.random() < 0.3:
                rows[i] = [-a for a in rows[i]]
        made.clear()
        m, got_pivots, ops = linalg.rref(rows, ncols)
        assert (m, got_pivots, made) == (reduced, pivots, [])
        assert all(type(v) is int for row in m for v in row)
        seen["integral"] += 1
        seen["ops"] += len(ops)
        # any int rows: a Fraction for each nonzero entry of a returned
        # row that is not integral, none for the row operations
        rows = [[rng.randrange(-5, 6) for _ in range(ncols + extra)] for _ in range(nrows + 1)]
        made.clear()
        m, _, _ = linalg.rref(rows, ncols)
        fractions = [v for row in m if any(type(v) is not int for v in row) for v in row if v]
        assert len(made) == len(fractions)
        seen["rational rows"] += bool(fractions)
    assert min(seen.values()) >= 40, seen


def test_rref_keeps_its_input_and_the_pivot_rows_of_scaled_rows():
    """rref leaves its input rows unchanged, on int, Fraction and mixed
    matrices with extra columns, each row cleared of denominators, and
    the cleared rows have the pivots and pivot rows that Gauss-Jordan
    gives the rational ones: scaling a row changes neither."""
    rng = random.Random(1703)
    for trial in range(120):
        kind = ("int", "fraction", "mixed")[trial % 3]
        nrows, ncols = rng.randrange(2, 8), rng.randrange(1, 7)
        rows = _elimination_case(rng, kind, nrows, ncols)
        rows = [row + [_random_entry(rng) for _ in range(trial % 2)] for row in rows]
        ints = cleared(rows)
        copy = [list(row) for row in ints]
        m, pivots, _ = linalg.rref(ints, ncols)
        assert ints == copy
        ref_m, ref_pivots, _ = gauss_jordan(rows, ncols)
        assert (pivots, m[: len(pivots)]) == (ref_pivots, ref_m[: len(pivots)])


def test_rref_small_cases():
    # no rows, a zero matrix, a single negative pivot, and an int row that
    # reduces to a non-integral one
    assert linalg.rref([], 3) == ([], [], [])
    assert linalg.rref([[0, 0], [0, 0]], 2) == ([[0, 0], [0, 0]], [], [])
    assert linalg.rref([[-3, 2]], 2) == ([[1, Q(-2, 3)]], [0], [(0, 0, 1, -3, [])])
    m, pivots, ops = linalg.rref([[0, 2, 4], [3, 1, 1]], 3)
    assert m == [[1, 0, Q(-1, 3)], [0, 1, 2]] and pivots == [0, 1]
    assert ops == [(0, 1, 1, 3, []), (1, 1, 1, 2, [(0, 1, 3)])]
    # the same rows with the last column as an extra one
    assert linalg.rref([[0, 2, 4], [3, 1, 1]], 2) == (m, pivots, ops)

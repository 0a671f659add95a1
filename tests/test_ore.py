"""Operator-ring arithmetic: skew identities, module action, and the
essential-extension witness."""

import math
import random

import pytest

from orediamond import (
    BiPoly,
    Derivation,
    DomainError,
    OreContext,
    OrePoly,
    Q,
    UniDerivation,
    WitnessCert,
    essential_witness,
    exact_divide,
    mul,
)
from orediamond import linalg, ore
from util import a_theta_pow_right, act, bi, cleared, leibniz_delta, phi, random_bipoly, theta_pow_left, uni


def ctx_dx():
    return OreContext("poly1", Derivation(bi("1"), BiPoly.zero()))


def ctx_euler():
    return OreContext("poly2", Derivation(bi("x"), bi("y")))


def ctx_final():
    return OreContext("poly2", Derivation(bi("1"), bi("-1*y^2")))


def random_ore(rng, ctx, maxdeg=3, coeffdeg=2):
    coeffs = []
    for _ in range(rng.randrange(1, maxdeg + 2)):
        p = random_bipoly(rng, maxdeg=coeffdeg, nterms=2, maxcoef=5)
        if ctx.ring == "poly1":
            p = BiPoly({(i, 0): c for (i, j), c in p.rational_terms().items()})
        coeffs.append(p)
    return OrePoly(coeffs)


def naive_mul(ctx, f, g):
    """Term-by-term oracle: apply theta*a = a*theta + delta(a) once per
    power of theta, delta by util.leibniz_delta."""

    def theta_times(h):
        out = [BiPoly.zero()] * (h.degree() + 2 if not h.is_zero else 1)
        for j, b in enumerate(h.coeffs):
            out[j + 1] = out[j + 1] + b
            out[j] = out[j] + leibniz_delta(ctx.deriv, b)
        return OrePoly(out)

    total = OrePoly.zero()
    for i, a in enumerate(f.coeffs):
        part = g
        for _ in range(i):
            part = theta_times(part)
        total = total + part.scale_left(a)
    return total


class TestMul:
    def test_defining_relation(self):
        ctx = ctx_dx()
        prod = mul(ctx, OrePoly.theta(), OrePoly.from_ring(bi("x")))
        assert prod == OrePoly([bi("1"), bi("x")])

    def test_theta_squared_x_squared(self):
        ctx = ctx_dx()
        prod = mul(ctx, OrePoly.theta(2), OrePoly.from_ring(bi("x^2")))
        assert prod == OrePoly([bi("2"), bi("4*x"), bi("x^2")])

    def test_xtheta_squared(self):
        ctx = ctx_dx()
        xt = OrePoly.theta(1, bi("x"))
        assert mul(ctx, xt, xt) == OrePoly([bi("0"), bi("x"), bi("x^2")])

    def test_degree_additivity_and_axioms(self):
        rng = random.Random(501)
        for ctx in (ctx_dx(), ctx_euler(), ctx_final()):
            for _ in range(25):
                f = random_ore(rng, ctx)
                g = random_ore(rng, ctx)
                h = random_ore(rng, ctx)
                if f.is_zero or g.is_zero:
                    continue
                prod = mul(ctx, f, g)
                assert prod.degree() == f.degree() + g.degree()
                assert mul(ctx, mul(ctx, f, g), h) == mul(ctx, f, mul(ctx, g, h))
                assert mul(ctx, f, g + h) == mul(ctx, f, g) + mul(ctx, f, h)

    def test_against_term_by_term_oracle(self):
        rng = random.Random(502)
        for ctx in (ctx_dx(), ctx_euler(), ctx_final()):
            for _ in range(25):
                f = random_ore(rng, ctx)
                g = random_ore(rng, ctx)
                assert mul(ctx, f, g) == naive_mul(ctx, f, g)


class TestThetaIdentities:
    def test_left_examples(self):
        assert theta_pow_left(ctx_dx(), 2, bi("x")) == OrePoly(
            [bi("0"), bi("2"), bi("x")]
        )
        assert theta_pow_left(ctx_euler(), 0, bi("y")) == OrePoly.from_ring(bi("y"))
        assert theta_pow_left(ctx_final(), 2, bi("y")) == OrePoly(
            [bi("2*y^3"), bi("-2*y^2"), bi("y")]
        )

    def test_left_equals_iterated_mul(self):
        rng = random.Random(503)
        for ctx in (ctx_dx(), ctx_euler(), ctx_final()):
            for n in range(7):
                a = random_bipoly(rng, maxdeg=2, nterms=2, maxcoef=5)
                if ctx.ring == "poly1":
                    a = BiPoly({(i, 0): c for (i, j), c in a.rational_terms().items()})
                expected = OrePoly.from_ring(a)
                for _ in range(n):
                    expected = mul(ctx, OrePoly.theta(), expected)
                assert theta_pow_left(ctx, n, a) == expected

    def test_negative_power_rejected(self):
        for call in (lambda: theta_pow_left(ctx_dx(), -1, bi("x")), lambda: a_theta_pow_right(ctx_dx(), bi("x"), -1)):
            with pytest.raises(DomainError) as exc:
                call()
            assert str(exc.value) == "negative theta power"

    def test_right_round_trip(self):
        rng = random.Random(504)
        assert a_theta_pow_right(ctx_dx(), bi("1"), 5) == OrePoly.theta(5)
        assert a_theta_pow_right(ctx_euler(), bi("y"), 1) == OrePoly.theta(1, bi("y"))
        for ctx in (ctx_dx(), ctx_euler(), ctx_final()):
            for n in range(7):
                a = random_bipoly(rng, maxdeg=2, nterms=2, maxcoef=5)
                if ctx.ring == "poly1":
                    a = BiPoly({(i, 0): c for (i, j), c in a.rational_terms().items()})
                assert a_theta_pow_right(ctx, a, n) == OrePoly.theta(n, a)


class TestAction:
    def test_examples(self):
        assert act(ctx_dx(), OrePoly.theta(2), bi("x^3")) == bi("6*x")
        ctx_dx_bi = OreContext("poly2", Derivation(bi("1"), BiPoly.zero()))
        assert act(ctx_dx_bi, OrePoly([bi("1"), bi("x")]), bi("y")) == bi("y")
        assert act(ctx_euler(), OrePoly.theta(), bi("x*y")) == bi("2*x*y")

    def test_action_law(self):
        rng = random.Random(505)
        for ctx in (ctx_dx(), ctx_euler(), ctx_final()):
            for _ in range(25):
                f = random_ore(rng, ctx)
                g = random_ore(rng, ctx)
                b = random_bipoly(rng, maxdeg=2, nterms=2, maxcoef=5)
                if ctx.ring == "poly1":
                    b = BiPoly({(i, 0): c for (i, j), c in b.rational_terms().items()})
                assert act(ctx, mul(ctx, f, g), b) == act(ctx, f, act(ctx, g, b))

    def test_phi(self):
        ctx = ctx_dx()
        assert phi(ctx, OrePoly([bi("3"), bi("x"), bi("1")])) == bi("3")
        assert phi(ctx, OrePoly.theta(5)).is_zero
        rng = random.Random(506)
        for _ in range(20):
            f = random_ore(rng, ctx, maxdeg=4)
            g = random_ore(rng, ctx, maxdeg=4)
            assert phi(ctx, f) == act(ctx, f, bi("1"))
            # S*theta lies in the kernel of phi
            assert phi(ctx, mul(ctx, mul(ctx, f, g), OrePoly.theta())).is_zero


class TestRingMeetsSThetaX:
    def test_no_ring_element_in_s_theta_x(self):
        # linear algebra over the span of theta^i x^j * (theta x): any
        # combination whose theta-coefficients of positive degree vanish
        # must vanish entirely, so R meets S*theta*x only in 0
        ctx = ctx_dx()
        theta_x = mul(ctx, OrePoly.theta(), OrePoly.from_ring(bi("x")))
        products = []
        for i in range(4):
            for j in range(4):
                lead = OrePoly.theta(i, bi("x") ** j if j else bi("1"))
                products.append(mul(ctx, lead, theta_x))
        # constraint rows: coefficient of x^k in the theta^d part, d >= 1
        max_theta = max(p.degree() for p in products)
        rows = []
        for d in range(1, max_theta + 1):
            for k in range(0, 10):
                rows.append([p.coeff(d).coeff(k, 0) for p in products])
        kernel = linalg.nullspace(cleared(rows), len(products))
        for vec in kernel:
            const = BiPoly.zero()
            for c, p in zip(vec, products):
                const = const + c * p.coeff(0)
            assert const.is_zero

    def test_products_keep_theta_degree(self):
        ctx = ctx_dx()
        rng = random.Random(507)
        theta_x = mul(ctx, OrePoly.theta(), OrePoly.from_ring(bi("x")))
        for _ in range(30):
            g = random_ore(rng, ctx, maxdeg=4)
            if g.is_zero:
                continue
            assert mul(ctx, g, theta_x).degree() >= 1


class TestEssentialWitness:
    def test_base_case(self):
        ctx = ctx_dx()
        cert = essential_witness(ctx, OrePoly.from_ring(bi("1")), bi("x"))
        assert cert.h == OrePoly.zero()
        assert cert.r == bi("1")

    def test_theta(self):
        ctx = ctx_dx()
        cert = essential_witness(ctx, OrePoly.theta(), bi("x"))
        assert cert.h == OrePoly.from_ring(bi("x"))
        assert cert.r == bi("-1")

    def test_theta_squared(self):
        ctx = ctx_dx()
        cert = essential_witness(ctx, OrePoly.theta(2), bi("x"))
        assert cert.h == OrePoly([bi("-2*x"), bi("x^2")])
        assert cert.r == bi("2")

    def test_random_witnesses(self):
        ctx = ctx_dx()
        rng = random.Random(508)
        produced = 0
        while produced < 50:
            f = random_ore(rng, ctx, maxdeg=5, coeffdeg=3)
            if f.is_zero or f.coeffs[-1].coeff(0, 0) == 0:
                continue  # need leading coefficient not divisible by x
            produced += 1
            cert = essential_witness(ctx, f, bi("x"))
            assert cert.verify(ctx)
            assert not cert.r.is_zero

    def test_hypothesis_failures(self):
        ctx = ctx_dx()
        with pytest.raises(DomainError):
            essential_witness(ctx, OrePoly.theta(1, bi("x")), bi("x"))
        with pytest.raises(DomainError):
            essential_witness(ctx, OrePoly.zero(), bi("x"))
        # delta(x^2) = 2x is neither a unit nor is x^2 irreducible
        with pytest.raises(DomainError):
            essential_witness(ctx, OrePoly.theta(), bi("x^2"))

    @pytest.mark.parametrize(
        "ctx, x_elt",
        [
            # x prime: x^2 + 1 is irreducible and does not divide its image 2x
            (ctx_dx(), "x^2 + 1"),
            # the image is a unit: delta(x + y^2) = 1
            (OreContext("poly2", Derivation(bi("1"), BiPoly.zero())), "x + y^2"),
        ],
        ids=["poly1-irreducible", "poly2-unit-image"],
    )
    def test_each_precondition_branch(self, ctx, x_elt):
        """Each step of the peeling lowers the theta-degree by one and the
        remainder is nonzero, as _witness_recursion proves.  A linear x that
        does not divide its image is TestBenchShape.test_witnesses."""
        rng = random.Random(512)
        x_elt = bi(x_elt)
        for n in range(1, 7):
            f = random_ore(rng, ctx, maxdeg=n)
            while f.degree() != n or exact_divide(f.coeffs[-1], x_elt) is not None:
                f = random_ore(rng, ctx, maxdeg=n)
            cert = essential_witness(ctx, f, x_elt)
            assert cert.verify(ctx)
            assert cert.h.degree() == n - 1
            assert not cert.r.is_zero

    def test_building_runs_no_ore_product(self, monkeypatch):
        ctx = ctx_euler()
        f = OrePoly([bi("x"), bi("y^2 - 1"), bi("2*x + 1")])
        monkeypatch.setattr(ore, "mul", lambda *args: pytest.fail("an Ore product while building"))
        essential_witness(ctx, f, bi("x + y + 1"))

    def test_verify_rejects_a_tampered_certificate(self):
        ctx = ctx_euler()
        cert = essential_witness(ctx, OrePoly([bi("x"), bi("y^2 - 1"), bi("2*x + 1")]), bi("x + y + 1"))
        assert cert.verify(ctx)
        h0 = cert.h.coeffs[0]
        i, j = next(iter(h0.rational_terms()))
        h = OrePoly([h0 + BiPoly.monomial(i, j), *cert.h.coeffs[1:]])
        tampered = [
            WitnessCert(cert.f, cert.x_elt, h, cert.r),
            WitnessCert(cert.f, cert.x_elt, cert.h, cert.r + bi("y")),
            WitnessCert(cert.f, cert.x_elt, cert.h, BiPoly.zero()),
        ]
        assert [t.verify(ctx) for t in tampered] == [False] * 3
        # x^2 * theta*x = x^2 * theta*x + 0*x: the identity holds, r = 0 fails
        theta_x = mul(ctx_dx(), OrePoly.theta(), OrePoly.from_ring(bi("x")))
        assert not WitnessCert(theta_x, bi("x"), OrePoly.from_ring(bi("x^2")), BiPoly.zero()).verify(ctx_dx())

    @pytest.mark.parametrize(
        "ctx, x_elt, message",
        [
            # a unit divides every coefficient, the leading one of f first
            (ctx_dx(), "3", "the element divides the leading coefficient of f"),
            # square-free of degree 6 without a linear or quadratic factor
            (ctx_dx(), "x^6 + 2", "irreducibility could not be certified"),
            (OreContext("poly2", Derivation(bi("1"), bi("x"))), "x^2 + y",
             "bivariate irreducibility is only certified in degree 1"),
            (OreContext("poly1", Derivation(bi("x"), BiPoly.zero())), "x", "the element divides its own image"),
        ],
    )
    def test_hypothesis_failure_messages(self, ctx, x_elt, message):
        with pytest.raises(DomainError) as exc:
            essential_witness(ctx, OrePoly.theta(), bi(x_elt))
        assert str(exc.value) == f"hypothesis failed: {message}"


@pytest.mark.parametrize(
    "ring, deriv, message",
    [
        ("laurent1", Derivation(bi("1"), BiPoly.zero()), "ring must be poly1 or poly2"),
        ("poly1", UniDerivation(uni("1")), "a Derivation is required"),
        ("poly1", Derivation(bi("1"), bi("x")), "univariate context cannot move y"),
        ("poly1", Derivation(bi("y"), BiPoly.zero()), "univariate context requires dx in Q[x]"),
    ],
)
def test_context_rejects(ring, deriv, message):
    with pytest.raises(DomainError) as exc:
        OreContext(ring, deriv)
    assert str(exc.value) == message


# -- products and witnesses at the benchmark's operator shape -----------


def ctx_lotka_volterra():
    return OreContext("poly2", Derivation(bi("x - x*y"), bi("x*y - y")))


def ctx_hamiltonian():
    return OreContext("poly2", Derivation(bi("y^2"), bi("x^2")))


def _nonzero_int(rng):
    return rng.choice([c for c in range(-5, 6) if c])


def _shaped_coefficient(rng, degree, nterms=6, rational=False):
    """nterms terms, two of them of total degree `degree`."""
    top = [(i, degree - i) for i in range(degree + 1)]
    lower = [(i, s - i) for s in range(degree) for i in range(s + 1)]
    terms = {}
    for e in rng.sample(top, 2) + rng.sample(lower, nterms - 2):
        den = rng.choice([1, 2, 3, 7]) if rational else 1
        terms[e] = Q(_nonzero_int(rng), den)
    return BiPoly(terms)


def shaped_operator(rng, theta_degree=8, rational=False):
    """theta-coefficients of total degree 3 and 4 in turn."""
    return OrePoly(
        [_shaped_coefficient(rng, 3 + k % 2, rational=rational) for k in range(theta_degree + 1)]
    )


def _witness_form(rng, ctx, lead):
    """a*x + b*y + c meeting the hypotheses of essential_witness."""
    while True:
        form = BiPoly({(1, 0): _nonzero_int(rng), (0, 1): _nonzero_int(rng), (0, 0): _nonzero_int(rng)})
        image = ctx.delta(form)
        if exact_divide(lead, form) is not None:
            continue
        if (image.is_constant and not image.is_zero) or exact_divide(image, form) is None:
            return form


class TestBenchShape:
    @pytest.mark.parametrize("ctx", [ctx_lotka_volterra(), ctx_hamiltonian()], ids=["lv", "ham"])
    def test_mul_against_oracle(self, ctx):
        rng = random.Random(509)
        f, g = shaped_operator(rng), shaped_operator(rng)
        prod = mul(ctx, f, g)
        assert prod.degree() == 16
        assert prod == naive_mul(ctx, f, g)

    def test_mul_rational_coefficients(self):
        rng = random.Random(510)
        ctx = ctx_lotka_volterra()
        f = shaped_operator(rng, theta_degree=4, rational=True)
        g = shaped_operator(rng, theta_degree=3, rational=True)
        assert any(c.denominator > 1 for a in f.coeffs for c in a.rational_terms().values())
        assert mul(ctx, f, g) == naive_mul(ctx, f, g)

    @pytest.mark.parametrize("ctx", [ctx_lotka_volterra(), ctx_hamiltonian()], ids=["lv", "ham"])
    def test_witnesses(self, ctx):
        rng = random.Random(511)
        for n in (6, 7, 8):
            f = shaped_operator(rng, theta_degree=n)
            x_elt = _witness_form(rng, ctx, f.coeffs[-1])
            cert = essential_witness(ctx, f, x_elt)
            assert cert.verify(ctx)
            assert cert.h.degree() == n - 1
            assert not cert.r.is_zero


def test_pinned_renders():
    # strings taken from the commit before the row-recurrence product
    f = OrePoly([bi("1/2*x - y"), bi("3"), bi("x*y + 2")])
    g = OrePoly([bi("y"), bi("-2/3*x^2 + 1")])
    assert mul(ctx_lotka_volterra(), f, g).render() == (
        "(-2/3*x^3*y - 4/3*x^2 + x*y + 2)t^3"
        " + (8/3*x^3*y^2 - 8/3*x^3*y + 16/3*x^2*y + x*y^2 - 22/3*x^2 + 2*y + 3)t^2"
        " + (4/3*x^4*y^2 - 8/3*x^3*y^3 + 4*x^3*y^2 - 10/3*x^2*y^2 - 1/3*x^3"
        " + 38/3*x^2*y - 2*x*y^2 - 28/3*x^2 + 4*x*y + 1/2*x - 2*y)t"
        " + (x^3*y^2 - x^2*y^3 - x^2*y^2 + 2*x^2*y - x*y^2 + 3/2*x*y - y^2 - y)"
    )
    cert = essential_witness(
        ctx_hamiltonian(), OrePoly([bi("x"), bi("y^2 - 1"), bi("2*x + 1")]), bi("x + y + 1")
    )
    assert cert.h.render() == (
        "(2*x^3 + 4*x^2*y + 2*x*y^2 + 5*x^2 + 6*x*y + y^2 + 4*x + 2*y + 1)t"
        " + (-4*x^4 - 4*x^3*y - 3*x^2*y^2 - 2*x*y^3 + y^4 - 6*x^3 - 2*x^2*y"
        " - 4*x*y^2 - 3*x^2 - 2*x*y - 2*y^2 - 2*x - 2*y - 1)"
    )
    assert cert.r.render() == (
        "4*x^5 - 4*x^4*y - x^3*y^2 - 5*x^2*y^3 + 3*x*y^4 - y^5 + 2*x^4 - 6*x^3*y"
        " - 5*x^2*y^2 - 2*x*y^3 + y^4 + 2*x^3 + x^2*y + y^3 + 3*x^2 + 2*x*y + y^2 + x"
    )


# -- the packed working set at its edges ---------------------------------

EDGE_CONTEXTS = {
    # rational coefficients in delta itself, so L > 1 in mul's rows
    "rational-field": ("poly2", "1/2*x - 3/7*x*y", "2/5*y^2 + 1/3"),
    # delta lowers every degree: the rows lose degree, rise() is 0
    "constant-field": ("poly2", "2", "-3"),
    "rational-constant-dx": ("poly2", "1/3", "0"),
    "poly1": ("poly1", "1/2*x^2 - 3", "0"),
    "lotka-volterra": ("poly2", "x - x*y", "x*y - y"),
}


def _edge_coefficient(rng, ctx, degree):
    p = _shaped_coefficient(rng, degree, nterms=4, rational=True)
    if ctx.ring == "poly1":
        p = BiPoly({(i + j, 0): c for (i, j), c in p.rational_terms().items()})
    return p


def _edge_operands(rng, ctx):
    """(f, g) pairs: theta-degree 0 on either side or both, zero middle
    (and lowest) coefficients, and a pair of theta-degree 4 and 3."""
    def op(*degrees):
        return OrePoly([BiPoly.zero() if d is None else _edge_coefficient(rng, ctx, d) for d in degrees])

    return [
        (op(2), op(3)),
        (op(3), op(2, 2, 4)),
        (op(2, 4, 2), op(3)),
        (op(2, None, None, 3), op(2, 2)),
        (op(4, None, 2), op(None, None, 3)),
        (op(3, 4, 3, 4, 3), op(4, 3, 4, 3)),
    ]


def _edge_witness_element(rng, ctx, f):
    """A linear form (in x alone on poly1), with rational coefficients,
    meeting the witness hypotheses for f."""
    while True:
        form = BiPoly({(1, 0): Q(_nonzero_int(rng), rng.choice((1, 2, 5))), (0, 0): _nonzero_int(rng)})
        if ctx.ring == "poly2":
            form = form + BiPoly.monomial(0, 1, _nonzero_int(rng))
        try:
            ore._check_witness_preconditions(ctx, f, form)
        except DomainError:
            continue
        return form


class TestPackedEdges:
    @pytest.mark.parametrize("name", list(EDGE_CONTEXTS))
    def test_products_and_witnesses(self, name):
        ring, dx, dy = EDGE_CONTEXTS[name]
        ctx = OreContext(ring, Derivation(bi(dx), bi(dy)))
        rng = random.Random(f"edge:{name}")
        for f, g in _edge_operands(rng, ctx):
            prod = mul(ctx, f, g)
            assert prod.degree() == f.degree() + g.degree()
            assert prod == naive_mul(ctx, f, g)
            cert = essential_witness(ctx, f, _edge_witness_element(rng, ctx, f))
            assert cert.verify(ctx)
            assert cert.h.degree() == f.degree() - 1 if f.degree() else cert.h.is_zero
            if not f.degree():
                assert cert.r == f.coeffs[0]

    @pytest.mark.parametrize("n, lead, top", [(15, "y", 31), (16, "1", 32)])
    def test_y_exponent_at_the_shift_bound(self, n, lead, top):
        # under (y^2, x^2) delta^n(x^n) holds n!*y^(2n), so lead*theta^n
        # times x^n reaches y^top with top = B = deg lead + 2n exactly:
        # 2^5 - 1 fills the 5 bits of s, 2^5 needs a sixth
        ctx = ctx_hamiltonian()
        f, g = OrePoly.theta(n, bi(lead)), OrePoly.from_ring(bi(f"x^{n}"))
        prod = mul(ctx, f, g)
        assert prod == naive_mul(ctx, f, g)
        assert prod.coeffs[0].degree_in(1) == top
        assert prod.coeffs[0].coeff(0, top) == math.factorial(n)
        cert = essential_witness(ctx, OrePoly([bi(f"x^{n}"), bi("y^2"), bi(lead) + 1]), bi("x + y + 1"))
        assert cert.verify(ctx)

    def test_witness_y_exponent_past_the_bound_without_rise(self):
        # delta(y) = y^2 raises degrees by r = 1: the witness reaches y^8,
        # past M + n*e = 7, which a shift of 3 bits would carry; its bound
        # M + n*(e + r) = 13 takes 4
        ctx = OreContext("poly2", Derivation(bi("1"), bi("y^2")))
        f = OrePoly([bi("y + 1")] * 6 + [bi("y + 2")])
        cert = essential_witness(ctx, f, bi("y + 3"))
        assert cert.verify(ctx)
        assert max(c.degree_in(1) for c in (*cert.h.coeffs, cert.r)) == 8

    def test_y400_under_lotka_volterra(self):
        ctx = ctx_lotka_volterra()
        f = OrePoly([bi("x"), BiPoly.zero(), bi("y^400 - 3*x*y")])
        g = OrePoly([bi("y^111 - x"), BiPoly.zero(), bi("2*x^3*y")])
        prod = mul(ctx, f, g)
        # y^400 * y^111 in theta^2: the shift is (400 + 111 + 2).bit_length()
        assert prod.coeffs[2].degree_in(1) == 511
        assert prod == naive_mul(ctx, f, g)
        cert = essential_witness(ctx, OrePoly([bi("y^400"), bi("x"), bi("2 + y^3")]), bi("2*x - y + 3"))
        assert cert.verify(ctx)
        # r = x^2 y^400 + (terms of lower y-degree)
        assert cert.r.degree_in(1) == 402

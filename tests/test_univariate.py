"""UniPoly and LaurentUniPoly, the 1-variable cases of the sparse integer
MPoly: result types, canonical form, differential checks against sympy
and a Fraction reference, and pinned CLI output of the univariate rings
and of the planar named corpus."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from orediamond import (
    DomainError,
    LaurentUniPoly,
    Q,
    UniPoly,
    exact_divide,
    rational_roots,
    squarefree_decomposition,
    uni_gcd,
)
from orediamond.cli import main
from orediamond.multipoly import MPoly, mpoly_resultant
from orediamond.poly import _pseudo_divmod
from orediamond.unifactor import _quadratic_factor, factor_univariate
from util import bi, lau, uni


def _assert_canonical(p):
    """int numerators over one positive den, in lowest terms."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.terms.values())
    assert math.gcd(p.den, *p.terms.values()) == 1
    assert all(len(e) == 1 for e in p.terms)


# -- result types and canonical form -------------------------------------


def test_one_variable_cases_of_mpoly():
    """Neither type has storage or arithmetic of its own: the operators
    are MPoly's, bound again in each class's own dict."""
    for cls in (UniPoly, LaurentUniPoly):
        assert issubclass(cls, MPoly) and cls.__slots__ == ()
        for name, op in (("__add__", MPoly.__add__), ("__radd__", MPoly.__add__),
                         ("__sub__", MPoly.__sub__), ("__mul__", MPoly.__mul__),
                         ("__rmul__", MPoly.__mul__)):
            assert vars(cls)[name] is op, (cls, name)
        for name in ("__neg__", "__pow__", "__eq__", "__hash__", "__bool__", "monic", "lc"):
            assert getattr(cls, name) is getattr(MPoly, name), (cls, name)


def test_unipoly_results_stay_unipoly():
    p, q_ = uni("1/2*x^3 - 3*x + 2/3"), uni("2*x - 4")
    factors = squarefree_decomposition(p * p * q_) + factor_univariate(p * q_).factors
    results = {
        "add": p + q_, "radd": 1 + p, "sub": p - q_, "rsub": 1 - p, "mul": p * q_,
        "scale": p * Q(2, 3), "rscale": Q(2, 3) * p, "rzero": 0 * p, "neg": -p,
        "pow": p**3, "pow0": p**0, "monic": p.monic(), "derivative": p.derivative(),
        "gcd": uni_gcd(p * q_, q_ * q_),
        "as_unipoly": bi("3*y^2 - 1/2").as_unipoly(1),
        "mpoly_as_unipoly": MPoly(3, {(0, 0, 2): 1}).as_unipoly(2),
        "laurent_as_unipoly": lau("x^2 + 1").as_unipoly(),
        "resultant": mpoly_resultant(p, q_, 0),
        "zero": UniPoly.zero(), "one": UniPoly.one(), "const": UniPoly.const(Q(1, 2)),
        "monomial": UniPoly.monomial(3, Q(-2, 7)),
    }
    results.update((f"factor{i}", f) for i, (f, _) in enumerate(factors))
    for name, r in results.items():
        assert type(r) is UniPoly, name
        _assert_canonical(r)


def test_laurent_results_stay_laurent():
    p, q_ = lau("1/2*x^-2 - 3*x + 2/3"), lau("x^-1 + 5")
    results = {
        "add": p + q_, "radd": 1 + p, "sub": p - q_, "rsub": 1 - p, "mul": p * q_,
        "scale": p * Q(2, 3), "rzero": 0 * p, "neg": -p, "pow": p**3, "pow0": p**0,
        "monic": p.monic(), "derivative": p.derivative(), "times_uni": p * uni("x^3"),
        "from_uni": LaurentUniPoly.from_uni(uni("x^2 - 1")), "zero": LaurentUniPoly.zero(),
        "one": LaurentUniPoly.one(), "const": LaurentUniPoly.const(3),
        "monomial": LaurentUniPoly.monomial(-4, Q(5, 3)),
    }
    for name, r in results.items():
        assert type(r) is LaurentUniPoly, name
        _assert_canonical(r)


def test_equal_values_are_equal_and_hash_alike():
    p = UniPoly([Q(-1, 2), 0, Q(2, 3)])
    q_ = uni("x - 3")
    paths = [
        uni("2/3*x^2 - 1/2"),
        UniPoly([Q(-1, 2), 0, Q(2, 3), 0, 0]),
        UniPoly(["-1/2", Q(0), "2/3"]),
        UniPoly.monomial(2, Q(2, 3)) - Q(1, 2),
        (p * 6) * Q(1, 6),
        uni_gcd(p * q_, p).monic() * Q(2, 3),
        bi("2/3*y^2 - 1/2").as_unipoly(1),
        LaurentUniPoly(0, [Q(-1, 2), 0, Q(2, 3)]).as_unipoly(),
        -(-p),
    ]
    for other in paths:
        _assert_canonical(other)
        assert other == p and hash(other) == hash(p)
    assert p.coeffs == (Q(-1, 2), 0, Q(2, 3)) and UniPoly.zero().coeffs == ()
    assert uni("x^2").coeffs == (0, 0, 1)
    assert UniPoly.const(Q(3, 4)) == Q(3, 4) and UniPoly.zero() == 0

    l = lau("x^-2 + 3")
    for other in (
        LaurentUniPoly(-2, [1, 0, 3]),
        LaurentUniPoly(-3, [0, 1, 0, 3, 0]),
        LaurentUniPoly.monomial(-2) + 3,
        LaurentUniPoly.from_uni(uni("3*x^2 + 1")) * LaurentUniPoly.monomial(-2),
        (l * Q(5, 7)) * Q(7, 5),
    ):
        _assert_canonical(other)
        assert other == l and hash(other) == hash(l)
    assert (l.min_degree(), l.max_degree(), l.coeff(-2), l.coeff(-1)) == (-2, 0, 1, 0)
    assert LaurentUniPoly.monomial(-3, Q(2, 5)).as_monomial() == (Q(2, 5), -3)
    assert l.as_monomial() is None


def test_negative_exponents_stay_out_of_unipoly():
    p, l = uni("x^2 + 1"), lau("x^-3")
    for op in (lambda: p + l, lambda: p - l, lambda: p * l, lambda: exact_divide(p, l)):
        with pytest.raises(DomainError):
            op()
    with pytest.raises(DomainError):
        UniPoly.monomial(-1)
    with pytest.raises(DomainError):
        l.as_unipoly()
    assert l * p == lau("x^-1 + x^-3")


def test_resultant_of_zero_and_constant_inputs():
    """res(c, p) = c^deg p; a zero input or two constants have no
    Sylvester matrix and are refused."""
    p = uni("x^3 - 2*x + 5")
    assert mpoly_resultant(UniPoly.const(Q(2, 3)), p, 0) == Q(8, 27)
    assert mpoly_resultant(p, UniPoly.const(-2), 0) == -8
    for a, b in ((UniPoly.zero(), p), (p, UniPoly.zero()), (UniPoly.const(4), UniPoly.const(Q(1, 9)))):
        with pytest.raises(DomainError):
            mpoly_resultant(a, b, 0)


# -- differential checks --------------------------------------------------


@pytest.fixture
def sp():
    return pytest.importorskip("sympy")


def _random_uni(rng, maxdeg=4):
    """Rational coefficients; zero, constant, or a product with repeated
    factors, in turn with plain random polynomials."""
    kind = rng.choice(["random", "random", "zero", "constant", "repeated"])
    if kind == "zero":
        return UniPoly.zero()
    if kind == "constant":
        return UniPoly.const(Q(rng.choice([-7, -1, 2, 9]), rng.choice([1, 4])))
    if kind == "random":
        deg = rng.randrange(maxdeg + 1)
        return UniPoly([Q(rng.randrange(-9, 10), rng.choice([1, 2, 3, 5])) for _ in range(deg + 1)])
    p = UniPoly.const(Q(rng.randrange(1, 6), rng.choice([1, 3])))
    for _ in range(rng.randrange(1, 3)):
        f = UniPoly([Q(rng.randrange(-4, 5), rng.choice([1, 2])) for _ in range(rng.randrange(2, 4))])
        if f.is_constant:
            f = f + uni("x")
        p = p * f ** rng.randrange(1, 4)
    return p


def _to_sympy(sp, p, x):
    return sp.Poly([sp.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)] or [0], x, domain="QQ")


def _from_sympy(poly):
    return UniPoly([Q(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())])


def _monic_sympy(poly):
    return poly.monic() if not poly.is_zero else poly


def test_pseudo_divmod_against_sympy(sp):
    """_pseudo_divmod on the int numerators, divided by its s, is division
    with remainder in Q[x]: a = A/da and b = B/db with s*A = q*B + r give
    a = (q*db/(s*da))*b + r/(s*da)."""
    x = sp.Symbol("x")
    rng = random.Random(301)
    for _ in range(150):
        a, b = _random_uni(rng, 6), _random_uni(rng)
        if b.is_zero:
            continue
        quo, rem, s = _pseudo_divmod(a._ints(), b._ints())
        ours = UniPoly(quo) * Q(b.den, s * a.den), UniPoly(rem) * Q(1, s * a.den)
        theirs = sp.div(_to_sympy(sp, a, x), _to_sympy(sp, b, x))
        assert ours == tuple(_from_sympy(t) for t in theirs)


def test_uni_gcd_against_sympy(sp):
    """Seeded rational pairs, 40% with a common factor, and every 5th
    pair integral with an integer content (6, -4 or 10 times 9 or 15)."""
    x = sp.Symbol("x")
    rng = random.Random(302)
    for trial in range(180):
        a, b = _random_uni(rng), _random_uni(rng)
        if rng.random() < 0.4:
            common = _random_uni(rng, 2)
            a, b = a * common, b * common
        if trial % 5 == 4:
            a, b = (p * p.den * rng.choice(k) for p, k in ((a, (6, -4, 10)), (b, (9, 15))))
        if a.is_zero and b.is_zero:
            continue
        theirs = _monic_sympy(sp.gcd(_to_sympy(sp, a, x), _to_sympy(sp, b, x)))
        assert uni_gcd(a, b) == _from_sympy(theirs)


def test_squarefree_decomposition_against_sympy(sp):
    x = sp.Symbol("x")
    rng = random.Random(303)
    for _ in range(150):
        p = _random_uni(rng)
        if p.is_zero:
            continue
        _, parts = sp.sqf_list(_to_sympy(sp, p, x))
        theirs = sorted(((_from_sympy(f.monic()), m) for f, m in parts), key=lambda fm: fm[1])
        assert squarefree_decomposition(p) == theirs


def test_factor_univariate_against_sympy(sp):
    x = sp.Symbol("x")
    rng = random.Random(304)
    certified = 0
    for _ in range(150):
        p = _random_uni(rng, 5)
        if p.is_zero:
            continue
        rep = factor_univariate(p)
        if not rep.certified:
            continue
        certified += 1
        _, parts = sp.factor_list(_to_sympy(sp, p, x))
        theirs = sorted(((_from_sympy(f.monic()), m) for f, m in parts), key=lambda fm: (fm[0].degree(), fm[0].coeffs))
        assert rep.unit == p.lc()
        assert rep.factors == theirs
    assert certified >= 100


def _no_rational_roots(rng, deg):
    """A monic polynomial of the given degree without rational roots."""
    while True:
        f = UniPoly([Q(rng.randrange(-5, 6), rng.choice([1, 2])) for _ in range(deg)] + [1])
        if f.coeffs[0] and not rational_roots(f):
            return f


def test_quadratic_factor_found():
    # even quartic: the remainder's t-coefficient r1(0, b) is zero, so
    # the gcd at a0 = 0 has a zero operand
    f = uni("x^4 + 3*x^2 + 2")
    assert _quadratic_factor(f) == uni("x^2 + 1")
    # sqrt(2) + sqrt(3) has degree 4 over Q with no rational quadratic factor
    assert _quadratic_factor(uni("x^4 - 10*x^2 + 1")) is None
    rep = factor_univariate(f)
    assert rep.certified and rep.factors == [(uni("x^2 + 1"), 1), (uni("x^2 + 2"), 1)]


def test_factor_univariate_of_products_without_rational_roots_against_sympy(sp):
    # products of quadratics, some squared, and simple cubics without
    # rational roots: the search must find each quadratic factor;
    # certified unless two cubics leave a remainder of degree 6
    x = sp.Symbol("x")
    rng = random.Random(306)
    for _ in range(40):
        degrees = rng.choice([(2, 2), (2, 3), (2, 2, 2), (2, 2, 3), (3, 3), (2, 3, 3)])
        p = UniPoly.const(Q(rng.choice([-3, 1, 2]), rng.choice([1, 5])))
        for deg in degrees:
            p = p * _no_rational_roots(rng, deg) ** (rng.choice([1, 1, 2]) if deg == 2 else 1)
        rep = factor_univariate(p)
        assert rep.certified == (degrees.count(3) < 2)
        _, parts = sp.factor_list(_to_sympy(sp, p, x))
        theirs = sorted(((_from_sympy(f.monic()), m) for f, m in parts), key=lambda fm: (fm[0].degree(), fm[0].coeffs))
        if rep.certified:
            assert rep.unit == p.lc() and rep.factors == theirs
        else:
            # the quadratics are split off; the cubics stay together
            quads = [fm for fm in theirs if fm[0].degree() == 2]
            assert [fm for fm in rep.factors if fm[0].degree() == 2] == quads


def test_rational_roots_of_rational_polynomials_against_sympy(sp):
    x = sp.Symbol("x")
    rng = random.Random(305)
    for _ in range(150):
        p = _random_uni(rng)
        if p.is_zero:
            continue
        theirs = sp.roots(_to_sympy(sp, p, x), filter="Q")
        assert rational_roots(p) == sorted(Q(int(r.p), int(r.q)) for r in theirs)


def _sylvester_det(sp, a, b):
    """The determinant of the Sylvester matrix of a and b, taken in sympy."""
    ca = [sp.Rational(c.numerator, c.denominator) for c in reversed(a.coeffs)]
    cb = [sp.Rational(c.numerator, c.denominator) for c in reversed(b.coeffs)]
    m, n = len(ca) - 1, len(cb) - 1
    rows = [[0] * k + ca + [0] * (n - 1 - k) for k in range(n)]
    rows += [[0] * k + cb + [0] * (m - 1 - k) for k in range(m)]
    return sp.Matrix(rows).det() if rows else sp.Integer(1)


def test_resultant_against_sylvester_determinant(sp):
    rng = random.Random(306)
    for _ in range(150):
        a, b = _random_uni(rng), _random_uni(rng)
        if rng.random() < 0.3:
            common = _random_uni(rng, 2)
            a, b = a * common, b * common
        if a.is_zero or b.is_zero or a.is_constant and b.is_constant:
            continue
        theirs = _sylvester_det(sp, a, b)
        assert mpoly_resultant(a, b, 0) == Q(int(sp.numer(theirs)), int(sp.denom(theirs)))


def _random_laurent_terms(rng):
    return {n: Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 3])) for n in rng.sample(range(-4, 5), rng.randrange(0, 5))}


def _ref_render(terms):
    """The render format from its definition: highest power first, the
    magnitude left out when it is 1, a bare leading -x written -1*x."""
    parts = []
    for n in sorted((n for n in terms if terms[n]), reverse=True):
        c = terms[n]
        mono = "" if n == 0 else "x" if n == 1 else f"x^{n}"
        mag = str(abs(c))
        body = mag if not mono else mono if abs(c) == 1 else f"{mag}*{mono}"
        if parts:
            parts.append(("+ " if c > 0 else "- ") + body)
        elif c < 0:
            parts.append(f"-1*{mono}" if mono and abs(c) == 1 else "-" + body)
        else:
            parts.append(body)
    return " ".join(parts) or "0"


def test_laurent_against_fraction_reference():
    rng = random.Random(307)
    negative = 0
    for _ in range(200):
        a, b = _random_laurent_terms(rng), _random_laurent_terms(rng)
        p = LaurentUniPoly(-4, [a.get(n, 0) for n in range(-4, 5)])
        q_ = LaurentUniPoly.zero()
        for n, c in b.items():
            q_ = q_ + LaurentUniPoly.monomial(n, c)
        ref_sum = {n: a.get(n, 0) + b.get(n, 0) for n in set(a) | set(b)}
        ref_prod = {}
        for n, c in a.items():
            for m, d in b.items():
                ref_prod[n + m] = ref_prod.get(n + m, 0) + c * d
        ref_deriv = {n - 1: c * n for n, c in a.items()}
        for ours, ref in ((p + q_, ref_sum), (p * q_, ref_prod), (p.derivative(), ref_deriv)):
            _assert_canonical(ours)
            assert ours.rational_terms() == {(n,): c for n, c in ref.items() if c}
            assert ours.render() == _ref_render(ref)
        assert p.render() == _ref_render(a)
        negative += any(c and n < 0 for n, c in a.items())
    assert negative >= 100


# -- CLI output, pinned: the univariate rings, and the planar named -----
# -- corpus through decide, darboux, primitive and first-integral -------

PINS = [
    pin
    for name in ("univariate_cli_pins.json", "planar_cli_pins.json", "ore_cli_pins.json")
    for pin in json.loads((Path(__file__).parent / name).read_text())
]


@pytest.mark.parametrize("pin", PINS, ids=[" ".join(p["argv"]) for p in PINS])
def test_univariate_cli_output_pinned(pin, capsys):
    code = main(pin["argv"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (pin["code"], pin["out"], pin["err"])

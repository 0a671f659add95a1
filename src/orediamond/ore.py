"""The differential operator ring S = R[theta; delta].

Elements are stored in left-normal form sum a_i theta^i with a_i in R
(R is Q[x] or Q[x,y]; univariate coefficients are BiPoly values without
y).  The verbs run mul (ore-mul) and essential_witness (witness); the
OrePoly arithmetic besides them serves WitnessCert.verify and library
callers.  Multiplication builds the rows theta^i g one from the next by
theta (c theta^t) = delta(c) theta^t + c theta^(t+1) and adds a_i times
row i, so each coefficient a_i of f meets each coefficient of its row
once.

The product and the witness recursion each run in one packed working
set from start to finish: every polynomial they form is a dict from the
int key (i << s) + j of x^i*y^j to an int numerator over a denominator
kept beside it (poly.kpack), delta is one pass of poly.kdelta, and every
product one poly.kmac loop.  No BiPoly is built between steps; each
coefficient of the answer is unpacked once.  The shift s comes from a
degree bound that each function proves in its docstring.
"""

from math import comb, lcm

from .poly import BiPoly, DomainError, NEG_INF, _power, _scaled, exact_divide, kmac, kpack, kunpack, kdelta
from .derivation import Derivation
from .unifactor import is_irreducible


class OreContext:
    """Ring tag plus derivation; fixes S = R[theta; delta]."""

    __slots__ = ("ring", "deriv")

    def __init__(self, ring, deriv):
        if ring not in ("poly1", "poly2"):
            raise DomainError("ring must be poly1 or poly2")
        if not isinstance(deriv, Derivation):
            raise DomainError("a Derivation is required")
        if ring == "poly1":
            if not deriv.dy.is_zero:
                raise DomainError("univariate context cannot move y")
            if deriv.dx.deg_y() > 0:
                raise DomainError("univariate context requires dx in Q[x]")
        self.ring = ring
        self.deriv = deriv

    def check_element(self, a):
        if self.ring == "poly1" and a.deg_y() > 0:
            raise DomainError("coefficient involves y in a univariate context")
        return a

    def delta(self, a):
        return self.deriv.apply(a)


class OrePoly:
    """Left-normal Ore polynomial: coeffs[i] is the coefficient of theta^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, BiPoly) else BiPoly.const(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def from_ring(cls, a):
        """The ring element a as an operator; WitnessCert.verify runs it."""
        return cls((a,))

    @classmethod
    def theta(cls, n=1, coeff=None):
        """coeff * theta^n; WitnessCert.verify runs it."""
        c = BiPoly.one() if coeff is None else coeff
        return cls((BiPoly.zero(),) * n + (c,))

    @property
    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coeff(self, i):
        """The coefficient of theta^i, zero past the degree: library API."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else BiPoly.zero()

    def __add__(self, other):
        """Sum in S; WitnessCert.verify runs it."""
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return OrePoly(out)

    def __sub__(self, other):
        """Python protocol: f - g."""
        return self + (-other)

    def __neg__(self):
        """Python protocol: -f."""
        return OrePoly([-c for c in self.coeffs])

    def scale_left(self, a):
        """Left multiplication by a in R; WitnessCert.verify runs it."""
        return OrePoly([a * c for c in self.coeffs])

    def __eq__(self, other):
        """Python protocol; WitnessCert.verify compares with it."""
        if isinstance(other, OrePoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        """Python protocol: equal operators hash alike."""
        return hash(self.coeffs)

    def __bool__(self):
        """Python protocol: an operator is true when nonzero."""
        return bool(self.coeffs)

    def render(self):
        return render_coefficients([c.render() for c in self.coeffs])

    def __repr__(self):
        return f"OrePoly({self.render()})"


def render_coefficients(rendered):
    """Text of an Ore polynomial from the renders of its theta-coefficients,
    lowest power first."""
    parts = [
        f"({text}){_power('t', i)}"
        for i, text in reversed(list(enumerate(rendered)))
        if text != "0"
    ]
    return " + ".join(parts) or "(0)"


def _packed(f, s):
    """(D, [packed numerator of each theta-coefficient of f]) over the
    lcm D of their denominators."""
    den = lcm(*(c.den for c in f.coeffs))
    return den, [dict(kpack(_scaled(c.terms, den // c.den), s)) for c in f.coeffs]


def _unpacked(packed, s, den):
    return BiPoly._lowest(2, den, kunpack(packed, s))


def _nonzero(acc):
    return {k: v for k, v in acc.items() if v}


def _maxdeg(f):
    return max(c.total_degree() for c in f.coeffs if c.terms)


def mul(ctx, f, g):
    """Product in S, left-normal form: f*g = sum a_i (theta^i g), in one
    packed working set (poly.kpack) from start to finish.

    f = sum a_i theta^i is held as numerators A_i over one denominator F,
    g as numerators over G, and delta as L*delta on ints (poly.kdelta).
    Row i, the coefficients of theta^i g, is then R_i / (G L^i) with R_0
    the numerators of g and R_i[t] = L*delta(R_{i-1}[t]) + L*R_{i-1}[t-1],
    since theta (c theta^t) = delta(c) theta^t + c theta^(t+1).  Each
    a_i row_i[t] = A_i L^(n-i) R_i[t] / (F G L^n), n = deg f, is added
    into out[t] as it is formed, and each coefficient is unpacked once,
    over F G L^n.

    The shift: let maxdeg be the largest total degree of a coefficient,
    d the larger total degree of dx and dy, and r = max(d - 1, 0)
    (Derivation.rise).  delta(x^i y^j) = i x^(i-1) y^j dx + j x^i
    y^(j-1) dy has total degree at most i + j + r, and delta of a
    constant is 0, so delta raises no total degree by more than r, and
    row i, built from row i-1 by one delta step and one shift in theta,
    has total degree at most maxdeg g + i r.  Every monomial the product
    forms is then one of a delta step of rows 0..n-1 (poly.kdelta), of
    total degree at most maxdeg g + n r, or one of a_i row_i[t], of total
    degree at most B = maxdeg f + maxdeg g + n r.  Each y-exponent is at
    most B < 2^s for s = B.bit_length(), so no sum of keys carries into
    the x field."""
    if f.is_zero or g.is_zero:
        return OrePoly.zero()
    n = f.degree()
    s = (_maxdeg(f) + _maxdeg(g) + n * ctx.deriv.rise()).bit_length()
    L, ox, oy = ctx.deriv.packed(s)
    fden, fa = _packed(f, s)
    gden, row = _packed(g, s)
    out = [{} for _ in range(n + g.degree() + 1)]
    for i, a in enumerate(fa):
        if i:
            row = [
                _nonzero(kdelta({k: L * v for k, v in b.items()}, c.items(), s, ox, oy))
                for c, b in zip(row + [{}], [{}] + row)
            ]
        if a:
            a = _scaled(a, L ** (n - i)).items()
            for acc, c in zip(out, row):
                kmac(acc, a, c.items())
    den = fden * gden * L**n
    return OrePoly([_unpacked(c, s, den) for c in out])


class WitnessCert:
    """The witness x^(n+1) f = h*theta*x + r*x that essential_witness
    builds; verify(ctx) re-checks it."""

    __slots__ = ("f", "x_elt", "h", "r")

    def __init__(self, f, x_elt, h, r):
        self.f = f
        self.x_elt = x_elt
        self.h = h
        self.r = r

    def verify(self, ctx):
        """r != 0 and x^(n+1) f == h*theta*x + r*x with n = deg f, by the
        skew product; no verb runs it, library API in the README."""
        f, x, r = self.f, self.x_elt, self.r
        theta_x = mul(ctx, OrePoly.theta(), OrePoly.from_ring(x))
        lhs = f.scale_left(x ** (f.degree() + 1))
        return not r.is_zero and lhs == mul(ctx, self.h, theta_x) + OrePoly.from_ring(r * x)

    def __repr__(self):
        return f"WitnessCert(h={self.h.render()}, r={self.r.render()})"


def _check_witness_preconditions(ctx, f, x_elt):
    """f != 0, x != 0 in R, x does not divide the leading coefficient of f,
    and either (a) delta(x) is a nonzero constant or (b) x is prime and does
    not divide delta(x), which is then nonzero.  R is factorial, so (b) asks
    for x certified irreducible on poly1 and of total degree 1 on poly2."""
    if f.is_zero:
        raise DomainError("witness requires f != 0")
    if x_elt.is_zero:
        raise DomainError("witness requires a nonzero ring element")
    ctx.check_element(x_elt)
    if exact_divide(f.coeffs[-1], x_elt) is not None:
        raise DomainError("hypothesis failed: the element divides the leading coefficient of f")
    dxe = ctx.delta(x_elt)
    if dxe.is_constant and not dxe.is_zero:
        return  # (a)
    if ctx.ring == "poly1":
        # a unit divides the leading coefficient of f, so x has positive degree
        irr, certified = is_irreducible(x_elt.as_unipoly(0))
        if not irr:
            raise DomainError("hypothesis failed: the element is reducible")
        if not certified:
            raise DomainError("hypothesis failed: irreducibility could not be certified")
    elif x_elt.total_degree() != 1:
        raise DomainError("hypothesis failed: bivariate irreducibility is only certified in degree 1")
    if exact_divide(dxe, x_elt) is not None:
        raise DomainError("hypothesis failed: the element divides its own image")


def _witness_recursion(ctx, f, x_elt):
    """(h, r) with x^(n+1) f = h*theta*x + r*x, n = deg f, and r != 0, by
    peeling the leading coefficient, under _check_witness_preconditions.

    A step on g = sum_{i<=m} a_i theta^i takes h_{m-1} = x^m a_m and
    replaces g by g' = sum_{i<m} (x a_i - C(m,i) a_m delta^{m-i}(x)) theta^i,
    since x^m a_m theta^(m-1) * theta x = x^m a_m sum_i C(m,i)
    delta^{m-i}(x) theta^i and so x^(m+1) g - (x^m a_m theta^(m-1)) theta x
    = x^m g'.  If x does not divide a_m, it does not divide the new top
    x a_{m-1} - m a_m delta(x) = -m a_m delta(x) mod x either: in (a)
    m delta(x) is a nonzero rational, in (b) x is prime and divides neither
    a_m nor delta(x), and m != 0.  So from a_n on, every top is nonzero,
    the theta-degree drops by exactly one at each step, and after n steps
    x^(n+1) f = (sum_m h_{m-1} theta^(m-1)) theta x + r x with r = g', of
    degree 0, not divisible by x, so nonzero (r = a_n when n = 0).

    In the packed working set (see mul) x is X/xden, delta^k(x) is
    Delta_k/(xden L^k) with Delta_{k+1} = L*delta(Delta_k), x^k is
    X^k/xden^k, and the a_i are numerators over one denominator D, so
    the step above is a_i' = (X A_i L^m - C(m,i) A_m Delta_{m-i} L^i) /
    (xden D L^m).  The shift: with e = deg x, M the largest total degree
    of a coefficient of f and r = Derivation.rise (see mul), a_i at step
    m (before the step; m = n first) has total degree at most P(m, i) =
    M + (n - m) e + (n - i) r.  This holds at m = n, and the step keeps
    it: x a_i has degree at most e + P(m, i) = P(m - 1, i), and a_m
    delta^(m-i)(x) at most P(m, m) + e + (m - i) r = P(m - 1, i).  So
    every a_i, r = a_0 (P(0, 0) = M + n (e + r)) and every h_{m-1} = x^m
    a_m (m e + P(m, m)) stays within B = M + n (e + r), as do x^k (k e)
    and delta^k(x) (e + k r) for k <= n and a delta step's terms
    (poly.kdelta), when n >= 1; each y-exponent is then at most B < 2^s
    for s = B.bit_length().  When n = 0 no product is formed and only f
    is unpacked.
    """
    n = f.degree()
    s = (_maxdeg(f) + n * (x_elt.total_degree() + ctx.deriv.rise())).bit_length()
    L, ox, oy = ctx.deriv.packed(s)
    xden, xk = x_elt.den, dict(kpack(x_elt.terms, s))
    xpow, dpow = [{0: 1}], [xk]  # x^k over xden^k, delta^k(x) over xden L^k
    for _ in range(n):
        xpow.append(_nonzero(kmac({}, xk.items(), xpow[-1].items())))
        dpow.append(_nonzero(kdelta({}, dpow[-1].items(), s, ox, oy)))
    den, a = _packed(f, s)  # a_i over den
    h = [None] * n
    for m in range(n, 0, -1):
        top = a[m]
        h[m - 1] = _unpacked(kmac({}, xpow[m].items(), top.items()), s, xden**m * den)
        # x a_i - C(m, i) top delta^(m-i)(x), over xden L^m times den
        x_lm = _scaled(xk, L**m).items()
        a = [
            _nonzero(kmac(kmac({}, x_lm, a[i].items()), _scaled(dpow[m - i], -comb(m, i) * L**i).items(), top.items()))
            for i in range(m)
        ]
        den *= xden * L**m
    return OrePoly(h), _unpacked(a[0], s, den)


def essential_witness(ctx, f, x_elt):
    """Constructive witness that S/S*theta*x is an essential extension."""
    _check_witness_preconditions(ctx, f, x_elt)
    return WitnessCert(f, x_elt, *_witness_recursion(ctx, f, x_elt))

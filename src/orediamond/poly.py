"""Exact polynomial arithmetic over Q in one and two variables.

BiPoly is a sparse exponent-map polynomial in x, y; UniPoly is dense in
one variable; LaurentUniPoly allows negative exponents of x.  The term
order used for leading terms and all normalizations is graded
lexicographic with x > y.  All values are immutable; every operation is
a pure function.
"""

from math import gcd as gcd_int, lcm
from operator import add, sub

from .rational import Q, QONE, QZERO, q, qstr

NEG_INF = float("-inf")


class DomainError(ValueError):
    """A mathematical precondition was violated."""


def _grlex_key(exp):
    return (exp[0] + exp[1], exp[0])


# ----------------------------------------------------------------------
# term-dict kernels
# ----------------------------------------------------------------------
# A sparse polynomial is a dict mapping exponent tuples to nonzero
# coefficients: rationals for BiPoly and the Groebner engine, ints over a
# common denominator for MPoly.  The product (kmul_int) and exact
# division (kdivide) kernels work on ints and serve both; none of the
# kernels stores a zero coefficient.


def kadd(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        if s is None:
            out[e] = c
        else:
            s = s + c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def ksub(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        if s is None:
            out[e] = -c
        else:
            s = s - c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def kneg(a):
    return {e: -c for e, c in a.items()}


def kscale(a, c):
    if not c:
        return {}
    return {e: co * c for e, co in a.items()}


def kmul_term(a, exp, c):
    """Multiply by the single term c * X^exp."""
    if not c:
        return {}
    return {tuple(map(add, e, exp)): co * c for e, co in a.items()}


def _as_integers(a):
    """(d, {exp: n}) with every coefficient of a equal to n / d, d the
    lcm of the denominators, so gcd(d, every n) = 1."""
    d = lcm(*(c.denominator for c in a.values()))
    return d, {e: c.numerator * (d // c.denominator) for e, c in a.items()}


def kmul_int(a, b):
    """Product of two term dicts with int coefficients: the one product
    kernel, shared by BiPoly (through kmul) and MPoly."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((ea, ca),) = a.items()
        return {tuple(map(add, e, ea)): c * ca for e, c in b.items()}
    acc = {}
    get = acc.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            acc[e] = get(e, 0) + ca * cb
    return {e: v for e, v in acc.items() if v}


def kmul(a, b):
    """Product of two term dicts.  Both operands are brought to integer
    numerators over their common denominators, so the double loop adds
    plain int products and each output coefficient is built once."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((e, c),) = a.items()
        return kmul_term(b, e, c)
    da, ia = _as_integers(a)
    db, ib = _as_integers(b)
    d = da * db
    if d == 1:
        return {e: Q(v) for e, v in kmul_int(ia, ib).items()}
    return {e: Q(v, d) for e, v in kmul_int(ia, ib).items()}


def _degree_lex(exp):
    return (sum(exp), exp)


def kdivide(a, b):
    """(h, c) with a = b*h/c, c the content of b, when b divides a in
    Q[X]; else None.  a, b (nonempty) and h are int term dicts.  By Gauss's
    lemma a quotient by the primitive part b/c is integral, so each step
    divides by its leading coefficient exactly or b does not divide a.
    Leading terms are taken by total degree, then lexicographically."""
    c = gcd_int(*b.values())
    if c != 1:
        b = {e: v // c for e, v in b.items()}
    bexp = max(b, key=_degree_lex)
    blc = b[bexp]
    rem = dict(a)
    quot = {}
    while rem:
        rexp = max(rem, key=_degree_lex)
        e = tuple(map(sub, rexp, bexp))
        if min(e) < 0:
            return None
        k, r = divmod(rem[rexp], blc)
        if r:
            return None
        quot[e] = k
        for eb, cb in b.items():
            t = tuple(map(add, eb, e))
            v = rem.get(t, 0) - k * cb
            if v:
                rem[t] = v
            else:
                del rem[t]
    return quot, c


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def _render_terms(terms):
    """Canonical text of (monomial, coefficient) pairs given in display
    order; the monomial is "" for the constant term."""
    parts = []
    for body, c in terms:
        if not c:
            continue
        mag = abs(c)
        if not body:
            piece = qstr(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{qstr(mag)}*{body}"
        if parts:
            parts.append(("+ " if c > 0 else "- ") + piece)
        elif c > 0:
            parts.append(piece)
        elif body and mag == 1:
            # leading negative term; keep within the input grammar (no
            # unary minus on a bare monomial)
            parts.append(f"-1*{body}")
        else:
            parts.append("-" + piece)
    return " ".join(parts) or "0"


def _power(var, n):
    if n == 0:
        return ""
    return var if n == 1 else f"{var}^{n}"


class BiPoly:
    """Sparse bivariate polynomial over Q."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for exp, coeff in terms.items():
                coeff = q(coeff)
                if coeff:
                    cleaned[(int(exp[0]), int(exp[1]))] = coeff
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def _raw(cls, terms):
        p = cls.__new__(cls)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def const(cls, c):
        c = q(c)
        return cls._raw({(0, 0): c} if c else {})

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def var_x(cls):
        return cls._raw({(1, 0): QONE})

    @classmethod
    def var_y(cls):
        return cls._raw({(0, 1): QONE})

    @classmethod
    def monomial(cls, i, j, c=1):
        c = q(c)
        if i < 0 or j < 0:
            raise DomainError("negative exponent in polynomial ring")
        return cls._raw({(i, j): c} if c else {})

    # -- queries ------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and (0, 0) in self.terms)

    def constant_value(self):
        if not self.is_constant:
            raise DomainError("not a constant polynomial")
        return self.terms.get((0, 0), QZERO)

    def total_degree(self):
        if not self.terms:
            return NEG_INF
        return max(i + j for i, j in self.terms)

    def deg_x(self):
        if not self.terms:
            return NEG_INF
        return max(i for i, _ in self.terms)

    def deg_y(self):
        if not self.terms:
            return NEG_INF
        return max(j for _, j in self.terms)

    def leading_exp(self):
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        return max(self.terms, key=_grlex_key)

    def lc(self):
        return self.terms[self.leading_exp()]

    def coeff(self, i, j):
        return self.terms.get((i, j), QZERO)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, BiPoly):
            other = BiPoly.const(other)
        return BiPoly._raw(kadd(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, BiPoly):
            other = BiPoly.const(other)
        return BiPoly._raw(ksub(self.terms, other.terms))

    def __rsub__(self, other):
        return BiPoly.const(other) - self

    def __neg__(self):
        return BiPoly._raw(kneg(self.terms))

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            return BiPoly._raw(kmul(self.terms, other.terms))
        return BiPoly._raw(kscale(self.terms, q(other)))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise DomainError("negative power of a polynomial")
        out = BiPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, BiPoly):
            return self.terms == other.terms
        if isinstance(other, (int, type(QONE))):
            return self == BiPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus and normalization ----------------------------------

    def deriv_x(self):
        return BiPoly._raw(
            {(i - 1, j): c * i for (i, j), c in self.terms.items() if i}
        )

    def deriv_y(self):
        return BiPoly._raw(
            {(i, j - 1): c * j for (i, j), c in self.terms.items() if j}
        )

    def monic(self):
        if not self.terms:
            return self
        lc = self.lc()
        if lc == 1:
            return self
        return self * (QONE / lc)

    def eval(self, xv, yv):
        xv, yv = q(xv), q(yv)
        total = QZERO
        for (i, j), c in self.terms.items():
            total += c * xv**i * yv**j
        return total

    def homogeneous_part(self, d):
        return BiPoly._raw(
            {e: c for e, c in self.terms.items() if e[0] + e[1] == d}
        )

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    # -- conversions --------------------------------------------------

    @classmethod
    def from_uni(cls, u, var="x"):
        if var == "x":
            return cls._raw({(i, 0): c for i, c in enumerate(u.coeffs) if c})
        return cls._raw({(0, i): c for i, c in enumerate(u.coeffs) if c})

    def as_unipoly(self, var="x"):
        if var == "x":
            if self.deg_y() > 0:
                raise DomainError("polynomial involves y")
            out = [QZERO] * (len(self.terms) and max(i for i, _ in self.terms) + 1)
            for (i, _), c in self.terms.items():
                out[i] = c
            return UniPoly(out)
        if self.deg_x() > 0:
            raise DomainError("polynomial involves x")
        out = [QZERO] * (len(self.terms) and max(j for _, j in self.terms) + 1)
        for (_, j), c in self.terms.items():
            out[j] = c
        return UniPoly(out)

    def x_coefficients(self):
        """Coefficients of powers of x, each a UniPoly in y."""
        by_deg = {}
        for (i, j), c in self.terms.items():
            by_deg.setdefault(i, {})[j] = c
        top = max(by_deg) if by_deg else -1
        out = []
        for i in range(top + 1):
            row = by_deg.get(i, {})
            coeffs = [QZERO] * (max(row) + 1 if row else 0)
            for j, c in row.items():
                coeffs[j] = c
            out.append(UniPoly(coeffs))
        return out

    # -- rendering ----------------------------------------------------

    def render(self):
        """Canonical text form: descending graded-lex terms."""
        return _render_terms(
            ("*".join(filter(None, (_power("x", i), _power("y", j)))), c)
            for (i, j), c in self.sorted_terms()
        )

    def __repr__(self):
        return f"BiPoly({self.render()})"

    def __str__(self):
        return self.render()


def bipoly(spec):
    """Convenience constructor from {(i, j): coeff} or a constant."""
    if isinstance(spec, BiPoly):
        return spec
    if isinstance(spec, dict):
        return BiPoly(spec)
    return BiPoly.const(spec)


# ----------------------------------------------------------------------
# exact division, gcd, resultants, square-free parts
# ----------------------------------------------------------------------


def exact_divide(p, q_):
    """Return h with p = q_*h if q_ divides p exactly in Q[x,y], else None."""
    if not isinstance(q_, BiPoly):
        q_ = BiPoly.const(q_)
    if q_.is_zero:
        raise DomainError("division by the zero polynomial")
    da, a = _as_integers(p.terms)
    db, b = _as_integers(q_.terms)
    out = kdivide(a, b)
    if out is None:
        return None
    h, c = out
    d = c * da
    return BiPoly._raw({e: Q(v * db, d) for e, v in h.items()})


def _lift_y(u):
    return BiPoly.from_uni(u, var="y")


def _content_x(p):
    """Monic gcd in Q[y] of the x-coefficients of p (p nonzero)."""
    cont = UniPoly.zero()
    for c in p.x_coefficients():
        if not c.is_zero:
            cont = uni_gcd(cont, c) if not cont.is_zero else c.monic()
        if cont.degree() == 0:
            break
    return cont


def _primitive_part_x(p):
    if p.is_zero:
        return p
    cont = _content_x(p)
    if cont.degree() == 0:
        return p
    return exact_divide(p, _lift_y(cont))


def _prem_x(a, b):
    """Pseudo-remainder of a by b with respect to x (deg_x b >= 1)."""
    db = b.deg_x()
    blc = _lift_y(b.x_coefficients()[db])
    r = a
    while not r.is_zero and r.deg_x() >= db:
        dr = r.deg_x()
        rlc = _lift_y(r.x_coefficients()[dr])
        r = blc * r - BiPoly.monomial(dr - db, 0) * rlc * b
    return r


def gcd(p, q_):
    """Monic gcd in Q[x,y] via content/primitive-part recursion with a
    primitive pseudo-remainder sequence in x."""
    if p.is_zero and q_.is_zero:
        raise DomainError("gcd(0, 0) is undefined")
    if p.is_zero:
        return q_.monic()
    if q_.is_zero:
        return p.monic()
    dxp, dxq = p.deg_x(), q_.deg_x()
    if dxp == 0 and dxq == 0:
        return _lift_y(uni_gcd(p.as_unipoly("y"), q_.as_unipoly("y"))).monic()
    if dxp == 0:
        return _lift_y(uni_gcd(p.as_unipoly("y"), _content_x(q_))).monic()
    if dxq == 0:
        return _lift_y(uni_gcd(q_.as_unipoly("y"), _content_x(p))).monic()
    cont = uni_gcd(_content_x(p), _content_x(q_))
    a, b = _primitive_part_x(p), _primitive_part_x(q_)
    if a.deg_x() < b.deg_x():
        a, b = b, a
    while not b.is_zero and b.deg_x() > 0:
        r = _prem_x(a, b)
        a, b = b, _primitive_part_x(r)
    g = _primitive_part_x(a) if b.is_zero else BiPoly.one()
    return (g * _lift_y(cont)).monic()


def resultant(p, q_, eliminate):
    """Sylvester resultant eliminating 'x' or 'y'; a UniPoly in the other
    variable."""
    if eliminate not in ("x", "y"):
        raise DomainError("eliminate must be 'x' or 'y'")
    if p.is_zero or q_.is_zero:
        raise DomainError("resultant of the zero polynomial")

    def coeffs_in(poly):
        # list of UniPoly (in the surviving variable), ascending in the
        # eliminated variable
        if eliminate == "x":
            return poly.x_coefficients()
        flipped = BiPoly._raw({(j, i): c for (i, j), c in poly.terms.items()})
        return flipped.x_coefficients()

    return _sylvester_resultant(
        coeffs_in(p), coeffs_in(q_), UniPoly.one(), _uni_exact_div
    )


def _uni_exact_div(a, b):
    quo, rem = a.divmod(b)
    if not rem.is_zero:
        raise DomainError("inexact division in determinant computation")
    return quo


def _sylvester_resultant(cp, cq, one, exact_div):
    """Resultant of two polynomials given by their coefficient lists
    (ascending in the eliminated variable, entries in an integral domain
    whose unit is one and where exact_div(a, b) returns a/b)."""
    dp, dq = len(cp) - 1, len(cq) - 1
    if dp <= 0 and dq <= 0:
        raise DomainError("both inputs constant in the eliminated variable")
    if dp == 0:
        return cp[0] ** dq
    if dq == 0:
        return cq[0] ** dp
    n = dp + dq
    zero = one - one
    rows = []
    for cs, shifts in ((cp, dq), (cq, dp)):
        d = len(cs) - 1
        for k in range(shifts):
            row = [zero] * n
            for i, c in enumerate(cs):
                row[k + d - i] = c
            rows.append(row)
    return _bareiss_det(rows, one, exact_div)


def _bareiss_det(rows, one, exact_div):
    """Fraction-free (Bareiss) determinant; entries form an integral
    domain with exact division.  Entries below the pivot of a finished
    column are never read again, so they are left as they are."""
    n = len(rows)
    if n == 0:
        return one
    m = [list(r) for r in rows]
    sign = 1
    prev = one
    for k in range(n - 1):
        if m[k][k].is_zero:
            for r in range(k + 1, n):
                if not m[r][k].is_zero:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return one - one
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = exact_div(num, prev)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def squarefree_part(p):
    """Product of the distinct irreducible factors of p, monic."""
    if p.is_zero:
        raise DomainError("square-free part of the zero polynomial")
    if p.is_constant:
        return BiPoly.one()
    g = p
    for d in (p.deriv_x(), p.deriv_y()):
        if not d.is_zero:
            g = gcd(g, d)
    h = exact_divide(p, g)
    return h.monic()


# ----------------------------------------------------------------------
# dense univariate polynomials
# ----------------------------------------------------------------------


class UniPoly:
    """Dense univariate polynomial over Q, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [q(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def var(cls):
        return cls((0, 1))

    @classmethod
    def monomial(cls, n, c=1):
        return cls([0] * n + [c])

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_constant(self):
        return len(self.coeffs) <= 1

    def constant_value(self):
        if not self.is_constant:
            raise DomainError("not a constant polynomial")
        return self.coeffs[0] if self.coeffs else QZERO

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def lc(self):
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else QZERO

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return UniPoly.const(other) - self

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            c = q(other)
            return UniPoly([co * c for co in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly.zero()
        out = [QZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise DomainError("negative power of a polynomial")
        out = UniPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, type(QONE))):
            return self == UniPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def divmod(self, other):
        if other.is_zero:
            raise DomainError("division by the zero polynomial")
        rem = list(self.coeffs)
        db = other.degree()
        blc = other.lc()
        quo = [QZERO] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and rem:
            c = rem[-1] / blc
            k = len(rem) - 1 - db
            quo[k] = c
            for i, bc in enumerate(other.coeffs):
                rem[k + i] -= c * bc
            while rem and not rem[-1]:
                rem.pop()
        return UniPoly(quo), UniPoly(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if not self.coeffs:
            return self
        lc = self.coeffs[-1]
        if lc == 1:
            return self
        return self * (QONE / lc)

    def derivative(self):
        return UniPoly([c * i for i, c in enumerate(self.coeffs)][1:])

    def eval(self, v):
        v = q(v)
        total = QZERO
        for c in reversed(self.coeffs):
            total = total * v + c
        return total

    def render(self, var="x"):
        return _render_terms(
            (_power(var, i), self.coeffs[i])
            for i in range(len(self.coeffs) - 1, -1, -1)
        )

    def __repr__(self):
        return f"UniPoly({self.render()})"

    def __str__(self):
        return self.render()


def uni_gcd(a, b):
    """Monic gcd in Q[t]."""
    if a.is_zero and b.is_zero:
        raise DomainError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def uni_resultant(a, b):
    """Resultant of two univariate polynomials (a rational number)."""
    if a.is_zero or b.is_zero:
        return QZERO
    da, db = a.degree(), b.degree()
    if da == 0:
        return a.coeffs[0] ** db
    if db == 0:
        return b.coeffs[0] ** da
    # Euclidean resultant recursion
    r = a % b
    if r.is_zero:
        return QZERO
    sign = -QONE if (da % 2) and (db % 2) else QONE
    return sign * b.lc() ** (da - r.degree()) * uni_resultant(b, r)


def _int_divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return out


def rational_roots(p):
    """All rational roots of p (without multiplicity), p nonzero."""
    if p.is_zero:
        raise DomainError("roots of the zero polynomial")
    coeffs = list(p.coeffs)
    roots = []
    low = 0
    while low < len(coeffs) and not coeffs[low]:
        low += 1
    if low:
        roots.append(QZERO)
        coeffs = coeffs[low:]
    if len(coeffs) <= 1:
        return roots
    denom = lcm(*(int(c.denominator) for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    p_int = UniPoly(ints)
    for num in _int_divisors(ints[0]):
        for den in _int_divisors(ints[-1]):
            for s in (1, -1):
                cand = Q(s * num, den)
                if p_int.eval(cand) == 0 and cand not in roots:
                    roots.append(cand)
    return sorted(roots)


def squarefree_decomposition(p):
    """Yun's algorithm: list of (monic square-free factor, multiplicity)."""
    if p.is_zero:
        raise DomainError("square-free decomposition of zero")
    p = p.monic()
    if p.degree() <= 0:
        return []
    dp = p.derivative()
    a = uni_gcd(p, dp)
    b = p // a
    c = dp // a
    d = c - b.derivative()
    out = []
    i = 1
    while b.degree() > 0:
        a = uni_gcd(b, d)
        if a.degree() > 0:
            out.append((a, i))
        b = b // a
        d = (d // a) - b.derivative()
        i += 1
    return out


# ----------------------------------------------------------------------
# Laurent polynomials in x
# ----------------------------------------------------------------------


class LaurentUniPoly:
    """Laurent polynomial in x: offset (minimum exponent) plus dense
    coefficients."""

    __slots__ = ("offset", "coeffs")

    def __init__(self, offset=0, coeffs=()):
        cs = [q(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        lead_trim = 0
        while lead_trim < len(cs) and not cs[lead_trim]:
            lead_trim += 1
        cs = cs[lead_trim:]
        object.__setattr__(self, "offset", int(offset) + lead_trim if cs else 0)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls):
        return cls(0, ())

    @classmethod
    def const(cls, c):
        return cls(0, (c,))

    @classmethod
    def monomial(cls, n, c=1):
        return cls(n, (c,))

    @classmethod
    def from_uni(cls, u):
        return cls(0, u.coeffs)

    @property
    def is_zero(self):
        return not self.coeffs

    def min_degree(self):
        return self.offset if self.coeffs else NEG_INF

    def max_degree(self):
        return self.offset + len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coeff(self, n):
        i = n - self.offset
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else QZERO

    def as_monomial(self):
        """(alpha, n) when this is alpha*x^n, else None."""
        if len(self.coeffs) == 1:
            return self.coeffs[0], self.offset
        return None

    def as_unipoly(self):
        if self.offset < 0:
            raise DomainError("negative exponents present")
        return UniPoly((0,) * self.offset + self.coeffs)

    def __add__(self, other):
        if not isinstance(other, LaurentUniPoly):
            other = LaurentUniPoly.const(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.max_degree(), other.max_degree())
        out = [QZERO] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            out[self.offset - lo + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.offset - lo + i] += c
        return LaurentUniPoly(lo, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentUniPoly(self.offset, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, LaurentUniPoly):
            other = LaurentUniPoly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentUniPoly):
            c = q(other)
            return LaurentUniPoly(self.offset, [co * c for co in self.coeffs])
        if self.is_zero or other.is_zero:
            return LaurentUniPoly.zero()
        out = [QZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ca in enumerate(self.coeffs):
            if ca:
                for j, cb in enumerate(other.coeffs):
                    out[i + j] += ca * cb
        return LaurentUniPoly(self.offset + other.offset, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, LaurentUniPoly):
            return self.offset == other.offset and self.coeffs == other.coeffs
        if isinstance(other, (int, type(QONE))):
            return self == LaurentUniPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.offset, self.coeffs))

    def derivative(self):
        out = LaurentUniPoly.zero()
        for i, c in enumerate(self.coeffs):
            n = self.offset + i
            if c and n:
                out = out + LaurentUniPoly.monomial(n - 1, c * n)
        return out

    def render(self):
        return _render_terms(
            (_power("x", self.offset + i), self.coeffs[i])
            for i in range(len(self.coeffs) - 1, -1, -1)
        )

    def __repr__(self):
        return f"LaurentUniPoly({self.render()})"

    def __str__(self):
        return self.render()

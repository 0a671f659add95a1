"""Sparse polynomials in an arbitrary number of variables.

Used internally wherever more than the two ring variables are in play.
The Darboux cascade works in (x, y, p_0, ..., p_{P-1}): x and y are
variables 0 and 1 and the parameters follow, P being the number of free
unknowns of its rational level matrices (see darboux._cascade).
Pencil elimination works in (x, y, t).

Representation: an MPoly is terms / den, where terms maps exponent
tuples to nonzero ints and den is a positive int.  The invariant is
gcd(den, every numerator) = 1, with den = 1 for the zero polynomial, so
the form is canonical and == and hash compare (nvars, den, terms).
Arithmetic is on ints (von zur Gathen & Gerhard, Modern Computer
Algebra, 6.2); products and exact division use the int kernels of
poly.py that BiPoly shares.  rational_terms() is the rational view.
"""

from math import gcd, lcm

from .rational import Q, q
from .poly import (
    BiPoly,
    DomainError,
    NEG_INF,
    UniPoly,
    _as_integers,
    _sylvester_resultant,
    kadd,
    kdivide,
    kmul_int,
    kneg,
    ksub,
)


def _scaled(terms, f):
    return terms if f == 1 else {e: c * f for e, c in terms.items()}


class MPoly:
    """Sparse polynomial over Q in nvars variables."""

    __slots__ = ("nvars", "den", "terms")

    def __init__(self, nvars, terms=None):
        cleaned = {}
        if terms:
            for exp, coeff in terms.items():
                coeff = q(coeff)
                if coeff:
                    cleaned[tuple(int(e) for e in exp)] = coeff
        den, ints = _as_integers(cleaned)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "terms", ints)

    @classmethod
    def _raw(cls, nvars, den, terms):
        p = cls.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "den", den)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def _lowest(cls, nvars, den, terms):
        """terms / den (int terms without zeros, den > 0) in lowest terms."""
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {e: c // g for e, c in terms.items()}
        return cls._raw(nvars, den, terms)

    @classmethod
    def zero(cls, nvars):
        return cls._raw(nvars, 1, {})

    @classmethod
    def const(cls, nvars, c):
        return cls.monomial(nvars, (0,) * nvars, c)

    @classmethod
    def one(cls, nvars):
        return cls._raw(nvars, 1, {(0,) * nvars: 1})

    @classmethod
    def var(cls, nvars, i):
        exp = [0] * nvars
        exp[i] = 1
        return cls._raw(nvars, 1, {tuple(exp): 1})

    @classmethod
    def monomial(cls, nvars, exp, c=1):
        c = q(c)
        if not c:
            return cls.zero(nvars)
        return cls._raw(nvars, int(c.denominator), {tuple(exp): int(c.numerator)})

    @classmethod
    def from_bipoly(cls, p, nvars):
        """p in variables 0 and 1 of nvars."""
        den, ints = _as_integers(p.terms)
        pad = (0,) * (nvars - 2)
        return cls._raw(nvars, den, {e + pad: c for e, c in ints.items()})

    def to_bipoly(self):
        if any(any(e[2:]) for e in self.terms):
            raise DomainError("extra variables present")
        den = self.den
        return BiPoly._raw({e[:2]: Q(c, den) for e, c in self.terms.items()})

    @classmethod
    def from_xy_coeffs(cls, pairs, nvars):
        """The sum of coeff*x^i*y^j over ((i, j), coeff) pairs, each coeff
        free of x and y."""
        pairs = list(pairs)
        den = lcm(*(c.den for _, c in pairs))
        terms = {}
        for ij, c in pairs:
            for e, n in _scaled(c.terms, den // c.den).items():
                terms[ij + e[2:]] = n
        # in lowest terms, as _as_integers says
        return cls._raw(nvars, den, terms)

    def xy_coeffs(self):
        """{(i, j): coefficient of x^i*y^j} over the nonzero ones, each an
        MPoly free of x and y."""
        buckets = {}
        for e, c in self.terms.items():
            buckets.setdefault(e[:2], {})[(0, 0) + e[2:]] = c
        return {ij: MPoly._lowest(self.nvars, self.den, b) for ij, b in buckets.items()}

    def rational_terms(self):
        """{exponent tuple: rational coefficient}."""
        den = self.den
        return {e: Q(c, den) for e, c in self.terms.items()}

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_constant(self):
        z = (0,) * self.nvars
        return not self.terms or (len(self.terms) == 1 and z in self.terms)

    def constant_value(self):
        if not self.is_constant:
            raise DomainError("not a constant polynomial")
        return Q(self.terms.get((0,) * self.nvars, 0), self.den)

    def total_degree(self):
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def degree_in(self, i):
        if not self.terms:
            return NEG_INF
        return max(e[i] for e in self.terms)

    def _check(self, other):
        if self.nvars != other.nvars:
            raise DomainError("variable count mismatch")

    def _common(self, other):
        """(den, terms of self, terms of other) over a common den."""
        if not isinstance(other, MPoly):
            other = MPoly.const(self.nvars, other)
        self._check(other)
        den = lcm(self.den, other.den)
        return den, _scaled(self.terms, den // self.den), _scaled(other.terms, den // other.den)

    def __add__(self, other):
        den, ta, tb = self._common(other)
        return MPoly._lowest(self.nvars, den, kadd(ta, tb))

    __radd__ = __add__

    def __sub__(self, other):
        den, ta, tb = self._common(other)
        return MPoly._lowest(self.nvars, den, ksub(ta, tb))

    def __rsub__(self, other):
        return MPoly.const(self.nvars, other) - self

    def __neg__(self):
        return MPoly._raw(self.nvars, self.den, kneg(self.terms))

    def __mul__(self, other):
        if isinstance(other, MPoly):
            self._check(other)
            return MPoly._lowest(
                self.nvars, self.den * other.den, kmul_int(self.terms, other.terms)
            )
        c = q(other)
        if not c:
            return MPoly.zero(self.nvars)
        return MPoly._lowest(
            self.nvars, self.den * int(c.denominator), _scaled(self.terms, int(c.numerator))
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise DomainError("negative power of a polynomial")
        out = MPoly.one(self.nvars)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return (self.nvars, self.den, self.terms) == (other.nvars, other.den, other.terms)
        if isinstance(other, (int, Q)):
            return self == MPoly.const(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def deriv(self, i):
        out = {}
        for exp, c in self.terms.items():
            k = exp[i]
            if k:
                e = list(exp)
                e[i] = k - 1
                out[tuple(e)] = c * k
        return MPoly._lowest(self.nvars, self.den, out)

    def substitute(self, values):
        """Replace each variable i in values, a {i: rational} map, by its
        value, in one pass over the terms.

        A zero value drops the terms its variable occurs in.  A value a/b
        with b > 0 multiplies a term of degree k in it by a^k*b^(top-k),
        top being the variable's degree, and den by b^top."""
        values = [(i, q(v)) for i, v in values.items()]
        zeros = [i for i, v in values if not v]
        terms = self.terms
        if zeros:
            terms = {e: c for e, c in terms.items() if not any(e[i] for i in zeros)}
        den = self.den
        tables = []
        for i, v in values:
            if not v:
                continue
            a, b = int(v.numerator), int(v.denominator)
            top = max((e[i] for e in terms), default=0)
            table = [b**top]
            for _ in range(top):
                table.append(table[-1] // b * a)
            tables.append((i, table))
            den *= table[0]
        if not tables:
            return MPoly._lowest(self.nvars, den, terms)
        out = {}
        for exp, c in terms.items():
            e = list(exp)
            for i, table in tables:
                c *= table[e[i]]
                e[i] = 0
            e = tuple(e)
            out[e] = out.get(e, 0) + c
        return MPoly._lowest(self.nvars, den, {e: c for e, c in out.items() if c})

    def variables(self):
        """Ascending indices of the variables that occur."""
        return [k for k, column in enumerate(zip(*self.terms)) if any(column)]

    def coeffs_in(self, i):
        """Coefficients of powers of variable i, ascending, as MPoly with
        that exponent zeroed."""
        d = self.degree_in(i)
        if d is NEG_INF:
            return []
        buckets = [dict() for _ in range(int(d) + 1)]
        for exp, c in self.terms.items():
            e = list(exp)
            k = e[i]
            e[i] = 0
            buckets[k][tuple(e)] = c
        return [MPoly._lowest(self.nvars, self.den, b) for b in buckets]

    def as_unipoly(self, i):
        """Dense univariate view in variable i; other variables must be
        absent."""
        cs = []
        for c in self.coeffs_in(i):
            if not c.is_constant:
                raise DomainError("other variables present")
            cs.append(c.constant_value())
        return UniPoly(cs)

    def __repr__(self):
        terms = sorted(self.rational_terms().items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
        parts = [
            str(c) + "".join(f"*v{k}" + (f"^{e}" if e > 1 else "") for k, e in enumerate(exp) if e)
            for exp, c in terms
        ]
        return "MPoly(" + (" + ".join(parts) or "0") + ")"


def mpoly_exact_divide(p, d):
    """Return h with p = d*h when d divides p exactly, else None."""
    if d.is_zero:
        raise DomainError("division by the zero polynomial")
    p._check(d)
    out = kdivide(p.terms, d.terms)
    if out is None:
        return None
    h, c = out
    return MPoly._lowest(p.nvars, c * p.den, _scaled(h, d.den))


def mpoly_resultant(p, q_, i):
    """Sylvester resultant of p and q_ eliminating variable i."""
    if p.is_zero or q_.is_zero:
        raise DomainError("resultant of the zero polynomial")
    p._check(q_)
    return _sylvester_resultant(
        p.coeffs_in(i), q_.coeffs_in(i), MPoly.one(p.nvars), _mp_exact_div
    )


def _mp_exact_div(a, b):
    quo = mpoly_exact_divide(a, b)
    if quo is None:
        raise DomainError("inexact division in determinant")
    return quo

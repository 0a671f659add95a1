"""Sparse polynomials in an arbitrary number of variables.

Used internally wherever more than the two ring variables are in play.
The Darboux cascade works in (x, y, p_0, ..., p_{P-1}): x and y are
variables 0 and 1 and the parameters follow, P being the number of free
unknowns of its rational level matrices (see darboux._cascade).
Pencil elimination works in (x, y, t).  Shares the term-dict kernels,
exact division included, with BiPoly.
"""

from .rational import QONE, QZERO, q
from .poly import (
    DomainError,
    NEG_INF,
    UniPoly,
    _sylvester_resultant,
    kadd,
    kdivide,
    kmul,
    kneg,
    kscale,
    ksub,
)


class MPoly:
    """Sparse polynomial over Q in nvars variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        cleaned = {}
        if terms:
            for exp, coeff in terms.items():
                coeff = q(coeff)
                if coeff:
                    cleaned[tuple(int(e) for e in exp)] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def _raw(cls, nvars, terms):
        p = cls.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def zero(cls, nvars):
        return cls._raw(nvars, {})

    @classmethod
    def const(cls, nvars, c):
        c = q(c)
        return cls._raw(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def one(cls, nvars):
        return cls.const(nvars, 1)

    @classmethod
    def var(cls, nvars, i):
        exp = [0] * nvars
        exp[i] = 1
        return cls._raw(nvars, {tuple(exp): QONE})

    @classmethod
    def monomial(cls, nvars, exp, c=1):
        c = q(c)
        return cls._raw(nvars, {tuple(exp): c} if c else {})

    @classmethod
    def from_bipoly(cls, p, nvars, ix=0, iy=1):
        out = {}
        for (i, j), c in p.terms.items():
            exp = [0] * nvars
            exp[ix] = i
            exp[iy] = j
            out[tuple(exp)] = c
        return cls._raw(nvars, out)

    def to_bipoly(self, ix=0, iy=1):
        from .poly import BiPoly

        out = {}
        for exp, c in self.terms.items():
            for k, e in enumerate(exp):
                if e and k not in (ix, iy):
                    raise DomainError("extra variables present")
            out[(exp[ix], exp[iy])] = c
        return BiPoly(out)

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
        return self.terms.get((0,) * self.nvars, QZERO)

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

    def __add__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.nvars, other)
        self._check(other)
        return MPoly._raw(self.nvars, kadd(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.nvars, other)
        self._check(other)
        return MPoly._raw(self.nvars, ksub(self.terms, other.terms))

    def __rsub__(self, other):
        return MPoly.const(self.nvars, other) - self

    def __neg__(self):
        return MPoly._raw(self.nvars, kneg(self.terms))

    def __mul__(self, other):
        if isinstance(other, MPoly):
            self._check(other)
            return MPoly._raw(self.nvars, kmul(self.terms, other.terms))
        return MPoly._raw(self.nvars, kscale(self.terms, q(other)))

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
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, type(QONE))):
            return self == MPoly.const(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def deriv(self, i):
        out = {}
        for exp, c in self.terms.items():
            if exp[i]:
                e = list(exp)
                e[i] -= 1
                out[tuple(e)] = c * exp[i]
        return MPoly._raw(self.nvars, out)

    def substitute(self, values):
        """Replace each variable i in values, a {i: rational} map, by its
        value, in one pass over the terms."""
        values = [(i, q(v)) for i, v in values.items()]
        out = {}
        for exp, c in self.terms.items():
            e = list(exp)
            for i, v in values:
                if e[i]:
                    c = c * v ** e[i]
                    e[i] = 0
            e = tuple(e)
            out[e] = out.get(e, QZERO) + c
        return MPoly._raw(self.nvars, {e: c for e, c in out.items() if c})

    def substitute_poly(self, i, value):
        """Replace variable i by another MPoly (same arity)."""
        self._check(value)
        out = MPoly.zero(self.nvars)
        for exp, c in self.terms.items():
            e = list(exp)
            k = e[i]
            e[i] = 0
            out = out + MPoly.monomial(self.nvars, e, c) * value**k
        return out

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
        return [MPoly._raw(self.nvars, b) for b in buckets]

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
        if not self.terms:
            return "MPoly(0)"
        parts = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[exp]
            mono = "*".join(
                f"v{k}" if e == 1 else f"v{k}^{e}"
                for k, e in enumerate(exp)
                if e
            )
            parts.append(f"{c}*{mono}" if mono else str(c))
        return "MPoly(" + " + ".join(parts) + ")"


def mpoly_exact_divide(p, d):
    """Return h with p = d*h when d divides p exactly, else None."""
    if d.is_zero:
        raise DomainError("division by the zero polynomial")
    p._check(d)
    quot = kdivide(p.terms, d.terms)
    return None if quot is None else MPoly._raw(p.nvars, quot)


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

"""Exact polynomial arithmetic over Q.

One sparse representation serves every polynomial.  An MPoly is terms /
den: terms maps exponent tuples to nonzero ints and den is a positive
int, with gcd(den, every numerator) = 1 and den = 1 for the zero
polynomial, so the form is canonical and == and hash compare (nvars,
den, terms).  Arithmetic is on ints (von zur Gathen & Gerhard, Modern
Computer Algebra, 6.2), gcds too: one int pseudo-remainder sequence,
_int_gcd, serves uni_gcd and gcd; rational_terms() is the rational view.
BiPoly is its 2-variable case in x (variable 0) and y (variable 1), with
x/y-named constructors and the bivariate algorithms below (exact
division, gcd, square-free part).  UniPoly and LaurentUniPoly are its
1-variable cases in x, keyed (i,); only LaurentUniPoly allows i < 0, and
UniPoly.coeffs is the dense rational view.  Leading terms are taken in
graded lexicographic order (x > y, variable 0 first).  All values are
immutable; every operation is a pure function.
"""

from math import gcd as gcd_int, lcm
from operator import add, sub

from .rational import Q, QZERO, q, qstr

NEG_INF = float("-inf")


class DomainError(ValueError):
    """A mathematical precondition was violated."""


# ----------------------------------------------------------------------
# term-dict kernels
# ----------------------------------------------------------------------
# A sparse polynomial is a dict mapping exponent tuples to nonzero int
# coefficients over the common denominator of its MPoly.  None of the
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


def kmul_int(a, b):
    """Product of two term dicts with int coefficients: the one product
    kernel.

    Two-variable operands are multiplied on packed exponents (Monagan &
    Pearce, CASC 2007) by kmac: x^i*y^j is keyed as the int (i << s) + j
    - m, m being its operand's least y-exponent and s the bit length of
    the largest sum of two such offset y-exponents.  Every such sum is
    below 2^s, so adding two keys never carries into the x field, and
    each product key decodes to exactly one (i, j), negative i included
    (>> floors).  The inner loop then adds ints instead of building and
    hashing a tuple per pair of terms; terms come out in the order the
    tuple loop, kept for every other arity, gives them."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((ea, ca),) = a.items()
        return {tuple(map(add, e, ea)): c * ca for e, c in b.items()}
    if not a or len(next(iter(a))) != 2:
        acc = {}
        get = acc.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                acc[e] = get(e, 0) + ca * cb
        return {e: v for e, v in acc.items() if v}
    ja = [j for _, j in a]
    jb = [j for _, j in b]
    ma, mb = min(ja), min(jb)
    s = (max(ja) - ma + max(jb) - mb).bit_length()
    return kunpack(kmac({}, kpack(a, s, ma), kpack(b, s, mb)), s, ma + mb)


# The packed two-variable working set.  x^i*y^j (i, j >= 0) is keyed as
# the int (i << s) + j (kpack), and a polynomial is a dict of such keys to
# int numerators over one denominator kept beside it.  Keys add as monomials
# multiply as long as every y-exponent met stays below 2^s; a caller
# picks s = B.bit_length() for a bound B on the total degree of every
# monomial its computation forms, which bounds every y-exponent.  kmac
# and kdelta keep entries that cancel to zero; kunpack drops them.


def kpack(terms, s, low=0):
    """The ((i << s) + j - low, c) pairs of a two-variable term dict."""
    return [((i << s) + j - low, c) for (i, j), c in terms.items()]


def kunpack(packed, s, low=0):
    """The term dict of a packed one, low added back to each y-exponent,
    zeros dropped."""
    mask = (1 << s) - 1
    return {(e >> s, (e & mask) + low): c for e, c in packed.items() if c}


def kmac(acc, a, b):
    """acc with ca*cb added at key ka + kb for every (ka, ca) of a and
    (kb, cb) of b, and returned: the one multiply-accumulate loop of the
    packed products.  a and b are (int key, int coefficient) pairs, b
    iterable more than once; the shorter is best passed as a.  Entries of
    acc may cancel to zero and are kept."""
    get = acc.get
    for ka, ca in a:
        for e, cb in b:
            e += ka
            acc[e] = get(e, 0) + ca * cb
    return acc


def kdelta(acc, p, s, ox, oy):
    """acc with L*delta(p) added, and returned; p is packed (key, int)
    pairs, iterable more than once.

    delta(p) = (x d/dx p)*(dx/x) + (y d/dy p)*(dy/y).  x d/dx and y d/dy
    keep each key and scale its coefficient by i or j, and ox and oy hold
    the terms of L*dx/x and L*dy/y as (key offset, int) pairs: c*x^a*y^b
    of dx is ((a - 1) << s) + b, of dy (a << s) + b - 1 (see
    Derivation.packed).  A term of x d/dx p has i >= 1 and one of y d/dy
    p has j >= 1, so each sum of a key and an offset is the key of a
    monomial with nonnegative exponents, of total degree at most deg p +
    max(deg dx, deg dy) - 1; within the working set's bound it decodes
    to that monomial."""
    mask = (1 << s) - 1
    kmac(acc, ox, [(k, c * (k >> s)) for k, c in p if k >> s])
    return kmac(acc, oy, [(k, c * (k & mask)) for k, c in p if k & mask])


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


def _scaled(terms, f):
    return terms if f == 1 else {e: c * f for e, c in terms.items()}


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def _render_terms(terms):
    """Canonical text of (monomial, coefficient) pairs given in display
    order, none with a zero coefficient; the monomial is "" for the
    constant term."""
    parts = []
    for body, c in terms:
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


# ----------------------------------------------------------------------
# sparse polynomials
# ----------------------------------------------------------------------


class MPoly:
    """Sparse polynomial over Q in nvars variables, terms / den.

    Every operation returns the type of the polynomial it is called on,
    so the results of BiPoly operations are BiPoly."""

    __slots__ = ("nvars", "den", "terms")

    # the variable names render() uses: None names variable k v<k>
    _names = None

    def __init__(self, nvars, terms=None):
        cleaned = {}
        if terms:
            for exp, coeff in terms.items():
                coeff = q(coeff)
                if coeff:
                    cleaned[tuple(int(e) for e in exp)] = coeff
        self.nvars = nvars
        # the lcm of the denominators leaves the numerators coprime to it
        self.den = den = lcm(*(c.denominator for c in cleaned.values()))
        self.terms = {e: c.numerator * (den // c.denominator) for e, c in cleaned.items()}

    @classmethod
    def from_terms(cls, nvars, terms):
        """The polynomial of cls with the {exponent tuple: rational} terms,
        built as MPoly(nvars, terms) builds it, whatever arguments cls's
        own constructor takes."""
        p = cls.__new__(cls)
        MPoly.__init__(p, nvars, terms)
        return p

    @classmethod
    def _raw(cls, nvars, den, terms):
        p = cls.__new__(cls)
        p.nvars, p.den, p.terms = nvars, den, terms
        return p

    @classmethod
    def _lowest(cls, nvars, den, terms):
        """terms / den (int terms without zeros, den > 0) in lowest terms."""
        if den != 1:
            g = gcd_int(den, *terms.values())
            if g != 1:
                den //= g
                terms = {e: c // g for e, c in terms.items()}
        return cls._raw(nvars, den, terms)

    @classmethod
    def zero(cls, nvars):
        return cls._raw(nvars, 1, {})

    @classmethod
    def const(cls, nvars, c):
        return cls._term(nvars, (0,) * nvars, c)

    @classmethod
    def var(cls, nvars, i):
        exp = [0] * nvars
        exp[i] = 1
        return cls._raw(nvars, 1, {tuple(exp): 1})

    @classmethod
    def monomial(cls, nvars, exp, c=1):
        c = q(c)
        if not c:
            return cls._raw(nvars, 1, {})
        return cls._raw(nvars, c.denominator, {tuple(exp): c.numerator})

    # BiPoly redefines the public constructors with x/y signatures
    _term = monomial

    def _const(self, c):
        """The constant c with self's type and variables; the Python
        protocol operators that take a rational, and __pow__, run it."""
        return self._term(self.nvars, (0,) * self.nvars, c)

    @classmethod
    def from_bipoly(cls, p, nvars):
        """p in variables 0 and 1 of nvars."""
        pad = (0,) * (nvars - 2)
        return cls._raw(nvars, p.den, {e + pad: c for e, c in p.terms.items()})

    def to_bipoly(self):
        if any(any(e[2:]) for e in self.terms):
            raise DomainError("extra variables present")
        return BiPoly._raw(2, self.den, {e[:2]: c for e, c in self.terms.items()})

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
        # in lowest terms, as in the constructor
        return cls._raw(nvars, den, terms)

    @classmethod
    def combination(cls, nvars, items):
        """The sum of num/den * X^mono * coeff over items (num, den, mono,
        coeff): ints num and den > 0, an exponent tuple mono (() for X^0)
        and an MPoly coeff.  Every term is added into one dict over the
        lcm of the products' denominators, and the sum is brought to
        lowest terms once.  A term's exponent is shifted by slicing in the
        variables mono has, most often one, which costs less than adding
        whole tuples."""
        den = lcm(*(dn * c.den for _, dn, _, c in items))
        acc = {}
        get = acc.get
        for num, dn, mono, c in items:
            f = num * (den // (dn * c.den))
            occurs = [(i, k) for i, k in enumerate(mono) if k]
            for e, v in c.terms.items():
                for i, k in occurs:
                    e = e[:i] + (e[i] + k,) + e[i + 1 :]
                acc[e] = get(e, 0) + f * v
        return cls._lowest(nvars, den, {e: v for e, v in acc.items() if v})

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

    def leading_exp(self):
        """Exponent of the leading term: highest total degree, then
        lexicographically greatest."""
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        return max(self.terms, key=_degree_lex)

    def lc(self):
        return Q(self.terms[self.leading_exp()], self.den)

    def monic(self):
        if not self.terms:
            return self
        n = self.terms[self.leading_exp()]
        if n == self.den:
            return self
        return self * Q(self.den, n)

    def _check(self, other):
        if self.nvars != other.nvars:
            raise DomainError("variable count mismatch")

    def _common(self, other):
        """(den, terms of self, terms of other) over a common den."""
        if not isinstance(other, MPoly):
            other = self._const(other)
        self._check(other)
        den = lcm(self.den, other.den)
        return den, _scaled(self.terms, den // self.den), _scaled(other.terms, den // other.den)

    def __add__(self, other):
        den, ta, tb = self._common(other)
        return self._lowest(self.nvars, den, kadd(ta, tb))

    __radd__ = __add__

    def __sub__(self, other):
        den, ta, tb = self._common(other)
        return self._lowest(self.nvars, den, ksub(ta, tb))

    def __rsub__(self, other):
        """Python protocol: c - p for a rational c."""
        return self._const(other) - self

    def __neg__(self):
        return self._raw(self.nvars, self.den, kneg(self.terms))

    def __mul__(self, other):
        if isinstance(other, MPoly):
            self._check(other)
            return self._lowest(self.nvars, self.den * other.den, kmul_int(self.terms, other.terms))
        c = q(other)
        if not c:
            return self._raw(self.nvars, 1, {})
        return self._lowest(
            self.nvars, self.den * c.denominator, _scaled(self.terms, c.numerator)
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        """self**n, n >= 0, by squaring; WitnessCert.verify runs it."""
        if n < 0:
            raise DomainError("negative power of a polynomial")
        out, base = self._const(1), self
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
            return self == self._const(other)
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
                out[exp[:i] + (k - 1,) + exp[i + 1 :]] = c * k
        return self._lowest(self.nvars, self.den, out)

    def substitute(self, values):
        """Replace each variable i in values, a {i: rational} map, by its
        value, in one pass over the terms.

        A zero value drops the terms its variable occurs in, before that
        pass.  A value a/b with b > 0 multiplies a term of degree k in it
        by a^k*b^(top-k), top being the variable's degree, and den by
        b^top."""
        values = [(i, q(v)) for i, v in values.items()]
        zeros = [i for i, v in values if not v]
        terms = self.terms
        for i in zeros:
            terms = {e: c for e, c in terms.items() if not e[i]}
        den = self.den
        tables = []
        for i, v in values:
            if not v:
                continue
            a, b = v.numerator, v.denominator
            top = max((e[i] for e in terms), default=0)
            table = [b**top]
            for _ in range(top):
                table.append(table[-1] // b * a)
            tables.append((i, table))
            den *= table[0]
        if not tables:
            return self._lowest(self.nvars, den, terms)
        out = {}
        for exp, c in terms.items():
            e = list(exp)
            for i, table in tables:
                c *= table[e[i]]
                e[i] = 0
            e = tuple(e)
            out[e] = out.get(e, 0) + c
        return self._lowest(self.nvars, den, {e: c for e, c in out.items() if c})

    def variables(self):
        """Ascending indices of the variables that occur."""
        return [k for k, column in enumerate(zip(*self.terms)) if any(column)]

    def coeffs_in(self, i):
        """Coefficients of powers of variable i, ascending, with that
        exponent zeroed."""
        d = self.degree_in(i)
        if d is NEG_INF:
            return []
        buckets = [dict() for _ in range(int(d) + 1)]
        for exp, c in self.terms.items():
            buckets[exp[i]][exp[:i] + (0,) + exp[i + 1 :]] = c
        return [self._lowest(self.nvars, self.den, b) for b in buckets]

    def as_unipoly(self, i):
        """The UniPoly in variable i; other variables must be absent."""
        terms = {}
        for exp, c in self.terms.items():
            if sum(exp) != exp[i]:
                raise DomainError("other variables present")
            terms[(exp[i],)] = c
        return UniPoly._raw(1, self.den, terms)

    def render(self):
        """Canonical text form: descending graded-lex terms, variable k
        named by the class's names or else v<k>.  An integer polynomial is
        rendered from its int terms, which qstr reads as it reads
        rationals."""
        names = self._names or [f"v{k}" for k in range(self.nvars)]
        terms = self.terms if self.den == 1 else self.rational_terms()
        # the text of each power that occurs, made once per variable
        powers = [{e: _power(v, e) for e in set(col)} for v, col in zip(names, zip(*terms))]
        return _render_terms(
            ("*".join(filter(None, map(dict.__getitem__, powers, exp))), terms[exp])
            for exp in sorted(terms, key=_degree_lex, reverse=True)
        )

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"

    def __str__(self):
        """Python protocol: str(p) is p.render()."""
        return self.render()


class BiPoly(MPoly):
    """Sparse polynomial in x, y over Q: the 2-variable MPoly, x being
    variable 0 and y variable 1."""

    __slots__ = ()
    _names = "xy"

    def __init__(self, terms=None):
        super().__init__(2, terms)
        if any(i < 0 or j < 0 for i, j in self.terms):
            raise DomainError("negative exponent in polynomial ring")

    @classmethod
    def zero(cls):
        return cls._raw(2, 1, {})

    @classmethod
    def const(cls, c):
        return cls._term(2, (0, 0), c)

    @classmethod
    def one(cls):
        return cls._raw(2, 1, {(0, 0): 1})

    @classmethod
    def var_x(cls):
        return cls._raw(2, 1, {(1, 0): 1})

    @classmethod
    def var_y(cls):
        return cls._raw(2, 1, {(0, 1): 1})

    @classmethod
    def monomial(cls, i, j, c=1):
        if i < 0 or j < 0:
            raise DomainError("negative exponent in polynomial ring")
        return cls._term(2, (i, j), c)

    @classmethod
    def from_uni(cls, u, var="x"):
        return cls._raw(2, u.den, {(i, 0) if var == "x" else (0, i): c for (i,), c in u.terms.items()})

    # MPoly's operators, bound again here so that they are entries of
    # BiPoly's own class dict and can be told apart from MPoly's
    __add__ = __radd__ = MPoly.__add__
    __sub__ = MPoly.__sub__
    __mul__ = __rmul__ = MPoly.__mul__

    def deg_y(self):
        return self.degree_in(1)

    def deriv_x(self):
        return self.deriv(0)

    def deriv_y(self):
        return self.deriv(1)

    def coeff(self, i, j):
        return Q(self.terms.get((i, j), 0), self.den)

    def homogeneous_part(self, d):
        return self._lowest(2, self.den, {e: c for e, c in self.terms.items() if e[0] + e[1] == d})


class _Univariate(MPoly):
    """The 1-variable MPoly in x, exponent keys (i,): what UniPoly and
    LaurentUniPoly share."""

    __slots__ = ()
    _names = "x"

    @classmethod
    def zero(cls):
        return cls._raw(1, 1, {})

    @classmethod
    def one(cls):
        return cls._raw(1, 1, {(0,): 1})

    @classmethod
    def const(cls, c):
        """The constant c; library API, as are the other constructors."""
        return cls._term(1, (0,), c)

    @classmethod
    def monomial(cls, n, c=1):
        return cls._term(1, (n,), c)

    def coeff(self, n):
        return Q(self.terms.get((n,), 0), self.den)

    def derivative(self):
        return self.deriv(0)

    def as_monomial(self):
        """(alpha, n) when this is alpha*x^n, else None."""
        if len(self.terms) == 1:
            (((n,), c),) = self.terms.items()
            return Q(c, self.den), n
        return None


class UniPoly(_Univariate):
    """Polynomial in x over Q, built from its coefficients lowest degree
    first."""

    __slots__ = ()

    def __init__(self, coeffs=()):
        super().__init__(1, {(i,): c for i, c in enumerate(coeffs)})

    @classmethod
    def monomial(cls, n, c=1):
        if n < 0:
            raise DomainError("negative exponent in polynomial ring")
        return super().monomial(n, c)

    # bound again in this class's own dict, as in BiPoly
    __add__ = __radd__ = MPoly.__add__
    __sub__ = MPoly.__sub__
    __mul__ = __rmul__ = MPoly.__mul__

    def _ints(self):
        """The int numerators of x^0, ..., x^degree."""
        get = self.terms.get
        return [get((i,), 0) for i in range(len(self.terms) and self.degree() + 1)]

    def _check(self, other):
        # results take the left operand's type, so a Laurent operand
        # would put negative exponents into a UniPoly
        if isinstance(other, LaurentUniPoly):
            raise DomainError("a Laurent polynomial is not in Q[x]")
        MPoly._check(self, other)

    @property
    def coeffs(self):
        """Dense view: the rational coefficients of x^0, ..., x^degree."""
        return tuple(Q(c, self.den) for c in self._ints())

    def degree(self):
        return self.degree_in(0)


class LaurentUniPoly(_Univariate):
    """Laurent polynomial in x over Q, built from its lowest exponent
    (offset) and its coefficients from there up."""

    __slots__ = ()

    def __init__(self, offset=0, coeffs=()):
        """Library API: the parser builds Laurent polynomials from terms."""
        super().__init__(1, {(offset + i,): c for i, c in enumerate(coeffs)})

    @classmethod
    def from_uni(cls, u):
        """u as a Laurent polynomial; library API, for UniDerivation."""
        return cls._raw(1, u.den, u.terms)

    # bound again in this class's own dict, as in BiPoly
    __add__ = __radd__ = MPoly.__add__
    __sub__ = MPoly.__sub__
    __mul__ = __rmul__ = MPoly.__mul__

    def min_degree(self):
        return min(self.terms)[0] if self.terms else NEG_INF

    def max_degree(self):
        return self.degree_in(0)

    def as_unipoly(self):
        """self in Q[x]; library API, for UniDerivation."""
        if any(n < 0 for (n,) in self.terms):
            raise DomainError("negative exponents present")
        return UniPoly._raw(1, self.den, self.terms)


# ----------------------------------------------------------------------
# exact division, gcd, square-free parts
# ----------------------------------------------------------------------


def exact_divide(p, q_):
    """Return h with p = q_*h if q_ divides p exactly, else None."""
    if q_.is_zero:
        raise DomainError("division by the zero polynomial")
    return _quotient(p, q_)


def _quotient(p, d):
    """h with p = d*h when d (nonzero) divides p exactly, else None: the
    one exact-division body, behind exact_divide and mpoly_exact_divide."""
    p._check(d)
    out = kdivide(p.terms, d.terms)
    if out is None:
        return None
    h, c = out
    return p._lowest(p.nvars, c * p.den, _scaled(h, d.den))


def _primitive_x(terms):
    """(content, primitive part), up to sign, of a nonzero int term dict in
    Z[y][x]: the x-coefficients' primitive gcd in Z[y], an int list lowest
    degree first, and the dict divided by it and by its integer content."""
    rows = {}
    for (i, j), c in terms.items():
        rows.setdefault(i, {})[j] = c
    cont = []
    for row in rows.values():
        cont = _int_gcd(cont, [row.get(j, 0) for j in range(max(row) + 1)])
        if len(cont) == 1:
            break
    if len(cont) > 1:
        terms = kdivide(terms, {(0, j): c for j, c in enumerate(cont) if c})[0]
    n = gcd_int(*terms.values())
    return cont, terms if n == 1 else {e: c // n for e, c in terms.items()}


def gcd(p, q_):
    """Monic gcd in Q[x,y]: the content in Z[y] times a primitive
    pseudo-remainder sequence (PRS) in x, run on the int numerators (von
    zur Gathen & Gerhard, Modern Computer Algebra, ch. 6).

    p.den and q_.den are units.  By Gauss's lemma over the UFD Z[y], the
    gcd is gcd(contents)*gcd(primitive parts) up to sign.  A PRS step goes
    from a, b to b, pp(r), r = lc_x(b)^m*a - Q*b, deg_x r < deg_x b: a
    common divisor of a and b divides r, and a primitive one of b and r
    divides lc_x(b)^m*a, hence a.  So the last nonzero remainder of
    positive x-degree is the primitive gcd up to a scalar (1 if one lies
    in Z[y]), and monic() removes every scalar."""
    if p.is_zero and q_.is_zero:
        raise DomainError("gcd(0, 0) is undefined")
    if p.is_zero or q_.is_zero:
        return (q_ if p.is_zero else p).monic()
    (cont_p, a), (cont_q, b) = _primitive_x(p.terms), _primitive_x(q_.terms)
    if max(a)[0] < max(b)[0]:
        a, b = b, a
    while b and (db := max(b)[0]) > 0:
        # the pseudo-remainder r of a by b with respect to x
        blc = {(0, j): c for (i, j), c in b.items() if i == db}
        r = a
        while r and (dr := max(r)[0]) >= db:
            top = {(dr - db, j): c for (i, j), c in r.items() if i == dr}
            r = ksub(kmul_int(blc, r), kmul_int(top, b))
        a, b = b, r and _primitive_x(r)[1]
    cont = {(0, j): c for j, c in enumerate(_int_gcd(cont_p, cont_q)) if c}
    return BiPoly._lowest(2, 1, kmul_int(cont, {(0, 0): 1} if b else a)).monic()


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
# univariate algorithms
# ----------------------------------------------------------------------


def _pseudo_divmod(a, b):
    """(q, r, s) with s*a = q*b + r and len(r) < len(b), for int
    coefficient lists lowest degree first, b's last entry nonzero; r has
    no trailing zeros.  s = |lc|^m, lc the last entry of b and m the
    number of steps, makes every step divide by lc exactly (von zur
    Gathen & Gerhard, Modern Computer Algebra, ch. 6)."""
    db = len(b) - 1
    lc = b[-1]
    m = max(len(a) - db, 0)
    s = abs(lc) ** m
    r = [c * s for c in a]
    quo = [0] * m
    for k in range(m - 1, -1, -1):
        c = r.pop()
        if c:
            c //= lc
            quo[k] = c
            for i in range(db):
                r[k + i] -= c * b[i]
    while r and not r[-1]:
        r.pop()
    return quo, r, s


def _primitive(cs):
    """An int list divided by the gcd of its entries."""
    g = gcd_int(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _int_gcd(f, g):
    """The primitive gcd in Z[x], up to sign, of two int lists lowest
    degree first, each empty or ending nonzero, not both empty: the
    primitive pseudo-remainder sequence (von zur Gathen & Gerhard, ch. 6)."""
    f, g = _primitive(f), _primitive(g)
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        f, g = g, _primitive(_pseudo_divmod(f, g)[1])
    return g or f


def uni_gcd(a, b):
    """Monic gcd in Q[x]: _int_gcd of the int numerators, made monic."""
    if a.is_zero and b.is_zero:
        raise DomainError("gcd(0, 0) is undefined")
    f = _int_gcd(a._ints(), b._ints())
    if len(f) == 1:
        return UniPoly.one()
    return UniPoly._lowest(1, 1, {(i,): c for i, c in enumerate(f) if c}).monic()


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
    """All rational roots of p (without multiplicity), p nonzero.

    Every root a/b in lowest terms of c_0 + ... + c_n x^n (c_0 != 0, int
    numerators) has a | c_0 and b | c_n, and is one exactly when the int
    sum of c_i a^i b^(n-i) is zero."""
    if p.is_zero:
        raise DomainError("roots of the zero polynomial")
    low = min(p.terms)[0]
    roots = [QZERO] if low else []
    cs = p._ints()[low:]
    top = cs.pop()
    if not cs:
        return roots
    dens = _int_divisors(top)
    for num in _int_divisors(cs[0]):
        for den in dens:
            if gcd_int(num, den) != 1:
                continue
            for a in (num, -num):
                total, power = top, 1
                for c in reversed(cs):
                    power *= den
                    total = total * a + c * power
                if not total:
                    roots.append(Q(a, den))
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
    b = exact_divide(p, a)
    c = exact_divide(dp, a)
    d = c - b.derivative()
    out = []
    i = 1
    while b.degree() > 0:
        a = uni_gcd(b, d)
        if a.degree() > 0:
            out.append((a, i))
        b = exact_divide(b, a)
        d = exact_divide(d, a) - b.derivative()
        i += 1
    return out

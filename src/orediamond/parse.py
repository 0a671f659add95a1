"""Expression parsing for the CLI input language.

Grammar (insensitive to ASCII whitespace, the characters of WHITESPACE):

    poly     := term (('+'|'-') term)*
    term     := coeff ('*' monomial)* | monomial ('*' monomial)*
    monomial := ('x'|'y'|'t') ('^' '-'? digits)?
    coeff    := '-'? digits ('/' digits)?

Every input goes through one accumulator, _terms: it parses the text,
checks each term and sums the terms into one {(i, j, k): coefficient}
dict, i, j and k being the exponents of x, y and t.  The caps hold while
a term is read: MAX_DIGITS per number, MAX_EXPONENT per variable and
term, MAX_TERMS per text.  The ring checks follow per term: 't' (theta)
only in Ore operands, 'y' only in poly2, negative exponents only on x in
laurent1.
parse_polynomial builds its ring's type from that dict in one call, and
parse_ore groups it by the power of t.
"""

import re

from .rational import Q
from .poly import BiPoly, LaurentUniPoly, UniPoly
from .derivation import Derivation, UniDerivation
from .ore import OrePoly
from .diamond import LAURENT_UNI, POLY_BI, POLY_UNI

# Largest |exponent| of a variable in a term: x^n in poly1 is n dense coefficients.
MAX_EXPONENT = 1000
# Longest number, CPython's default limit on str-to-int conversion.
MAX_DIGITS = 4300
# Most terms in one polynomial text, before like terms combine.
MAX_TERMS = 10000

# Whitespace between tokens; str.isspace also takes U+001C and non-ASCII spaces.
WHITESPACE = " \t\n\r\f\v"

# each ring's polynomial type and its number of variables
_RING_TYPES = {POLY_UNI: (UniPoly, 1), LAURENT_UNI: (LaurentUniPoly, 1), POLY_BI: (BiPoly, 2)}


class ParseError(ValueError):
    """Syntax or validation error with a character position: the index
    in the text the caller passed of the offending token, for a
    validation error the variable's first occurrence in its term.  In a
    derivation, an error inside a component is at its index in the whole
    text; a malformed, unknown, duplicate or disallowed component is where
    that component starts, and a missing one at the end of the text."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in WHITESPACE:
            i += 1
            continue
        if ch in "0123456789":  # str.isdigit also takes non-ASCII digits
            j = i
            while j < n and text[j] in "0123456789":
                j += 1
            tokens.append(("digits", text[i:j], i))
            i = j
        elif ch in "xyt":
            tokens.append(("var", ch, i))
            i += 1
        elif ch in "+-*/^":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def accept(self, kind):
        """Consume the next token when it is of this kind."""
        tok = self.peek()
        if tok is not None and tok[0] == kind:
            self.pos += 1
            return True
        return False

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        return tok

    def number(self):
        """(value, position) of the next token, which must be digits."""
        _, text, pos = self.expect("digits")
        if len(text) > MAX_DIGITS:
            raise ParseError(f"number exceeds {MAX_DIGITS} digits", pos)
        return int(text), pos

    def parse_poly(self):
        """List of (coefficient, {var: exponent}, {var: position}) raw
        terms, the position being that of the variable's first occurrence
        in its term.  At most MAX_TERMS terms, counted as they are read:
        the next one is an error at the sign that opens it."""
        terms = [self.parse_term(1)]
        while True:
            tok = self.peek()
            if tok is None:
                break
            if tok[0] not in ("+", "-"):
                raise ParseError(f"expected '+' or '-', found {tok[1]!r}", tok[2])
            if len(terms) == MAX_TERMS:
                raise ParseError(f"more than {MAX_TERMS} terms", tok[2])
            self.next()
            terms.append(self.parse_term(-1 if tok[0] == "-" else 1))
        return terms

    def parse_term(self, sign):
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a term", len(self.text))
        if tok[0] not in ("digits", "-", "var"):
            raise ParseError(f"expected a term, found {tok[1]!r}", tok[2])
        # a term opening with a variable is a product of monomials alone
        bare = tok[0] == "var"
        coeff = Q(sign) if bare else sign * self.parse_coeff()
        exps, where = {}, {}
        while bare or self.accept("*"):
            bare = False
            self.parse_monomial(exps, where)
        return coeff, exps, where

    def parse_coeff(self):
        sign = -1 if self.accept("-") else 1
        num, _ = self.number()
        if self.accept("/"):
            den, pos = self.number()
            if den == 0:
                raise ParseError("zero denominator", pos)
            return Q(sign * num, den)
        return Q(sign * num)

    def parse_monomial(self, exps, where):
        kind, var, at = self.next()
        if kind != "var":
            raise ParseError(f"expected a variable, found {var!r}", at)
        exp = 1
        if self.accept("^"):
            neg = self.accept("-")
            exp, _ = self.number()
            if neg:
                exp = -exp
        where.setdefault(var, at)
        total = exps[var] = exps.get(var, 0) + exp
        if abs(total) > MAX_EXPONENT:
            raise ParseError(f"exponent of {var!r} exceeds {MAX_EXPONENT}", at)


def _terms(text, ring, theta):
    """{(i, j, k): coefficient} of the text, the sum of its terms
    coefficient*x^i*y^j*t^k; 't' is allowed when theta is true."""
    acc = {}
    for coeff, exps, where in _Parser(text).parse_poly():
        if "t" in exps and not theta:
            raise ParseError("'t' is only allowed in operator operands", where["t"])
        if "y" in exps and ring != POLY_BI:
            raise ParseError("variable 'y' is not in this ring", where["y"])
        for var, exp in exps.items():
            if exp < 0 and not (ring == LAURENT_UNI and var == "x"):
                raise ParseError("negative exponent in polynomial ring", where[var])
        key = (exps.get("x", 0), exps.get("y", 0), exps.get("t", 0))
        c = acc.get(key)
        acc[key] = coeff if c is None else c + coeff
    return acc


def parse_polynomial(text, ring):
    """Parse a ring element for poly1, laurent1, or poly2."""
    if ring not in _RING_TYPES:
        raise ParseError(f"unknown ring {ring!r}", 0)
    cls, n = _RING_TYPES[ring]
    return cls.from_terms(n, {e[:n]: c for e, c in _terms(text, ring, False).items()})


def parse_derivation(text, ring):
    """Parse 'dx=<poly>' or 'dx=<poly>; dy=<poly>'."""
    comps = {}  # name: (where the component starts, its polynomial's text)
    for part in re.finditer(r"[^;]+", text):
        body = part.group()
        if not body.strip(WHITESPACE):
            continue
        at = part.start() + len(body) - len(body.lstrip(WHITESPACE))
        if "=" not in body:
            raise ParseError("derivation component must look like dx=<poly>", at)
        name, expr = body.split("=", 1)
        name = name.strip(WHITESPACE)
        if name not in ("dx", "dy"):
            raise ParseError(f"unknown derivation component {name!r}", at)
        if name in comps:
            raise ParseError(f"duplicate component {name!r}", at)
        # expr with the text before it blanked, so its positions index text
        comps[name] = (at, " " * (part.end() - len(expr)) + expr)
    if "dx" not in comps:
        raise ParseError("dx component required", len(text))
    if ring == POLY_BI:
        if "dy" not in comps:
            raise ParseError("dy required for the bivariate ring", len(text))
        return Derivation(
            parse_polynomial(comps["dx"][1], ring), parse_polynomial(comps["dy"][1], ring)
        )
    if "dy" in comps:
        raise ParseError("dy is not allowed for a univariate ring", comps["dy"][0])
    dx = parse_polynomial(comps["dx"][1], ring)
    return UniDerivation(dx, laurent=(ring == LAURENT_UNI))


def parse_ore(text, ring):
    """Parse an Ore operand; 't' is theta, interpreted left-normal."""
    if ring not in (POLY_UNI, POLY_BI):
        raise ParseError("operator operands live over poly1 or poly2", 0)
    by_power = {}
    for (i, j, k), c in _terms(text, ring, True).items():
        by_power.setdefault(k, {})[(i, j)] = c
    return OrePoly([BiPoly(by_power.get(k)) for k in range(max(by_power, default=0) + 1)])


def render_derivation(deriv):
    """Canonical text for a derivation, re-parseable by parse_derivation."""
    if isinstance(deriv, Derivation):
        return f"dx={deriv.dx.render()}; dy={deriv.dy.render()}"
    return f"dx={deriv.dx.render()}"

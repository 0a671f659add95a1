"""Expression parsing for the CLI input language.

Grammar (whitespace-insensitive):

    poly     := term (('+'|'-') term)*
    term     := coeff ('*' monomial)* | monomial ('*' monomial)*
    monomial := ('x'|'y'|'t') ('^' '-'? digits)?
    coeff    := '-'? digits ('/' digits)?

't' denotes theta and is only allowed in Ore operands; negative
exponents only on x in the Laurent ring.
"""

from .rational import Q
from .poly import BiPoly, LaurentUniPoly, UniPoly
from .derivation import Derivation, UniDerivation
from .ore import OrePoly
from .diamond import LAURENT_UNI, POLY_BI, POLY_UNI

# Largest |exponent| of a variable in a term: x^n in poly1 is n dense coefficients.
MAX_EXPONENT = 1000
# Longest number, CPython's default limit on str-to-int conversion.
MAX_DIGITS = 4300


class ParseError(ValueError):
    """Syntax or validation error with a character position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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
        """List of (coefficient, {var: exponent}) raw terms."""
        terms = [self.parse_term(1)]
        while True:
            tok = self.peek()
            if tok is None:
                break
            if tok[0] in ("+", "-"):
                self.next()
                terms.append(self.parse_term(-1 if tok[0] == "-" else 1))
            else:
                raise ParseError(f"expected '+' or '-', found {tok[1]!r}", tok[2])
        return terms

    def parse_term(self, sign):
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a term", len(self.text))
        if tok[0] == "digits" or tok[0] == "-":
            coeff = self.parse_coeff()
            exps = {}
            while self.peek() is not None and self.peek()[0] == "*":
                self.next()
                self.parse_monomial(exps)
            return sign * coeff, exps
        if tok[0] == "var":
            exps = {}
            self.parse_monomial(exps)
            while self.peek() is not None and self.peek()[0] == "*":
                self.next()
                self.parse_monomial(exps)
            return Q(sign), exps
        raise ParseError(f"expected a term, found {tok[1]!r}", tok[2])

    def parse_coeff(self):
        sign = 1
        tok = self.peek()
        if tok is not None and tok[0] == "-":
            self.next()
            sign = -1
        num, _ = self.number()
        tok = self.peek()
        if tok is not None and tok[0] == "/":
            self.next()
            den, pos = self.number()
            if den == 0:
                raise ParseError("zero denominator", pos)
            return Q(sign * num, den)
        return Q(sign * num)

    def parse_monomial(self, exps):
        vtok = self.next()
        if vtok[0] != "var":
            raise ParseError(f"expected a variable, found {vtok[1]!r}", vtok[2])
        exp = 1
        tok = self.peek()
        if tok is not None and tok[0] == "^":
            self.next()
            neg = False
            tok = self.peek()
            if tok is not None and tok[0] == "-":
                self.next()
                neg = True
            exp, _ = self.number()
            if neg:
                exp = -exp
        total = exps[vtok[1]] = exps.get(vtok[1], 0) + exp
        if abs(total) > MAX_EXPONENT:
            raise ParseError(f"exponent of {vtok[1]!r} exceeds {MAX_EXPONENT}", vtok[2])


def _raw_terms(text):
    parser = _Parser(text)
    terms = parser.parse_poly()
    return terms


def parse_polynomial(text, ring):
    """Parse a ring element for poly1, laurent1, or poly2."""
    terms = _raw_terms(text)
    for _, exps in terms:
        if "t" in exps:
            raise ParseError("'t' is only allowed in operator operands", 0)
        if ring in (POLY_UNI, LAURENT_UNI) and "y" in exps:
            raise ParseError("variable 'y' is not in this ring", 0)
        for var, exp in exps.items():
            if exp < 0 and not (ring == LAURENT_UNI and var == "x"):
                raise ParseError("negative exponent in polynomial ring", 0)
    if ring == POLY_BI:
        out = BiPoly.zero()
        for coeff, exps in terms:
            out = out + BiPoly.monomial(exps.get("x", 0), exps.get("y", 0), coeff)
        return out
    if ring == POLY_UNI:
        out = UniPoly.zero()
        for coeff, exps in terms:
            out = out + UniPoly.monomial(exps.get("x", 0), coeff)
        return out
    if ring == LAURENT_UNI:
        out = LaurentUniPoly.zero()
        for coeff, exps in terms:
            out = out + LaurentUniPoly.monomial(exps.get("x", 0), coeff)
        return out
    raise ParseError(f"unknown ring {ring!r}", 0)


def parse_derivation(text, ring):
    """Parse 'dx=<poly>' or 'dx=<poly>; dy=<poly>'."""
    parts = [p.strip() for p in text.split(";") if p.strip()]
    comps = {}
    for part in parts:
        if "=" not in part:
            raise ParseError("derivation component must look like dx=<poly>", 0)
        name, expr = part.split("=", 1)
        name = name.strip()
        if name not in ("dx", "dy"):
            raise ParseError(f"unknown derivation component {name!r}", 0)
        if name in comps:
            raise ParseError(f"duplicate component {name!r}", 0)
        comps[name] = expr.strip()
    if "dx" not in comps:
        raise ParseError("dx component required", 0)
    if ring == POLY_BI:
        if "dy" not in comps:
            raise ParseError("dy required for the bivariate ring", 0)
        return Derivation(
            parse_polynomial(comps["dx"], ring), parse_polynomial(comps["dy"], ring)
        )
    if "dy" in comps:
        raise ParseError("dy is not allowed for a univariate ring", 0)
    dx = parse_polynomial(comps["dx"], ring)
    return UniDerivation(dx, laurent=(ring == LAURENT_UNI))


def parse_ore(text, ring):
    """Parse an Ore operand; 't' is theta, interpreted left-normal."""
    if ring not in (POLY_UNI, POLY_BI):
        raise ParseError("operator operands live over poly1 or poly2", 0)
    terms = _raw_terms(text)
    coeffs = {}
    for coeff, exps in terms:
        if ring == POLY_UNI and "y" in exps:
            raise ParseError("variable 'y' is not in this ring", 0)
        for var, exp in exps.items():
            if exp < 0:
                raise ParseError("negative exponent in polynomial ring", 0)
        k = exps.get("t", 0)
        mono = BiPoly.monomial(exps.get("x", 0), exps.get("y", 0), coeff)
        coeffs[k] = coeffs.get(k, BiPoly.zero()) + mono
    top = max(coeffs) if coeffs else 0
    return OrePoly([coeffs.get(i, BiPoly.zero()) for i in range(top + 1)])


def render_derivation(deriv):
    """Canonical text for a derivation, re-parseable by parse_derivation."""
    if isinstance(deriv, Derivation):
        return f"dx={deriv.dx.render()}; dy={deriv.dy.render()}"
    return f"dx={deriv.dx.render()}"

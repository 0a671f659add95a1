"""Exact arithmetic the answer checks trust, written independently of
orediamond.

A polynomial in Q[x, y] is a dict {(i, j): Fraction} without zero
coefficients.  An Ore operator sum_k a_k theta^k is the list [a_0, a_1,
...].  The skew product is expanded term by term from theta*a = a*theta +
delta(a), not from the closed binomial identity the program uses.
"""

import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(\d+)|([xyt])|([-+*/^]))")


def _tokens(text):
    pos, out = 0, []
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot parse {text!r} at {pos}")
        out.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    return out


def _parse_terms(text):
    """[(coefficient, (i, j, k))] for exponents of x, y and t."""
    toks = _tokens(text)
    terms, pos, sign = [], 0, 1
    while pos < len(toks):
        if toks[pos] in "+-":
            sign = -1 if toks[pos] == "-" else 1
            pos += 1
        coeff, exps = Fraction(sign), [0, 0, 0]
        while True:
            tok = toks[pos]
            if tok.isdigit():
                value = Fraction(int(tok))
                pos += 1
                if pos < len(toks) and toks[pos] == "/":
                    value /= int(toks[pos + 1])
                    pos += 2
                coeff *= value
            elif tok in "xyt":
                power = 1
                pos += 1
                if pos < len(toks) and toks[pos] == "^":
                    power = int(toks[pos + 1])
                    pos += 2
                exps["xyt".index(tok)] += power
            else:
                raise ValueError(f"unexpected {tok!r} in {text!r}")
            if pos < len(toks) and toks[pos] == "*":
                pos += 1
                continue
            break
        terms.append((coeff, tuple(exps)))
        sign = 1
    return terms


def add_term(poly, exp, coeff):
    value = poly.get(exp, 0) + coeff
    if value:
        poly[exp] = Fraction(value)
    else:
        poly.pop(exp, None)


def parse_poly(text):
    poly = {}
    for coeff, (i, j, k) in _parse_terms(text):
        if k:
            raise ValueError(f"theta in a ring element: {text!r}")
        add_term(poly, (i, j), coeff)
    return poly


def _monomial(i, j, k=0):
    parts = [v if e == 1 else f"{v}^{e}" for v, e in (("x", i), ("y", j), ("t", k)) if e]
    return "*".join(parts)


def render(poly, theta=0):
    """Text in the CLI grammar: every term is coefficient*monomial."""
    if not poly:
        return "0"
    pieces = []
    for (i, j), c in sorted(poly.items(), key=lambda t: (-(t[0][0] + t[0][1]), -t[0][0])):
        mono = _monomial(i, j, theta)
        pieces.append(f"{c}*{mono}" if mono else str(c))
    return " + ".join(pieces).replace("+ -", "- ")


def render_ore(op):
    return " + ".join(render(c, k) for k, c in enumerate(op) if c).replace("+ -", "- ") or "0"


def add(a, b):
    out = dict(a)
    for e, c in b.items():
        add_term(out, e, c)
    return out


def scale(a, c):
    return {e: v * c for e, v in a.items()} if c else {}


def mul(a, b):
    out = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            add_term(out, (i + k, j + l), c * d)
    return out


def partial(a, axis):
    out = {}
    for e, c in a.items():
        if e[axis]:
            lowered = (e[0] - 1, e[1]) if axis == 0 else (e[0], e[1] - 1)
            out[lowered] = c * e[axis]
    return out


def apply(deriv, a):
    """delta(a) = dx * da/dx + dy * da/dy."""
    return add(mul(deriv[0], partial(a, 0)), mul(deriv[1], partial(a, 1)))


def _evaluate_on(poly, subst):
    """Univariate polynomial {n: c} from substituting subst(i, j)."""
    out = {}
    for (i, j), c in poly.items():
        for n, v in subst(i, j).items():
            out[n] = out.get(n, 0) + c * v
    return {n: v for n, v in out.items() if v}


def _upow(base, n):
    out = {0: Fraction(1)}
    for _ in range(n):
        nxt = {}
        for p, c in out.items():
            for q, d in base.items():
                nxt[p + q] = nxt.get(p + q, 0) + c * d
        out = nxt
    return out


def divides_linear(form, poly):
    """Whether the linear form a*x + b*y + c divides poly: it does exactly
    when poly vanishes on the line form = 0."""
    a, b, c = (form.get(m, Fraction(0)) for m in ((1, 0), (0, 1), (0, 0)))
    if b:
        line = {0: -c / b, 1: -a / b}  # y as a polynomial in x
        return not _evaluate_on(poly, lambda i, j: {n + i: v for n, v in _upow(line, j).items()})
    point = -c / a  # x is constant on the line; y is free
    return not _evaluate_on(poly, lambda i, j: {j: point**i})


def trim(op):
    op = list(op)
    while op and not op[-1]:
        op.pop()
    return op


def theta_times(deriv, op):
    """theta * sum c_k theta^k = sum (c_k theta^(k+1) + delta(c_k) theta^k)."""
    out = [{} for _ in range(len(op) + 1)]
    for k, c in enumerate(op):
        out[k + 1] = add(out[k + 1], c)
        out[k] = add(out[k], apply(deriv, c))
    return trim(out)


def ore_add(f, g):
    n = max(len(f), len(g))
    return trim([add(f[k] if k < len(f) else {}, g[k] if k < len(g) else {}) for k in range(n)])


def ore_mul(deriv, f, g):
    """(sum a_i theta^i) * g = sum a_i * (theta^i * g)."""
    out, power = [], trim(g)
    for i, a in enumerate(f):
        if i:
            power = theta_times(deriv, power)
        if a:
            out = ore_add(out, [mul(a, c) for c in power])
    return out

"""Exact division and resultants of sparse polynomials.

MPoly, the one sparse polynomial type, is defined in poly.py next to
BiPoly, its 2-variable case, and is imported from here by the modules
that work in more than the two ring variables.  The Darboux cascade
holds each part of a polynomial as a map from (x, y)-monomials to MPoly
coefficients in (x, y, p_0, ..., p_{P-1}) free of x and y, the
parameters following x and y (variables 0 and 1), P being the number of
free unknowns of its rational level matrices; its constraints and its
joined p and cofactor are MPoly in those variables (see
darboux._cascade).  Pencil elimination works in (x, y, t).

mpoly_resultant eliminates one variable of two MPoly of any arity,
BiPoly and UniPoly included.  The Bareiss determinant under it divides
with mpoly_exact_divide, which shares its body (poly._quotient) with
poly.exact_divide; it stays a function of its own because orebench's
tracer times the determinant divisions as a layer apart from the other
exact divisions.
"""

from .poly import DomainError, MPoly, _quotient


def mpoly_exact_divide(p, d):
    """Return h with p = d*h when d divides p exactly, else None; a
    tracer target apart from poly.exact_divide."""
    if d.is_zero:
        raise DomainError("division by the zero polynomial")
    return _quotient(p, d)


def mpoly_resultant(p, q_, i):
    """Sylvester resultant of p and q_ eliminating variable i, with p's
    type; the package's one resultant, and a tracer target."""
    if p.is_zero or q_.is_zero:
        raise DomainError("resultant of the zero polynomial")
    p._check(q_)
    return _sylvester_resultant(p.coeffs_in(i), q_.coeffs_in(i))


def _sylvester_resultant(cp, cq):
    """Resultant of two polynomials given by their coefficient lists
    (ascending in the eliminated variable)."""
    dp, dq = len(cp) - 1, len(cq) - 1
    if dp <= 0 and dq <= 0:
        raise DomainError("both inputs constant in the eliminated variable")
    if dp == 0:
        return cp[0] ** dq
    if dq == 0:
        return cq[0] ** dp
    n = dp + dq
    zero = cp[0] * 0
    rows = []
    for cs, shifts in ((cp, dq), (cq, dp)):
        d = len(cs) - 1
        for k in range(shifts):
            row = [zero] * n
            for i, c in enumerate(cs):
                row[k + d - i] = c
            rows.append(row)
    return _bareiss_det(rows)


def _bareiss_det(rows):
    """Fraction-free (Bareiss) determinant of an n x n matrix of
    polynomials, n >= 2.  Entries below the pivot of a finished column are
    never read again, so they are left as they are."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = None
    for k in range(n - 1):
        if m[k][k].is_zero:
            for r in range(k + 1, n):
                if not m[r][k].is_zero:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                if prev is not None:
                    num = mpoly_exact_divide(num, prev)
                    if num is None:
                        raise DomainError("inexact division in determinant")
                m[i][j] = num
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det

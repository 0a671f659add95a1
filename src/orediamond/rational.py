"""Exact rational coefficients: fractions.Fraction, always reduced with
positive denominator, which is the representation contract relied on
everywhere.  The int kernels read .numerator and .denominator and build
results with Q(n, d): the MPoly constructor, monomial, scaling,
substitute and rational view in poly.py, which also serve UniPoly and
LaurentUniPoly, and the dense view UniPoly.coeffs.
"""

from fractions import Fraction as Q

QZERO = Q(0)
QONE = Q(1)


def q(value):
    """Coerce to a rational; accepts ints, strings like '3/2', rationals."""
    return value if type(value) is Q else Q(value)


def qstr(value):
    """Canonical text: 'num' or 'num/den', at any size."""
    num, den = _digits(value.numerator), value.denominator
    return num if den == 1 else f"{num}/{_digits(den)}"


def _digits(n):
    """Decimal text of the int n, also past the interpreter's limit on
    int-to-str conversion: split at a power of ten near half the digits."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # log10(2) < 0.302, so about half
        hi, lo = divmod(abs(n), 10**k)
        return ("-" if n < 0 else "") + _digits(hi) + _digits(lo).zfill(k)

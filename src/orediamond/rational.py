"""Exact rational coefficients.

Uses gmpy2.mpq when gmpy2 is installed, otherwise fractions.Fraction.
gmpy2 is not a dependency, so a plain install runs on Fraction.  Both
are always reduced with positive denominator, which is the
representation contract relied on everywhere.
The int kernels read .numerator and .denominator and build results with
Q(n, d): the MPoly constructor, monomial, scaling, substitute and
rational view in poly.py, which also serve UniPoly and LaurentUniPoly,
and the dense view UniPoly.coeffs.  mpq has the same attributes, but that path is
not covered by the tests when gmpy2 is absent.
"""

try:
    from gmpy2 import mpq as Q
except ImportError:  # gmpy2 is optional
    from fractions import Fraction as Q

QZERO = Q(0)
QONE = Q(1)


def q(value, den=None):
    """Coerce to a rational; accepts ints, strings like '3/2', rationals."""
    if den is not None:
        return Q(value, den)
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

"""Exact rational coefficients.

Uses gmpy2.mpq when gmpy2 is installed, otherwise fractions.Fraction.
gmpy2 is not a dependency, so a plain install runs on Fraction.  Both
are always reduced with positive denominator, which is the
representation contract relied on everywhere.
poly.kmul uses only .numerator, .denominator and Q(n, d), which mpq has
too; that path is not covered by the tests when gmpy2 is absent.
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
    return Q(value)


def qstr(value):
    """Canonical text: 'num' or 'num/den'."""
    return str(value)

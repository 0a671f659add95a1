"""Exact rational coefficients.

Uses gmpy2.mpq when gmpy2 is installed, otherwise fractions.Fraction.
gmpy2 is not a dependency, so a plain install runs on Fraction.  Both
are always reduced with positive denominator, which is the
representation contract relied on everywhere.
The int kernels read .numerator and .denominator and build results with
Q(n, d): poly._as_integers (behind kmul, exact_divide and the MPoly
constructor and from_bipoly), and MPoly's monomial, scaling and
substitute.  mpq has the same attributes, but that path is not covered
by the tests when gmpy2 is absent.
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

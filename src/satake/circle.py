"""Exact model of the divisible value group for unramified characters.

An element represents q^a * exp(2*pi*i*b) with a rational and b rational
modulo 1, stored as the pair (a, b).  Here q is a formal symbol (in
applications, the residue field cardinality); the group law is
componentwise addition of exponents.  The group is divisible, which is
what makes restriction of characters along subgroup inclusions onto.

This is the type in which character values are parsed; characters
themselves (`abelian.GroupCharacter`) are stored as integer idents and
build these values on demand.  Every value, of either kind, is printed by
`render_value` from integer numerators over one denominator.

>>> z = ExactCircle(1, Fraction(3, 8))
>>> z * z.inverse() == ONE
True
"""

from fractions import Fraction
from math import gcd, lcm


class ExactCircle:
    """q^a * e(b) with a in Q, b in Q/Z; canonical representative 0 <= b < 1."""

    __slots__ = ("q_exponent", "argument")

    def __init__(self, q_exponent=0, argument=0):
        # `GroupCharacter.values` passes canonical Fractions: keep them,
        # and reduce an argument only when it is outside [0, 1)
        self.q_exponent = (q_exponent if type(q_exponent) is Fraction
                           else Fraction(q_exponent))
        if type(argument) is not Fraction:
            argument = Fraction(argument)
        if not 0 <= argument.numerator < argument.denominator:
            argument %= 1
        self.argument = argument

    def __mul__(self, other):
        return ExactCircle(self.q_exponent + other.q_exponent,
                           self.argument + other.argument)

    def inverse(self):
        return ExactCircle(-self.q_exponent, -self.argument)

    def __pow__(self, k):
        k = int(k)
        return ExactCircle(k * self.q_exponent, k * self.argument)

    def sort_key(self):
        return (self.q_exponent, self.argument)

    def __eq__(self, other):
        return (isinstance(other, ExactCircle)
                and self.q_exponent == other.q_exponent
                and self.argument == other.argument)

    def __hash__(self):
        return hash((self.q_exponent, self.argument))

    def __repr__(self):
        return f"ExactCircle({self.q_exponent!r}, {self.argument!r})"

    def render(self):
        """Deterministic display form, e.g. 'q^-1/2 e(3/8)' or '1'."""
        den = lcm(self.q_exponent.denominator, self.argument.denominator)
        return render_value(int(self.q_exponent * den),
                            int(self.argument * den), den)


def _ratio(n, den):
    g = gcd(n, den)
    return f"{n // g}" if g == den else f"{n // g}/{den // g}"


def render_value(q, a, den):
    """The display form of q^(q/den) e(a/den), 0 <= a < den, with each
    fraction in lowest terms: 'q^-1/2 e(3/8)', or '1' for the unit."""
    parts = []
    if q:
        parts.append(f"q^{_ratio(q, den)}")
    if a:
        parts.append(f"e({_ratio(a, den)})")
    return " ".join(parts) if parts else "1"


ONE = ExactCircle(0, 0)

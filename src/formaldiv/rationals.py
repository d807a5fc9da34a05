"""The rationals as a coefficient ring of plain ``Fraction`` values, apart
from ``coefficients`` so that rational inputs load no parametric code."""

from fractions import Fraction
from functools import partial
from math import gcd
from operator import attrgetter

from .errors import NotInvertibleError


def _mul(x, y):
    # the product of reduced (num, den) pairs, reduced by cross gcds
    (a, b), (c, d) = x, y
    g, h = gcd(a, d), gcd(c, b)
    return (a // g) * (c // h), (b // h) * (d // g)


def _sub_mul(w, q, t):
    # w - q*t, where None is an absent w and 0 a zero result; the difference
    # shares only factors of g = gcd(b, d) (Knuth, TAOCP vol. 2, 4.5.1)
    n, d = _mul(q, t)
    if not w:
        return -n, d
    a, b = w
    g = gcd(b, d)
    num = a * (d // g) - n * (b // g)
    h = gcd(num, g)
    return (num // h, (b // g) * (d // h)) if num else 0


class RationalField:
    """Coefficient ring of plain rationals."""

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def divide_by_unit(self, a, s):
        if not s:
            raise NotInvertibleError("division by zero")
        return a / s

    # the division kernel's work form: reduced (num, den) int pairs, den > 0
    _to_work = staticmethod(attrgetter("numerator", "denominator"))
    _from_work = staticmethod(lambda w: Fraction(*w))
    _sub_mul = staticmethod(_sub_mul)

    def _divider(self, s):
        a, b = s.numerator, s.denominator
        return partial(_mul, (b, a) if a > 0 else (-b, -a))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __repr__(self):
        return "QQ"


QQ = RationalField()

"""The rationals as a coefficient ring of plain ``Fraction`` values, apart
from ``coefficients`` so that rational inputs load no parametric code."""

from fractions import Fraction

from .errors import NotInvertibleError


class RationalField:
    """Coefficient ring of plain rationals."""

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def from_fraction(self, v) -> Fraction:
        return Fraction(v)

    def divide_by_unit(self, a, s):
        if not s:
            raise NotInvertibleError("division by zero")
        return a / s

    def evaluate(self, a, point) -> Fraction:
        return a

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()

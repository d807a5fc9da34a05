#!/usr/bin/env python3
"""Dividing a truncated series by several series at once.

The divisors' initial exponents carve the exponent grid into cells; division
pushes every term of the dividend through its cell and returns quotients
whose shifted supports stay inside their cells, plus a remainder supported on
what no cell claims.  Everything is exact modulo terms of degree > D.
"""

from fractions import Fraction

from formaldiv import (
    QQ,
    ModExponent,
    StandardOrder,
    TruncatedSeries,
    hironaka_divide,
)
from formaldiv.division import residual


def series(n, p, D, terms):
    return TruncatedSeries(
        n, p, D, QQ,
        {ModExponent(tuple(a), c): Fraction(v) for (a, c), v in terms.items()},
    )


order = StandardOrder.unit(2)
D = 6

phi1 = series(2, 1, D, {((2, 0), 1): 1})            # x^2
phi2 = series(2, 1, D, {((0, 2), 1): 1})            # y^2
f = series(2, 1, D, {((3, 0), 1): 1, ((2, 2), 1): 1})  # x^3 + x^2 y^2

print("dividing x^3 + x^2*y^2 by [x^2, y^2] at degree <=", D)
res = hironaka_divide(order, [phi1, phi2], f)
print("  Q1 =", res.quotients[0])
print("  Q2 =", res.quotients[1])
print("  R  =", res.remainder)
print("  identity check (zero):", residual(res, [phi1, phi2], f))
print()

g = series(2, 1, D, {((1, 1), 1): 1})  # x*y sits in neither cell
res = hironaka_divide(order, [phi1, phi2], g)
print("dividing x*y by the same pair leaves it untouched:")
print("  R =", res.remainder)
print()

# division inverts unit-led series up to the horizon: x / (x - x^2)
order1 = StandardOrder.unit(1)
phi = TruncatedSeries(1, 1, 3, QQ, {
    ModExponent((1,), 1): Fraction(1), ModExponent((2,), 1): Fraction(-1),
})
x = TruncatedSeries(1, 1, 3, QQ, {ModExponent((1,), 1): Fraction(1)})
res = hironaka_divide(order1, [phi], x)
print("x / (x - x^2) truncated at degree 3 is the geometric series:")
print("  Q =", res.quotients[0])

#!/usr/bin/env python3
"""Staircase diagrams, completion to a standard basis, canonical forms.

The diagram of a module collects the initial exponents of all its nonzero
elements; it is determined by finitely many vertices.  A generator list whose
initial exponents miss part of the diagram gets completed: monomial multiples
that cross into earlier cells are divided back, and nonzero remainders are
new basis elements.
"""

from fractions import Fraction

from formaldiv import (
    QQ,
    ModExponent,
    StandardOrder,
    TruncatedSeries,
    canonicalize,
    complete_to_standard_basis,
    is_member,
    minimal_generating_subset,
)


def series(n, p, D, terms):
    return TruncatedSeries(
        n, p, D, QQ,
        {ModExponent(tuple(a), 1): Fraction(v) for a, v in terms.items()},
    )


order = StandardOrder.unit(2)
D = 6

# x^2 + y^3 and x^2 generate y^3 too; completion finds it
g1 = series(2, 1, D, {(2, 0): 1, (0, 3): 1})
g2 = series(2, 1, D, {(2, 0): 1})
basis = complete_to_standard_basis(order, [g1, g2])
print("generators x^2 + y^3 and x^2 complete to vertices:")
for v in basis.diagram.vertices:
    print("  vertex", v.alpha)
print()

canon = canonicalize(basis)
print("canonical representatives (vertex monomial + tail outside the diagram):")
for v, psi in zip(canon.vertices, canon.elements):
    print(f"  at {v.alpha}:", psi)
print()

member, witness = is_member(order, basis, series(2, 1, D, {(2, 3): 5}))
print("is 5*x^2*y^3 in the module?", member)
member, witness = is_member(order, basis, series(2, 1, D, {(1, 1): 1}))
print("is x*y in the module?", member, "-- remainder", witness.remainder)
print()

gens = [
    series(1, 1, 6, {(2,): 1}),
    series(1, 1, 6, {(2,): 1, (3,): 1}),
]
m, subset = minimal_generating_subset(StandardOrder.unit(1), gens)
print("of [x^2, x^2 + x^3], a single generator suffices:")
print("  m =", m, " kept indices:", subset)

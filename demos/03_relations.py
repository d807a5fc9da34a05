#!/usr/bin/env python3
"""The module of relations and presentations for redundant generators.

For a standard basis, the diagram of the relation module is free: slot by
slot it is the complement of the box that the division partition assigns to
that basis element.  Each of its vertices yields one distinguished relation,
and arbitrary relations divide to zero against them.  For generators that
are not a basis, the engine works through a minimal subset and emits
relations against the original components.
"""

from fractions import Fraction

from formaldiv import (
    QQ,
    ModExponent,
    StandardOrder,
    TruncatedSeries,
    complete_to_standard_basis,
    reduce_relation,
    relations_of_generators,
    standard_relations,
)
from formaldiv.syzygies import relation_defect


def series(n, p, D, terms):
    return TruncatedSeries(
        n, p, D, QQ,
        {ModExponent(tuple(a), c): Fraction(v) for (a, c), v in terms.items()},
    )


order = StandardOrder.unit(2)
D = 6

basis = complete_to_standard_basis(order, [
    series(2, 1, D, {((2, 0), 1): 1}),   # x^2
    series(2, 1, D, {((0, 2), 1): 1}),   # y^2
])
syz = standard_relations(basis)
print("basis [y^2, x^2] (vertex order); relation diagram vertices:")
for v in syz.diagram.vertices:
    print("  ", (v.alpha, v.comp))
print("distinguished relation:", syz.relations[0])
print("annihilates the basis:", relation_defect(syz.relations[0], basis.elements))
print()

# any relation reduces to zero against the distinguished ones
y2 = series(2, 1, D, {((0, 2), 1): 1})
h = y2.mul_series(syz.relations[0])
res = reduce_relation(h, syz)
print("y^2 times the relation reduces with quotient", res.quotients[0],
      "and remainder", res.remainder)
print()

# redundant generators: x^2, y^2, x^2 + y^2
pres = relations_of_generators(order, [
    series(2, 1, D, {((2, 0), 1): 1}),
    series(2, 1, D, {((0, 2), 1): 1}),
    series(2, 1, D, {((2, 0), 1): 1, ((0, 2), 1): 1}),
])
print("generators [x^2, y^2, x^2 + y^2]: minimal subset size", pres.m,
      "at indices", tuple(i + 1 for i in pres.subset))
print("emitted relations (components follow the input order):")
for r in pres.relations:
    print("  ", r)

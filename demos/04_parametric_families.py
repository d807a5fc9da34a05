#!/usr/bin/env python3
"""Families of modules with polynomial parameter coefficients.

Evaluating the parameters specializes the family; the diagram computed over
the localized parameter ring is the generic one.  Specializing can only move
the diagram later in the diagram order, and the polynomials inverted along
the way certify where equality holds.  Scans sample points, tally the
diagrams they see, and flag any violation.
"""

from fractions import Fraction

from formaldiv import (
    ModExponent,
    ParamModule,
    PolynomialRing,
    StandardOrder,
    TruncatedSeries,
    generic_diagram,
    semicontinuity_scan,
    specialize,
    specialized_relations_check,
)

ring = PolynomialRing(("t",))
order = StandardOrder.unit(1)

# the family t*x + x^2: generically generated in degree 1, at t = 0 in degree 2
pivot = ParamModule(
    order=order,
    generators=(TruncatedSeries(1, 1, 4, ring, {
        ModExponent((1,), 1): ring.variable("t"),
        ModExponent((2,), 1): ring.one,
    }),),
    param_names=("t",),
)

diag, certs = generic_diagram(pivot)
print("family t*x + x^2")
print("  generic vertex:", [v.alpha for v in diag.vertices])
print("  certificates:", [str(p) for p in certs.all_polys()])
print("  at t=3:", specialize(pivot, (Fraction(3),))[0])
print("  at t=0:", specialize(pivot, (Fraction(0),))[0])
print()

report = semicontinuity_scan(pivot, [(Fraction(k), ) for k in range(-3, 4)])
print("scan over t = -3..3:")
for rec in report.records:
    vs = [v.alpha for v in rec.diagram.vertices]
    print(f"  t = {rec.point[0]!s:>3}: vertices {vs}  comparison={rec.comparison.name}")
print("  census:", [([v.alpha for v in d.vertices], c) for d, c in report.census])
print("  semicontinuity holds:", report.semicontinuity_ok,
      "| generic off the certificate zeros:", report.genericity_ok)
print()

# relations of a redundant parametrized triple, checked at sample points
ring2 = PolynomialRing(("t",))
order2 = StandardOrder.unit(2)
triple = ParamModule(
    order=order2,
    generators=(
        TruncatedSeries(2, 1, 6, ring2, {ModExponent((2, 0), 1): ring2.one}),
        TruncatedSeries(2, 1, 6, ring2, {ModExponent((0, 2), 1): ring2.variable("t")}),
        TruncatedSeries(2, 1, 6, ring2, {
            ModExponent((2, 0), 1): ring2.one, ModExponent((0, 2), 1): ring2.one,
        }),
    ),
    param_names=("t",),
)
check = specialized_relations_check(triple, [(Fraction(v),) for v in (-2, 0, 1, 3)])
print("relations of [x^2, t*y^2, x^2 + y^2] checked at sample points:")
for rec in check.records:
    extra = "" if rec.status == "skipped" else f" oracle relations spanned: {rec.all_spanned}"
    print(f"  t = {rec.point[0]!s:>3}: {rec.status}{extra}")
print("  all good points passed:", check.all_passed)

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from formaldiv import (
    QQ,
    Diagram,
    ModExponent,
    Ordering,
    ParamModule,
    PolynomialRing,
    TruncatedSeries,
    generic_diagram,
    grid_points,
    parse_coefficient,
    sample_points,
    semicontinuity_scan,
    specialize,
    specialized_relations_check,
)
from formaldiv import io
from formaldiv.errors import (
    DegenerateFamilyError, PreconditionError, VanishingDenominatorError)
from formaldiv.families import _all_spanned

import catalog
from helpers import ser, unit_order


def family_xi():
    ring = PolynomialRing(("xi",))
    gen = TruncatedSeries(1, 1, 4, ring, {
        ModExponent((1,), 1): ring.variable("xi"),
        ModExponent((2,), 1): ring.one,
    })
    return ParamModule(order=unit_order(1), generators=(gen,), param_names=("xi",))


# -- specialization ---------------------------------------------------------------

def test_specialize_generic_point():
    pm = family_xi()
    [g] = specialize(pm, (Fraction(2),))
    assert g == ser(1, 1, 4, {(1,): 2, (2,): 1})


def test_specialize_exceptional_point():
    pm = family_xi()
    [g] = specialize(pm, (Fraction(0),))
    assert g == ser(1, 1, 4, {(2,): 1})


def test_specialize_commutes_with_scaling():
    rng = random.Random(131)
    ring = PolynomialRing(("a", "b"))
    for _ in range(20):
        terms = {
            ModExponent((rng.randint(0, 3),), 1): parse_coefficient(
                f"{rng.randint(-3, 3)}*a + {rng.randint(-3, 3)}*b^2", ("a", "b")
            )
            for _ in range(3)
        }
        gen = TruncatedSeries(1, 1, 4, ring, terms)
        if gen.is_zero:
            continue
        pm = ParamModule(order=unit_order(1), generators=(gen,), param_names=("a", "b"))
        c = parse_coefficient("a - 2*b", ("a", "b"))
        point = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), 2))
        scaled = ParamModule(
            order=unit_order(1), generators=(gen.map_coefficients(lambda v: c * v, ring),),
            param_names=("a", "b"),
        )
        [gv] = specialize(pm, point)
        [sv] = specialize(scaled, point)
        cv = c.evaluate(point)
        assert sv == gv.map_coefficients(lambda v: cv * v, QQ)


def test_specialize_arity_check():
    pm = family_xi()
    with pytest.raises(PreconditionError):
        specialize(pm, (Fraction(1), Fraction(2)))


def test_param_module_rejects_empty_or_zero_generators():
    ring = PolynomialRing(("xi",))
    zero = TruncatedSeries(1, 1, 4, ring, {})
    with pytest.raises(PreconditionError):
        ParamModule(order=unit_order(1), generators=(), param_names=("xi",))
    with pytest.raises(PreconditionError):
        ParamModule(order=unit_order(1), generators=(family_xi().generators[0], zero),
                    param_names=("xi",))
    assert family_xi().denominator_seed == ()


# -- generic diagrams -----------------------------------------------------------------

def test_generic_diagram_unit_family():
    pm = family_xi()
    diag, certs = generic_diagram(pm)
    assert [(v.alpha, v.comp) for v in diag.vertices] == [((1,), 1)]
    assert [str(p) for p in certs.all_polys()] == ["xi"]


def test_generic_diagram_two_generators():
    ring = PolynomialRing(("xi",))
    g1 = TruncatedSeries(2, 1, 6, ring, {ModExponent((2, 0), 1): ring.one})
    g2 = TruncatedSeries(2, 1, 6, ring, {
        ModExponent((0, 2), 1): ring.variable("xi")
    })
    pm = ParamModule(order=unit_order(2), generators=(g1, g2), param_names=("xi",))
    diag, certs = generic_diagram(pm)
    assert {(v.alpha) for v in diag.vertices} == {(2, 0), (0, 2)}
    assert [str(p) for p in certs.all_polys()] == ["xi"]


def test_generic_diagram_constant_family_has_no_certificates():
    ring = PolynomialRing(("xi",))
    g = TruncatedSeries(2, 1, 6, ring, {
        ModExponent((1, 0), 1): ring.from_int(3),
        ModExponent((0, 2), 1): ring.one,
    })
    pm = ParamModule(order=unit_order(2), generators=(g,), param_names=("xi",))
    _, certs = generic_diagram(pm)
    assert certs.all_polys() == ()


# -- semicontinuity scans ----------------------------------------------------------------

def test_scan_worked_example():
    pm = family_xi()
    report = semicontinuity_scan(pm, [(-1,), (0,), (2,)])
    assert report.semicontinuity_ok and report.genericity_ok
    by_point = {rec.point: rec for rec in report.records}
    assert [(v.alpha,) for v in by_point[(Fraction(-1),)].diagram.vertices] == [((1,),)]
    assert [(v.alpha,) for v in by_point[(Fraction(0),)].diagram.vertices] == [((2,),)]
    assert by_point[(Fraction(0),)].comparison == Ordering.LESS
    assert by_point[(Fraction(0),)].certificates_nonzero == (False,)
    census = {tuple(v.alpha for v in d.vertices): c for d, c in report.census}
    assert census == {((1,),): 2, ((2,),): 1}


def test_scan_constant_family():
    ring = PolynomialRing(("xi",))
    g = TruncatedSeries(1, 1, 4, ring, {ModExponent((2,), 1): ring.from_int(5)})
    pm = ParamModule(order=unit_order(1), generators=(g,), param_names=("xi",))
    report = semicontinuity_scan(pm, [(v,) for v in range(-3, 4)])
    assert len(report.census) == 1
    assert all(rec.diagram == report.generic for rec in report.records)


def test_scan_parameter_in_tail_keeps_diagram_constant():
    # the parameter multiplies a monomial that can never become initial
    ring = PolynomialRing(("xi",))
    g1 = TruncatedSeries(2, 1, 6, ring, {
        ModExponent((2, 0), 1): ring.one,
        ModExponent((0, 3), 1): ring.variable("xi"),
    })
    g2 = TruncatedSeries(2, 1, 6, ring, {ModExponent((0, 2), 1): ring.one})
    pm = ParamModule(order=unit_order(2), generators=(g1, g2), param_names=("xi",))
    pts = [(Fraction(v),) for v in range(-2, 3)]
    report = semicontinuity_scan(pm, pts)
    assert len(report.census) == 1
    assert {v.alpha for v in report.generic.vertices} == {(2, 0), (0, 2)}


def test_scan_parameter_on_lex_smaller_monomial_moves_diagram():
    # x^2 + xi*x*y: under lex(|a|, j, a), (1,1) precedes (2,0), so the
    # generic initial exponent is the mixed monomial and xi = 0 is special
    ring = PolynomialRing(("xi",))
    g1 = TruncatedSeries(2, 1, 6, ring, {
        ModExponent((2, 0), 1): ring.one,
        ModExponent((1, 1), 1): ring.variable("xi"),
    })
    g2 = TruncatedSeries(2, 1, 6, ring, {ModExponent((0, 2), 1): ring.one})
    pm = ParamModule(order=unit_order(2), generators=(g1, g2), param_names=("xi",))
    pts = [(Fraction(v),) for v in range(-2, 3)]
    report = semicontinuity_scan(pm, pts)
    assert report.semicontinuity_ok and report.genericity_ok
    assert len(report.census) == 2
    assert (1, 1) in {v.alpha for v in report.generic.vertices}


def test_scan_skips_points_outside_the_declared_domain():
    # a seeded denominator restricts the specialization domain
    ring = PolynomialRing(("xi",))
    g = TruncatedSeries(1, 1, 4, ring, {
        ModExponent((1,), 1): parse_coefficient("xi", ("xi",)),
        ModExponent((2,), 1): ring.one,
    })
    pm = ParamModule(
        order=unit_order(1), generators=(g,), param_names=("xi",),
        denominator_seed=(parse_coefficient("xi", ("xi",)),),
    )
    with pytest.raises(VanishingDenominatorError):
        specialize(pm, (Fraction(0),))
    report = semicontinuity_scan(pm, [(0,), (1,)])
    statuses = {rec.point: rec.status for rec in report.records}
    assert statuses[(Fraction(0),)] == "skipped"
    assert statuses[(Fraction(1),)] == "ok"


@pytest.mark.parametrize("vertex, point, verdicts", [
    ((3,), 0, (False, True)),  # above the diagram at xi = 0, whose certificate vanishes
    ((0,), 1, (True, False)),  # below the diagram at xi = 1, whose certificate holds
])
def test_scan_reports_false_verdicts(monkeypatch, vertex, point, verdicts):
    # no sampled family has failed either verdict, so a wrong generic
    # diagram stands in for one
    from formaldiv import families
    pm = family_xi()
    _, certs = generic_diagram(pm)
    wrong = Diagram(1, 1, [ModExponent(vertex, 1)], pm.order)
    monkeypatch.setattr(families, "generic_diagram", lambda _: (wrong, certs))
    report = semicontinuity_scan(pm, [(point,)])
    assert (report.semicontinuity_ok, report.genericity_ok) == verdicts
    payload = families.semicontinuity_report_to_json(report)
    assert (payload["semicontinuity_ok"], payload["genericity_ok"]) == verdicts


def test_scan_census_stable_under_refinement():
    for pm in catalog.bundled_families()[:4]:
        arity = len(pm.param_names)
        base = grid_points([(-3, 3)] * arity, step=Fraction(1))
        refined = grid_points([(-3, 3)] * arity, step=Fraction(1, 2))
        report = semicontinuity_scan(pm, base, refine_points=refined)
        assert report.semicontinuity_ok and report.genericity_ok
        assert report.refinement.stable


def test_scan_specializes_each_distinct_point_once(monkeypatch):
    # `semicont-scan --grid xi1:-2..2 --refine` on family_pivot.json: the 9
    # refinement points hold the 5 grid points, which took 14 specializations
    from formaldiv import families
    specialized = []
    real = families.specialize

    def counted(pm, point):
        specialized.append(tuple(point))
        return real(pm, point)

    monkeypatch.setattr(families, "specialize", counted)
    pm = io.parse_module_file(
        str(Path(__file__).parent / "fixtures" / "family_pivot.json")).param_module()
    base = grid_points([(-2, 2)], step=Fraction(1))
    refined = grid_points([(-2, 2)], step=Fraction(1, 2))
    report = semicontinuity_scan(pm, base + base, refine_points=refined)
    assert sorted(specialized) == sorted(refined)
    assert report.records[:5] == report.records[5:]
    assert sum(count for _, count in report.refinement.census) == 9

    # a skip found by the main pass is reused too
    ring = PolynomialRing(("xi",))
    xi = parse_coefficient("xi", ("xi",))
    g = TruncatedSeries(1, 1, 4, ring, {ModExponent((1,), 1): xi, ModExponent((2,), 1): ring.one})
    pm = ParamModule(order=unit_order(1), generators=(g,), param_names=("xi",),
                     denominator_seed=(xi,))
    specialized.clear()
    report = semicontinuity_scan(pm, [(0,), (1,)], refine_points=[(0,), (Fraction(1, 2),), (1,)])
    assert sorted(specialized) == [(0,), (Fraction(1, 2),), (1,)]
    assert [rec.status for rec in report.records] == ["skipped", "ok"]
    assert sum(count for _, count in report.refinement.census) == 2


def test_scan_random_points_all_families():
    for k, pm in enumerate(catalog.bundled_families()):
        pts = sample_points(len(pm.param_names), 25, seed=500 + k)
        report = semicontinuity_scan(pm, pts)
        assert report.semicontinuity_ok, f"family {k}"
        assert report.genericity_ok, f"family {k}"


# -- specialized relations ----------------------------------------------------------------

def relations_family():
    ring = PolynomialRing(("xi",))
    g1 = TruncatedSeries(2, 1, 6, ring, {ModExponent((2, 0), 1): ring.one})
    g2 = TruncatedSeries(2, 1, 6, ring, {
        ModExponent((0, 2), 1): ring.variable("xi")
    })
    g3 = TruncatedSeries(2, 1, 6, ring, {
        ModExponent((2, 0), 1): ring.one,
        ModExponent((0, 2), 1): ring.one,
    })
    return ParamModule(
        order=unit_order(2), generators=(g1, g2, g3), param_names=("xi",)
    )


def test_relations_check_good_points_pass():
    pm = relations_family()
    report = specialized_relations_check(pm, [(1,), (2,), (-3,)])
    assert report.all_passed
    assert all(rec.status == "ok" and rec.all_spanned for rec in report.records)


def test_relations_check_skips_certificate_zero():
    pm = relations_family()
    report = specialized_relations_check(pm, [(0,), (1,)])
    statuses = {rec.point: rec.status for rec in report.records}
    assert statuses[(Fraction(0),)] == "skipped"
    assert statuses[(Fraction(1),)] == "ok"
    assert report.all_passed


def test_relations_check_certificates_come_from_kept_computations():
    # three of the four generators are needed for the diagram's three
    # degree-1 vertices; completing a two-series candidate, which the
    # minimal-subset pass rejects unseen, would register t + 13/6.  No kept
    # computation divides by it, and at t = -13/6 the check passes.
    def series(*terms):
        return {"terms": [{"component": 1, "exponent": e, "coeff": c} for e, c in terms]}

    pm = io.load_module_data({"n": 3, "p": 1, "D": 3, "parameters": ["t"], "series": [
        series(([2, 0, 1], "-t - 2"), ([0, 1, 0], "2"), ([0, 2, 1], "-3*t + 3")),
        series(([0, 0, 1], "-2*t - 3"), ([0, 1, 0], "-2"), ([1, 0, 0], "t - 1")),
        series(([0, 1, 0], "3"), ([1, 0, 0], "1"), ([0, 0, 1], "-2")),
        series(([2, 0, 1], "-1"), ([3, 0, 0], "-t + 3")),
    ]}).param_module()
    report = specialized_relations_check(pm, [(Fraction(-13, 6),), (Fraction(-3, 2),)])
    assert [str(g) for g in report.presentation.denominator_generators] == ["t + 3/2"]
    assert [rec.status for rec in report.records] == ["ok", "skipped"]
    assert report.records[0].all_spanned


def test_relations_check_single_generator_trivial():
    pm = family_xi()
    report = specialized_relations_check(pm, [(1,), (2,)])
    assert report.all_passed
    assert len(report.presentation.relations) == 0


@st.composite
def seeded_families(draw):
    """A one-parameter family over two variables whose declared seeds are
    c1*(t - a), c2*(t - b) and their product (t - a)*(t - b), in any order,
    and whose coefficients use those factors too."""
    a, b = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2, unique=True))
    fa, fb = f"(t - ({a}))", f"(t - ({b}))"
    scale = st.sampled_from(["1", "2", "-1/3"])
    seeds = draw(st.permutations([f"{draw(scale)}*{fa}", f"{draw(scale)}*{fb}", f"{fa}*{fb}"]))
    coeff = st.sampled_from(["1", "-2", "t", "t + 1", fa, fb, f"{fa}*{fb}", f"t*{fa}"])
    exps = st.sampled_from([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (0, 3)])
    ring = PolynomialRing(("t",))
    gens = [
        TruncatedSeries(2, 1, 4, ring, {ModExponent(e, 1): parse_coefficient(c, ("t",))
                                        for e, c in terms.items()})
        for terms in draw(st.lists(st.dictionaries(exps, coeff, min_size=1, max_size=3),
                                   min_size=1, max_size=3))
    ]
    pm = ParamModule(order=unit_order(2), generators=tuple(gens), param_names=("t",),
                     denominator_seed=tuple(parse_coefficient(s, ("t",)) for s in seeds))
    return pm, (a, b)


@settings(max_examples=30, deadline=None, database=None)
@given(seeded_families())
def test_certified_points_specialize_every_relation(family):
    # every relation denominator is a product of registered generators, and
    # every declared seed is one of them or a constant times such a product,
    # so the certificates vanish wherever a declared seed or a relation
    # denominator does
    from formaldiv.families import _at, _certificates
    from formaldiv.syzygies import relations_of_generators
    pm, roots = family
    try:
        pres = relations_of_generators(pm.order, pm.localized()[1])
    except DegenerateFamilyError:
        assume(False)
    certs = _certificates(pres.basis, pres.det_u_certificate)
    for point in grid_points([(-4, 4)]):
        if all(certs.flags_at(point)):
            specialize(pm, point)
            for r in pres.relations:
                _at(r, point)
    report = specialized_relations_check(pm, [(root,) for root in roots])
    assert [(rec.status, rec.reason) for rec in report.records] == [
        ("skipped", "certificate vanishes")] * 2


def test_all_spanned_counts_coordinates_no_multiple_reaches():
    # (1, -1) relates (x, x) but is no multiple of (x, -x): its constant
    # terms sit on rows that every x^beta * (x, -x) leaves zero
    gens = [ser(1, 1, 4, {(1,): 1}), ser(1, 1, 4, {(1,): 1})]
    span = [ser(1, 2, 4, {((1,), 1): 1, ((1,), 2): -1})]
    assert not _all_spanned(span, gens, [ser(1, 2, 4, {((0,), 1): 1, ((0,), 2): -1})])
    assert _all_spanned(span, gens, [ser(1, 2, 4, {((2,), 1): 3, ((2,), 2): -3})])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: the emitted relations fail to span the oracle relations "
    "at every certified point of this family"
))
def test_relations_check_known_defect_family():
    path = Path(__file__).parent / "fixtures" / "family_defect.json"
    pm = io.parse_module_file(str(path)).param_module()
    report = specialized_relations_check(pm, grid_points([(-3, 3)]))
    assert report.all_passed


def test_grid_points_cartesian():
    pts = grid_points([(0, 1), (0, 2)], step=Fraction(1))
    assert len(pts) == 6 and (Fraction(1), Fraction(2)) in pts


def test_sample_points_reproducible():
    a = sample_points(2, 10, seed=9)
    b = sample_points(2, 10, seed=9)
    assert a == b and len(a) == 10


def test_sample_points_stay_in_documented_ranges():
    for x in (c for pt in sample_points(3, 200, seed=11) for c in pt):
        assert abs(x) <= 9 and x.denominator <= 4

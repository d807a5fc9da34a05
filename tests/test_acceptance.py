"""Acceptance suite: one test per criterion, one printed status line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the status lines as
they complete.  Criteria with a stated time budget assert it.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from formaldiv import (
    QQ,
    DeltaPartition,
    ModExponent,
    Ordering,
    ParamModule,
    ParamPolynomial,
    PolynomialRing,
    TruncatedSeries,
    complete_to_standard_basis,
    diagram_from_exponents,
    grid_points,
    hironaka_divide,
    is_member,
    parse_coefficient,
    relations_of_generators,
    sample_points,
    semicontinuity_scan,
    standard_relations,
    reduce_relation,
    specialize,
)
from formaldiv import cli
from formaldiv.division import residual
from formaldiv.errors import InvariantError
from formaldiv.exponents import iter_alphas
from formaldiv.syzygies import active_part, relation_defect

import catalog
import oracle
from helpers import (
    mono,
    random_division_instance,
    random_series,
    ser,
    unit_order,
)

FIXTURES = Path(__file__).parent / "fixtures"


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# -- criterion 1: division correctness -------------------------------------------------

def test_criterion_1_division_suite():
    t0 = time.monotonic()
    rng = random.Random(1001)
    failures = 0
    for k in range(200):
        order, divisors, dividend = random_division_instance(
            rng, max_q=3, max_p=2, max_terms=12
        )
        res = hironaka_divide(order, divisors, dividend)
        ok = residual(res, divisors, dividend).is_zero
        exps = [d.initial(order).exponent for d in divisors]
        for i, q in enumerate(res.quotients):
            for e in q.support():
                ok = ok and res.partition.cell_of(exps[i].shift(e.alpha)) == i
        for e in res.remainder.support():
            ok = ok and res.partition.cell_of(e) is None
        if not dividend.is_zero:
            f0 = dividend.initial(order).exponent
            for i, q in enumerate(res.quotients):
                if not q.is_zero:
                    shifted = exps[i].shift(q.initial(order).exponent.alpha)
                    ok = ok and order.compare(shifted, f0) != Ordering.LESS
            if not res.remainder.is_zero:
                ok = ok and order.compare(
                    res.remainder.initial(order).exponent, f0
                ) != Ordering.LESS
        # linearity and idempotence on a rotating subsample
        if k % 4 == 0:
            other = random_series(rng, dividend.n, dividend.p, dividend.trunc,
                                  max_terms=6, nonzero=False)
            r1 = hironaka_divide(order, divisors, other)
            r12 = hironaka_divide(order, divisors, dividend + other)
            ok = ok and all(
                a == b + c
                for a, b, c in zip(r12.quotients, res.quotients, r1.quotients)
            )
            ok = ok and r12.remainder == res.remainder + r1.remainder
            again = hironaka_divide(order, divisors, res.remainder)
            ok = ok and all(q.is_zero for q in again.quotients)
            ok = ok and again.remainder == res.remainder
        if not ok:
            failures += 1
    elapsed = time.monotonic() - t0
    report(
        1,
        failures == 0 and elapsed < 60,
        f"division contract on 200 seeded instances, {elapsed:.1f}s "
        f"({failures} failures)",
    )


# -- criterion 2: membership oracle equivalence ------------------------------------------

def test_criterion_2_membership_oracle():
    t0 = time.monotonic()
    rng = random.Random(2002)
    disagreements = 0
    members_seen = 0
    for k in range(100):
        order, gens, g = random_division_instance(rng, max_terms=5)
        if k % 2 == 0:
            # plant a member so both answers get exercised
            g = TruncatedSeries.zero(g.n, g.p, g.trunc, QQ)
            for gen in gens:
                c = random_series(rng, gen.n, 1, gen.trunc, max_terms=3,
                                  nonzero=False)
                g = g + c.mul_series(gen)
        basis = complete_to_standard_basis(order, gens)
        member, _ = is_member(order, basis, g)
        expected = oracle.membership_oracle(gens, g)
        members_seen += int(expected)
        if member != expected:
            disagreements += 1
    elapsed = time.monotonic() - t0
    report(
        2,
        disagreements == 0 and elapsed < 60,
        f"membership vs linear oracle on 100 instances "
        f"({members_seen} members), {elapsed:.1f}s ({disagreements} disagreements)",
    )


# -- criterion 3: staircase cross-check ---------------------------------------------------

def test_criterion_3_monomial_staircases():
    rng = random.Random(3003)
    bad = 0
    for _ in range(50):
        n = rng.randint(1, 3)
        p = rng.randint(1, 2)
        d = {1: 8, 2: 6, 3: 4}[n]
        order = unit_order(n)
        exps = []
        for _ in range(rng.randint(1, 5)):
            while True:
                alpha = tuple(rng.randint(0, max(1, d // 2)) for _ in range(n))
                if sum(alpha) <= d:
                    break
            exps.append(ModExponent(alpha, rng.randint(1, p)))
        gens = [mono(n, p, d, e.alpha, e.comp, rng.randint(1, 5)) for e in exps]
        basis = complete_to_standard_basis(order, gens)
        got = {(v.alpha, v.comp) for v in basis.vertices}
        if got != oracle.staircase_minimal_generators(exps, n, d):
            bad += 1
    report(3, bad == 0, f"50 monomial modules vs combinatorial staircase ({bad} mismatches)")


# -- criteria 4 and 5: syzygy completeness and diagram law --------------------------------

def _complete_bases(seed, count, max_size=4):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        order, gens, _ = random_division_instance(rng, max_terms=4)
        basis = complete_to_standard_basis(order, gens)
        if 1 <= len(basis.elements) <= max_size:
            out.append((order, basis))
    return out


def test_criterion_4_syzygy_completeness():
    t0 = time.monotonic()
    bad = 0
    instances = _complete_bases(4004, 50)
    for order, basis in instances:
        syz = standard_relations(basis)
        ok = len(syz.relations) == len(syz.diagram.vertices)
        for p_rel, v in zip(syz.relations, syz.diagram.vertices):
            ok = ok and relation_defect(p_rel, basis.elements).is_zero
            init = p_rel.initial(syz.order)
            ok = ok and init.exponent == v and init.coefficient == QQ.one
        bound = oracle.default_relation_bound(basis.elements)
        for vec in oracle.relations_oracle(basis.elements, bound):
            h = TruncatedSeries(
                basis.elements[0].n, len(basis.elements),
                basis.elements[0].trunc, QQ,
                {ModExponent(beta, i + 1): c for (beta, i), c in vec.items()},
            )
            rem = reduce_relation(h, syz).remainder
            if not active_part(rem, basis.elements).is_zero:
                ok = ok and oracle.spanned_modulo_inert(
                    basis.elements, list(syz.relations), h
                )
        if not ok:
            bad += 1
    elapsed = time.monotonic() - t0
    report(
        4, bad == 0,
        f"50 complete bases: relations annihilate, heads match vertices, "
        f"oracle relations reduce ({bad} failures, {elapsed:.1f}s)",
    )


def test_criterion_5_syzygy_diagram_law():
    bad = 0
    for order, basis in _complete_bases(4004, 50):
        syz = standard_relations(basis)
        exps = [e.initial(order).exponent for e in basis.elements]
        part = DeltaPartition(exps)
        trunc = basis.elements[0].trunc
        n = basis.elements[0].n
        for i in range(len(exps)):
            for gamma in iter_alphas(n, trunc):
                inside = syz.diagram.contains(ModExponent(gamma, i + 1))
                if inside == part.box_contains(i, gamma):
                    bad += 1
    report(5, bad == 0, f"enumerated relation diagram equals box complements ({bad} mismatches)")


# -- criterion 6: relations of generators under specialization -----------------------------

def _relations_instances():
    """20 generator lists with redundancy, most carrying one parameter."""
    instances = []

    def const_family(n, d, termss):
        ring = PolynomialRing(())
        gens = [
            TruncatedSeries(n, 1, d, ring, {
                ModExponent(alpha, 1): ParamPolynomial.constant(ring.names, c)
                for alpha, c in terms.items()
            })
            for terms in termss
        ]
        return ParamModule(order=unit_order(n), generators=tuple(gens),
                           param_names=())

    # the worked redundant triple
    instances.append(const_family(2, 6, [
        {(2, 0): 1}, {(0, 2): 1}, {(2, 0): 1, (0, 2): 1},
    ]))
    # duplicate pair
    instances.append(const_family(1, 4, [{(1,): 1}, {(1,): 1}]))

    def param_family(n, p, d, names, termss):
        ring = PolynomialRing(tuple(names))
        gens = []
        for terms in termss:
            built = {}
            for key, expr in terms.items():
                if isinstance(key[0], int):
                    alpha, comp = tuple(key), 1
                else:
                    alpha, comp = tuple(key[0]), key[1]
                built[ModExponent(alpha, comp)] = parse_coefficient(expr, names)
            gens.append(TruncatedSeries(n, p, d, ring, built))
        return ParamModule(order=unit_order(n), generators=tuple(gens),
                           param_names=tuple(names))

    instances.append(param_family(2, 1, 6, ("t",), [
        {(2, 0): "1"}, {(0, 2): "t"}, {(2, 0): "1", (0, 2): "1"},
    ]))
    rng = random.Random(6006)
    while len(instances) < 20:
        n = 1 if len(instances) % 3 else 2
        d = 6 if n == 1 else 4
        q0 = rng.randint(1, 2)
        termss = []
        for _ in range(q0):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                alpha = tuple(
                    min(rng.randint(0, d), rng.randint(0, d)) for _ in range(n)
                )
                c0 = rng.randint(-3, 3)
                c1 = rng.choice([0, 0, 1, -1, 2])
                expr = f"{c0} + {c1}*t" if c1 else f"{c0}"
                if c0 or c1:
                    terms[alpha] = expr
            if terms:
                termss.append(terms)
        if not termss:
            continue
        # append a redundant combination of the first generator
        shift = tuple(rng.randint(0, 1) for _ in range(n))
        combo = {}
        for alpha, expr in termss[0].items():
            moved = tuple(a + s for a, s in zip(alpha, shift))
            if sum(moved) <= d:
                combo[moved] = f"({expr})"
        if not combo:
            continue
        termss.append(combo)
        try:
            instances.append(param_family(n, 1, d, ("t",), termss))
        except Exception:
            continue
    return instances


def test_criterion_6_relations_of_generators():
    t0 = time.monotonic()
    bad = 0
    for idx, pm in enumerate(_relations_instances()):
        ring, gens = pm.localized()
        pres = relations_of_generators(pm.order, gens)
        certs = [p for p in (
            *(e.initial(pm.order).coefficient.num for e in pres.basis.elements),
            *ring.dset.generators,
            *((pres.det_u_certificate,) if pres.det_u_certificate is not None else ()),
        ) if not p.is_constant]
        arity = len(pm.param_names)
        good_points = []
        for pt in sample_points(arity, 60, seed=7000 + idx):
            if all(p.evaluate(pt) for p in certs):
                good_points.append(pt)
            if len(good_points) == 10:
                break
        if arity == 0:
            good_points = [()] * 10
        assert len(good_points) == 10, f"instance {idx}: not enough good points"
        for pt in good_points:
            gens_a = specialize(pm, pt)
            rels_a = [
                r.map_coefficients(lambda c: c.evaluate(pt), QQ)
                for r in pres.relations
            ]
            nonzero_a = [g for g in gens_a if not g.is_zero]
            basis_a = complete_to_standard_basis(pm.order, nonzero_a)
            bound = oracle.vertex_relation_bound(pm.trunc, basis_a.diagram)
            span = [active_part(r, gens_a) for r in rels_a]
            span = [r for r in span if not r.is_zero]
            sbasis = (
                complete_to_standard_basis(pm.order, span) if span else None
            )
            for vec in oracle.relations_oracle(gens_a, bound):
                h = TruncatedSeries(
                    pm.n, len(gens_a), pm.trunc, QQ,
                    {ModExponent(b, i + 1): c for (b, i), c in vec.items()},
                )
                ha = active_part(h, gens_a)
                if ha.is_zero:
                    continue
                if sbasis is not None:
                    res = hironaka_divide(pm.order, sbasis.elements, ha)
                    if active_part(res.remainder, gens_a).is_zero:
                        continue
                if not oracle.spanned_modulo_inert(gens_a, rels_a, h):
                    bad += 1
    elapsed = time.monotonic() - t0
    report(
        6, bad == 0,
        f"20 redundant-generator instances x 10 good points: emitted relations "
        f"span the oracle kernel ({bad} failures, {elapsed:.1f}s)",
    )


# -- criterion 7: semicontinuity over the bundled families ---------------------------------

def test_criterion_7_semicontinuity():
    t0 = time.monotonic()
    families = catalog.bundled_families()
    assert len(families) == 10
    bad = []
    for k, pm in enumerate(families):
        arity = len(pm.param_names)
        base = grid_points([(-3, 3)] * arity, step=Fraction(1))
        refined = grid_points([(-3, 3)] * arity, step=Fraction(1, 2))
        grid_report = semicontinuity_scan(pm, base, refine_points=refined)
        rand_report = semicontinuity_scan(
            pm, sample_points(arity, 100, seed=9000 + k)
        )
        ok = (
            grid_report.semicontinuity_ok
            and grid_report.genericity_ok
            and grid_report.refinement.stable
            and rand_report.semicontinuity_ok
            and rand_report.genericity_ok
            and len(grid_report.census) <= 8
            and len(rand_report.census) <= 8
        )
        sampled = len(base) + 100
        assert sampled >= 100
        if not ok:
            bad.append(k)
    elapsed = time.monotonic() - t0
    report(
        7, not bad and elapsed < 120,
        f"10 bundled families, >=100 points each, census stable under "
        f"refinement ({elapsed:.1f}s, failing families: {bad})",
    )


# -- criterion 8: differentiation closure ----------------------------------------------------

def test_criterion_8_differentiation_closure():
    rng = random.Random(8008)
    bad = 0
    for _ in range(100):
        n = rng.randint(1, 3)
        p = rng.randint(1, 2)
        d = {1: 8, 2: 6, 3: 4}[n]
        order = unit_order(n)
        gens = [
            ModExponent(tuple(rng.randint(0, 3) for _ in range(n)), rng.randint(1, p))
            for _ in range(rng.randint(1, 4))
        ]
        diag = diagram_from_exponents(gens, n=n, p=p, order=order)
        terms = {}
        for _ in range(10):
            e = ModExponent(
                tuple(rng.randint(0, d) for _ in range(n)), rng.randint(1, p)
            )
            if e.degree <= d and not diag.contains(e):
                terms[e] = Fraction(rng.randint(1, 9))
        f = TruncatedSeries(n, p, d, QQ, terms)
        for k in range(1, n + 1):
            if any(diag.contains(e) for e in f.partial(k).support()):
                bad += 1
    report(8, bad == 0, f"100 diagram/series pairs, all partials stay outside ({bad} failures)")


# -- criterion 9: CLI contract ------------------------------------------------------------------

def test_criterion_9_cli_contract(tmp_path, monkeypatch):
    def fx(name):
        return str(FIXTURES / name)

    ok = True
    # byte-identical reruns on three representative commands
    for name, args in {
        "divide": ["divide", "--module", fx("module_squares.json"),
                   "--dividend", fx("dividend_mixed.json")],
        "scan": ["semicont-scan", "--module", fx("family_pivot.json"),
                 "--grid", "xi1:-2..2", "--refine"],
        "relations": ["relations", "--module", fx("family_relations.json")],
    }.items():
        a, b = tmp_path / f"{name}_a.json", tmp_path / f"{name}_b.json"
        ok = ok and cli.run_command(args + ["--out", str(a)]) == 0
        ok = ok and cli.run_command(args + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()

    # module files survive a parse -> emit -> parse cycle
    from formaldiv import io as fio

    for name in ("module_squares.json", "family_relations.json"):
        mod = fio.parse_module_file(fx(name))
        data = {
            "n": mod.n, "p": mod.p, "D": mod.trunc,
            "weights": [str(w) for w in mod.order.weights],
            "parameters": list(mod.param_names),
            "series": [
                {"name": nm, "terms": fio.series_to_json(mod.series[nm], mod.order)}
                for nm in mod.series_names
            ],
        }
        again = fio.load_module_data(data, source=name)
        ok = ok and all(again.series[nm] == mod.series[nm] for nm in mod.series_names)

    # dividing payload re-parses to the computed series
    out = tmp_path / "div.json"
    ok = ok and cli.run_command(
        ["divide", "--module", fx("module_squares.json"),
         "--dividend", fx("dividend_mixed.json"), "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())["payload"]
    q1 = TruncatedSeries(2, 1, 6, QQ, {
        ModExponent(tuple(t["exponent"]), t["component"]): parse_coefficient(t["coeff"])
        for t in payload["quotients"][0]["terms"]
    })
    ok = ok and q1 == ser(2, 1, 6, {(1, 0): 1, (0, 2): 1})

    # documented exit codes, one per error class
    codes = {
        0: cli.run_command(["diagram", "--module", fx("module_unit.json"),
                            "--out", str(tmp_path / "d.json")]),
        2: cli.run_command(["diagram", "--module", fx("bad_json.json")]),
        3: cli.run_command(["divide", "--module", fx("module_zero_series.json"),
                            "--dividend", fx("module_zero_series.json")]),
        4: cli.run_command(["specialize", "--module", fx("family_seeded.json"),
                            "--at", "0"]),
    }
    ok = ok and all(expected == got for expected, got in codes.items())

    def boom(args):
        raise InvariantError("synthetic")

    monkeypatch.setattr(cli, "_dispatch", boom)
    ok = ok and cli.run_command(["diagram", "--module", fx("module_unit.json")]) == 1
    monkeypatch.undo()

    report(9, ok, "fixtures byte-identical across runs; exit codes 0/1/2/3/4 honored")

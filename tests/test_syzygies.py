import itertools
import random
import time
import unittest.mock
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from formaldiv import (
    QQ,
    DeltaPartition,
    ModExponent,
    TruncatedSeries,
    complete_to_standard_basis,
    hironaka_divide,
    reduce_relation,
    relations_of_generators,
    standard_relations,
    syzygy_diagram,
    syzygy_order_for,
)
from formaldiv import io
from formaldiv.coefficients import LocalizedFraction
from formaldiv.division import DivisionResult, _replay_completion, residual
from formaldiv.errors import NotARelationError
from formaldiv.exponents import iter_alphas
from formaldiv import syzygies
from formaldiv.series import _dot
from formaldiv.syzygies import _det_adj, _matmul, active_part, relation_defect

import oracle
from helpers import random_division_instance, random_series, ser, unit_order


def two_squares_basis(order=None):
    order = order or unit_order(2)
    return complete_to_standard_basis(
        order, [ser(2, 1, 6, {(2, 0): 1}), ser(2, 1, 6, {(0, 2): 1})]
    )


# -- syzygy diagram ----------------------------------------------------------------

def test_syzygy_diagram_two_squares():
    basis = two_squares_basis()
    exps = [e.initial(basis.order).exponent for e in basis.elements]
    part = DeltaPartition(exps)
    sorder = syzygy_order_for(exps, basis.order.form)
    diag = syzygy_diagram(part, order=sorder)
    # one crossing: the later vertex shifted by the earlier one
    assert len(diag.vertices) == 1
    v = diag.vertices[0]
    assert v.comp == 2 and v.alpha == exps[0].alpha


def test_syzygy_diagram_single_divisor_is_empty():
    exps = [ModExponent((1, 2), 1)]
    part = DeltaPartition(exps)
    diag = syzygy_diagram(part, order=syzygy_order_for(exps, unit_order(2).form))
    assert diag.is_empty


def test_syzygy_diagram_duplicate_exponent():
    exps = [ModExponent((1, 0), 1), ModExponent((1, 0), 1)]
    part = DeltaPartition(exps)
    diag = syzygy_diagram(part, order=syzygy_order_for(exps, unit_order(2).form))
    assert diag.vertices == (ModExponent((0, 0), 2),)


def test_syzygy_diagram_law_enumerated():
    rng = random.Random(97)
    for _ in range(20):
        exps = []
        for _ in range(rng.randint(1, 4)):
            exps.append(
                ModExponent((rng.randint(0, 3), rng.randint(0, 3)), rng.randint(1, 2))
            )
        part = DeltaPartition(exps)
        diag = syzygy_diagram(part, order=syzygy_order_for(exps, unit_order(2).form))
        for i in range(len(exps)):
            for gamma in iter_alphas(2, 6):
                assert diag.contains(ModExponent(gamma, i + 1)) == (
                    not part.box_contains(i, gamma)
                )


# -- standard relations ----------------------------------------------------------------

def test_standard_relations_two_squares():
    basis = two_squares_basis()
    syz = standard_relations(basis)
    assert len(syz.relations) == 1
    p1 = syz.relations[0]
    # the relation swaps the two monomials with a sign
    a0 = basis.vertices[0].alpha
    a1 = basis.vertices[1].alpha
    assert p1.component(1) == ser(2, 1, 6, {a1: -1})
    assert p1.component(2) == ser(2, 1, 6, {a0: 1})
    assert relation_defect(p1, basis.elements).is_zero


def test_standard_relations_single_element():
    order = unit_order(2)
    basis = complete_to_standard_basis(order, [ser(2, 1, 6, {(1, 1): 1, (0, 3): 2})])
    syz = standard_relations(basis)
    assert syz.relations == ()


def test_standard_relations_duplicate_generators():
    order = unit_order(1)
    basis = complete_to_standard_basis(
        order, [ser(1, 1, 4, {(1,): 1}), ser(1, 1, 4, {(1,): 1})]
    )
    # one vertex survives; relations come from the working list's basis only
    assert len(basis.elements) == 1
    syz = standard_relations(basis)
    assert syz.relations == ()


def test_standard_relations_heads_match_vertices():
    rng = random.Random(101)
    for _ in range(20):
        order, gens, _ = random_division_instance(rng, max_terms=4)
        basis = complete_to_standard_basis(order, gens)
        syz = standard_relations(basis)
        assert len(syz.relations) == len(syz.diagram.vertices)
        for p, v in zip(syz.relations, syz.diagram.vertices):
            init = p.initial(syz.order)
            assert init.exponent == v
            assert init.coefficient == QQ.one
            assert relation_defect(p, basis.elements).is_zero


# -- reducing relations ----------------------------------------------------------------

def test_reduce_multiple_of_standard_relation():
    basis = two_squares_basis()
    syz = standard_relations(basis)
    y2 = ser(2, 1, 6, {(0, 2): 1})
    h = y2.mul_series(syz.relations[0])
    res = reduce_relation(h, syz)
    assert res.remainder.is_zero
    assert res.quotients[0] == y2


def test_reduce_zero_relation():
    basis = two_squares_basis()
    syz = standard_relations(basis)
    res = reduce_relation(TruncatedSeries.zero(2, 2, 6, QQ), syz)
    assert res.remainder.is_zero


def test_reduce_rejects_non_relation():
    basis = two_squares_basis()
    syz = standard_relations(basis)
    not_rel = ser(2, 2, 6, {((0, 0), 1): 1})
    with pytest.raises(NotARelationError):
        reduce_relation(not_rel, syz)


def test_reduce_random_combinations():
    rng = random.Random(103)
    for _ in range(15):
        order, gens, _ = random_division_instance(rng, max_terms=4)
        basis = complete_to_standard_basis(order, gens)
        syz = standard_relations(basis)
        if not syz.relations:
            continue
        n, trunc = gens[0].n, gens[0].trunc
        combo = TruncatedSeries.zero(n, len(basis.elements), trunc, QQ)
        for p in syz.relations:
            c = random_series(rng, n, 1, trunc, max_terms=3, nonzero=False)
            combo = combo + c.mul_series(p)
        assert reduce_relation(combo, syz).remainder.is_zero


def test_oracle_relations_reduce_to_zero():
    rng = random.Random(107)
    checked = 0
    while checked < 12:
        order, gens, _ = random_division_instance(rng, max_terms=3)
        basis = complete_to_standard_basis(order, gens)
        if len(basis.elements) > 4:
            continue
        checked += 1
        syz = standard_relations(basis)
        bound = oracle.default_relation_bound(basis.elements)
        for vec in oracle.relations_oracle(basis.elements, bound):
            n, trunc = gens[0].n, gens[0].trunc
            h = TruncatedSeries(
                n, len(basis.elements), trunc, QQ,
                {ModExponent(beta, i + 1): c for (beta, i), c in vec.items()},
            )
            rem = reduce_relation(h, syz).remainder
            # remainder may retain inert terms (zero action below the horizon)
            assert active_part(rem, basis.elements).is_zero


# -- presentations of arbitrary generator lists -----------------------------------------

def test_presentation_worked_example():
    order = unit_order(2)
    gens = [
        ser(2, 1, 6, {(2, 0): 1}),
        ser(2, 1, 6, {(0, 2): 1}),
        ser(2, 1, 6, {(2, 0): 1, (0, 2): 1}),
    ]
    pres = relations_of_generators(order, gens)
    assert pres.m == 2 and pres.subset == (0, 1)
    theta_col = [pres.theta[i][0] for i in range(2)]
    assert all(t == ser(2, 1, 6, {(0, 0): 1}) for t in theta_col)
    rels = list(pres.relations)
    assert ser(2, 3, 6, {((0, 0), 1): -1, ((0, 0), 2): -1, ((0, 0), 3): 1}) in rels
    swap = ser(2, 3, 6, {((0, 2), 1): -1, ((2, 0), 2): 1})
    assert swap in rels
    for r in rels:
        assert relation_defect(r, gens).is_zero


def _completion_counts(monkeypatch, order, gens):
    """relations_of_generators on gens, with the completions it makes
    counted by the identities of the input series."""
    from formaldiv import division, syzygies
    counts = {}
    complete = division.complete_to_standard_basis

    def counted(order, generators, **kwargs):
        key = tuple(map(id, generators))
        counts[key] = counts.get(key, 0) + 1
        return complete(order, generators, **kwargs)

    monkeypatch.setattr(division, "complete_to_standard_basis", counted)
    monkeypatch.setattr(syzygies, "complete_to_standard_basis", counted)
    return relations_of_generators(order, gens), counts


@pytest.mark.parametrize("source", ["worked_example", "family_relations.json"])
def test_presentation_completes_each_list_once(monkeypatch, source):
    if source == "worked_example":
        order = unit_order(2)
        gens = [
            ser(2, 1, 6, {(2, 0): 1}),
            ser(2, 1, 6, {(0, 2): 1}),
            ser(2, 1, 6, {(2, 0): 1, (0, 2): 1}),
        ]
    else:
        pm = io.parse_module_file(
            str(Path(__file__).parent / "fixtures" / source)).param_module()
        order, gens = pm.order, pm.localized()[1]
    pres, counts = _completion_counts(monkeypatch, order, gens)
    assert len(pres.subset) < len(gens)
    assert counts[tuple(map(id, gens))] == 1
    assert counts[tuple(id(gens[i]) for i in pres.subset)] == 1
    if source == "worked_example":
        # the full list and the accepted candidate (x^2, y^2); both greedy
        # passes then keep as many series as the diagram's two quadratic
        # vertices, so no candidate that must be rejected is completed
        assert sum(counts.values()) == 2


def test_presentation_already_minimal():
    order = unit_order(2)
    gens = [ser(2, 1, 6, {(2, 0): 1}), ser(2, 1, 6, {(0, 2): 1})]
    pres = relations_of_generators(order, gens)
    assert pres.m == 2
    assert len(pres.relations) == 1
    # the unique relation, expressed against the generators in input order
    assert pres.relations[0] == ser(2, 2, 6, {((0, 2), 1): -1, ((2, 0), 2): 1})
    assert relation_defect(pres.relations[0], gens).is_zero


def test_presentation_duplicate_generator():
    order = unit_order(1)
    gens = [ser(1, 1, 4, {(1,): 1}), ser(1, 1, 4, {(1,): 1})]
    pres = relations_of_generators(order, gens)
    assert pres.m == 1
    assert pres.relations == (
        ser(1, 2, 4, {((0,), 1): -1, ((0,), 2): 1}),
    )


def test_presentation_basis_larger_than_minimal_subset():
    # x^2 and x*y + y^3 need a third basis element (a y^5 representative),
    # so the dropped-element matrix has a genuine column
    order = unit_order(2)
    gens = [ser(2, 1, 8, {(2, 0): 1}), ser(2, 1, 8, {(1, 1): 1, (0, 3): 1})]
    pres = relations_of_generators(order, gens)
    assert len(pres.basis.elements) == 3 and pres.m == 2
    assert len(pres.xi) == 2 and len(pres.xi[0]) == 1
    assert pres.relations == (
        ser(2, 2, 8, {((1, 1), 1): 1, ((0, 3), 1): 1, ((2, 0), 2): -1}),
    )
    for r in pres.relations:
        assert relation_defect(r, gens).is_zero
    # the lone relation spans the oracle kernel
    bound = oracle.vertex_relation_bound(8, pres.basis.diagram)
    for vec in oracle.relations_oracle(gens, bound):
        h = TruncatedSeries(
            2, 2, 8, QQ,
            {ModExponent(beta, i + 1): c for (beta, i), c in vec.items()},
        )
        assert oracle.spanned_modulo_inert(gens, list(pres.relations), h)


def test_presentation_two_component_module():
    # relations of vector generators: (x e1), (y e1 + x e2), and their sum
    order = unit_order(2)
    g1 = ser(2, 2, 5, {((1, 0), 1): 1})
    g2 = ser(2, 2, 5, {((0, 1), 1): 1, ((1, 0), 2): 1})
    g3 = g1 + g2
    pres = relations_of_generators(order, [g1, g2, g3])
    assert pres.m == 2
    for r in pres.relations:
        assert relation_defect(r, [g1, g2, g3]).is_zero
    bound = oracle.vertex_relation_bound(5, pres.basis.diagram)
    for vec in oracle.relations_oracle([g1, g2, g3], bound):
        h = TruncatedSeries(
            2, 3, 5, QQ,
            {ModExponent(beta, i + 1): c for (beta, i), c in vec.items()},
        )
        assert oracle.spanned_modulo_inert([g1, g2, g3], list(pres.relations), h)


def _assert_adjugate_identity(u, det, adj):
    """U * adj(U) == adj(U) * U == det(U) * I."""
    size = len(u)
    zero = TruncatedSeries.zero(det.n, 1, det.trunc, det.ring)
    for i in range(size):
        for j in range(size):
            expected = det if i == j else zero
            left, right = zero, zero
            for k in range(size):
                left = left + u[i][k].mul_series(adj[k][j])
                right = right + adj[i][k].mul_series(u[k][j])
            assert left == expected
            assert right == expected


def test_presentation_adjugate_identity():
    rng = random.Random(109)
    order = unit_order(2)
    cases = 0
    while cases < 8:
        gens = [random_series(rng, 2, 1, 5, max_terms=3) for _ in range(rng.randint(2, 3))]
        # force redundancy so m < q
        c = random_series(rng, 2, 1, 5, max_terms=2, nonzero=False)
        extra = gens[0] + c.mul_series(gens[-1])
        if extra.is_zero:
            continue
        gens.append(extra)
        pres = relations_of_generators(order, gens)
        cases += 1
        _assert_adjugate_identity(pres.u_matrix, pres.det_u, pres.u_adjugate)
        for r in pres.relations:
            assert relation_defect(r, gens).is_zero


def _leibniz_det(m):
    """Permutation-sum determinant of a square matrix of one-component series."""
    size = len(m)
    acc = None
    for perm in itertools.permutations(range(size)):
        term = m[0][perm[0]]
        for i in range(1, size):
            term = term.mul_series(m[i][perm[i]])
        inversions = sum(
            perm[a] > perm[b] for a in range(size) for b in range(a + 1, size)
        )
        if inversions % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _assert_determinant(pres):
    assert pres.det_u == _leibniz_det(pres.u_matrix)
    zero = ModExponent((0,) * pres.det_u.n, 1)
    assert pres.det_u_constant == pres.det_u.coefficient(zero)


def test_presentation_determinant_matches_leibniz_rational():
    # no constant or linear terms, so initial exponents collide and the
    # change-of-generators matrix gets nonconstant entries
    rng = random.Random(131)
    order = unit_order(2)
    alphas = [a for a in iter_alphas(2, 4) if sum(a) >= 2]
    nonconstant = 0
    for _ in range(40):
        gens = [
            ser(2, 1, 5, {a: rng.choice((-2, -1, 1, 2)) for a in rng.sample(alphas, 3)})
            for _ in range(rng.randint(2, 4))
        ]
        pres = relations_of_generators(order, gens)
        _assert_determinant(pres)
        if pres.m >= 3 and len(pres.det_u.terms) >= 2:
            nonconstant += 1
    assert nonconstant


def test_presentation_determinant_matches_leibniz_localized():
    path = Path(__file__).parent / "fixtures" / "family_relations.json"
    pm = io.parse_module_file(str(path)).param_module()
    ring, gens = pm.localized()
    pres = relations_of_generators(pm.order, gens)
    assert pres.m >= 2
    _assert_determinant(pres)
    assert pres.det_u_certificate == pres.det_u_constant.num


def _rational_coeff(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def _localized_coeff_maker(pres=None):
    """Coefficients over the localized ring of a one-parameter presentation
    (family_relations.json's by default), with the denominators it
    registered."""
    if pres is None:
        path = Path(__file__).parent / "fixtures" / "family_relations.json"
        pm = io.parse_module_file(str(path)).param_module()
        pres = relations_of_generators(pm.order, pm.localized()[1])
    ring = pres.generators[0].ring
    dset = ring.dset
    assert dset.generators
    (name,) = ring.names
    x = ring.base.variable(name)

    def coeff(rng):
        num = x * ring.base.from_int(rng.choice((0, 0, 1, -1))) + ring.base.from_int(
            rng.choice((-2, -1, 1, 2))
        )
        powers = {i: int(rng.random() < 0.3) for i in range(len(dset.generators))}
        return LocalizedFraction(num, powers, dset)

    return ring, coeff


def _random_series_matrix(rng, size, ring, coeff):
    """size x size one-component series in 2 variables at D = 3, each entry
    zero or up to two terms of degree <= 1, so products of five entries
    still survive the truncation."""
    alphas = list(iter_alphas(2, 1))

    def entry():
        support = rng.sample(alphas, rng.choice((0, 1, 1, 2)))
        return TruncatedSeries(2, 1, 3, ring, {ModExponent(a, 1): coeff(rng) for a in support})

    return [[entry() for _ in range(size)] for _ in range(size)]


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("ring_name", ["QQ", "localized"])
def test_det_adj_matches_leibniz_and_adjugate_identity(ring_name, size):
    if ring_name == "QQ":
        ring, coeff = QQ, _rational_coeff
    else:
        ring, coeff = _localized_coeff_maker()
    one = TruncatedSeries.monomial(ModExponent((0, 0), 1), ring.one, 2, 1, 3, ring)
    rng = random.Random(1000 + size)
    for _ in range(2):
        u = _random_series_matrix(rng, size, ring, coeff)
        det, adj = _det_adj(u, one)
        assert det == _leibniz_det(u)
        _assert_adjugate_identity(u, det, adj)


# The sums that `_dot` replaced in the determinant and adjugate, the
# provenance replay and the division residual, as they were written out by
# hand.  A localized fraction prints by the grouping of the sum that built
# it, so the `_dot` versions must print the same, not only be equal.

def _handwritten_det_adj(m, one):
    memo = {}

    def det(rows, cols):
        if len(rows) <= 1:
            return m[rows[0]][cols[0]] if rows else one
        key = (rows, cols)
        if key not in memo:
            acc = None
            for k, c in enumerate(cols):
                term = m[rows[0]][c].mul_series(det(rows[1:], cols[:k] + cols[k + 1:]))
                if k % 2:
                    term = -term
                acc = term if acc is None else acc + term
            memo[key] = acc
        return memo[key]

    full = tuple(range(len(m)))
    adj = [[None] * len(m) for _ in full]
    for i in full:
        for j in full:
            cof = det(full[:i] + full[i + 1:], full[:j] + full[j + 1:])
            adj[j][i] = -cof if (i + j) % 2 else cof
    return det(full, full), adj


def _handwritten_replay(first, q, steps, index):
    n, trunc, ring = first.n, first.trunc, first.ring
    zero = TruncatedSeries.zero(n, 1, trunc, ring)
    unit = TruncatedSeries.monomial(ModExponent((0,) * n, 1), ring.one, n, 1, trunc, ring)
    prov = [tuple(unit if j == k else zero for j in range(q)) for k in range(q)]
    for gamma, i, quotients in steps:
        pvec = [p_s.mul_monomial(ring.one, gamma) for p_s in prov[i]]
        for qj, row in zip(quotients, prov):
            if qj.is_zero:
                continue
            pvec = [acc - qj.mul_series(term) for acc, term in zip(pvec, row)]
        prov.append(tuple(pvec))
    return tuple(prov[k] for k in index)


def _handwritten_residual(result, divisors, dividend):
    acc = dividend - result.remainder
    for qi, d in zip(result.quotients, divisors):
        acc = acc - qi.mul_series(d)
    return acc


def _printed(rows):
    """A matrix of series as {exponent: printed coefficient} dicts."""
    return [[{e: str(c) for e, c in s.terms.items()} for s in row] for row in rows]


def _constant_series(ring, *terms, den=False):
    """A series in 2 variables at D = 3 from (alpha, int) terms, each
    coefficient divided by the ring's first registered denominator if den
    (by 3 over QQ)."""
    dset = getattr(ring, "dset", None)

    def value(v):
        if dset is None:
            return Fraction(v, 3 if den else 1)
        return LocalizedFraction(ring.base.from_int(v), {0: int(den)}, dset)

    return TruncatedSeries(2, 1, 3, ring, {ModExponent(a, 1): value(v) for a, v in terms})


def _cancelling_matrix(ring):
    """Rows (p, q, c), (p, q, 0), (s, u, t), whose first-row expansion
    starts with p*(q*t) - q*(p*t) = 0: over a localized ring, a sum that
    adds c*(p*u - q*s) before that pair cancels keeps the denominators of
    p*q*t in the determinant's printed coefficients."""
    p = _constant_series(ring, ((0, 0), 1), ((1, 0), 1), den=True)
    q = _constant_series(ring, ((0, 1), 1), den=True)
    t = _constant_series(ring, ((0, 0), 1), den=True)
    c = _constant_series(ring, ((0, 0), 1), ((1, 0), 1))
    s, u = _constant_series(ring, ((0, 0), 1)), _constant_series(ring, ((0, 1), 1))
    return [[p, q, c], [p, q, _constant_series(ring)], [s, u, t]]


def _cancelling_record(ring):
    """A provenance record and a division result over ring whose sums are
    1 - a - c with a = -c = 1/g, g the first registered denominator (3 over
    QQ): added left to right, 1 - a keeps g in the denominator, so the sum
    prints as g/g; grouped as 1 - (a + c) it would print as 1."""
    one, zero = _constant_series(ring, ((0, 0), 1)), _constant_series(ring)
    a = _constant_series(ring, ((0, 0), 1), den=True)
    c = _constant_series(ring, ((0, 0), -1), den=True)
    # work[2] = work[0] copied; work[3] = work[0] - a*work[0] - c*work[2]
    steps = (((0, 0), 0, (zero, zero)), ((0, 0), 0, (a, zero, c)))
    return (one, 2, steps, (3,)), (DivisionResult((a, c), zero, None), (one, one), one)


def _rational_presentation(rng):
    """A QQ presentation of three random generators in 2 variables whose
    completion appends remainders and keeps at least two generators."""
    while True:
        gens = [random_series(rng, 2, 1, 5, max_terms=4) for _ in range(3)]
        pres = relations_of_generators(unit_order(2), gens)
        if pres.basis._record[1] and pres.m >= 2:
            return pres


@pytest.mark.parametrize("source", ["QQ", "family_adjugate.json", "family_relations.json"])
def test_dot_sums_print_as_the_handwritten_sums(source):
    rng = random.Random(131)
    if source == "QQ":
        pres, coeff = _rational_presentation(rng), _rational_coeff
    else:
        path = Path(__file__).parent / "fixtures" / source
        pm = io.parse_module_file(str(path)).param_module()
        pres = relations_of_generators(pm.order, pm.localized()[1])
        coeff = _localized_coeff_maker(pres)[1]
    order, gens, basis = pres.basis.order, pres.generators, pres.basis
    ring = gens[0].ring

    def one(s):
        return TruncatedSeries.monomial(
            ModExponent((0,) * s.n, 1), ring.one, s.n, 1, s.trunc, ring)

    matrices = [pres.u_matrix, _cancelling_matrix(ring)] + [
        _random_series_matrix(rng, size, ring, coeff) for size in (2, 3, 4) for _ in range(3)]
    for u in matrices:
        det, adj = _det_adj(u, one(u[0][0]))
        ref_det, ref_adj = _handwritten_det_adj(u, one(u[0][0]))
        assert _printed([[det], *adj]) == _printed([[ref_det], *ref_adj])

    # the presentation's basis and completions of random lists over its ring
    alphas = [a for a in iter_alphas(2, 3) if sum(a)]
    bases = [basis] + [complete_to_standard_basis(unit_order(2), [
        TruncatedSeries(2, 1, 4, ring, {ModExponent(a, 1): coeff(rng)
                                        for a in rng.sample(alphas, 3)})
        for _ in range(3)]) for _ in range(4)]
    assert any(b._record[1] for b in bases), "no completion appended a remainder"
    for b in bases:
        replayed = _handwritten_replay(b.elements[0], *b._record)
        assert _printed(b.provenance) == _printed(replayed)

    record, (result, divisors, dividend) = _cancelling_record(ring)
    assert _printed(_replay_completion(*record)) == _printed(_handwritten_replay(*record))

    cases = [(result, divisors, dividend)] + [
        (hironaka_divide(order, basis.elements, f), basis.elements, g)
        for f in gens for g in gens]
    for res, divisors, dividend in cases:
        assert _printed([[residual(res, divisors, dividend)]]) == _printed(
            [[_handwritten_residual(res, divisors, dividend)]])


def test_presentation_m8_monomial_tail():
    # eight distinct quadratic leaders in 4 variables with integer tails of
    # degree 3..4; this presentation takes 555,136 series products when the
    # cofactor expansion recomputes its minors, 6,448 when it memoizes them
    rng = random.Random(8)
    quadratic = [a for a in iter_alphas(4, 2) if sum(a) == 2]
    tail = [a for a in iter_alphas(4, 4) if sum(a) >= 3]
    gens = [
        ser(4, 1, 4, {lead: 1, **{a: rng.choice((-3, -2, -1, 1, 2, 3))
                                  for a in rng.sample(tail, 3)}})
        for lead in rng.sample(quadratic, 8)
    ]
    t0 = time.monotonic()
    pres = relations_of_generators(unit_order(4), gens)
    elapsed = time.monotonic() - t0
    assert pres.m == 8
    assert elapsed < 2.0, f"m = 8 presentation took {elapsed:.2f} s"
    for r in pres.relations:
        assert relation_defect(r, gens).is_zero
    _assert_adjugate_identity(pres.u_matrix, pres.det_u, pres.u_adjugate)


def test_presentation_spans_oracle_relations():
    rng = random.Random(113)
    order = unit_order(2)
    done = 0
    while done < 6:
        gens = [random_series(rng, 2, 1, 5, max_terms=3) for _ in range(2)]
        if (gens[0] + gens[1]).is_zero:
            continue
        gens.append(gens[0] + gens[1])
        done += 1
        pres = relations_of_generators(order, gens)
        span = [active_part(r, gens) for r in pres.relations]
        span = [r for r in span if not r.is_zero]
        basis = complete_to_standard_basis(order, span)
        bound = oracle.vertex_relation_bound(5, pres.basis.diagram)
        for vec in oracle.relations_oracle(gens, bound):
            h = TruncatedSeries(
                2, len(gens), 5, QQ,
                {ModExponent(beta, i + 1): c for (beta, i), c in vec.items()},
            )
            res = hironaka_divide(order, basis.elements, active_part(h, gens))
            if active_part(res.remainder, gens).is_zero:
                continue
            assert oracle.spanned_modulo_inert(gens, list(pres.relations), h)


# -- matrix products -------------------------------------------------------------------

@st.composite
def rational_series(draw, n, trunc):
    """A one-component QQ series with mixed denominators; terms past trunc
    are drawn and dropped, and the series may be zero."""
    terms = draw(st.dictionaries(
        st.lists(st.integers(0, trunc + 1), min_size=n, max_size=n).map(
            lambda alpha: ModExponent(tuple(alpha), 1)),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        max_size=6,
    ))
    return TruncatedSeries(n, 1, trunc, QQ, terms)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rational_matmul_equals_dot_products(data):
    n, trunc = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 4))
    rows, cols = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    with_start = data.draw(st.booleans())
    inner = data.draw(st.integers(0 if with_start else 1, 3))

    def matrix(height, width):
        return [[data.draw(rational_series(n, trunc)) for _ in range(width)]
                for _ in range(height)]
    a, b = matrix(rows, inner), matrix(inner, cols)
    start = matrix(rows, cols) if with_start else None
    expected = [[_dot(zip(a[i], (row[j] for row in b)), start[i][j] if start else None)
                 for j in range(cols)] for i in range(rows)]
    assert _matmul(a, b, start) == expected


def test_rational_matmul_truncates_where_an_index_digit_would_carry():
    # x^2 * x has degree 3 > D = 2, and its x-digit 3 = D + 1 carries into
    # the y-digit: it must be dropped, not read back as y
    x2, x1 = ser(2, 1, 2, {(2, 0): 1}), ser(2, 1, 2, {(1, 0): 1})
    assert _matmul([[x2]], [[x1]]) == [[ser(2, 1, 2, {})]]
    assert _matmul([[x1]], [[x1]]) == [[x2]]


def _small_presentations(ring_name):
    """(order, generators) with a single generator (no basis relations),
    two minimal ones (r = m: no zeta, nothing dropped) and those two plus
    a redundant third (Theta only)."""
    if ring_name == "QQ":
        order = unit_order(2)
        gens = [ser(2, 1, 6, {(2, 0): 1}), ser(2, 1, 6, {(0, 2): Fraction(2, 3)}),
                ser(2, 1, 6, {(2, 0): 1, (0, 2): 1})]
    else:
        path = Path(__file__).parent / "fixtures" / "family_relations.json"
        pm = io.parse_module_file(str(path)).param_module()
        order, gens = pm.order, list(pm.localized()[1])
    return {"single": (order, gens[1:2]), "no_zeta": (order, gens[:2]),
            "theta_only": (order, gens)}


@pytest.mark.parametrize("case", ["single", "no_zeta", "theta_only"])
@pytest.mark.parametrize("ring_name", ["QQ", "localized"])
def test_presentation_with_empty_products(ring_name, case):
    order, gens = _small_presentations(ring_name)[case]
    pres = relations_of_generators(order, gens)
    q, m, r = len(gens), pres.m, len(pres.basis.elements)
    assert (q, m, r) == {"single": (1, 1, 1), "no_zeta": (2, 2, 2),
                         "theta_only": (3, 2, 2)}[case]
    assert [len(row) for row in pres.xi] == [0] * m
    assert [len(row) for row in pres.theta] == [q - m] * m
    assert len(pres.relations) == {"single": 0, "no_zeta": 1, "theta_only": 2}[case]
    for rel in pres.relations:
        assert relation_defect(rel, gens).is_zero
    if ring_name == "QQ":
        with unittest.mock.patch.object(syzygies, "QQ", object()):  # no ring equals it
            assert relations_of_generators(order, gens).relations == pres.relations


def _presentation_or_error(order, gens):
    try:
        return relations_of_generators(order, gens)
    except Exception as exc:  # both paths must fail alike
        return type(exc)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_rational_presentation_equals_the_value_path(seed):
    # heads x^2 and x*y + y^3, as in test_presentation_basis_larger_than_minimal_subset,
    # so the basis has a dropped element and Xi a column; random tails, and
    # sometimes a redundant third generator, so Theta has one too
    rng = random.Random(seed)
    trunc = rng.randint(5, 7)

    def with_tail(terms):
        for _ in range(rng.randint(0, 3)):
            d = rng.randint(3, trunc)
            i = rng.randint(0, d)
            terms[(i, d - i)] = Fraction(rng.choice([-5, -3, -1, 1, 2, 4]), rng.randint(1, 7))
        return ser(2, 1, trunc, terms)
    g1 = with_tail({(2, 0): Fraction(rng.choice([-2, 1, 3]), rng.randint(1, 5))})
    g2 = with_tail({(1, 1): Fraction(rng.randint(1, 4), rng.randint(1, 5)), (0, 3): Fraction(-2, 3)})
    gens = [g1, g2]
    if rng.random() < 0.5:
        gens.append(g1.mul_series(random_series(rng, 2, 1, trunc, 3)) + g2)
    rng.shuffle(gens)
    order = unit_order(2)
    packed = _presentation_or_error(order, gens)
    with unittest.mock.patch.object(syzygies, "QQ", object()):  # no ring equals it
        plain = _presentation_or_error(order, gens)
    if isinstance(packed, type) or isinstance(plain, type):
        assert packed == plain
        return
    for field in ("relations", "xi", "theta", "u_matrix", "u_adjugate", "det_u"):
        assert getattr(packed, field) == getattr(plain, field), field

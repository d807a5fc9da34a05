import random

import pytest
from fractions import Fraction

import formaldiv
from formaldiv import (
    DeltaPartition,
    ModExponent,
    Ordering,
    StandardOrder,
    SyzygyOrder,
    compare_diagrams,
    diagram_from_exponents,
)
from formaldiv.errors import AmbientMismatchError, PreconditionError
from formaldiv.exponents import iter_alphas

from helpers import unit_order


def E(alpha, comp=1):
    return ModExponent(tuple(alpha), comp)


# -- compare ----------------------------------------------------------------

def test_compare_lex_tiebreak():
    order = unit_order(2)
    assert order.compare(E((0, 1)), E((1, 0))) == Ordering.LESS


def test_compare_reflexive():
    order = unit_order(2)
    e = E((3, 1), 1)
    assert order.compare(e, e) == Ordering.EQUAL


def test_compare_degree_beats_component():
    order = unit_order(2)
    assert order.compare(E((1, 0), 2), E((0, 2), 1)) == Ordering.LESS


def test_compare_weighted_form():
    order = StandardOrder((Fraction(1), Fraction(2)))
    # L((2,0)) = 2 < L((0,2)) = 4
    assert order.compare(E((2, 0)), E((0, 2))) == Ordering.LESS


def test_compare_arity_mismatch():
    order = unit_order(2)
    with pytest.raises(AmbientMismatchError):
        order.compare(E((1,)), E((0, 1)))


def test_additive_compatibility_both_variants():
    rng = random.Random(11)
    order = unit_order(3)
    syz = SyzygyOrder((1, 1, 1), [E((1, 0, 2)), E((0, 1, 0))])
    for _ in range(200):
        alpha = tuple(rng.randint(0, 4) for _ in range(3))
        beta = tuple(rng.randint(0, 3) for _ in range(3))
        if sum(beta) == 0:
            beta = (1, 0, 0)
        e = E(alpha, rng.randint(1, 2))
        assert order.compare(e.shift(beta), e) == Ordering.GREATER
        es = E(alpha, rng.randint(1, 2))
        assert syz.compare(es.shift(beta), es) == Ordering.GREATER


# -- syzygy order -------------------------------------------------------------

def test_syzygy_order_slot_tiebreak():
    order = SyzygyOrder((1, 1), [E((2, 0)), E((0, 2))])
    # keys (2,(2,0),-1) vs (2,(0,2),-2): decided by the middle entry
    assert order.compare(E((0, 0), 1), E((0, 0), 2)) == Ordering.GREATER


def test_syzygy_order_reflexive():
    order = SyzygyOrder((1, 1), [E((1, 0))])
    e = E((2, 1), 1)
    assert order.compare(e, e) == Ordering.EQUAL


def test_syzygy_order_l_part_decides():
    order = SyzygyOrder((1, 1), [E((2, 0)), E((0, 2))])
    assert order.compare(E((1, 0), 1), E((0, 0), 1)) == Ordering.GREATER



def test_syzygy_order_rejects_a_slot_out_of_range():
    order = SyzygyOrder((1, 1), [E((2, 0)), E((0, 2))])
    with pytest.raises(AmbientMismatchError):
        order.compare(E((0, 0), 3), E((0, 0), 1))


def test_orders_compare_equal_by_type_and_fields_and_keep_their_reprs():
    weights = (Fraction(1, 2), 1)
    slots = [E((2, 0)), E((0, 2), 2)]
    std, syz = StandardOrder(weights), SyzygyOrder(weights, slots)
    assert std != syz and syz != std
    assert std == StandardOrder((Fraction(1, 2), Fraction(1)))
    assert hash(std) == hash(StandardOrder([Fraction(1, 2), 1]))
    assert syz == SyzygyOrder(weights, tuple(slots))
    assert hash(syz) == hash(SyzygyOrder(weights, slots))
    assert syz != SyzygyOrder(weights, slots[:1]) and std != StandardOrder.unit(2)
    assert repr(std) == "StandardOrder(weights=(Fraction(1, 2), Fraction(1, 1)))"
    assert repr(syz) == (
        "SyzygyOrder(weights=(Fraction(1, 2), Fraction(1, 1)), slots=(ModExponent("
        "alpha=(2, 0), comp=1), ModExponent(alpha=(0, 2), comp=2)))")

# -- diagrams ----------------------------------------------------------------

def test_diagram_absorbs_multiples():
    order = unit_order(2)
    d = diagram_from_exponents(
        [E((2, 0)), E((1, 3)), E((3, 1))], n=2, p=1, order=order
    )
    assert {v.alpha for v in d.vertices} == {(2, 0), (1, 3)}
    # brute-force check of the represented set on a box
    for alpha in iter_alphas(2, 6):
        expected = any(
            all(a >= b for a, b in zip(alpha, g))
            for g in [(2, 0), (1, 3), (3, 1)]
        )
        assert d.contains(E(alpha)) == expected


def test_diagram_empty():
    d = diagram_from_exponents([], n=2, p=1, order=unit_order(2))
    assert not d.vertices and not d.contains(E((0, 0)))


def test_diagram_origin_covers_component():
    d = diagram_from_exponents([E((0, 0))], n=2, p=1, order=unit_order(2))
    assert d.vertices == (E((0, 0)),)
    assert d.contains(E((4, 2)))


def test_diagram_idempotent():
    rng = random.Random(5)
    order = unit_order(2)
    for _ in range(50):
        exps = [
            E((rng.randint(0, 4), rng.randint(0, 4)), rng.randint(1, 2))
            for _ in range(rng.randint(1, 6))
        ]
        d = diagram_from_exponents(exps, n=2, p=2, order=order)
        again = diagram_from_exponents(d.vertices, n=2, p=2, order=order)
        assert again == d


def test_diagram_complement_closed_under_decrement():
    rng = random.Random(7)
    order = unit_order(2)
    for _ in range(50):
        exps = [
            E((rng.randint(0, 3), rng.randint(0, 3))) for _ in range(rng.randint(1, 4))
        ]
        d = diagram_from_exponents(exps, n=2, p=1, order=order)
        for alpha in iter_alphas(2, 6):
            e = E(alpha)
            if d.contains(e):
                continue
            for k in range(2):
                if alpha[k] > 0:
                    down = list(alpha)
                    down[k] -= 1
                    assert not d.contains(E(tuple(down)))


# -- diagram comparison --------------------------------------------------------

def test_compare_diagrams_first_vertex_decides():
    order = unit_order(2)
    n1 = diagram_from_exponents([E((0, 1)), E((1, 0))], n=2, p=1, order=order)
    n2 = diagram_from_exponents([E((2, 0))], n=2, p=1, order=order)
    assert compare_diagrams(n1, n2) == Ordering.LESS


def test_compare_diagrams_equal():
    order = unit_order(2)
    n1 = diagram_from_exponents([E((1, 1))], n=2, p=1, order=order)
    n2 = diagram_from_exponents([E((1, 1)), E((2, 2))], n=2, p=1, order=order)
    assert compare_diagrams(n1, n2) == Ordering.EQUAL


def test_compare_diagrams_superset_never_greater():
    rng = random.Random(13)
    order = unit_order(2)
    for _ in range(60):
        base = [
            E((rng.randint(0, 4), rng.randint(0, 4))) for _ in range(rng.randint(1, 4))
        ]
        extra = base + [
            E((rng.randint(0, 4), rng.randint(0, 4))) for _ in range(rng.randint(0, 3))
        ]
        n_small = diagram_from_exponents(base, n=2, p=1, order=order)
        n_big = diagram_from_exponents(extra, n=2, p=1, order=order)
        assert compare_diagrams(n_big, n_small) != Ordering.GREATER


def test_compare_diagrams_total_order_laws():
    rng = random.Random(17)
    order = unit_order(2)
    diagrams = [
        diagram_from_exponents(
            [E((rng.randint(0, 3), rng.randint(0, 3))) for _ in range(rng.randint(0, 4))],
            n=2, p=1, order=order,
        )
        for _ in range(12)
    ]
    for a in diagrams:
        for b in diagrams:
            ab = compare_diagrams(a, b)
            ba = compare_diagrams(b, a)
            assert ab == -ba
            assert (ab == Ordering.EQUAL) == (a == b)
            for c in diagrams:
                if ab != Ordering.GREATER and compare_diagrams(b, c) != Ordering.GREATER:
                    assert compare_diagrams(a, c) != Ordering.GREATER


def test_compare_diagrams_requires_matching_order():
    d1 = diagram_from_exponents([E((1, 0))], n=2, p=1, order=unit_order(2))
    other = StandardOrder((Fraction(1), Fraction(2)))
    d2 = diagram_from_exponents([E((1, 0))], n=2, p=1, order=other)
    with pytest.raises(AmbientMismatchError):
        compare_diagrams(d1, d2)



def _pairwise_compare(n1, n2):
    """compare_diagrams as one order.compare per vertex pair, the first
    unequal pair deciding, and a strict prefix comparing greater."""
    for v1, v2 in zip(n1.vertices, n2.vertices):
        c = n1.order.compare(v1, v2)
        if c != Ordering.EQUAL:
            return c
    if len(n1.vertices) > len(n2.vertices):
        return Ordering.LESS
    if len(n1.vertices) < len(n2.vertices):
        return Ordering.GREATER
    return Ordering.EQUAL


def test_compare_diagrams_matches_the_pairwise_reference_under_both_orders():
    rng = random.Random(29)
    weights = (Fraction(1, 3), Fraction(3))
    orders = [unit_order(2), StandardOrder(weights),
              SyzygyOrder(weights, [E((1, 0)), E((0, 2)), E((1, 1), 2)])]
    for order in orders:
        diagrams = []
        for _ in range(15):
            d = diagram_from_exponents(
                [E((rng.randint(0, 3), rng.randint(0, 3)), rng.randint(1, 2))
                 for _ in range(rng.randint(0, 4))],
                n=2, p=3, order=order,
            )
            # every strict prefix of its sorted vertex list, too
            diagrams += [diagram_from_exponents(d.vertices[:k], n=2, p=3, order=order)
                         for k in range(len(d.vertices) + 1)]
        for a in diagrams:
            for b in diagrams:
                assert compare_diagrams(a, b) == _pairwise_compare(a, b)

# -- delta partition -----------------------------------------------------------

def test_delta_partition_two_cells():
    part = DeltaPartition([E((2, 0)), E((0, 2))])
    # box of cell 2 loses the (2,0)-translates; remainder is the 2x2 corner
    for alpha in iter_alphas(2, 6):
        cell = part.cell_of(E(alpha))
        if alpha[0] >= 2:
            assert cell == 0
        elif alpha[1] >= 2:
            assert cell == 1
        else:
            assert cell is None
    assert part.box_contains(0, (5, 5))
    assert part.box_contains(1, (1, 3)) and not part.box_contains(1, (2, 0))
    with pytest.raises(PreconditionError):  # public, so it validates; shift does not
        part.box_contains(0, (-3, 0))


def test_delta_partition_unit_divisor():
    part = DeltaPartition([E((0, 0))])
    for alpha in iter_alphas(2, 5):
        assert part.cell_of(E(alpha)) == 0


def test_delta_partition_duplicate_vertex_empty_cell():
    part = DeltaPartition([E((1, 1)), E((1, 1))])
    for alpha in iter_alphas(2, 5):
        assert part.cell_of(E(alpha, 1)) != 1


def test_delta_partition_cells_cover_exactly_once():
    rng = random.Random(23)
    for _ in range(30):
        exps = [
            E((rng.randint(0, 3), rng.randint(0, 3)), rng.randint(1, 2))
            for _ in range(rng.randint(1, 5))
        ]
        part = DeltaPartition(exps)
        for alpha in iter_alphas(2, 5):
            for comp in (1, 2):
                e = E(alpha, comp)
                owners = [
                    i for i in range(part.cell_count)
                    if part.exps[i].divides(e)
                    and all(not part.exps[k].divides(e) for k in range(i))
                ]
                cell = part.cell_of(e)
                if owners:
                    assert cell == owners[0]
                else:
                    assert cell is None


def test_empty_delta_partition_leaves_everything_to_the_remainder():
    part = DeltaPartition([])
    assert part.cell_count == 0
    assert all(part.cell_of(ModExponent(a, k)) is None
               for a in iter_alphas(2, 4) for k in (1, 2))


def test_iter_alphas_counts_and_order():
    from math import comb

    for n in (1, 2, 3):
        for d in (0, 2, 4):
            alphas = list(iter_alphas(n, d))
            assert len(alphas) == comb(n + d, d)
            assert len(set(alphas)) == len(alphas)
            degrees = [sum(a) for a in alphas]
            assert degrees == sorted(degrees)


# -- records ----------------------------------------------------------------------

def test_mod_exponent_validates_and_behaves_as_a_value():
    with pytest.raises(PreconditionError):
        ModExponent((1, -1), 1)
    with pytest.raises(PreconditionError):
        ModExponent((1, 2), 0)
    e = ModExponent((1, 2))
    assert e.alpha == (1, 2) and e.comp == 1
    assert e == ModExponent(alpha=(1, 2), comp=1) != ModExponent((1, 2), 2)
    assert hash(e) == hash(ModExponent((1, 2), 1)) == hash(((1, 2), 1))
    with pytest.raises(AttributeError):
        e.comp = 2
    assert repr(e) == "ModExponent(alpha=(1, 2), comp=1)"


def test_order_equality_and_hash_ignore_int_weights():
    f = StandardOrder((Fraction(1, 2), 1))
    g = StandardOrder((Fraction(1, 2), Fraction(1)))
    assert f.int_weights == (1, 2)
    g.int_weights = (7, 7)
    assert f == g and hash(f) == hash(g)
    assert f != StandardOrder.unit(2)


def test_an_order_is_its_weights():
    # keys sort exponents as lex(L(alpha), j, alpha) with L = alpha_1 + 2 alpha_2
    order = StandardOrder((1, 2))
    exps = [E(alpha, comp) for alpha in iter_alphas(2, 4) for comp in (1, 2)]
    by_l = sorted(exps, key=lambda e: (e.alpha[0] + 2 * e.alpha[1], e.comp, e.alpha))
    assert sorted(exps, key=order.key) == by_l
    assert StandardOrder.unit(2) == StandardOrder([1, 1])
    assert hash(StandardOrder.unit(2)) == hash(StandardOrder([1, 1]))
    assert SyzygyOrder((1, 2), [E((1, 0)), E((0, 1))]).weights == (Fraction(1), Fraction(2))
    assert "PositiveLinearForm" not in formaldiv.__all__

import random
from pathlib import Path

import pytest

from formaldiv import (
    ModExponent,
    Ordering,
    TruncatedSeries,
    canonicalize,
    complete_to_standard_basis,
    hironaka_divide,
    is_member,
    minimal_generating_subset,
)
from formaldiv import io
from formaldiv.division import residual
from formaldiv.errors import AmbientMismatchError, PreconditionError, ZeroDivisorError
from formaldiv.syzygies import _greedy_subset

import oracle
from helpers import mono, random_division_instance, random_series, ser, unit_order

FIXTURES = Path(__file__).parent / "fixtures"


# -- worked division instances ---------------------------------------------------

def test_divide_two_monomials():
    order = unit_order(2)
    phi = [ser(2, 1, 6, {(2, 0): 1}), ser(2, 1, 6, {(0, 2): 1})]
    f = ser(2, 1, 6, {(3, 0): 1, (2, 2): 1})
    res = hironaka_divide(order, phi, f)
    assert res.quotients[0] == ser(2, 1, 6, {(1, 0): 1, (0, 2): 1})
    assert res.quotients[1].is_zero
    assert res.remainder.is_zero


def test_divide_by_unit_series():
    order = unit_order(2)
    one = ser(2, 1, 4, {(0, 0): 1})
    f = ser(2, 1, 4, {(1, 1): 2, (0, 0): -3})
    res = hironaka_divide(order, [one], f)
    assert res.quotients[0] == f and res.remainder.is_zero


def test_divide_geometric_series():
    order = unit_order(1)
    phi = ser(1, 1, 3, {(1,): 1, (2,): -1})
    f = ser(1, 1, 3, {(1,): 1})
    res = hironaka_divide(order, [phi], f)
    assert res.quotients[0] == ser(1, 1, 3, {(0,): 1, (1,): 1, (2,): 1})
    assert res.remainder.is_zero
    assert residual(res, [phi], f).is_zero


def test_divide_remainder_cell():
    order = unit_order(2)
    phi = [ser(2, 1, 6, {(2, 0): 1}), ser(2, 1, 6, {(0, 2): 1})]
    f = ser(2, 1, 6, {(1, 1): 1})
    res = hironaka_divide(order, phi, f)
    assert all(q.is_zero for q in res.quotients)
    assert res.remainder == f


def test_divide_rejects_zero_divisor():
    order = unit_order(1)
    with pytest.raises(ZeroDivisorError):
        hironaka_divide(order, [ser(1, 1, 3, {})], ser(1, 1, 3, {(1,): 1}))


def test_divide_zero_dividend():
    order = unit_order(1)
    res = hironaka_divide(order, [ser(1, 1, 3, {(1,): 1})], ser(1, 1, 3, {}))
    assert res.remainder.is_zero and all(q.is_zero for q in res.quotients)


# -- division contract on random instances ------------------------------------------

def test_division_contract_random():
    rng = random.Random(59)
    for _ in range(60):
        order, divisors, dividend = random_division_instance(rng)
        res = hironaka_divide(order, divisors, dividend)
        assert residual(res, divisors, dividend).is_zero
        exps = [d.initial(order).exponent for d in divisors]
        for i, q in enumerate(res.quotients):
            for e in q.support():
                assert res.partition.cell_of(exps[i].shift(e.alpha)) == i
        for e in res.remainder.support():
            assert res.partition.cell_of(e) is None
        if not dividend.is_zero:
            f0 = dividend.initial(order).exponent
            for i, q in enumerate(res.quotients):
                if not q.is_zero:
                    shifted = exps[i].shift(q.initial(order).exponent.alpha)
                    assert order.compare(shifted, f0) != Ordering.LESS
            if not res.remainder.is_zero:
                r0 = res.remainder.initial(order).exponent
                assert order.compare(r0, f0) != Ordering.LESS


def test_division_additive_and_idempotent():
    rng = random.Random(61)
    for _ in range(30):
        order, divisors, f1 = random_division_instance(rng)
        f2 = random_series(rng, f1.n, f1.p, f1.trunc, nonzero=False)
        r1 = hironaka_divide(order, divisors, f1)
        r2 = hironaka_divide(order, divisors, f2)
        r12 = hironaka_divide(order, divisors, f1 + f2)
        for a, b, c in zip(r12.quotients, r1.quotients, r2.quotients):
            assert a == b + c
        assert r12.remainder == r1.remainder + r2.remainder
        again = hironaka_divide(order, divisors, r1.remainder)
        assert all(q.is_zero for q in again.quotients)
        assert again.remainder == r1.remainder


# -- membership ------------------------------------------------------------------

def test_division_contract_under_weighted_orders():
    # the identity and support certificates hold for any admissible order,
    # including weights that make division lower total degree
    rng = random.Random(63)
    from formaldiv import PositiveLinearForm, StandardOrder
    for weights in [(1, 2), (3, 1), (2, 5)]:
        order = StandardOrder(PositiveLinearForm(weights))
        for _ in range(15):
            divisors = [random_series(rng, 2, 1, 6, max_terms=4) for _ in range(2)]
            dividend = random_series(rng, 2, 1, 6, max_terms=6, nonzero=False)
            res = hironaka_divide(order, divisors, dividend)
            assert residual(res, divisors, dividend).is_zero
            exps = [d.initial(order).exponent for d in divisors]
            for i, q in enumerate(res.quotients):
                for e in q.support():
                    assert res.partition.cell_of(exps[i].shift(e.alpha)) == i
            for e in res.remainder.support():
                assert res.partition.cell_of(e) is None


def test_membership_examples():
    order = unit_order(2)
    gens = [ser(2, 1, 6, {(2, 0): 1}), ser(2, 1, 6, {(0, 2): 1})]
    basis = complete_to_standard_basis(order, gens)
    member, witness = is_member(order, basis, ser(2, 1, 6, {(3, 2): 1}))
    assert member and residual(witness, basis.elements, ser(2, 1, 6, {(3, 2): 1})).is_zero
    member, witness = is_member(order, basis, ser(2, 1, 6, {(1, 1): 1}))
    assert not member and witness.remainder == ser(2, 1, 6, {(1, 1): 1})
    member, _ = is_member(order, basis, ser(2, 1, 6, {}))
    assert member


def test_membership_rejects_zero_series_of_another_ambient():
    order = unit_order(2)
    basis = complete_to_standard_basis(order, [ser(2, 1, 6, {(2, 0): 1})])
    with pytest.raises(AmbientMismatchError):
        is_member(order, basis, ser(2, 1, 5, {}))
    with pytest.raises(AmbientMismatchError):
        is_member(order, basis, ser(2, 2, 6, {}))


def test_membership_requires_basis():
    order = unit_order(2)
    gens = [ser(2, 1, 6, {(2, 0): 1, (0, 3): 1})]
    with pytest.raises(PreconditionError):
        is_member(order, gens, ser(2, 1, 6, {(2, 0): 1}))


def test_membership_agrees_with_linear_oracle():
    rng = random.Random(67)
    for _ in range(25):
        order, gens, g = random_division_instance(rng, max_terms=4)
        basis = complete_to_standard_basis(order, gens)
        member, _ = is_member(order, basis, g)
        assert member == oracle.membership_oracle(gens, g)


# -- completion -------------------------------------------------------------------

def test_completion_adds_missing_vertex():
    order = unit_order(2)
    basis = complete_to_standard_basis(
        order,
        [ser(2, 1, 6, {(2, 0): 1, (0, 3): 1}), ser(2, 1, 6, {(2, 0): 1})],
    )
    assert {v.alpha for v in basis.vertices} == {(2, 0), (0, 3)}


def test_completion_monomial_module_needs_nothing():
    order = unit_order(2)
    basis = complete_to_standard_basis(
        order, [ser(2, 1, 6, {(2, 1): 1}), ser(2, 1, 6, {(1, 3): 1})]
    )
    assert {v.alpha for v in basis.vertices} == {(2, 1), (1, 3)}


def test_completion_single_generator():
    order = unit_order(2)
    g = ser(2, 1, 6, {(1, 1): 2, (0, 3): 1})
    basis = complete_to_standard_basis(order, [g])
    assert basis.elements == (g,)
    assert basis.vertices == (ModExponent((1, 1), 1),)


def test_completion_matches_staircase_oracle():
    rng = random.Random(71)
    for _ in range(25):
        n = rng.randint(1, 3)
        p = rng.randint(1, 2)
        D = {1: 8, 2: 6, 3: 4}[n]
        order = unit_order(n)
        exps = []
        for _ in range(rng.randint(1, 5)):
            alpha = tuple(rng.randint(0, D // 2) for _ in range(n))
            exps.append(ModExponent(alpha, rng.randint(1, p)))
        gens = [mono(n, p, D, e.alpha, e.comp) for e in exps]
        basis = complete_to_standard_basis(order, gens)
        got = {(v.alpha, v.comp) for v in basis.vertices}
        assert got == oracle.staircase_minimal_generators(exps, n, D)


def assert_provenance_recombines(basis, gens):
    for elem, pvec in zip(basis.elements, basis.provenance):
        acc = None
        for coeff_series, g in zip(pvec, gens):
            t = coeff_series.mul_series(g)
            acc = t if acc is None else acc + t
        assert acc == elem


def test_completion_provenance_recombines():
    rng = random.Random(73)
    for _ in range(15):
        order, gens, _ = random_division_instance(rng, max_terms=4)
        basis = complete_to_standard_basis(order, gens)
        assert_provenance_recombines(basis, gens)
        assert_provenance_recombines(canonicalize(basis), gens)


def test_completion_provenance_recombines_over_localized_ring():
    mod = io.parse_module_file(FIXTURES / "family_xi.json")
    pm = mod.param_module()
    _, gens = pm.localized()
    basis = complete_to_standard_basis(pm.order, gens)
    assert len(basis) > len(gens)
    assert_provenance_recombines(basis, gens)
    assert_provenance_recombines(canonicalize(basis), gens)


def test_provenance_costs_no_product_until_read(monkeypatch):
    calls = []
    product = TruncatedSeries.mul_series

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(TruncatedSeries, "mul_series", counted)
    order = unit_order(2)
    # y * (x^2 + y^3) - x * (xy) = y^4 is appended
    gens = [ser(2, 1, 6, {(2, 0): 1, (0, 3): 1}), ser(2, 1, 6, {(1, 1): 1})]
    basis = complete_to_standard_basis(order, gens)
    canon = canonicalize(basis)
    assert len(basis) == 3 and not calls
    assert_provenance_recombines(basis, gens)
    assert_provenance_recombines(canon, gens)
    assert calls


# -- canonical bases ---------------------------------------------------------------

def test_canonicalize_strips_absorbed_tail():
    order = unit_order(2)
    basis = complete_to_standard_basis(
        order,
        [ser(2, 1, 6, {(2, 0): 1, (0, 3): 1}), ser(2, 1, 6, {(0, 3): 1})],
    )
    canon = canonicalize(basis)
    assert canon.canonical
    assert canon.elements[0] == ser(2, 1, 6, {(2, 0): 1})
    assert canon.elements[1] == ser(2, 1, 6, {(0, 3): 1})


def test_canonicalize_monomial_basis_unchanged():
    order = unit_order(2)
    basis = complete_to_standard_basis(
        order, [ser(2, 1, 6, {(2, 0): 1}), ser(2, 1, 6, {(0, 2): 1})]
    )
    canon = canonicalize(basis)
    assert list(canon.elements) == list(basis.elements)


def test_canonicalize_normalizes_scaling():
    order = unit_order(1)
    basis = complete_to_standard_basis(order, [ser(1, 1, 4, {(2,): 2})])
    canon = canonicalize(basis)
    assert canon.elements[0] == ser(1, 1, 4, {(2,): 1})


def test_canonicalize_is_generator_order_independent():
    rng = random.Random(79)
    for _ in range(15):
        order, gens, _ = random_division_instance(rng, max_terms=4)
        basis1 = complete_to_standard_basis(order, gens)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        basis2 = complete_to_standard_basis(order, shuffled)
        if basis1.diagram != basis2.diagram:
            # both run to the same truncated module; diagrams must agree
            raise AssertionError("diagrams disagree across permutations")
        c1, c2 = canonicalize(basis1), canonicalize(basis2)
        for a, b in zip(c1.elements, c2.elements):
            assert a == b


def test_canonical_elements_stay_in_module():
    rng = random.Random(83)
    for _ in range(10):
        order, gens, _ = random_division_instance(rng, max_terms=4)
        canon = canonicalize(complete_to_standard_basis(order, gens))
        for elem in canon.elements:
            assert oracle.membership_oracle(gens, elem)


# -- minimal generating subsets ------------------------------------------------------

def test_minimal_subset_prefers_low_index():
    order = unit_order(1)
    m, subset = minimal_generating_subset(
        order, [ser(1, 1, 6, {(2,): 1}), ser(1, 1, 6, {(2,): 1, (3,): 1})]
    )
    assert m == 1 and subset == (0,)


def test_minimal_subset_keeps_independent_pair():
    order = unit_order(2)
    m, subset = minimal_generating_subset(
        order, [ser(2, 1, 6, {(2, 0): 1}), ser(2, 1, 6, {(0, 2): 1})]
    )
    assert m == 2 and subset == (0, 1)


def test_minimal_subset_unit():
    order = unit_order(1)
    m, subset = minimal_generating_subset(order, [ser(1, 1, 4, {(0,): 1})])
    assert m == 1 and subset == (0,)


def _assert_survivors_basis(order, pool, full):
    """Check the greedy pass's survivors' basis; whether it exists."""
    keep, survivors = _greedy_subset(order, pool, full)
    if survivors is None:
        assert keep == tuple(range(len(pool)))
        return False
    assert len(keep) < len(pool)
    assert survivors.diagram == full
    assert_provenance_recombines(survivors, [pool[i] for i in keep])
    return True


def test_greedy_survivors_basis_has_full_diagram_and_recombines():
    rng = random.Random(97)
    seen = 0
    for _ in range(15):
        order, gens, _ = random_division_instance(rng, max_terms=4)
        basis = complete_to_standard_basis(order, gens)
        seen += _assert_survivors_basis(order, gens, basis.diagram)
        seen += _assert_survivors_basis(order, list(basis.elements), basis.diagram)
    assert seen


def test_greedy_survivors_basis_over_localized_ring():
    pm = io.parse_module_file(FIXTURES / "family_xi.json").param_module()
    _, gens = pm.localized()
    basis = complete_to_standard_basis(pm.order, gens)
    # the basis has an element more than the generators, and it is redundant
    assert _assert_survivors_basis(pm.order, list(basis.elements), basis.diagram)


def test_minimal_subset_matches_nakayama_dimension():
    rng = random.Random(89)
    for _ in range(15):
        order, gens, _ = random_division_instance(rng, max_terms=4)
        m, subset = minimal_generating_subset(order, gens)
        assert m == oracle.nakayama_dimension(gens)
        assert len(subset) == m

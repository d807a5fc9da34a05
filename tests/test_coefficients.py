import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from formaldiv import (
    QQ,
    DenominatorSet,
    LocalizedFraction,
    LocalizedRing,
    ParamPolynomial,
    PolynomialRing,
    format_coefficient,
    parse_coefficient,
)
from formaldiv.errors import (
    ExpressionError,
    NotInvertibleError,
    VanishingDenominatorError,
)

XI = ("xi1",)
ABC = ("a", "b", "c")


def poly(text, names=XI):
    return parse_coefficient(text, names)


def loc_ring(*dens, names=XI):
    return LocalizedRing(DenominatorSet(names, seed=[poly(d, names) for d in dens]))


# -- plain ring operations ----------------------------------------------------

def test_rational_addition():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_rings_compare_with_eq_and_cannot_be_hashed():
    dset = DenominatorSet(XI)
    assert PolynomialRing(XI) == PolynomialRing(XI) != PolynomialRing(ABC)
    assert LocalizedRing(dset) == LocalizedRing(dset) != LocalizedRing(DenominatorSet(XI))
    for ring in (QQ, PolynomialRing(XI), LocalizedRing(dset)):
        with pytest.raises(TypeError):
            hash(ring)


def test_localized_cancellation_identity():
    ring = loc_ring("xi1")
    xi = ring.from_poly(poly("xi1"))
    s = ring.from_poly(poly("xi1"))
    frac = ring.divide_by_unit(xi, s)          # xi/xi as a fraction
    assert frac * s == xi                      # cross-multiplied identity


def test_polynomial_factored_identity():
    a = poly("xi1^2 - 1")
    b = poly("(xi1 - 1) * (xi1 + 1)")
    assert a == b


def test_ring_axioms_random():
    rng = random.Random(3)
    ring = PolynomialRing(("a", "b"))

    def rand_poly():
        return ParamPolynomial(
            ("a", "b"),
            {
                (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-4, 4))
                for _ in range(rng.randint(0, 4))
            },
        )

    for _ in range(40):
        x, y, z = rand_poly(), rand_poly(), rand_poly()
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        assert not (x + (-x))


# -- internal results skip re-validation ---------------------------------------

def _assert_clean(p):
    """What the validating constructor would have produced."""
    assert p == ParamPolynomial(p.names, p.terms)
    assert type(p.names) is tuple
    assert all(type(e) is tuple and len(e) == len(p.names) for e in p.terms)
    assert all(type(c) is Fraction and c for c in p.terms.values())


def test_arithmetic_results_equal_their_validated_rebuild():
    rng = random.Random(11)
    names = ("a", "b")

    def rand_poly():
        return ParamPolynomial(
            names,
            {
                (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                for _ in range(rng.randint(0, 4))
            },
        )

    a, b = (ParamPolynomial.variable(names, v) for v in names)
    _assert_clean((a + b) * (a - b))  # the a*b terms cancel
    for _ in range(60):
        x, y = rand_poly(), rand_poly()
        results = [x + y, x - y, x - x, x + (-x), -x, x * y, x ** 2,
                   x.scale(Fraction(-2, 3)), x.scale(0), x.scale(5)]
        if y:
            assert (x * y).exact_div(y) == x
            results.append((x * y).exact_div(y))
        quotient = x.exact_div(y)
        if quotient is not None:
            assert quotient * y == x
            results.append(quotient)
        for r in results:
            _assert_clean(r)


def test_power_product_memo_is_never_stale():
    names = ("a", "b")
    dset = DenominatorSet(names, seed=[poly("a", names), poly("a + b", names)])

    def fresh(powers):
        out = ParamPolynomial.constant(names, 1)
        for i, k in powers.items():
            for _ in range(k):
                out = out * dset.generators[i]
        return out

    first = dset.power_product({0: 2, 1: 0})
    assert first == fresh({0: 2})
    dset.register(poly("b + 1", names))
    dset.register(poly("a - 2*b", names))
    assert dset.power_product({1: 1}) == fresh({1: 1})
    assert dset.power_product({0: 1}) == fresh({0: 1})
    rng = random.Random(5)
    for _ in range(40):
        powers = {i: rng.randint(0, 2) for i in rng.sample(range(4), rng.randint(0, 4))}
        assert dset.power_product(powers) == fresh(powers)
    # one memo entry per product: zero powers and the dict's order do not count
    assert dset.power_product({1: 0, 0: 2}) is first
    assert dset.power_product({0: 2}) is first
    assert dset.power_product({3: 1, 0: 2}) is dset.power_product({0: 2, 3: 1})


# -- divide_by_unit -------------------------------------------------------------

def test_divide_by_unit_rational():
    assert QQ.divide_by_unit(Fraction(3), Fraction(2)) == Fraction(3, 2)


def test_divide_by_unit_localized():
    ring = loc_ring("xi1")
    a = ring.from_poly(poly("xi1 + 1"))
    s = ring.from_poly(poly("xi1"))
    f = ring.divide_by_unit(a, s)
    assert f.num == poly("xi1 + 1")
    assert f.powers == {0: 1}
    assert f * s == a


def test_divide_by_unit_not_invertible():
    ring = loc_ring("xi1")
    with pytest.raises(NotInvertibleError):
        ring.divide_by_unit(ring.one, ring.from_poly(poly("xi1 + 1")))


def test_divide_by_unit_zero():
    with pytest.raises(NotInvertibleError):
        QQ.divide_by_unit(Fraction(1), Fraction(0))


@pytest.mark.parametrize("seed, target, expected", [
    (("a*b", "a"), "a^2*b", (1, {0: 1, 1: 1})),
    # 2*a*b*c over a*b leaves 2*c, which no generator divides: the search
    # must back out of a*b
    (("a*b", "a", "b*c"), "2*a*b*c", (2, {1: 1, 2: 1})),
])
def test_unit_factoring_backtracks_over_composite_generators(seed, target, expected):
    dset = DenominatorSet(ABC, seed=[poly(g, ABC) for g in seed])
    assert dset.factor_as_unit(poly(target, ABC)) == expected


def test_unit_factoring_sees_generators_registered_later():
    names = ("a", "b")
    dset = DenominatorSet(names, seed=[parse_coefficient("a", names)])
    target = parse_coefficient("2*a*b", names)
    assert dset.factor_as_unit(target) is None
    assert dset.register(parse_coefficient("b", names)) is not None
    assert dset.factor_as_unit(target) == (2, {0: 1, 1: 1})


def _backtracking_walk(generators, q):
    """The unit search before it was memoized: (c, powers) or None.

    It retries every ordering of the dividing generators, so it is
    factorial in their number; the tests keep it as the reference.
    """
    if q.is_constant:
        return q.constant_value(), {}
    for idx, g in enumerate(generators):
        quot = q.exact_div(g)
        if quot is not None:
            res = _backtracking_walk(generators, quot)
            if res is not None:
                c, pw = res
                pw = dict(pw)
                pw[idx] = pw.get(idx, 0) + 1
                return c, pw
    return None


SHARED_FACTORS = [poly(f, ABC) for f in ("a", "b", "c", "a + b", "c - 1")]
_factor_product = st.lists(st.integers(0, len(SHARED_FACTORS) - 1), max_size=4)


def _product(indices):
    out = poly("1", ABC)
    for i in indices:
        out = out * SHARED_FACTORS[i]
    return out


@settings(max_examples=300, deadline=None, database=None)
@given(gens=st.lists(_factor_product.filter(bool), max_size=5),
       target=_factor_product, c=st.integers(-3, 3).filter(bool))
@example(gens=[[0, 1], [0], [1, 2]], target=[0, 1, 2], c=2)
def test_unit_search_matches_the_backtracking_walk(gens, target, c):
    # generators are products of shared factors, so a search that never
    # backtracked would miss decompositions; factoring before and after each
    # registration also reads the memo across generator counts
    dset, ref = DenominatorSet(ABC), []
    p = _product(target).scale(c)
    for g in map(_product, gens):
        assert dset.factor_as_unit(p) == _backtracking_walk(ref, p)
        assert dset.factor_as_unit(g) == _backtracking_walk(ref, g)
        dset.register(g)
        g = g.scale(1 / g.leading()[1])
        if _backtracking_walk(ref, g) is None:
            ref.append(g)
        assert dset.generators == ref
    assert dset.factor_as_unit(p) == _backtracking_walk(ref, p)


def test_unit_search_divides_each_quotient_once(monkeypatch):
    # t, t-1, ..., t-6 all divide (t^2+1)*t*(t-1)*...*(t-6), which is no
    # unit: the memoized search makes at most 7 * 2^7 exact divisions, where
    # the backtracking walk made 95,900
    names = ("t",)
    linear = [poly(f"t - {i}", names) for i in range(7)]
    dset = DenominatorSet(names, seed=linear)
    target = poly("t^2 + 1", names)
    for g in linear:
        target = target * g
    cap, calls = 7 * 2 ** 7, [0]
    exact_div = ParamPolynomial.exact_div

    def counted(self, g):
        calls[0] += 1
        if calls[0] > cap:
            raise AssertionError(f"more than {cap} exact divisions")
        return exact_div(self, g)

    monkeypatch.setattr(ParamPolynomial, "exact_div", counted)
    assert dset.factor_as_unit(target) is None
    assert calls[0] <= cap


# -- evaluation ------------------------------------------------------------------

def test_evaluate_polynomial():
    assert poly("xi1^2 - 1").evaluate((Fraction(3),)) == 8


def test_evaluate_fraction_pole():
    ring = loc_ring("xi1")
    f = ring.divide_by_unit(ring.from_poly(poly("xi1 + 1")), ring.from_poly(poly("xi1")))
    with pytest.raises(VanishingDenominatorError):
        f.evaluate((Fraction(0),))
    assert f.evaluate((Fraction(2),)) == Fraction(3, 2)


def test_vanishing_denominator_names_the_point_as_rationals():
    names = ("xi1", "xi2")
    ring = loc_ring("2*xi1 + xi2", names=names)
    f = ring.divide_by_unit(ring.one, ring.from_poly(poly("2*xi1 + xi2", names)))
    with pytest.raises(VanishingDenominatorError) as info:
        f.evaluate((Fraction(1, 2), Fraction(-1)))
    assert str(info.value).endswith(" vanishes at (1/2, -1)")


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(9)
    names = ("a", "b")

    def rand_poly():
        return ParamPolynomial(
            names,
            {
                (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(rng.randint(0, 4))
            },
        )

    for _ in range(30):
        x, y = rand_poly(), rand_poly()
        pt = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), 2))
        assert (x * y).evaluate(pt) == x.evaluate(pt) * y.evaluate(pt)
        assert (x + y).evaluate(pt) == x.evaluate(pt) + y.evaluate(pt)


# -- localized fraction equality ---------------------------------------------------

def test_cross_multiplication_equivalence():
    rng = random.Random(21)
    ring = loc_ring("xi1", "xi1 + 1")

    def boost(f, i, k):
        # same element, denominator inflated by generator i to the power k
        return LocalizedFraction(
            f.num * ring.dset.generators[i] ** k,
            {**f.powers, i: f.powers.get(i, 0) + k},
            ring.dset,
        )

    for _ in range(40):
        num = ParamPolynomial(
            XI, {(rng.randint(0, 2),): Fraction(rng.randint(-3, 3)) for _ in range(2)}
        )
        a = LocalizedFraction(num, {0: rng.randint(0, 2), 1: rng.randint(0, 2)},
                              ring.dset)
        b = boost(a, rng.randint(0, 1), rng.randint(1, 2))
        c = boost(b, rng.randint(0, 1), rng.randint(1, 2))
        # reflexive, symmetric, transitive across three representations
        assert a == a
        assert a == b and b == a
        assert b == c and a == c
        other = LocalizedFraction(num + ring.dset.generators[0], a.powers, ring.dset)
        if other != a:
            assert not (other == b)


# -- parser -----------------------------------------------------------------------

def test_parse_polynomial_terms():
    p = poly("3*xi1^2 - 1/2")
    assert p.terms == {(2,): Fraction(3), (0,): Fraction(-1, 2)}


def test_parse_square_of_sum():
    assert poly("(xi1+1)^2") == poly("xi1^2 + 2*xi1 + 1")


def test_large_power_parses_within_budget():
    # square and multiply: about 17 products for k = 100000, not k of them
    start = time.process_time()
    p = parse_coefficient("2^100000", ("t",))
    assert time.process_time() - start < 0.5
    assert p == ParamPolynomial.constant(("t",), 2**100000)


def test_power_equals_repeated_product():
    base = poly("t + 1", ("t",))
    product = poly("1", ("t",))
    for k in range(13):
        assert base ** k == product, k
        product = product * base


def test_parse_rejects_nonconstant_divisor():
    with pytest.raises(ExpressionError):
        poly("1/xi1")


def test_parse_unknown_identifier_with_position():
    with pytest.raises(ExpressionError) as err:
        poly("3*zeta")
    assert err.value.position == 2


def test_parse_syntax_error_position():
    with pytest.raises(ExpressionError):
        poly("3 + * 4")


def test_parse_rational_without_parameters():
    v = parse_coefficient("-3/4 + 1")
    assert v == Fraction(1, 4)


def test_parse_print_round_trip():
    rng = random.Random(31)
    names = ("xi1", "xi2")
    for _ in range(60):
        p = ParamPolynomial(
            names,
            {
                (rng.randint(0, 3), rng.randint(0, 3)):
                    Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                for _ in range(rng.randint(0, 5))
            },
        )
        assert parse_coefficient(format_coefficient(p), names) == p
    for _ in range(30):
        v = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        assert parse_coefficient(format_coefficient(v)) == v

import random
from fractions import Fraction

import pytest

from formaldiv import (
    QQ,
    DenominatorSet,
    LocalizedRing,
    ModExponent,
    TruncatedSeries,
    diagram_from_exponents,
    parse_coefficient,
)
from formaldiv.errors import AmbientMismatchError, PreconditionError

from helpers import random_series, ser, unit_order


def test_add_cancels():
    f = ser(2, 1, 4, {(1, 0): 1, (0, 1): 1})
    g = ser(2, 1, 4, {(1, 0): 1, (0, 1): -1})
    assert f + g == ser(2, 1, 4, {(1, 0): 2})


def test_subtract():
    f = ser(1, 1, 4, {(1,): 1, (2,): 1})
    assert f - ser(1, 1, 4, {(1,): 1}) == ser(1, 1, 4, {(2,): 1})


def test_mul_truncates():
    one_plus_x = ser(1, 1, 2, {(0,): 1, (1,): 1})
    x = ser(1, 1, 2, {(1,): 1})
    assert one_plus_x.mul_series(x) == ser(1, 1, 2, {(1,): 1, (2,): 1})
    x2 = ser(1, 1, 2, {(2,): 1})
    assert x.mul_series(x2).is_zero


def test_mul_into_two_components():
    c = ser(2, 1, 2, {(0, 0): 1, (1, 0): 1})
    f = ser(2, 2, 2, {((0, 1), 1): 1})
    assert c.mul_series(f) == ser(2, 2, 2, {((0, 1), 1): 1, ((1, 1), 1): 1})


def test_mul_matches_exact_product_then_truncation():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 2)
        d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
        big = d1 + d2
        c = random_series(rng, n, 1, d1, max_terms=4, nonzero=False)
        f = random_series(rng, n, 2, d2, max_terms=4, nonzero=False)
        # re-embed at the exact horizon, multiply exactly, then truncate down
        c_big = TruncatedSeries(n, 1, big, QQ, c.terms)
        f_big = TruncatedSeries(n, 2, big, QQ, f.terms)
        exact = c_big.mul_series(f_big)
        small = rng.randint(0, big)
        c_s = TruncatedSeries(n, 1, small, QQ, c.terms)
        f_s = TruncatedSeries(n, 2, small, QQ, f.terms)
        assert c_s.mul_series(f_s) == TruncatedSeries(n, 2, small, QQ, exact.terms)


def test_initial_data_lex_tiebreak():
    order = unit_order(2)
    f = ser(2, 1, 6, {(2, 1): 1, (3, 0): 1})
    init = f.initial(order)
    assert init.exponent == ModExponent((2, 1), 1)


def test_initial_data_constant():
    order = unit_order(2)
    init = ser(2, 1, 6, {(0, 0): 7}).initial(order)
    assert init.exponent == ModExponent((0, 0), 1) and init.coefficient == 7


def test_initial_data_second_component():
    order = unit_order(1)
    f = ser(1, 2, 6, {((1,), 2): 1})
    assert f.initial(order).exponent == ModExponent((1,), 2)


def test_mul_monomial_refuses_a_negative_multi_index():
    # shift does not re-check exponents, so mul_monomial checks beta once
    with pytest.raises(PreconditionError):
        ser(2, 1, 4, {(3, 1): 1, (2, 0): 1}).mul_monomial((-1, 0))


@pytest.mark.parametrize("beta", [(0, 0, 5), (1, 0, 1), (1,), (0, 0, 0)])
def test_mul_monomial_refuses_a_multi_index_of_another_arity(beta):
    # shift zips beta with each exponent, so a longer beta lost its extra
    # entries while the horizon still counted them: x1 * x^(0, 0, 5) was 0
    with pytest.raises(AmbientMismatchError):
        ser(2, 1, 4, {(1, 0): 1}).mul_monomial(beta)
    with pytest.raises(AmbientMismatchError):
        ser(2, 1, 4, {}).mul_monomial(beta)


def test_initial_data_zero_series():
    with pytest.raises(PreconditionError):
        ser(1, 1, 3, {}).initial(unit_order(1))


def test_initial_multiplicative():
    rng = random.Random(43)
    order = unit_order(2)
    for _ in range(50):
        c = random_series(rng, 2, 1, 8, max_terms=4)
        f = random_series(rng, 2, 2, 8, max_terms=4)
        prod = c.mul_series(f)
        ic, if_ = c.initial(order), f.initial(order)
        if ic.exponent.degree + if_.exponent.degree > 8:
            continue  # product head truncated away
        ip = prod.initial(order)
        assert ip.exponent == if_.exponent.shift(ic.exponent.alpha)
        assert ip.coefficient == ic.coefficient * if_.coefficient


def test_partial_basic():
    assert ser(2, 1, 6, {(2, 1): 1}).partial(1) == ser(2, 1, 6, {(1, 1): 2})
    assert ser(2, 1, 6, {(0, 3): 1}).partial(1).is_zero
    assert ser(2, 1, 6, {(1, 0): 1, (0, 2): 3}).partial(2) == ser(2, 1, 6, {(0, 1): 6})


def test_partial_over_a_localized_ring():
    ring = LocalizedRing(DenominatorSet(("xi",)))
    xi = ring.from_poly(parse_coefficient("xi", ("xi",)))
    f = ser(1, 1, 4, {(1,): xi, (3,): ring.one}, ring)
    assert f.partial(1) == ser(1, 1, 4, {(0,): xi, (2,): ring.from_int(3)}, ring)


def test_partial_stays_outside_diagram():
    rng = random.Random(47)
    order = unit_order(2)
    for _ in range(50):
        gens = [
            ModExponent((rng.randint(0, 3), rng.randint(0, 3)), rng.randint(1, 2))
            for _ in range(rng.randint(1, 4))
        ]
        diag = diagram_from_exponents(gens, n=2, p=2, order=order)
        outside = {}
        for _ in range(8):
            e = ModExponent((rng.randint(0, 5), rng.randint(0, 5)), rng.randint(1, 2))
            if e.degree <= 6 and not diag.contains(e):
                outside[e] = Fraction(rng.randint(1, 5))
        f = TruncatedSeries(2, 2, 6, QQ, outside)
        for k in (1, 2):
            for e in f.partial(k).support():
                assert not diag.contains(e)


def test_ambient_mismatch_raises():
    with pytest.raises(AmbientMismatchError):
        ser(1, 1, 3, {(1,): 1}) + ser(1, 1, 4, {(1,): 1})


def test_component_takes_one_slot():
    f = ser(2, 2, 4, {((1, 0), 1): 2, ((0, 1), 2): 3, ((2, 0), 2): 5})
    assert f.component(1) == ser(2, 1, 4, {(1, 0): 2})
    assert f.component(2) == ser(2, 1, 4, {(0, 1): 3, (2, 0): 5})
    with pytest.raises(AmbientMismatchError):
        f.component(3)


def test_constructor_drops_beyond_horizon():
    f = TruncatedSeries(1, 1, 2, QQ, {ModExponent((3,), 1): Fraction(1)})
    assert f.is_zero

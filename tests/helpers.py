"""Shared builders for tests: compact series construction and seeded random
instances sized so that exact linear algebra stays fast."""

from fractions import Fraction
import random

from formaldiv import (
    QQ,
    ModExponent,
    StandardOrder,
    TruncatedSeries,
)


def unit_order(n):
    return StandardOrder.unit(n)


def ser(n, p, D, terms, ring=QQ):
    """Build a series from {(alpha, comp): coeff} (or {alpha: coeff} if p=1)."""
    built = {}
    for key, c in terms.items():
        if p == 1 and key and isinstance(key[0], int):
            alpha, comp = tuple(key), 1
        else:
            alpha, comp = tuple(key[0]), key[1]
        built[ModExponent(alpha, comp)] = (
            Fraction(c) if ring is QQ else c
        )
    return TruncatedSeries(n, p, D, ring, built)


def mono(n, p, D, alpha, comp=1, coeff=1, ring=QQ):
    c = Fraction(coeff) if ring is QQ else coeff
    return TruncatedSeries.monomial(ModExponent(tuple(alpha), comp), c, n, p, D, ring)


def random_fraction(rng, nonzero=False):
    num = rng.randint(-9, 9)
    while nonzero and num == 0:
        num = rng.randint(-9, 9)
    return Fraction(num, rng.randint(1, 4))


def random_alpha(rng, n, max_deg):
    """Multi-index with total degree <= max_deg, biased toward low degree."""
    d = min(rng.randint(0, max_deg), rng.randint(0, max_deg))
    alpha = [0] * n
    for _ in range(d):
        alpha[rng.randrange(n)] += 1
    return tuple(alpha)


def random_series(rng, n, p, D, max_terms=6, nonzero=True):
    terms = {}
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        e = ModExponent(random_alpha(rng, n, D), rng.randint(1, p))
        terms[e] = random_fraction(rng)
    s = TruncatedSeries(n, p, D, QQ, terms)
    while nonzero and s.is_zero:
        e = ModExponent(random_alpha(rng, n, D), rng.randint(1, p))
        s = TruncatedSeries(n, p, D, QQ, {e: random_fraction(rng, nonzero=True)})
    return s


def random_ambient(rng):
    """(n, D) pairs kept small enough for the dense rational oracles."""
    n = rng.randint(1, 3)
    dmax = {1: 8, 2: 8, 3: 5}[n]
    return n, rng.randint(2, dmax)


def random_division_instance(rng, max_q=3, max_p=2, max_terms=6):
    n, D = random_ambient(rng)
    p = rng.randint(1, max_p)
    q = rng.randint(1, max_q)
    order = unit_order(n)
    divisors = [random_series(rng, n, p, D, max_terms) for _ in range(q)]
    dividend = random_series(rng, n, p, D, max_terms * 2, nonzero=False)
    return order, divisors, dividend

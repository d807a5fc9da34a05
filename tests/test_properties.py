"""Property tests: the division contract and the order keys, on random QQ
series under random positive weights (fractional ones included), the
rational coefficient literals a module file may hold, the sparse exact
linear algebra and the relations-check spanning decision against the dense
oracle, and the greedy minimal-subset pass and the completions it stops
early against a copy of the full pass."""

import ast
import re
from datetime import timedelta
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd
from pathlib import Path

import pytest
from unittest import mock

from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from formaldiv import (
    QQ,
    DenominatorSet,
    LocalizedFraction,
    LocalizedRing,
    ModExponent,
    ParamPolynomial,
    Ordering,
    StandardOrder,
    TruncatedSeries,
    complete_to_standard_basis,
    hironaka_divide,
    io,
    parse_coefficient,
    standard_relations,
)
from formaldiv import coefficients
from formaldiv.division import residual
from formaldiv.errors import DegenerateFamilyError, ExpressionError, SchemaError
from formaldiv.exponents import DeltaPartition, SyzygyOrder, add_alpha, diagram_from_exponents
from formaldiv.families import _all_spanned, oracle_relations, relation_multiplier_bound
from formaldiv.linalg import kernel_basis, rref
from formaldiv.syzygies import (
    _greedy_subset,
    relation_defect,
    relations_of_generators,
    syzygy_diagram,
)

import oracle

PROPS = settings(max_examples=25, deadline=timedelta(seconds=5), database=None)

weights_st = st.one_of(
    st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3), Fraction(3, 2)]),
    st.builds(Fraction, st.integers(1, 7), st.integers(1, 6)),
)
coeff_st = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))


@st.composite
def ambients(draw):
    n = draw(st.integers(1, 3))
    p = draw(st.integers(1, 2))
    trunc = draw(st.integers(2, {1: 7, 2: 6, 3: 4}[n]))
    return n, p, trunc, StandardOrder([draw(weights_st) for _ in range(n)])


def _exponent(n, variables, comp):
    # a list of variable indices of length <= max_degree, read as a monomial
    return ModExponent(tuple(variables.count(k) for k in range(n)), comp)


@lru_cache(maxsize=None)
def exponents(n, p, max_degree):
    return st.builds(
        partial(_exponent, n),
        st.lists(st.integers(0, n - 1), max_size=max_degree),
        st.integers(1, p),
    )


@lru_cache(maxsize=None)
def series(n, p, trunc, max_terms, min_terms=1):
    terms = st.dictionaries(
        exponents(n, p, trunc), coeff_st, min_size=min_terms, max_size=max_terms
    )
    return terms.map(lambda t: TruncatedSeries(n, p, trunc, QQ, t))


@st.composite
def division_instances(draw, dividends=1):
    n, p, trunc, order = draw(ambients())
    divisors = draw(st.lists(series(n, p, trunc, 5), min_size=1, max_size=3))
    fs = [draw(series(n, p, trunc, 10, min_terms=0)) for _ in range(dividends)]
    return order, divisors, fs


@PROPS
@given(division_instances())
def test_division_contract(inst):
    order, divisors, (f,) = inst
    res = hironaka_divide(order, divisors, f)
    assert residual(res, divisors, f).is_zero
    inits = [d.initial(order).exponent for d in divisors]
    for i, q in enumerate(res.quotients):
        for beta in q.terms:
            assert res.partition.cell_of(inits[i].shift(beta.alpha)) == i
    assert all(res.partition.cell_of(e) is None for e in res.remainder.terms)


@PROPS
@given(division_instances())
def test_remainder_divides_to_itself(inst):
    order, divisors, (f,) = inst
    r = hironaka_divide(order, divisors, f).remainder
    again = hironaka_divide(order, divisors, r)
    assert all(q.is_zero for q in again.quotients)
    assert again.remainder == r


@PROPS
@given(division_instances(dividends=2))
def test_division_is_additive(inst):
    order, divisors, (f, g) = inst
    rf, rg, rs = (hironaka_divide(order, divisors, h) for h in (f, g, f + g))
    assert rs.remainder == rf.remainder + rg.remainder
    for qs, qf, qg in zip(rs.quotients, rf.quotients, rg.quotients):
        assert qs == qf + qg


# Over QQ the kernel works on reduced (num, den) int pairs and builds a
# Fraction only for each quotient and remainder term.
big_coeff_st = st.builds(Fraction, st.integers(-10**20, 10**20).filter(bool),
                         st.integers(1, 10**20))


@st.composite
def big_division_instances(draw):
    """Coefficients up to 10**20 over fractional weights; every divisor's
    initial coefficient is negative."""
    n, p, trunc, order = draw(ambients())
    divisors = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(exponents(n, p, trunc), big_coeff_st,
                                     min_size=1, max_size=5))
        d = TruncatedSeries(n, p, trunc, QQ, terms)
        assume(not d.is_zero)
        init = d.initial(order)
        terms[init.exponent] = -abs(init.coefficient)
        divisors.append(TruncatedSeries(n, p, trunc, QQ, terms))
    f = TruncatedSeries(n, p, trunc, QQ, draw(st.dictionaries(
        exponents(n, p, trunc), big_coeff_st, max_size=10)))
    return order, divisors, f


@PROPS
@given(big_division_instances())
def test_rational_division_builds_reduced_fractions(inst):
    order, divisors, f = inst
    res = hironaka_divide(order, divisors, f)
    assert residual(res, divisors, f).is_zero
    assert all(res.partition.cell_of(e) is None for e in res.remainder.terms)
    for s in (*res.quotients, res.remainder):
        for c in s.terms.values():
            assert type(c) is Fraction
            assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


param_coeff_st = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(
    lambda cs: ParamPolynomial(("t",), {(k,): c for k, c in enumerate(cs)}))


@PROPS
@given(ambients(), st.booleans(), st.data())
def test_mul_monomial_is_the_product_by_the_monomial(amb, localized, data):
    """Shifting a p-slot series by beta, |beta| <= D, prints as multiplying
    it by the one-slot monomial x^beta, over QQ and over QQ[t] localized at
    t + 1 (with the fractions' denominators kept)."""
    n, p, trunc, order = amb
    ring, coeff = QQ, coeff_st
    if localized:
        ring = LocalizedRing(DenominatorSet(("t",), seed=[parse_coefficient("t + 1", ("t",))]))
        coeff = st.builds(LocalizedFraction, param_coeff_st, st.builds(
            lambda k: {0: k}, st.integers(0, 2)), st.just(ring.dset))
    terms = data.draw(st.dictionaries(exponents(n, p, trunc), coeff, max_size=6))
    s = TruncatedSeries(n, p, trunc, ring, terms)
    beta = data.draw(exponents(n, 1, trunc)).alpha
    monomial = TruncatedSeries.monomial(ModExponent(beta, 1), ring.one, n, 1, trunc, ring)
    assert (io.series_to_json(s.mul_monomial(beta), order)
            == io.series_to_json(monomial.mul_series(s), order))


@st.composite
def family_division_instances(draw):
    """Divisors and a dividend with coefficients in QQ[t], lifted to the
    ring localized at the divisors' initial coefficients."""
    n, p, trunc = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(2, 4))
    order = StandardOrder([draw(weights_st) for _ in range(n)])
    ring = LocalizedRing(DenominatorSet(("t",)))

    def draw_series(min_size, max_size):
        terms = draw(st.dictionaries(exponents(n, p, trunc), param_coeff_st,
                                     min_size=min_size, max_size=max_size))
        return TruncatedSeries(n, p, trunc, ring,
                               {e: ring.from_poly(c) for e, c in terms.items()})

    divisors = [draw_series(1, 4) for _ in range(draw(st.integers(1, 2)))]
    assume(not any(d.is_zero for d in divisors))
    return order, ring, divisors, draw_series(0, 6)


@PROPS
@given(family_division_instances())
def test_specialization_commutes_with_division(inst):
    """At a point where every certificate (each initial coefficient and each
    registered denominator) is nonzero, dividing and then specializing gives
    the division of the specialized series."""
    order, ring, divisors, f = inst
    res = hironaka_divide(order, divisors, f)
    certs = [d.initial(order).coefficient.num for d in divisors] + ring.dset.generators
    certified = [pt for pt in ((Fraction(k),) for k in range(-4, 5))
                 if all(c.evaluate(pt) for c in certs)]
    assert certified  # each certificate has at most two roots
    for pt in certified:
        def at(s):
            return s.map_coefficients(lambda c: c.evaluate(pt), QQ)

        spec = hironaka_divide(order, [at(d) for d in divisors], at(f))
        assert spec.remainder == at(res.remainder)
        assert list(spec.quotients) == [at(q) for q in res.quotients]


def _sign(a, b):
    return Ordering.LESS if a < b else Ordering.GREATER if a > b else Ordering.EQUAL


@PROPS
@given(st.data())
def test_order_keys_match_fraction_tuples(data):
    n, p, trunc, order = data.draw(ambients())
    exps = data.draw(st.lists(exponents(n, p, trunc), min_size=2, max_size=12, unique=True))

    def form(alpha):
        # L(alpha) as a Fraction, from the weights alone
        return sum((w * a for w, a in zip(order.weights, alpha)), Fraction(0))

    def old_std(e):
        return (form(e.alpha), e.comp, e.alpha)

    assert sorted(exps, key=order.key) == sorted(exps, key=old_std)
    for e1, e2 in zip(exps, exps[1:]):
        assert order.compare(e1, e2) == _sign(old_std(e1), old_std(e2))

    slots = data.draw(st.lists(exponents(n, p, trunc), min_size=1, max_size=4))
    syz = SyzygyOrder(order.weights, slots)
    rel = [
        ModExponent(e.alpha, data.draw(st.integers(1, len(slots)))) for e in exps
    ]
    rel = list(dict.fromkeys(rel))

    def old_syz(e):
        s = slots[e.comp - 1]
        return (form(e.alpha) + form(s.alpha), s.comp, add_alpha(e.alpha, s.alpha), -e.comp)

    assert sorted(rel, key=syz.key) == sorted(rel, key=old_syz)
    for e1, e2 in zip(rel, rel[1:]):
        assert syz.compare(e1, e2) == _sign(old_syz(e1), old_syz(e2))


@PROPS
@given(st.text(alphabet="0123456789-+/.^() x\u0663", max_size=7))
@example("3/0")
@example("0/0")
@example("-0")
@example("007")
@example("+3")
@example(" 7 ")
@example("1.5")
@example("3/4/5")
@example("-17/3")
@example("\u0663")
def test_rational_coefficients_load_as_the_parser_reads_them(text):
    """A rational module's coeff loads to the Fraction parse_coefficient
    returns, or fails with the parser's message under the coeff's path."""
    data = {"n": 1, "p": 1, "D": 1,
            "series": [{"terms": [{"exponent": [1], "coeff": text}]}]}
    try:
        expected = parse_coefficient(text)
    except ExpressionError as exc:
        with pytest.raises(SchemaError) as info:
            io.load_module_data(data)
        assert type(info.value) is SchemaError
        assert str(info.value) == f"module.series[0].terms[0].coeff: {exc}"
    else:
        got = io.load_module_data(data).series["F1"].coefficient(ModExponent((1,), 1))
        assert type(got) is Fraction and got == expected


# Expression trees over the coefficient grammar: ("int", k), ("sign", "+"|"-", t),
# ("bin", op, left, right), ("pow", t, k) and ("paren", t).
expr_trees = st.recursive(
    st.tuples(st.just("int"), st.integers(0, 12)),
    lambda sub: st.one_of(
        st.tuples(st.just("sign"), st.sampled_from("+-"), sub),
        st.tuples(st.just("bin"), st.sampled_from("+-*/"), sub, sub),
        st.tuples(st.just("pow"), sub, st.integers(0, 3)),
        st.tuples(st.just("paren"), sub),
    ),
    max_leaves=10,
)


def _show(tree):
    """(text, grammar level) of a tree; levels 0 expr, 1 term, 2 factor,
    3 power, 4 atom."""
    kind = tree[0]
    if kind == "int":
        return str(tree[1]), 4
    if kind == "paren":
        return f"({_show(tree[1])[0]})", 4
    if kind == "pow":
        return f"{_shown_at(tree[1], 4)}^{tree[2]}", 3
    if kind == "sign":
        return tree[1] + _shown_at(tree[2], 2), 2
    _, op, left, right = tree
    level = 0 if op in "+-" else 1  # left associative
    return f"{_shown_at(left, level)} {op} {_shown_at(right, level + 1)}", level


def _shown_at(tree, level):
    text, own = _show(tree)
    return text if own >= level else f"({text})"


def _value(tree) -> Fraction:
    kind = tree[0]
    if kind == "int":
        return Fraction(tree[1])
    if kind == "paren":
        return _value(tree[1])
    if kind == "pow":
        return _value(tree[1]) ** tree[2]
    if kind == "sign":
        return -_value(tree[2]) if tree[1] == "-" else _value(tree[2])
    _, op, left, right = tree
    a, b = _value(left), _value(right)
    if op == "/":
        return a / b
    return a + b if op == "+" else a - b if op == "-" else a * b


@settings(max_examples=200, deadline=timedelta(seconds=5), database=None)
@given(expr_trees)
@example(("sign", "-", ("pow", ("int", 2), 2)))
@example(("pow", ("sign", "-", ("int", 2)), 2))
@example(("bin", "-", ("int", 2), ("sign", "-", ("int", 3))))
@example(("bin", "/", ("int", 1), ("bin", "-", ("int", 2), ("int", 2))))
@example(("pow", ("int", 0), 0))
def test_rational_expressions_parse_to_their_value(tree):
    """Without names the parser returns the Fraction the tree evaluates to;
    with names it returns that constant; a zero divisor fails both ways."""
    text = _show(tree)[0]
    try:
        expected = _value(tree)
    except ZeroDivisionError:
        for names in ((), ("t",)):
            with pytest.raises(ExpressionError, match="division by zero"):
                parse_coefficient(text, names)
        return
    got = parse_coefficient(text)
    assert type(got) is Fraction and got == expected, text
    assert parse_coefficient(text, ("t",)) == ParamPolynomial.constant(("t",), expected)


# The cursor tokenizer that the one-pass coefficients._tokenize replaced, kept
# as the reference: it matched one token at a time and located a stray
# character by stripping the rest of the text.
_REFERENCE_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")


def _reference_tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExpressionError(f"unexpected character {stripped[0]!r}", at)
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


def _outcome(f, *args):
    try:
        return f(*args)
    except ExpressionError as exc:
        return f"ExpressionError: {exc}"


token_text = st.lists(st.sampled_from(
    ["0", "1", "2", "7", "10", "\u0663",  # digits, one of them Arabic-Indic
     "t", "s", "x", "_", "t2",  # names and the characters that extend them
     "(", ")", "+", "-", "*", "/", "^",
     " ", "\t", "\n", "\x1c", "\u00a0", "\u2003",  # whitespace to str and re
     ".", "#", "\u00e9", "\u00b2", "\u200b"]),  # stray: not one of the above
    max_size=10).map("".join)


@settings(max_examples=300, deadline=timedelta(seconds=5), database=None)
@given(token_text)
@example("")
@example(" \u2003\n")
@example("t \u00a0")
@example("3 \u200b")
@example("\x1c\u00b2")
@example("\u0663\u0663^2")
def test_tokenizer_matches_the_cursor_reference(text):
    """The one-pass tokenizer gives the reference's tokens and positions, or
    its error, and the parser over (t, s) the same value or error."""
    expected = _outcome(_reference_tokenize, text)
    assert _outcome(coefficients._tokenize, text) == expected
    if isinstance(expected, str):
        return
    # an exponent is a literal int: a large one only measures big-int powers
    assume(not any(a[1] == "^" and b[0] == "int" and b[1] > 20
                   for a, b in zip(expected, expected[1:])))
    got = _outcome(parse_coefficient, text, ("t", "s"))
    with mock.patch.object(coefficients, "_tokenize", _reference_tokenize):
        assert got == _outcome(parse_coefficient, text, ("t", "s"))


@PROPS
@given(st.data())
def test_syzygy_diagram_is_the_diagram_of_its_exponents(data):
    """The partition's box generators are already the vertices, so building
    the Diagram from them directly drops nothing the minimal filter would."""
    n = data.draw(st.integers(1, 3), label="n")
    p = data.draw(st.integers(1, 2), label="p")
    exps = data.draw(st.lists(exponents(n, p, 4), min_size=1, max_size=7), label="exps")
    weights = [data.draw(weights_st, label="weight") for _ in range(n)]
    partition = DeltaPartition(exps)
    order = SyzygyOrder(weights, exps)
    got = syzygy_diagram(partition, order=order)
    vertex_exps = [ModExponent(d, i + 1) for i in range(len(exps))
                   for d in partition.box_complement_generators(i)]
    expected = diagram_from_exponents(vertex_exps, n=n, p=len(exps), order=order)
    assert got == expected and got.vertices == expected.vertices


# -- sparse linear algebra -------------------------------------------------------

# mostly zeros, as in the relation systems the families checks build
entry_st = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                     st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


@st.composite
def dense_systems(draw):
    """(matrix as dense Fraction rows, column count, right-hand side); empty
    matrices, zero columns and all-zero rows included."""
    ncols = draw(st.integers(0, 6))
    nrows = draw(st.integers(0, 7))
    matrix = [[draw(entry_st) for _ in range(ncols)] for _ in range(nrows)]
    rhs = [draw(entry_st) for _ in range(nrows)]
    return matrix, ncols, rhs


def _sparse(matrix):
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


F = Fraction
LINALG_EXAMPLES = [
    ([], 0, []),
    ([], 3, []),
    ([[], []], 0, [F(0), F(2)]),
    ([[F(0), F(0)], [F(1), F(0)]], 2, [F(1), F(0)]),
    ([[F(0), F(2), F(0)], [F(0), F(4), F(0)]], 3, [F(1), F(2)]),
    ([[F(1, 2), F(1, 3)], [F(3), F(2)]], 2, [F(1), F(6)]),
]


def _with_examples(test):
    for case in LINALG_EXAMPLES:
        test = example(case)(test)
    return test


@PROPS
@given(dense_systems())
@_with_examples
def test_rref_matches_the_normalized_oracle_echelon_form(system):
    matrix, _, _ = system
    reduced, pivots = rref(_sparse(matrix))
    mat, oracle_pivots = oracle.row_echelon(matrix)
    assert pivots == oracle_pivots
    assert reduced == [
        {j: v / mat[r][pc] for j, v in enumerate(mat[r]) if v}
        for r, pc in enumerate(oracle_pivots)
    ]


@PROPS
@given(dense_systems())
@_with_examples
def test_kernel_basis_is_annihilated_and_counts_the_nullity(system):
    matrix, ncols, _ = system
    basis = kernel_basis(_sparse(matrix), ncols)
    assert len(basis) == ncols - oracle.rank(matrix)
    dense = [[vec.get(j, F(0)) for j in range(ncols)] for vec in basis]
    assert oracle.rank(dense) == len(basis)
    for vec in basis:
        assert all(0 <= j < ncols and v for j, v in vec.items())
        for row in matrix:
            assert sum(row[j] * v for j, v in vec.items()) == 0


@PROPS
@given(dense_systems())
@_with_examples
def test_rref_pivots_in_the_rhs_column_exactly_when_unsolvable(system):
    matrix, ncols, rhs = system
    _, pivots = rref(_sparse([row + [b] for row, b in zip(matrix, rhs)]))
    assert (ncols in pivots) != oracle.linear_solvable(matrix, rhs)


def test_oracle_does_not_import_the_engine_linear_algebra():
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported |= {f"{node.module}.{alias.name}" for alias in node.names}
    assert not {name for name in imported if "linalg" in name}


# -- relations-check spanning ----------------------------------------------------

@st.composite
def spanning_instances(draw):
    """(generators, emitted relations, candidates) at n = 2: two or three
    generators whose lowest degrees may differ, so slots go inert at
    different degrees; the candidates are the oracle relations, unit
    monomial vectors (often outside the span), or both."""
    trunc = draw(st.integers(3, 5))
    order = StandardOrder([draw(weights_st) for _ in range(2)])
    gens = []
    for _ in range(draw(st.integers(2, 3))):
        shift = draw(st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]))
        g = draw(series(2, 1, trunc, 4)).mul_monomial(shift)
        assume(not g.is_zero)
        gens.append(g)
    try:
        rels = list(relations_of_generators(order, gens).relations)
    except DegenerateFamilyError:
        assume(False)
    q = len(gens)
    form = draw(st.sampled_from(["oracle", "monomials", "mixed"]))
    bound = relation_multiplier_bound(StandardOrder.unit(2), gens)
    hs = oracle_relations(gens, bound) if form != "monomials" else []
    if form != "oracle":
        hs += [TruncatedSeries.monomial(e, QQ.one, 2, q, trunc, QQ)
               for e in draw(st.lists(exponents(2, q, trunc), min_size=1, max_size=3))]
    return gens, rels, hs


@PROPS
@given(spanning_instances())
def test_all_spanned_agrees_with_the_oracle(inst):
    gens, rels, hs = inst
    assert _all_spanned(rels, gens, hs) == all(
        oracle.spanned_modulo_inert(gens, rels, h) for h in hs
    )


# -- greedy minimal subsets ------------------------------------------------------

def _full_greedy_pass(order, pool, full):
    """The greedy pass with no grade floor and no completion target: every
    index is tried until one series is left, and each candidate is
    completed to the end."""
    keep = list(range(len(pool)))
    survivors = None
    for idx in reversed(range(len(pool))):
        if len(keep) == 1:
            break
        candidate = [i for i in keep if i != idx]
        sub = complete_to_standard_basis(order, [pool[i] for i in candidate])
        if sub.diagram == full:
            keep, survivors = candidate, sub
    return tuple(keep), survivors


def _printed(s):
    return {e: str(c) for e, c in s.terms.items()}


def _basis_record(basis):
    """What a StandardBasis holds, coefficients as printed: its diagram,
    elements, (q, steps, index) record and new denominators."""
    if basis is None:
        return None
    q, steps, index = basis._record
    return (basis.diagram.vertices, [_printed(e) for e in basis.elements], q,
            [(gamma, i, [_printed(qj) for qj in quotients]) for gamma, i, quotients in steps],
            index, [str(g) for g in basis.new_denominators])


def _assert_greedy_matches_the_full_pass(order, pool, full):
    keep, survivors = _greedy_subset(order, pool, full)
    ref_keep, ref_survivors = _full_greedy_pass(order, pool, full)
    assert keep == ref_keep
    assert _basis_record(survivors) == _basis_record(ref_survivors)


@st.composite
def generator_lists(draw, min_size=1):
    n, p, trunc, order = draw(ambients())
    return order, draw(st.lists(series(n, p, trunc, 4), min_size=min_size, max_size=4))


@settings(max_examples=100, deadline=None, database=None)
@given(generator_lists())
def test_greedy_subset_matches_the_full_pass(inst):
    order, gens = inst
    basis = complete_to_standard_basis(order, gens)
    _assert_greedy_matches_the_full_pass(order, gens, basis.diagram)
    _assert_greedy_matches_the_full_pass(order, list(basis.elements), basis.diagram)


@settings(max_examples=30, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(generator_lists(min_size=2), st.data())
def test_greedy_subset_matches_the_full_pass_on_relation_vectors(inst, data):
    """Pools of relation vectors under a SyzygyOrder: the distinguished
    relations of a basis, with a monomial multiple of one of them and a
    sum of two appended so that some are redundant."""
    order, gens = inst
    syz = standard_relations(complete_to_standard_basis(order, gens))
    assume(syz.relations)
    rels = list(syz.relations)
    shift = data.draw(st.lists(st.integers(0, 1), min_size=order.n, max_size=order.n))
    pool = rels + [rels[-1].mul_monomial(shift), rels[0] + rels[-1]]
    pool = [r for r in pool if not r.is_zero]
    full = complete_to_standard_basis(syz.order, pool).diagram
    _assert_greedy_matches_the_full_pass(syz.order, pool, full)


def test_greedy_subset_matches_the_full_pass_over_a_localized_basis():
    """family_xi.json's basis has a redundant element.  Each pass runs on
    a fresh parse, so both start from an empty denominator registry and
    must leave the same one behind."""
    path = Path(__file__).parent / "fixtures" / "family_xi.json"

    def run(greedy, source):
        pm = io.parse_module_file(path).param_module()
        ring, gens = pm.localized()
        basis = complete_to_standard_basis(pm.order, gens)
        pool = list(basis.elements) if source == "basis" else list(gens)
        keep, survivors = greedy(pm.order, pool, basis.diagram)
        return keep, _basis_record(survivors), [str(g) for g in ring.dset.generators]

    for source in ("basis", "generators"):
        assert run(_greedy_subset, source) == run(_full_greedy_pass, source)
    assert run(_greedy_subset, "basis")[1] is not None


@settings(max_examples=100, deadline=None, database=None)
@given(generator_lists())
def test_completion_with_its_target_keeps_the_full_record(inst):
    """Whenever a list generates the module whose diagram is the target, the
    completion that stops at the target's vertices returns what the full
    completion does: the sublists of the generators that do, the basis,
    and the basis with the generators after it."""
    order, gens = inst
    basis = complete_to_standard_basis(order, gens)
    full = basis.diagram
    lists = [list(basis.elements), list(basis.elements) + gens]
    lists += [[gens[i] for i in range(len(gens)) if mask >> i & 1]
              for mask in range(1, 2 ** len(gens))]
    for lst in lists:
        plain = complete_to_standard_basis(order, lst)
        if plain.diagram == full:
            targeted = complete_to_standard_basis(order, lst, _target=full)
            assert _basis_record(targeted) == _basis_record(plain)


# -- completion and presentations under weighted orders ---------------------------

def _diagram_points(diagram, n, p, trunc):
    """The points of degree <= trunc in the diagram, counted off its vertices."""
    return sum(
        any(v.comp == comp and all(a >= b for a, b in zip(alpha, v.alpha))
            for v in diagram.vertices)
        for comp in range(1, p + 1) for alpha in oracle.exponents_up_to(n, trunc)
    )


@st.composite
def truncating_generator_lists(draw):
    """Generator lists whose first series is a binomial whose initial term
    has the higher total degree, so truncation strips that term from some
    of its multiples, which then start somewhere else.  The lower-degree
    term holds x1, which weighs more than the whole initial term."""
    n = draw(st.integers(2, 3))
    p = draw(st.integers(1, 2))
    trunc = draw(st.integers(2, {2: 5, 3: 3}[n]))
    alphas = oracle.exponents_up_to(n, trunc)
    low = draw(st.sampled_from([a for a in alphas if a[0] and sum(a) < trunc]))
    high = draw(st.sampled_from([a for a in alphas if not a[0] and sum(a) > sum(low)]))
    rest = [draw(weights_st) for _ in range(n - 1)]
    heavy = sum(w * a for w, a in zip(rest, high[1:])) + draw(weights_st)
    order = StandardOrder((heavy, *rest))
    binomial = TruncatedSeries(n, p, trunc, QQ, {
        ModExponent(high, draw(st.integers(1, p))): draw(coeff_st),
        ModExponent(low, draw(st.integers(1, p))): draw(coeff_st),
    })
    return order, [binomial] + draw(st.lists(series(n, p, trunc, 3), max_size=2))


@settings(max_examples=150, deadline=None, database=None)
@given(truncating_generator_lists())
def test_completed_diagram_counts_the_dimension_of_the_module(inst):
    """Distinct initial exponents of a truncated module are as many as its
    dimension, and under a standard basis they are the diagram's points."""
    order, gens = inst
    n, p, trunc = gens[0].n, gens[0].p, gens[0].trunc
    assert gens[0].initial(order).exponent.degree > min(e.degree for e in gens[0].terms)
    basis = complete_to_standard_basis(order, gens)
    assert _diagram_points(basis.diagram, n, p, trunc) == oracle.module_dimension(gens)


@settings(max_examples=100, deadline=None, database=None)
@given(generator_lists())
def test_presentations_annihilate_and_carry_the_adjugate(inst):
    """Random weights and p in {1, 2}: every relation annihilates the
    generators, and U * adj(U) = adj(U) * U = det(U) * I."""
    order, gens = inst
    pres = relations_of_generators(order, gens)
    assert all(relation_defect(r, gens).is_zero for r in pres.relations)
    u, adj, det = pres.u_matrix, pres.u_adjugate, pres.det_u
    zero = TruncatedSeries.zero(det.n, 1, det.trunc, QQ)
    for a, b in ((u, adj), (adj, u)):
        for i in range(pres.m):
            for j in range(pres.m):
                entry = zero
                for t in range(pres.m):
                    entry = entry + a[i][t].mul_series(b[t][j])
                assert entry == (det if i == j else zero)

"""Independent oracles used to cross-check the engine.

Everything here is deliberately naive: dense Gaussian elimination over
Fraction, brute-force staircase scans, and direct Nakayama rank counts.
These functions read series term maps but never call the division machinery
they are checking.
"""

from fractions import Fraction
from itertools import product


def exponents_up_to(n, d):
    """All multi-indices with total degree <= d (brute product filter)."""
    out = [e for e in product(range(d + 1), repeat=n) if sum(e) <= d]
    out.sort()
    return out


def row_echelon(matrix):
    """In-place forward elimination; returns pivot column list."""
    mat = [row[:] for row in matrix]
    pivots = []
    row = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        target = None
        for r in range(row, len(mat)):
            if mat[r][col] != 0:
                target = r
                break
        if target is None:
            continue
        mat[row], mat[target] = mat[target], mat[row]
        lead = mat[row][col]
        for r in range(len(mat)):
            if r != row and mat[r][col] != 0:
                factor = mat[r][col] / lead
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return mat, pivots


def rank(vectors):
    vecs = [v for v in vectors if any(v)]
    if not vecs:
        return 0
    _, pivots = row_echelon(vecs)
    return len(pivots)


def linear_solvable(matrix, rhs):
    """Whether matrix * x = rhs admits a rational solution."""
    if not matrix:
        return all(v == 0 for v in rhs)
    aug = [row + [b] for row, b in zip(matrix, rhs)]
    _, pivots = row_echelon(aug)
    width = len(matrix[0])
    return all(p < width for p in pivots)


def _term(series, alpha, comp):
    for e, c in series.terms.items():
        if e.alpha == alpha and e.comp == comp:
            return c
    return Fraction(0)


def membership_oracle(generators, g):
    """Solvability of g = sum_i c_i * gen_i modulo degree > trunc, with the
    c_i arbitrary polynomial multipliers of degree <= trunc."""
    n, p, trunc = g.n, g.p, g.trunc
    betas = exponents_up_to(n, trunc)
    columns = [(i, beta) for i in range(len(generators)) for beta in betas]
    matrix = []
    rhs = []
    for comp in range(1, p + 1):
        for alpha in exponents_up_to(n, trunc):
            row = []
            for i, beta in columns:
                diff = tuple(a - b for a, b in zip(alpha, beta))
                if min(diff) < 0:
                    row.append(Fraction(0))
                else:
                    row.append(_term(generators[i], diff, comp))
            matrix.append(row)
            rhs.append(_term(g, alpha, comp))
    return linear_solvable(matrix, rhs)


def relations_oracle(generators, bound):
    """Kernel of (H_1..H_q) -> sum H_i * gen_i modulo degree > trunc, with
    multiplier degree <= bound.  Returns vectors as {(beta, i): coeff}."""
    if not generators:
        return []
    first = generators[0]
    n, p, trunc, q = first.n, first.p, first.trunc, len(generators)
    betas = exponents_up_to(n, bound)
    columns = [(i, beta) for i in range(q) for beta in betas]
    matrix = []
    for comp in range(1, p + 1):
        for alpha in exponents_up_to(n, trunc):
            row = []
            for i, beta in columns:
                diff = tuple(a - b for a, b in zip(alpha, beta))
                if min(diff) < 0:
                    row.append(Fraction(0))
                else:
                    row.append(_term(generators[i], diff, comp))
            if any(row):
                matrix.append(row)
    if not matrix:
        return [
            {(beta, i): Fraction(1)}
            for i, beta in columns
        ]
    mat, pivots = row_echelon(matrix)
    pivot_set = set(pivots)
    kernel = []
    for free in range(len(columns)):
        if free in pivot_set:
            continue
        vec = {}
        i, beta = columns[free]
        vec[(beta, i)] = Fraction(1)
        for r, pc in enumerate(pivots):
            val = -mat[r][free] / mat[r][pc]
            if val:
                ci, cbeta = columns[pc]
                vec[(cbeta, ci)] = val
        kernel.append(vec)
    return kernel


def default_relation_bound(generators):
    """trunc minus the largest initial-term degree among the generators.

    Correct bound for relations among standard-basis elements (their initial
    degrees are the vertex degrees).  For an arbitrary generator list use
    vertex_relation_bound with the completed diagram instead: multipliers
    bounded by the generators' own degrees can scrape together near-relations
    whose defect hides just past the horizon.
    """
    trunc = generators[0].trunc
    degs = [min(e.degree for e in g.terms) for g in generators if not g.is_zero]
    if not degs:
        return trunc
    return max(trunc - max(degs), 0)


def vertex_relation_bound(trunc, diagram):
    """trunc minus the largest vertex degree of the completed diagram."""
    degs = [v.degree for v in diagram.vertices]
    if not degs:
        return trunc
    return max(trunc - max(degs), 0)


def staircase_minimal_generators(exponents, n, trunc):
    """Minimal generators of a monomial staircase by direct corner scan.

    A point e of the staircase is a corner iff removing any single unit from
    a positive coordinate leaves the staircase.  Scans the whole degree-<=
    trunc box, so it is independent of any divisibility-minimality shortcut.
    """
    gens_by_comp = {}
    for e in exponents:
        gens_by_comp.setdefault(e.comp, []).append(e.alpha)

    def inside(comp, alpha):
        return any(
            all(a >= b for a, b in zip(alpha, g))
            for g in gens_by_comp.get(comp, [])
        )

    corners = set()
    for comp in sorted(gens_by_comp):
        for alpha in exponents_up_to(n, trunc):
            if not inside(comp, alpha):
                continue
            is_corner = True
            for k in range(n):
                if alpha[k] == 0:
                    continue
                down = list(alpha)
                down[k] -= 1
                if inside(comp, tuple(down)):
                    is_corner = False
                    break
            if is_corner:
                corners.add((tuple(alpha), comp))
    return corners


def spanned_modulo_inert(generators, span_rels, h):
    """Whether h is a series combination of span_rels on every relation-vector
    coordinate that acts nontrivially below the horizon.

    Coordinate (beta, k) is inert when x^beta * generators[k-1] stores no
    term; inert coordinates say nothing about the module and are ignored.
    """
    from formaldiv import ModExponent
    from fractions import Fraction as _F

    n, trunc, q = h.n, h.trunc, h.p
    mindeg = [
        min((e.degree for e in g.terms), default=None) for g in generators
    ]
    betas = exponents_up_to(n, trunc)
    columns = [(g, beta) for g in span_rels for beta in betas]
    rows, rhs = [], []
    for comp in range(1, q + 1):
        md = mindeg[comp - 1]
        for alpha in exponents_up_to(n, trunc):
            if md is None or sum(alpha) + md > trunc:
                continue
            row = []
            for g, beta in columns:
                diff = tuple(a - b for a, b in zip(alpha, beta))
                if min(diff) < 0:
                    row.append(_F(0))
                else:
                    row.append(g.terms.get(ModExponent(diff, comp), _F(0)))
            rows.append(row)
            rhs.append(h.terms.get(ModExponent(alpha, comp), _F(0)))
    return linear_solvable(rows, rhs)


def _shift_vectors(generators, least_shift):
    """Coefficient vectors of every x^beta * g, truncated past trunc, over
    the generators g and the beta with least_shift <= |beta| <= trunc."""
    first = generators[0]
    n, p, trunc = first.n, first.p, first.trunc
    slots = [
        (alpha, comp)
        for comp in range(1, p + 1)
        for alpha in exponents_up_to(n, trunc)
    ]
    index = {sl: k for k, sl in enumerate(slots)}
    vectors = []
    for g in generators:
        for beta in exponents_up_to(n, trunc):
            if sum(beta) < least_shift:
                continue
            v = [Fraction(0)] * len(slots)
            for e, c in g.terms.items():
                alpha = tuple(a + b for a, b in zip(e.alpha, beta))
                if sum(alpha) <= trunc:
                    v[index[(alpha, e.comp)]] = c
            vectors.append(v)
    return vectors


def module_dimension(generators):
    """dim of the generated module modulo degree > trunc, as a vector space:
    rank of all truncated monomial multiples of the generators."""
    return rank(_shift_vectors(generators, 0))


def nakayama_dimension(generators):
    """dim of the generated module modulo the maximal ideal, truncated sense:
    rank of the generators' coefficient vectors modulo the span of all their
    monomial shifts by degree >= 1."""
    return module_dimension(generators) - rank(_shift_vectors(generators, 1))

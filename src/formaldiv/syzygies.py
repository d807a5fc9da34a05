"""Relation modules of series vectors: their diagram, their standard basis,
and presentations of the relations of arbitrary generator lists.

For a complete basis, each cell of the division partition occupies a
translated box inside its vertex's orthant; the relation module's diagram is,
slot by slot, the complement of that box, so its vertices are immediately
computable.  Dividing the corresponding monomial multiples back through the
basis produces one distinguished relation per vertex, and those generate all
relations (up to the truncation horizon) under the slot-weighted order.

For arbitrary generators the presentation routes through a minimal subset:
redundant generators are expressed in the minimal ones, and the distinguished
relations of the basis are pulled back through an adjugate-scaled change of
coordinates, so the construction stays inside the localized coefficient ring;
its validity at a specialization point is certified by the recorded
denominators together with the constant term of one determinant.  That
determinant, det U of the change-of-generators matrix, and the adjugate of U
come from one first-row cofactor expansion that computes each minor once:
O(m^2 2^m) series products for m kept generators, in the operation order of
a plain expansion, so unreduced localized fractions print the same.

Each generator list is completed once, a candidate subset only until it
reaches the target diagram (the full list's).  A greedy pass, over the
generators and then the basis, ends at the target's count of lowest-grade
vertices; the completion that accepted its last drop is the survivors' basis.

Every product of series matrices in a presentation (Xi and Theta, U, each
eta + Xi*zeta and each adj(U)*v) is one `_matmul`, which sums on ints over
the rationals and with the series operators, left to right, over the
parametric rings, whose unreduced fractions print by that order.

The `syzygy` and `relations` results are shaped as JSON here, so a call that
computes no relations loads none of it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from . import io
from .division import (
    DivisionResult,
    StandardBasis,
    complete_to_standard_basis,
    hironaka_divide,
)
from .errors import (
    DegenerateFamilyError,
    IncompleteBasisError,
    InvariantError,
    NotARelationError,
    PreconditionError,
)
from .exponents import (
    DeltaPartition,
    Diagram,
    ModExponent,
    SyzygyOrder,
    diagram_from_exponents,
    syzygy_order_for,
)
from .rationals import QQ
from .series import TruncatedSeries, _dot

if TYPE_CHECKING:
    from .coefficients import Coefficient, ParamPolynomial


def syzygy_diagram(partition: DeltaPartition, *, order: SyzygyOrder) -> Diagram:
    """Diagram of the relation module read off the division cells.

    Slot i holds exactly the shifts of the i-th divisor exponent that escape
    into an earlier cell; its generating multi-indices come straight from the
    partition.
    """
    q = partition.cell_count
    exps = []
    for i in range(q):
        for d in partition.box_complement_generators(i):
            exps.append(ModExponent(d, i + 1))
    return diagram_from_exponents(exps, n=partition.n, p=q, order=order)


class SyzygyBasis(NamedTuple):
    """Distinguished relations of a standard basis, one per diagram vertex."""

    source: StandardBasis
    order: SyzygyOrder
    diagram: Diagram
    relations: tuple[TruncatedSeries, ...]

    def __len__(self):
        return len(self.relations)


def _relations_core(order, elements: Sequence[TruncatedSeries]):
    """Syzygy order, diagram and distinguished relations of an ordered list."""
    ring = elements[0].ring
    n, trunc = elements[0].n, elements[0].trunc
    r = len(elements)
    exps = [e.initial(order).exponent for e in elements]
    partition = DeltaPartition(exps)
    syz_order = syzygy_order_for(exps, order.form)
    ndiag = syzygy_diagram(partition, order=syz_order)
    relations = []
    for v in ndiag.vertices:
        gamma, slot = v.alpha, v.comp
        test = elements[slot - 1].mul_monomial(ring.one, gamma)
        res = hironaka_divide(order, elements, test)
        if not res.remainder.is_zero:
            raise IncompleteBasisError(
                f"monomial multiple x^{gamma} of element {slot} does not reduce "
                "to zero; the list is not a standard basis at this truncation"
            )
        terms = {}
        for j, qj in enumerate(res.quotients):
            for be, c in qj.terms.items():
                terms[ModExponent(be.alpha, j + 1)] = -c
        head = ModExponent(gamma, slot)
        terms[head] = terms.get(head, ring.zero) + ring.one
        relations.append(TruncatedSeries(n, r, trunc, ring, terms))
    return syz_order, ndiag, tuple(relations)


def standard_relations(basis: StandardBasis) -> SyzygyBasis:
    """Distinguished generating relations among the basis elements."""
    if not basis.elements:
        raise PreconditionError("empty basis has no relation module")
    order, diagram, relations = _relations_core(basis.order, basis.elements)
    return SyzygyBasis(basis, order, diagram, relations)


def relation_defect(
    h: TruncatedSeries, elements: Sequence[TruncatedSeries]
) -> TruncatedSeries:
    """sum of h's entries times the elements; zero iff h is a relation."""
    if h.p != len(elements):
        raise PreconditionError(
            f"vector has {h.p} entries for {len(elements)} elements"
        )
    return _dot((h.component(j + 1), e) for j, e in enumerate(elements))


def active_part(
    h: TruncatedSeries, elements: Sequence[TruncatedSeries]
) -> TruncatedSeries:
    """Strip the terms of a relation vector that act as zero below the horizon.

    A term at (beta, k) is inert when every term of x^beta * elements[k-1]
    lands beyond the truncation degree; inert terms are relations for free
    and carry no information about the module.  The relation module at a
    finite horizon is only determined modulo such terms.
    """
    active = _active_test(elements, h.trunc)
    keep = {e: c for e, c in h.terms.items() if active(e.degree, e.comp)}
    return TruncatedSeries(h.n, h.p, h.trunc, h.ring, keep)


def _active_test(elements, trunc):
    """Predicate on (degree, slot k): whether a multiplier term of that degree
    in slot k reaches degree <= trunc in x^beta * elements[k-1]."""
    mindeg = [
        min((e.degree for e in el.terms), default=None) for el in elements
    ]

    def active(degree, comp):
        md = mindeg[comp - 1]
        return md is not None and degree + md <= trunc

    return active


def reduce_relation(h: TruncatedSeries, syz: SyzygyBasis) -> DivisionResult:
    """Divide a relation vector by the distinguished relations.

    The input must annihilate the basis modulo degree > trunc.  The
    truncation of an actual relation reduces to a remainder whose active
    part vanishes (the remainder is exactly zero whenever the degrees stay
    comfortably below the horizon).
    """
    defect = relation_defect(h, syz.source.elements)
    if not defect.is_zero:
        raise NotARelationError(
            "input does not annihilate the basis modulo the truncation degree"
        )
    if not syz.relations:
        empty = DivisionResult((), h, None)
        return empty
    return hironaka_divide(syz.order, syz.relations, h)


def minimal_generating_subset(
    order, generators: Sequence[TruncatedSeries]
) -> tuple[int, tuple[int, ...]]:
    """Greedy minimal subset generating the same staircase diagram.

    Highest indices are considered for elimination first, so ties resolve to
    the lowest-index survivors.  The survivor count equals the dimension of
    the module modulo the maximal ideal, any elimination order agreeing by
    the usual spanning-set argument.
    """
    gens = list(generators)
    if not gens:
        raise PreconditionError("no generators given")
    keep, _ = _greedy_subset(order, gens, complete_to_standard_basis(order, gens).diagram)
    return len(keep), keep


def _greedy_subset(order, pool, full):
    """Survivor indices of the greedy pass over the series in pool, and the
    StandardBasis of the survivors completed when the last drop was accepted
    (None when nothing was dropped).  full is the diagram pool generates.

    The pass ends when no index is left, or once keep has as many series as
    full has vertices of lowest grade (order.key's first entry): x^gamma != 1
    raises the grade, so fewer series cannot reach them all.  A candidate
    lies in the module, so its completion may stop at full's vertices.
    """
    grades = [order.key(v)[0] for v in full.vertices]
    floor = grades.count(min(grades))
    keep = list(range(len(pool)))
    survivors = None
    for idx in reversed(range(len(pool))):
        if len(keep) == floor:
            break
        candidate = [i for i in keep if i != idx]
        sub = complete_to_standard_basis(order, [pool[i] for i in candidate], _target=full)
        if sub.diagram == full:
            keep, survivors = candidate, sub
    return tuple(keep), survivors


# ---------------------------------------------------------------------------
# small dense matrices of one-component series
# ---------------------------------------------------------------------------

def _det_adj(m, one):
    """(det, adjugate) of a nonempty square matrix of one-component series.

    Every minor is the `_dot` of its first-row expansion, with the sums and
    their order of a plain recursive cofactor expansion, and is memoized on
    its (rows, cols) index tuples: O(m^2 2^m) series products, not O(m!).
    """
    memo = {}

    def det(rows, cols):
        if len(rows) <= 1:
            return m[rows[0]][cols[0]] if rows else one
        key = (rows, cols)
        if key not in memo:
            top, rest = m[rows[0]], rows[1:]
            memo[key] = _dot((-top[c] if k % 2 else top[c], det(rest, cols[:k] + cols[k + 1:]))
                             for k, c in enumerate(cols))
        return memo[key]

    full = tuple(range(len(m)))
    adj = [[None] * len(m) for _ in full]
    for i in full:
        for j in full:
            cof = det(full[:i] + full[i + 1:], full[:j] + full[j + 1:])
            adj[j][i] = -cof if (i + j) % 2 else cof
    return det(full, full), adj


def _matmul(a, b, start=None):
    """The product of two matrices of one-component series, plus start if
    given: entry (i, j) is start[i][j] + sum over t of a[i][t] * b[t][j].

    Over the rationals, a is packed over one denominator and b with start
    over another, each entry as (index, numerator) int pairs sorted by a
    mixed-radix index with radix R = D + 1 and the degree as its top digit,
    deg(alpha)*R^n + sum alpha_k*R^(k-1).  No digit of a product that stays
    within degree D carries, so indices add as exponents do, and a product
    term is kept iff its index is below (D + 1)*R^n.  The products are
    summed as ints and each entry is reduced once; rationals print
    canonically, so the order of that sum cannot show.  Other rings sum with
    `_dot`, left to right from start.
    """
    cols = range(len(b[0]) if b else len(start[0]) if start else 0)
    first = next((s for mat in (a, b, start or ()) for row in mat for s in row), None)
    if first is None or first.ring != QQ:
        return [[_dot(zip(row, (b_row[j] for b_row in b)), start[i][j] if start else None)
                 for j in cols] for i, row in enumerate(a)]

    n, trunc = first.n, first.trunc
    radix = trunc + 1
    limit = radix ** (n + 1)

    def index(alpha):
        idx = sum(alpha)
        for e in reversed(alpha):
            idx = idx * radix + e
        return idx

    def alpha(idx):
        digits = []
        for _ in range(n):
            idx, e = divmod(idx, radix)
            digits.append(e)
        return tuple(digits)

    def common_denominator(*mats):
        return lcm(*(c.denominator for mat in mats for row in mat for s in row
                     for c in s.terms.values()))

    def packed(s, den):
        return sorted((index(e.alpha), c.numerator * (den // c.denominator))
                      for e, c in s.terms.items())

    da, db = common_denominator(a), common_denominator(b, start or ())
    ap = [[packed(s, da) for s in row] for row in a]
    bp = [[packed(s, db) for s in row] for row in b]
    den = da * db
    out = []
    for i, a_row in enumerate(ap):
        out_row = []
        for j in cols:
            acc = {k: x * da for k, x in packed(start[i][j], db)} if start else {}
            for x_terms, b_row in zip(a_row, bp):
                for k, x in x_terms:
                    room = limit - k
                    for l, y in b_row[j]:
                        if l >= room:
                            break
                        kl = k + l
                        acc[kl] = acc.get(kl, 0) + x * y
            terms = {ModExponent(alpha(k), 1): Fraction(x, den) for k, x in acc.items() if x}
            out_row.append(TruncatedSeries(n, 1, trunc, QQ, terms))
        out.append(out_row)
    return out


class RelationPresentation(NamedTuple):
    """Generators of the relation module of an arbitrary generator list.

    relations annihilate the input generators (in their original component
    order) modulo degree > trunc.  At a parameter point where every recorded
    denominator generator and the constant determinant term are nonzero, the
    specialized relations generate all relations of the specialized
    generators up to the truncation horizon.
    """

    generators: tuple[TruncatedSeries, ...]
    relations: tuple[TruncatedSeries, ...]
    m: int
    subset: tuple[int, ...]
    generator_order: tuple[int, ...]
    basis: StandardBasis
    theta: tuple[tuple[TruncatedSeries, ...], ...]
    xi: tuple[tuple[TruncatedSeries, ...], ...]
    u_matrix: tuple[tuple[TruncatedSeries, ...], ...]
    u_adjugate: tuple[tuple[TruncatedSeries, ...], ...]
    det_u: TruncatedSeries
    det_u_constant: Coefficient
    denominator_generators: tuple[ParamPolynomial, ...]

    @property
    def det_u_certificate(self) -> Optional[ParamPolynomial]:
        """Polynomial whose nonvanishing certifies the presentation at a point."""
        c = self.det_u_constant
        if isinstance(c, Fraction):
            return None
        from .coefficients import LocalizedFraction
        return c.num if isinstance(c, LocalizedFraction) else c


def _express_in_subset(order, survivors, m, dropped):
    """m x len(dropped) matrix whose column l expresses dropped[l] in the m
    kept series, read through the provenance of their standard basis
    survivors; valid modulo degree > trunc.
    """
    quotients = []
    for g in dropped:
        res = hironaka_divide(order, survivors.elements, g)
        if not res.remainder.is_zero:
            raise InvariantError(
                "minimal subset fails to reproduce a dropped element; "
                "truncation degree too small for this configuration"
            )
        quotients.append(res.quotients)
    columns = _matmul(quotients, survivors.provenance if dropped else ())
    return [[column[i] for column in columns] for i in range(m)]


def relations_of_generators(
    order, generators: Sequence[TruncatedSeries]
) -> RelationPresentation:
    """Generating relations of an arbitrary nonzero generator list.

    Raises DegenerateFamilyError when the constant term of the change-of-
    generators matrix is singular, in which case no presentation is emitted.
    """
    gens = list(generators)
    if not gens:
        raise PreconditionError("no generators given")
    ring = gens[0].ring
    n, trunc, q = gens[0].n, gens[0].trunc, len(gens)
    one_series = TruncatedSeries.monomial(
        ModExponent((0,) * n, 1), ring.one, n, 1, trunc, ring
    )

    basis = complete_to_standard_basis(order, gens)
    r = len(basis.elements)

    keep_phi, kept_gens = _greedy_subset(order, gens, basis.diagram)
    keep_psi, kept_elements = _greedy_subset(order, basis.elements, basis.diagram)
    if len(keep_phi) != len(keep_psi):
        raise InvariantError(
            f"minimal generator counts disagree: {len(keep_phi)} generators vs "
            f"{len(keep_psi)} basis elements"
        )
    m = len(keep_phi)
    rest_phi = [i for i in range(q) if i not in keep_phi]
    rest_psi = [i for i in range(r) if i not in keep_psi]
    perm_phi = list(keep_phi) + rest_phi
    perm_psi = list(keep_psi) + rest_psi
    elements_perm = [basis.elements[t] for t in perm_psi]

    # Xi: dropped basis elements in terms of the kept ones (m x (r-m))
    xi = _express_in_subset(order, kept_elements, m, [basis.elements[t] for t in rest_psi])
    # Theta: dropped generators in terms of the kept ones (m x (q-m))
    theta = _express_in_subset(order, kept_gens, m, [gens[t] for t in rest_phi])

    # T: kept generators through the full (permuted) basis (r x m)
    t_matrix = [[None] * m for _ in range(r)]
    for jcol, gi in enumerate(keep_phi):
        res = hironaka_divide(order, elements_perm, gens[gi])
        if not res.remainder.is_zero:
            raise InvariantError("generator fails to reduce through its own basis")
        for jrow in range(r):
            t_matrix[jrow][jcol] = res.quotients[jrow]

    # U = T_top + Xi * T_bottom, an m x m change of generators
    u_matrix = t_matrix[:m]
    if rest_psi:
        u_matrix = [[u + w for u, w in zip(row, xt_row)]
                    for row, xt_row in zip(u_matrix, _matmul(xi, t_matrix[m:]))]

    det_u, u_adj = _det_adj(u_matrix, one_series)
    det_u0 = det_u.coefficient(ModExponent((0,) * n, 1))
    if not det_u0:
        raise DegenerateFamilyError(
            "constant term of the change-of-generators matrix is singular"
        )

    def in_slots(column):
        # the terms of a q-vector holding column[i] in kept generator i's slot
        return {ModExponent(e.alpha, perm_phi[i] + 1): c
                for i, s in enumerate(column) for e, c in s.terms.items()}

    # each basis relation, eta its first m entries and zeta the rest, pulled
    # back as adj(U) * (eta + Xi * zeta); columns index the relations
    p_rels = _relations_core(order, elements_perm)[2]
    entries = [[rel.component(k + 1) for rel in p_rels] for k in range(r)]
    v = _matmul(xi, entries[m:], start=entries[:m])
    relations = [TruncatedSeries(n, q, trunc, ring, terms)
                 for terms in map(in_slots, zip(*_matmul(u_adj, v))) if terms]
    for l, orig in enumerate(rest_phi):
        terms = {ModExponent((0,) * n, orig + 1): ring.one,
                 **in_slots(-theta[i][l] for i in range(m))}
        relations.append(TruncatedSeries(n, q, trunc, ring, terms))

    dset = getattr(ring, "dset", None)
    dens = tuple(dset.generators) if dset is not None else ()
    return RelationPresentation(
        generators=tuple(gens),
        relations=tuple(relations),
        m=m,
        subset=tuple(keep_phi),
        generator_order=tuple(perm_phi),
        basis=basis,
        theta=tuple(tuple(row) for row in theta),
        xi=tuple(tuple(row) for row in xi),
        u_matrix=tuple(tuple(row) for row in u_matrix),
        u_adjugate=tuple(tuple(row) for row in u_adj),
        det_u=det_u,
        det_u_constant=det_u0,
        denominator_generators=dens,
    )


# ---------------------------------------------------------------------------
# JSON results
# ---------------------------------------------------------------------------

def presentation_to_json(pres: RelationPresentation, order) -> dict:
    def matrix(mat):
        return [[io.series_to_json(cell, order) for cell in row] for row in mat]

    return {
        "m": pres.m,
        "subset": [i + 1 for i in pres.subset],
        "generator_order": [i + 1 for i in pres.generator_order],
        "basis_vertices": io.diagram_to_json(pres.basis.diagram),
        "relations": [io.series_to_json(r, order) for r in pres.relations],
        "theta": matrix(pres.theta),
        "xi": matrix(pres.xi),
        "u": matrix(pres.u_matrix),
        "det_u_constant": io.coeff_to_json(pres.det_u_constant),
        "certificates": {
            "denominator_generators": [io.coeff_to_json(p) for p in pres.denominator_generators],
            "det_u_constant": io.coeff_to_json(pres.det_u_constant),
        },
    }


def syzygy_payload(order, generators: Sequence[TruncatedSeries]) -> dict:
    """The `syzygy` result: the diagram of the generators' standard basis,
    and the diagram and distinguished relations of its relation module."""
    basis = complete_to_standard_basis(order, generators)
    syz = standard_relations(basis)
    return {
        "truncation_degree": generators[0].trunc,
        "basis_vertices": io.diagram_to_json(basis.diagram),
        "syzygy_vertices": io.diagram_to_json(syz.diagram),
        "relations": [io.series_to_json(r, syz.order) for r in syz.relations],
    }


def relations_payload(order, generators: Sequence[TruncatedSeries]) -> dict:
    """The `relations` result: a presentation of the generators' relations."""
    pres = relations_of_generators(order, generators)
    return {"truncation_degree": generators[0].trunc, **presentation_to_json(pres, order)}

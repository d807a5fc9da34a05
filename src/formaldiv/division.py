"""Formal division of truncated series vectors, and standard bases.

Division works with any admissible order: the divisor list's initial
exponents carve the exponent space into cells (one per divisor, plus a
remainder region), and the working series is split along those cells in one
pass in increasing order.  The least working term goes either to the
remainder or, in cell i, to the quotient Q_i; in the latter case that
quotient term times divisor i's tail is subtracted from the working series.
Because the order is compatible with translation and every tail term comes
after its initial term, a split only feeds strictly later exponents: each
exponent is split once, and since only finitely many exponents have total
degree <= trunc, the pass terminates.  The quotients' shifted supports sit
inside their cells and the remainder is supported on the remainder region.

Over a localized coefficient ring the initial coefficients of the divisors
are the only values ever inverted; each one is recorded in the shared
denominator set, and the record of newly registered polynomials is returned
with every result.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .errors import PreconditionError, ZeroDivisorError
from .exponents import (
    DeltaPartition,
    Diagram,
    ModExponent,
    diagram_from_exponents,
    sub_alpha,
)
from .series import TruncatedSeries, _dot

if TYPE_CHECKING:
    from .coefficients import ParamPolynomial


class DivisionResult(NamedTuple):
    """Quotients, remainder and the support certificates they satisfy."""

    quotients: tuple[TruncatedSeries, ...]
    remainder: TruncatedSeries
    partition: DeltaPartition
    new_denominators: tuple[ParamPolynomial, ...] = ()


class StandardBasis:
    """Vertex representatives of a module of truncated series vectors.

    elements[i] has initial exponent equal to diagram.vertices[i].  canonical
    means each element is its vertex monomial plus a tail supported outside
    the diagram.  provenance expresses each element in the original
    generators (valid modulo degree > trunc).  It is not built with the
    basis: completion and canonicalize keep only the division quotients they
    already have, and provenance replays them each time it is read.
    """

    __slots__ = ("diagram", "elements", "order", "canonical", "new_denominators", "_record")

    def __init__(self, diagram: Diagram, elements: tuple[TruncatedSeries, ...], order,
                 record, canonical=False, new_denominators: tuple[ParamPolynomial, ...] = ()):
        self.diagram, self.elements, self.order = diagram, elements, order
        self.canonical, self.new_denominators = canonical, new_denominators
        self._record = record  # (q, steps, index), or (source, rows) if canonical

    @property
    def vertices(self) -> tuple[ModExponent, ...]:
        return self.diagram.vertices

    @property
    def provenance(self) -> tuple[tuple[TruncatedSeries, ...], ...]:
        if self.canonical:
            return _replay_canonical(*self._record)
        return _replay_completion(self.elements[0], *self._record)

    def __len__(self):
        return len(self.elements)


def _replay_completion(first, q, steps, index):
    """Provenance of the work list elements at index, from the completion's
    (gamma, i, quotients) steps over q generators."""
    n, trunc, ring = first.n, first.trunc, first.ring
    zero = TruncatedSeries.zero(n, 1, trunc, ring)
    unit = TruncatedSeries.monomial(ModExponent((0,) * n, 1), ring.one, n, 1, trunc, ring)
    prov = [tuple(unit if j == k else zero for j in range(q)) for k in range(q)]
    for gamma, i, quotients in steps:
        # r = x^gamma * work[i] - sum_j Q_j * work[j]
        negated = [(-qj, row) for qj, row in zip(quotients, prov) if not qj.is_zero]
        prov.append(tuple(
            _dot(((nq, row[k]) for nq, row in negated), p_s.mul_monomial(ring.one, gamma))
            for k, p_s in enumerate(prov[i])))
    return tuple(prov[k] for k in index)


def _replay_canonical(source, rows):
    """Provenance of canonical elements sum_j Q_j * source_j."""
    prov = source.provenance
    return tuple(
        tuple(_dot(zip(quotients, column)) for column in zip(*prov))
        for quotients in rows
    )


def _ensure_unit(ring, coeff, sink: list):
    """Make coeff invertible over a localized ring, recording new generators."""
    dset = getattr(ring, "dset", None)
    if dset is not None:
        g = dset.register(coeff.num)
        if g is not None:
            sink.append(g)


def hironaka_divide(
    order,
    divisors: Sequence[TruncatedSeries],
    dividend: TruncatedSeries,
) -> DivisionResult:
    """Divide a series vector by an ordered list of nonzero series vectors.

    Returns the unique quotients/remainder with cell-support certificates;
    dividend - sum(Q_i * divisor_i) - R has no term of degree <= trunc.
    Working terms are taken least first from a heap keyed by order.key
    (keys are injective, so ties never occur); each is split exactly once,
    and each quotient term multiplies its divisor's tail once.
    """
    if not divisors:
        raise PreconditionError("need at least one divisor")
    for d in divisors:
        dividend._check(d)
        if d.is_zero:
            raise ZeroDivisorError("zero series among the divisors")

    ring = dividend.ring
    n, p, trunc = dividend.n, dividend.p, dividend.trunc
    inits = [d.initial(order) for d in divisors]
    partition = DeltaPartition([it.exponent for it in inits])

    new_dens: list[ParamPolynomial] = []
    for it in inits:
        _ensure_unit(ring, it.coefficient, new_dens)

    # the ring's work form (values in, fused w - q*t, division, values out)
    to_work, from_work, sub_mul = ring._to_work, ring._from_work, ring._sub_mul
    dividers = [ring._divider(it.coefficient) for it in inits]
    tails = [
        [(e, e.degree, to_work(c)) for e, c in d.terms.items() if e != it.exponent]
        for d, it in zip(divisors, inits)
    ]

    quotients = [dict() for _ in divisors]
    remainder: dict[ModExponent, object] = {}
    working = {e: to_work(c) for e, c in dividend.terms.items()}
    key = order.key
    heap = [(key(e), e) for e in working]
    heapify(heap)

    while heap:
        e = heappop(heap)[1]
        c = working.pop(e)
        if not c:
            continue
        i = partition.cell_of(e)
        if i is None:
            remainder[e] = from_work(c)
            continue
        beta = sub_alpha(e.alpha, inits[i].exponent.alpha)
        qc = quotients[i][beta] = dividers[i](c)
        room = trunc - sum(beta)
        for te, degree, tc in tails[i]:
            if degree > room:
                continue
            t = te.shift(beta)
            w = working.get(t)
            if w is None:
                heappush(heap, (key(t), t))
            working[t] = sub_mul(w, qc, tc)

    q_series = tuple(
        TruncatedSeries(
            n, 1, trunc, ring,
            {ModExponent(beta, 1): from_work(c) for beta, c in q.items()},
        )
        for q in quotients
    )
    r_series = TruncatedSeries(n, p, trunc, ring, remainder)
    return DivisionResult(q_series, r_series, partition, tuple(new_dens))


def is_member(
    order, basis: StandardBasis, g: TruncatedSeries
) -> tuple[bool, DivisionResult]:
    """Membership of g modulo degree > trunc, with the division witness.

    Only division by a standard basis answers conclusively, so any other
    divisor list is refused.
    """
    if not isinstance(basis, StandardBasis):
        raise PreconditionError("membership needs a StandardBasis")
    res = hironaka_divide(order, basis.elements, g)
    return res.remainder.is_zero, res


def complete_to_standard_basis(
    order,
    generators: Sequence[TruncatedSeries],
    *, _target: Optional[Diagram] = None,
) -> StandardBasis:
    """Close a generator list under division up to the truncation degree.

    Every monomial multiple of a list element that crosses into an earlier
    cell is divided by the current list; a nonzero remainder has its initial
    exponent outside the current staircase and is appended.  Each append
    strictly enlarges the staircase within the finite degree-<= trunc grid,
    so the loop terminates.  Appending keeps earlier cells intact, which is
    why already-reduced tests never need revisiting.  The loop ends when no
    test is left, or, given _target (the diagram of a module containing the
    generators), once each of its vertices starts a list element: a later
    remainder would have to start inside a cell, so it would be zero.
    """
    gens = list(generators)
    if not gens:
        raise PreconditionError("cannot complete an empty generator list")
    first = gens[0]
    n, p, trunc, ring = first.n, first.p, first.trunc, first.ring
    for g in gens:
        first._check(g)
        if g.is_zero:
            raise ZeroDivisorError("zero series among the generators")

    work = list(gens)
    steps = []  # (gamma, i, quotients) of each appended remainder
    new_dens: list[ParamPolynomial] = []
    exps = []
    for g in work:
        it = g.initial(order)
        exps.append(it.exponent)
        _ensure_unit(ring, it.coefficient, new_dens)

    part = DeltaPartition(exps)
    pending = [
        (gamma, i) for i in range(len(work)) for gamma in part.box_complement_generators(i)
    ]

    target = set(_target.vertices) if _target is not None else None
    cursor = 0
    while cursor < len(pending) and not (target and target.issubset(exps)):
        gamma, i = pending[cursor]
        cursor += 1
        test = work[i].mul_monomial(ring.one, gamma)
        if test.is_zero:
            continue
        res = hironaka_divide(order, work, test)
        new_dens.extend(res.new_denominators)
        r = res.remainder
        if r.is_zero:
            continue
        it = r.initial(order)
        _ensure_unit(ring, it.coefficient, new_dens)
        work.append(r)
        steps.append((gamma, i, res.quotients))
        exps.append(it.exponent)
        t = len(work) - 1
        pending.extend(
            (g2, t) for g2 in DeltaPartition(exps).box_complement_generators(t)
        )

    diagram = diagram_from_exponents(exps, n=n, p=p, order=order)
    index = tuple(exps.index(v) for v in diagram.vertices)
    return StandardBasis(diagram, tuple(work[k] for k in index), order,
                         (len(gens), tuple(steps), index),
                         new_denominators=tuple(dict.fromkeys(new_dens)))


def canonicalize(basis: StandardBasis) -> StandardBasis:
    """Replace each element by vertex monomial + tail outside the diagram.

    The result is the unique such basis modulo degree > trunc, independent of
    which generators produced the diagram.
    """
    order, first = basis.order, basis.elements[0]
    new_dens = list(basis.new_denominators)
    elements = []
    rows = []  # each element's quotients over the source basis
    for v in basis.diagram.vertices:
        mono = TruncatedSeries.monomial(
            v, first.ring.one, first.n, first.p, first.trunc, first.ring)
        res = hironaka_divide(order, basis.elements, mono)
        new_dens.extend(res.new_denominators)
        elements.append(mono - res.remainder)
        rows.append(res.quotients)
    return StandardBasis(basis.diagram, tuple(elements), order, (basis, tuple(rows)),
                         canonical=True, new_denominators=tuple(dict.fromkeys(new_dens)))


def residual(
    result: DivisionResult,
    divisors: Sequence[TruncatedSeries],
    dividend: TruncatedSeries,
) -> TruncatedSeries:
    """dividend - sum(Q_i * divisor_i) - remainder; zero when exact."""
    return _dot(((-qi, d) for qi, d in zip(result.quotients, divisors)),
                dividend - result.remainder)

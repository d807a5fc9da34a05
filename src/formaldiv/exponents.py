"""Multi-indices, module exponents, admissible orders, staircase diagrams.

The basic object is a pair (alpha, j): a multi-index alpha in N^n together
with a component slot j in {1..p}.  Everything downstream (series supports,
division cells, diagrams) is built out of these pairs.  Two total orders are
provided, both compatible with translation by N^n:

* the standard order lex(L(alpha), j, alpha) for a positive linear form L;
* the slot-weighted order used for relation modules, which compares
  (alpha, i) by lex(L(alpha) + L(a_i), alpha + a_i, -i) where a_i is a fixed
  multi-index attached to slot i.

An order is the weights of L.  Its keys carry L in integer-scaled form
(StandardOrder.scaled): tuples of ints that compare without Fractions.
"""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from math import lcm
from operator import add, mul, sub
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import AmbientMismatchError, PreconditionError


def add_alpha(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(add, a, b))


def sub_alpha(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """a - b componentwise; the caller knows that b divides a."""
    return tuple(map(sub, a, b))


class _ModExponentFields(NamedTuple):
    alpha: tuple[int, ...]
    comp: int = 1


class ModExponent(_ModExponentFields):
    """A point of N^n x {1..p}: multi-index plus 1-based component slot.

    A tuple (alpha, comp), so hashing and equality run in C.
    """

    __slots__ = ()

    def __new__(cls, alpha: tuple[int, ...], comp: int = 1):
        if comp < 1:
            raise PreconditionError(f"component must be >= 1, got {comp}")
        if any(a < 0 for a in alpha):
            raise PreconditionError(f"negative entry in multi-index {alpha}")
        return tuple.__new__(cls, (alpha, comp))

    @property
    def degree(self) -> int:
        return sum(self.alpha)

    def shift(self, beta: Sequence[int]) -> "ModExponent":
        # a valid exponent shifted by a multi-index is valid: not re-checked
        return tuple.__new__(ModExponent, (add_alpha(self.alpha, beta), self.comp))

    def divides(self, other: "ModExponent") -> bool:
        """True iff other lies in self + N^n (same slot, componentwise <=)."""
        return self.comp == other.comp and all(
            a <= b for a, b in zip(self.alpha, other.alpha)
        )


class Ordering(IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class StandardOrder:
    """lex(L(alpha), j, alpha) for L(alpha) = sum of weights[k] * alpha[k],
    all weights > 0; refines L-degree, then slot, then plain lex.

    int_weights are the weights times the lcm of their denominators, so
    scaled(alpha) is L(alpha) times one fixed positive integer: it orders
    exponents exactly as L does, in plain int arithmetic.

    A subclass overrides key and _fields, the values that identify it;
    equality, hashing and repr read _fields, never int_weights.
    """

    __slots__ = ("weights", "int_weights")

    def __init__(self, weights: Sequence[Fraction]):
        self.weights = tuple(Fraction(w) for w in weights)
        if not self.weights:
            raise PreconditionError("linear form needs at least one weight")
        if any(w <= 0 for w in self.weights):
            raise PreconditionError(f"weights must be positive: {self.weights}")
        scale = lcm(*(w.denominator for w in self.weights))
        self.int_weights = tuple(int(w * scale) for w in self.weights)

    @classmethod
    def unit(cls, n: int) -> "StandardOrder":
        return cls((Fraction(1),) * n)

    def _fields(self) -> dict:
        return {"weights": self.weights}

    @property
    def n(self) -> int:
        return len(self.weights)

    def scaled(self, alpha: Sequence[int]) -> int:
        return sum(map(mul, self.int_weights, alpha))

    def key(self, e: ModExponent):
        return (self.scaled(e.alpha), e.comp, e.alpha)

    def compare(self, e1: ModExponent, e2: ModExponent) -> Ordering:
        _check_arity(self.n, e1, e2)
        k1, k2 = self.key(e1), self.key(e2)
        return Ordering.LESS if k1 < k2 else Ordering.GREATER if k1 > k2 else Ordering.EQUAL

    def __eq__(self, other):
        return type(other) is type(self) and self._fields() == other._fields()

    def __hash__(self):
        return hash((type(self).__name__, *self._fields().values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._fields().items())
        return f"{type(self).__name__}({fields})"


class SyzygyOrder(StandardOrder):
    """Slot-weighted order on N^n x {1..q} for relation vectors.

    Slot i carries the initial exponent (a_i, j_i) of the i-th basis element.
    A multiplier exponent (alpha, i) is keyed by the product exponent it
    would produce, compared in the base order, with later slots losing ties:
    key = (L(alpha+a_i), j_i, alpha+a_i, -i), with L scaled to integers.
    For one-component modules the j_i entry is constant and the key reduces
    to (L(alpha+a_i), alpha+a_i, -i).
    """

    __slots__ = ("slots",)

    def __init__(self, weights: Sequence[Fraction], slots: Sequence[ModExponent]):
        if not slots:
            raise PreconditionError("need at least one slot exponent")
        super().__init__(weights)
        self.slots = tuple(slots)
        if any(len(s.alpha) != self.n for s in self.slots):
            raise AmbientMismatchError("slot exponent arity differs from form")

    def _fields(self) -> dict:
        return {"weights": self.weights, "slots": self.slots}

    def key(self, e: ModExponent):
        try:
            s = self.slots[e.comp - 1]
        except IndexError:
            raise AmbientMismatchError(
                f"slot {e.comp} out of range for {len(self.slots)} slots") from None
        a = add_alpha(e.alpha, s.alpha)
        return (self.scaled(a), s.comp, a, -e.comp)


def _check_arity(n: int, *exps: ModExponent):
    for e in exps:
        if len(e.alpha) != n:
            raise AmbientMismatchError(
                f"multi-index {e.alpha} has arity {len(e.alpha)}, expected {n}"
            )


class Diagram:
    """A subset N of N^n x {1..p} with N + N^n = N, stored by its vertices.

    Vertices are the divisibility-minimal elements; they determine the whole
    set.  The vertex tuple is kept sorted by the active order so that two
    diagrams can be compared lexicographically (vertex lists padded with a
    formal +infinity).
    """

    __slots__ = ("n", "p", "vertices", "order")

    def __init__(self, n: int, p: int, vertices: Sequence[ModExponent], order):
        self.n = n
        self.p = p
        _check_arity(n, *vertices)
        for v in vertices:
            if v.comp > p:
                raise AmbientMismatchError(f"vertex slot {v.comp} exceeds p={p}")
        self.vertices = tuple(sorted(vertices, key=order.key))
        self.order = order

    def contains(self, e: ModExponent) -> bool:
        return any(v.divides(e) for v in self.vertices)

    __contains__ = contains

    def census_key(self):
        """Canonical, order-independent identity of the underlying set."""
        return (self.n, self.p, tuple(sorted((v.comp, v.alpha) for v in self.vertices)))

    def __eq__(self, other):
        return isinstance(other, Diagram) and self.census_key() == other.census_key()

    def __hash__(self):
        return hash(self.census_key())

    def __repr__(self):
        vs = ", ".join(f"({v.alpha},{v.comp})" for v in self.vertices)
        return f"Diagram(n={self.n}, p={self.p}, vertices=[{vs}])"


def diagram_from_exponents(
    exps: Iterable[ModExponent], *, n: int, p: int, order
) -> Diagram:
    """Smallest diagram containing the given exponents.

    Returns the divisibility-minimal elements of the input; the represented
    set is the union of e + N^n over all inputs.
    """
    exps = list(dict.fromkeys(exps))
    minimal = [e for e in exps if not any(o != e and o.divides(e) for o in exps)]
    return Diagram(n, p, minimal, order)


def compare_diagrams(n1: Diagram, n2: Diagram) -> Ordering:
    """Lexicographic comparison of padded sorted vertex sequences.

    Both diagrams must share the ambient space and the sorting order; a
    missing vertex counts as +infinity, so a diagram whose vertex list is a
    strict prefix of another's compares greater.
    """
    if (n1.n, n1.p) != (n2.n, n2.p):
        raise AmbientMismatchError(
            f"ambients differ: ({n1.n},{n1.p}) vs ({n2.n},{n2.p})"
        )
    if n1.order != n2.order:
        raise AmbientMismatchError("diagrams sorted under different orders")
    key = n1.order.key
    for v1, v2 in zip(n1.vertices, n2.vertices):
        k1, k2 = key(v1), key(v2)
        if k1 != k2:
            return Ordering.LESS if k1 < k2 else Ordering.GREATER
    l1, l2 = len(n1.vertices), len(n2.vertices)
    return Ordering.LESS if l1 > l2 else Ordering.GREATER if l1 < l2 else Ordering.EQUAL


class DeltaPartition:
    """Division cells carved out of N^n x {1..p} by an ordered divisor list.

    Cell i consists of the translates of exps[i] not claimed by any earlier
    cell; whatever no cell claims is the remainder region.  Because earlier
    cells are unions of translated orthants, the owner of an exponent is
    simply the first list entry dividing it.
    """

    __slots__ = ("exps",)

    def __init__(self, exps: Sequence[ModExponent]):
        self.exps = tuple(exps)
        if self.exps:
            _check_arity(len(self.exps[0].alpha), *self.exps)

    @property
    def cell_count(self) -> int:
        return len(self.exps)

    def cell_of(self, e: ModExponent) -> Optional[int]:
        """0-based index of the owning cell, or None for the remainder region."""
        for i, v in enumerate(self.exps):
            if v.divides(e):
                return i
        return None

    def box_contains(self, i: int, beta: Sequence[int]) -> bool:
        """True iff exps[i] + beta still belongs to cell i."""
        a = self.exps[i]
        return self.cell_of(ModExponent(add_alpha(a.alpha, beta), a.comp)) == i

    def box_complement_generators(self, i: int) -> list[tuple[int, ...]]:
        """Minimal multi-indices whose translates cover everything cell i loses.

        beta fails box_contains(i, beta) exactly when beta dominates one of
        the returned generators.  The list has no duplicate and no entry
        dominating another, and is sorted by (total degree, lex).
        """
        a_i = self.exps[i]
        gens = list(dict.fromkeys(
            tuple(max(x - y, 0) for x, y in zip(a_k.alpha, a_i.alpha))
            for a_k in self.exps[:i]
            if a_k.comp == a_i.comp
        ))
        minimal = [
            d for d in gens
            if not any(o != d and all(x <= y for x, y in zip(o, d)) for o in gens)
        ]
        minimal.sort(key=lambda d: (sum(d), d))
        return minimal


def iter_alphas(n: int, max_degree: int):
    """All multi-indices of arity n with total degree <= max_degree,
    in (degree, lex) order."""
    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for k in range(remaining + 1):
            yield from rec(prefix + (k,), remaining - k, slots - 1)

    for d in range(max_degree + 1):
        yield from sorted(rec((), d, n))

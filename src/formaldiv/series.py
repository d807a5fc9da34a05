"""Truncated p-component formal power series with exact coefficients.

A series stores only its terms of total degree <= trunc; all arithmetic is
exact in the quotient by the (trunc+1)-st power of the maximal ideal.
Truncation is by plain total degree regardless of the order in use, so the
stored object does not depend on which admissible order later reads it.
Values are treated as immutable after construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .errors import (
    AmbientMismatchError,
    PreconditionError,
    RingMismatchError,
)
from .exponents import ModExponent, add_alpha

if TYPE_CHECKING:
    from .coefficients import Coefficient


class TruncatedSeries:
    __slots__ = ("n", "p", "trunc", "ring", "terms")

    def __init__(self, n, p, trunc, ring, terms=None):
        if n < 1 or p < 1 or trunc < 0:
            raise PreconditionError(f"bad ambient n={n}, p={p}, trunc={trunc}")
        self.n = n
        self.p = p
        self.trunc = trunc
        self.ring = ring
        clean = {}
        for e, c in (terms or {}).items():
            if len(e.alpha) != n:
                raise AmbientMismatchError(f"exponent {e.alpha} not of arity {n}")
            if not 1 <= e.comp <= p:
                raise AmbientMismatchError(f"component {e.comp} outside 1..{p}")
            if e.degree > trunc:
                continue  # beyond the horizon: identically dropped
            if c:
                clean[e] = c
        self.terms = clean

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, n, p, trunc, ring) -> "TruncatedSeries":
        return cls(n, p, trunc, ring)

    @classmethod
    def monomial(cls, exponent: ModExponent, coeff, n, p, trunc, ring) -> "TruncatedSeries":
        return cls(n, p, trunc, ring, {exponent: coeff})

    # -- basic queries -----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> set[ModExponent]:
        return set(self.terms)

    def coefficient(self, e: ModExponent):
        return self.terms.get(e, self.ring.zero)

    def _check(self, other: "TruncatedSeries"):
        if (self.n, self.p, self.trunc) != (other.n, other.p, other.trunc):
            raise AmbientMismatchError(
                f"series ambient mismatch: ({self.n},{self.p},D={self.trunc})"
                f" vs ({other.n},{other.p},D={other.trunc})"
            )
        if self.ring != other.ring:
            raise RingMismatchError("series over different coefficient rings")

    # -- linear arithmetic ------------------------------------------------
    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        ring = self.ring
        for e, c in other.terms.items():
            s = out.get(e, ring.zero) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return TruncatedSeries(self.n, self.p, self.trunc, ring, out)

    def __neg__(self):
        return TruncatedSeries(
            self.n, self.p, self.trunc, self.ring,
            {e: -c for e, c in self.terms.items()},
        )

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        if set(self.terms) != set(other.terms):
            return False
        return all(c == other.terms[e] for e, c in self.terms.items())

    # -- multiplicative structure ------------------------------------------
    def mul_monomial(self, beta: Sequence[int]) -> "TruncatedSeries":
        """Multiply by x^beta, discarding terms past the horizon."""
        beta = ModExponent(tuple(beta)).alpha  # validated once: shift does not
        if len(beta) != self.n:
            raise AmbientMismatchError(f"multi-index {beta} not of arity {self.n}")
        top = self.trunc - sum(beta)  # shifted terms keep their (immutable) coefficients
        out = {e.shift(beta): c for e, c in self.terms.items() if e.degree <= top}
        return TruncatedSeries(self.n, self.p, self.trunc, self.ring, out)

    def mul_series(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Module action of a one-component series on a p-component one."""
        if self.p != 1:
            raise PreconditionError("left factor must be one-component")
        if (self.n, self.trunc) != (other.n, other.trunc) or self.ring != other.ring:
            raise AmbientMismatchError("factors live in different series rings")
        ring = self.ring
        out = {}
        for e1, c1 in self.terms.items():
            d1 = e1.degree
            for e2, c2 in other.terms.items():
                if d1 + e2.degree > self.trunc:
                    continue
                e = ModExponent(add_alpha(e1.alpha, e2.alpha), e2.comp)
                s = out.get(e, ring.zero) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return TruncatedSeries(other.n, other.p, other.trunc, ring, out)

    # -- structure ---------------------------------------------------------
    def initial(self, order) -> "InitialData":
        """Order-minimal term; the zero series has none."""
        if self.is_zero:
            raise PreconditionError("zero series has no initial term")
        e = min(self.terms, key=order.key)
        return InitialData(e, self.terms[e])

    def component(self, j: int) -> "TruncatedSeries":
        """The j-th entry as a one-component series (1-based)."""
        if not 1 <= j <= self.p:
            raise AmbientMismatchError(f"component {j} outside 1..{self.p}")
        out = {
            ModExponent(e.alpha, 1): c for e, c in self.terms.items() if e.comp == j
        }
        return TruncatedSeries(self.n, 1, self.trunc, self.ring, out)

    def partial(self, k: int) -> "TruncatedSeries":
        """Formal partial derivative along axis k (1-based).

        The result is stored at the same truncation degree; degree-trunc
        information of the derivative would need degree trunc+1 of the input
        and is absent by construction.
        """
        if not 1 <= k <= self.n:
            raise PreconditionError(f"axis {k} outside 1..{self.n}")
        ring = self.ring
        out = {}
        for e, c in self.terms.items():
            a = e.alpha[k - 1]
            if a == 0:
                continue
            alpha = list(e.alpha)
            alpha[k - 1] -= 1
            out[ModExponent(tuple(alpha), e.comp)] = c * ring.from_int(a)
        return TruncatedSeries(self.n, self.p, self.trunc, ring, out)

    def map_coefficients(self, f: Callable, new_ring) -> "TruncatedSeries":
        """Apply f to every coefficient, rebuilding over new_ring."""
        return TruncatedSeries(
            self.n, self.p, self.trunc, new_ring,
            {e: f(c) for e, c in self.terms.items()},
        )

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda e: (e.comp, e.degree, e.alpha)):
            bits.append(f"{self.terms[e]}*x^{e.alpha}@{e.comp}")
        return " + ".join(bits)


def _dot(pairs, start=None) -> TruncatedSeries:
    """start plus the sum of a.mul_series(b) over pairs, added left to right,
    which fixes how unreduced localized fractions print: the one series
    product sum besides _matmul's rational kernel (subtract with -a, as
    (-a)*b is -(a*b) exactly).  pairs may be empty only when start is given."""
    acc = start
    for a, b in pairs:
        term = a.mul_series(b)
        acc = term if acc is None else acc + term
    return acc


class InitialData(NamedTuple):
    """Initial exponent and coefficient of a nonzero series."""

    exponent: ModExponent
    coefficient: Coefficient

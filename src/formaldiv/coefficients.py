"""Exact coefficient rings and the text grammar for coefficient expressions.

Besides the rationals (``rationals.QQ``, plain ``fractions.Fraction``
values), two rings are available:

* sparse multivariate polynomials over the rationals in named parameters;
* localized fractions poly / (product of declared denominator generators).

Fractions are never gcd-reduced; equality is decided by cross-multiplication,
which is exact in an integral domain.  The only normalization applied anywhere
is making denominator generators monic in their leading coefficient.

Values of every ring share one protocol: ``+``, ``-`` (binary and unary),
``*`` and ``==`` within one ring, and truthiness, which is false exactly for
zero; parametric values also evaluate at a rational point (``c.evaluate``).
A ring object (``QQ``, ``PolynomialRing(names)``, ``LocalizedRing(dset)``)
supplies only what values cannot: ``zero``, ``one``, ``from_int``,
``variable`` (polynomial), ``from_poly`` (localized) and ``divide_by_unit``.

The expression parser builds ``ParamPolynomial`` values only; without
parameter names it returns the constant's ``Fraction``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import (
    ExpressionError,
    NotInvertibleError,
    PreconditionError,
    RingMismatchError,
    VanishingDenominatorError,
)


def _term_key(exp: tuple[int, ...]):
    # graded lexicographic position of a parameter monomial
    return (sum(exp), exp)


class ParamPolynomial:
    """Sparse polynomial in named parameters with Fraction coefficients."""

    __slots__ = ("names", "terms")

    def __init__(self, names: tuple[str, ...], terms=None):
        self.names = tuple(names)
        clean = {}
        for exp, c in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != len(self.names):
                raise PreconditionError(
                    f"parameter exponent {exp} has arity {len(exp)}, "
                    f"expected {len(self.names)}"
                )
            c = Fraction(c)
            if c:  # a dict: no two terms share an exponent
                clean[exp] = c
        self.terms = clean

    @classmethod
    def _clean(cls, names, terms) -> "ParamPolynomial":
        # terms already clean: tuple exponents of arity len(names), nonzero Fractions
        p = object.__new__(cls)
        p.names, p.terms = names, terms
        return p

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls, names, value) -> "ParamPolynomial":
        return cls(names, {(0,) * len(names): value})

    @classmethod
    def variable(cls, names, name) -> "ParamPolynomial":
        names = tuple(names)
        idx = names.index(name)
        exp = tuple(1 if i == idx else 0 for i in range(len(names)))
        return cls(names, {exp: Fraction(1)})

    # -- predicates ----------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self:
            return Fraction(0)
        if not self.is_constant:
            raise PreconditionError(f"not a constant: {self}")
        return next(iter(self.terms.values()))

    # -- arithmetic ------------------------------------------------------
    def _check(self, other: "ParamPolynomial"):
        if self.names != other.names:
            raise RingMismatchError(
                f"parameter rings differ: {self.names} vs {other.names}"
            )

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out[e] + c if e in out else c
            if s:
                out[e] = s
            else:
                del out[e]
        return ParamPolynomial._clean(self.names, out)

    def __neg__(self):
        return ParamPolynomial._clean(self.names, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out[e] + c1 * c2 if e in out else c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return ParamPolynomial._clean(self.names, out)

    def __pow__(self, k: int):
        if k < 0:
            raise PreconditionError("negative polynomial power")
        out, base = ParamPolynomial.constant(self.names, 1), self
        while k:  # square and multiply
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def scale(self, c) -> "ParamPolynomial":
        c = Fraction(c)
        return ParamPolynomial._clean(
            self.names, {e: v * c for e, v in self.terms.items()} if c else {})

    def __eq__(self, other):
        return (
            isinstance(other, ParamPolynomial)
            and self.names == other.names
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.names, frozenset(self.terms.items())))

    # -- structure -------------------------------------------------------
    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Leading (exponent, coefficient) in graded lexicographic order."""
        if not self:
            raise PreconditionError("zero polynomial has no leading term")
        e = max(self.terms, key=_term_key)
        return e, self.terms[e]

    def exact_div(self, g: "ParamPolynomial") -> Optional["ParamPolynomial"]:
        """Exact quotient self / g, or None when g does not divide self."""
        self._check(g)
        if not g:
            return None
        ge, gc = g.leading()
        r = self
        q = {}
        while r:
            re, rc = r.leading()
            diff = tuple(a - b for a, b in zip(re, ge))
            if any(d < 0 for d in diff):
                return None
            coeff = rc / gc
            q[diff] = coeff
            r = r - g * ParamPolynomial._clean(self.names, {diff: coeff})
        return ParamPolynomial._clean(self.names, q)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != len(self.names):
            raise PreconditionError(
                f"point arity {len(point)} != parameter arity {len(self.names)}"
            )
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for base, k in zip(point, e):
                if k:
                    v *= base ** k
            total += v
        return total

    def __str__(self):
        return format_coefficient(self)

    __repr__ = __str__


class DenominatorSet:
    """Registry of the polynomials that may appear in denominators.

    Generators are stored monic (leading coefficient 1); constants are never
    stored.  The set grows append-only, so fractions referring to generator
    indices stay valid as new generators are recorded.  A unit search makes
    at most one exact division per generator and distinct quotient: k * 2^k
    for a non-unit that k pairwise coprime generators divide.  Unit searches
    and power products are memoized; values at a point are never cached.
    """

    def __init__(self, names, seed=()):
        self.names = tuple(names)
        self.generators: list[ParamPolynomial] = []
        self._factor_memo: dict = {}
        self._power_memo: dict = {}
        for g in seed:
            self.register(g)

    def register(self, p: ParamPolynomial) -> Optional[ParamPolynomial]:
        """Record p as invertible; returns the new generator, or None if p
        was already a unit (constant or product of known generators)."""
        if not p:
            raise PreconditionError("cannot invert the zero polynomial")
        if p.is_constant:
            return None
        p = p.scale(1 / p.leading()[1])  # stored monic
        if self.factor_as_unit(p) is not None:
            return None
        self.generators.append(p)
        return p

    def factor_as_unit(self, p: ParamPolynomial):
        """Decompose p as c * product of generator powers.

        Returns (c, {generator index: power}) or None when no such
        decomposition exists with the current generators.  Generators may
        share factors, so the search divides by them in index order and
        backtracks; it is memoized on (quotient, generator count) for p and
        every quotient it reaches, as the generator list only grows.  The
        powers dict is shared between calls, so callers only read it.
        """
        return self._factor(p) if p else None

    def _factor(self, q):
        key = (q, len(self.generators))
        if key not in self._factor_memo:
            res = (q.constant_value(), {}) if q.is_constant else None
            for idx, g in enumerate(self.generators if res is None else ()):
                quot = q.exact_div(g)
                sub = None if quot is None else self._factor(quot)
                if sub is not None:
                    res = sub[0], {**sub[1], idx: sub[1].get(idx, 0) + 1}
                    break
            self._factor_memo[key] = res
        return self._factor_memo[key]

    def power_product(self, powers: dict[int, int]) -> ParamPolynomial:
        # memoized on the sorted positive powers: an index names one generator
        key = tuple(sorted((i, k) for i, k in powers.items() if k))
        out = self._power_memo.get(key)
        if out is None:
            out = ParamPolynomial.constant(self.names, 1)
            for idx, k in key:
                out = out * self.generators[idx] ** k
            self._power_memo[key] = out
        return out


class LocalizedFraction:
    """numerator / product of denominator-set generator powers."""

    __slots__ = ("num", "powers", "dset")

    def __init__(self, num: ParamPolynomial, powers: dict[int, int], dset: DenominatorSet):
        self.num = num
        self.powers = {i: k for i, k in powers.items() if k} if num else {}
        self.dset = dset

    def _check(self, other: "LocalizedFraction"):
        if self.dset is not other.dset:
            raise RingMismatchError("fractions over different denominator sets")

    def __bool__(self) -> bool:
        return bool(self.num)

    def _common(self, other):
        # shared denominator exponents and both numerators over them
        keys = set(self.powers) | set(other.powers)
        top = {i: max(self.powers.get(i, 0), other.powers.get(i, 0)) for i in keys}
        return top, self._lift(top), other._lift(top)

    def _lift(self, top):
        # the numerator over the denominator exponents top >= self.powers
        mul = {i: k - self.powers.get(i, 0) for i, k in top.items()}
        return self.num * self.dset.power_product(mul) if any(mul.values()) else self.num

    def __add__(self, other):
        self._check(other)
        top, num_self, num_other = self._common(other)
        return LocalizedFraction(num_self + num_other, top, self.dset)

    def __neg__(self):
        return LocalizedFraction(-self.num, self.powers, self.dset)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        powers = dict(self.powers)
        for i, k in other.powers.items():
            powers[i] = powers.get(i, 0) + k
        return LocalizedFraction(self.num * other.num, powers, self.dset)

    def __eq__(self, other):
        if not isinstance(other, LocalizedFraction):
            return NotImplemented
        self._check(other)
        _, num_self, num_other = self._common(other)
        return num_self == num_other

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """The value at a rational point; it evaluates its generators itself."""
        den = Fraction(1)
        for i, k in self.powers.items():
            g = self.dset.generators[i]
            v = g.evaluate(point)
            if not v:
                raise VanishingDenominatorError(
                    f"denominator {g} vanishes at ({', '.join(map(str, point))})")
            den *= v ** k
        return self.num.evaluate(point) / den

    def __str__(self):
        if not self.powers:
            return str(self.num)
        den = "*".join(
            f"({self.dset.generators[i]})^{k}" if k > 1 else f"({self.dset.generators[i]})"
            for i, k in sorted(self.powers.items())
        )
        return f"({self.num})/({den})"

    __repr__ = __str__


Coefficient = Union[Fraction, ParamPolynomial, LocalizedFraction]


class _ValueWork:
    # the division kernel's work form: the values, with their own operators
    _to_work = _from_work = staticmethod(lambda c: c)
    _sub_mul = staticmethod(lambda w, q, t: -(q * t) if w is None else w - q * t)

    def _divider(self, s):
        return lambda a: self.divide_by_unit(a, s)


class PolynomialRing(_ValueWork):
    """Polynomials in named parameters over the rationals."""

    def __init__(self, names: Sequence[str]):
        self.names = tuple(names)
        self.zero = ParamPolynomial(self.names)
        self.one = ParamPolynomial.constant(self.names, 1)

    def from_int(self, k: int) -> ParamPolynomial:
        return ParamPolynomial.constant(self.names, k)

    def variable(self, name: str) -> ParamPolynomial:
        return ParamPolynomial.variable(self.names, name)

    def divide_by_unit(self, a, s):
        if not s:
            raise NotInvertibleError("division by zero")
        if not s.is_constant:
            raise NotInvertibleError(
                f"{s} is not a unit of the polynomial ring; localize first"
            )
        return a.scale(1 / s.constant_value())

    def __eq__(self, other):
        return isinstance(other, PolynomialRing) and self.names == other.names

    def __repr__(self):
        return f"QQ[{', '.join(self.names)}]"


class LocalizedRing(_ValueWork):
    """The polynomial ring localized at a growing denominator set, all it holds."""

    def __init__(self, dset: DenominatorSet):
        self.dset = dset
        self.names = dset.names
        self.zero, self.one = self.from_int(0), self.from_int(1)

    def from_int(self, k: int) -> LocalizedFraction:
        return LocalizedFraction(ParamPolynomial.constant(self.names, k), {}, self.dset)

    def from_poly(self, p: ParamPolynomial) -> LocalizedFraction:
        return LocalizedFraction(p, {}, self.dset)

    def divide_by_unit(self, a: LocalizedFraction, s: LocalizedFraction) -> LocalizedFraction:
        if not s:
            raise NotInvertibleError("division by zero")
        fac = self.dset.factor_as_unit(s.num)
        if fac is None:
            raise NotInvertibleError(
                f"{s.num} is not invertible over the declared denominator set"
            )
        c, s_powers = fac
        # a/s = (a.num * denominator(s) / c) / (denominator(a) * factors(s.num))
        powers = dict(a.powers)
        for i, k in s_powers.items():
            powers[i] = powers.get(i, 0) + k
        mul = dict(s.powers)
        # cancel shared generator powers instead of inflating the numerator
        for i in list(mul):
            common = min(mul[i], powers.get(i, 0))
            if common:
                mul[i] -= common
                powers[i] -= common
        num = (a.num * self.dset.power_product(mul)).scale(Fraction(1) / c)
        return LocalizedFraction(num, powers, self.dset)

    def __eq__(self, other):
        return isinstance(other, LocalizedRing) and self.dset is other.dset

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.dset.generators)
        return f"QQ[{', '.join(self.names)}] localized at [{gens}]"


# ---------------------------------------------------------------------------
# coefficient expression grammar
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := ('+'|'-')* power
#   power  := atom ('^' INT)?
#   atom   := INT | NAME | '(' expr ')'
#
# '/' requires a constant, nonzero divisor; '^' a literal nonnegative integer.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                       r"|(?P<op>[()+\-*/^])|(?P<bad>\S))")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):  # only trailing whitespace matches nothing
        kind = m.lastgroup
        tok, at = m[kind], m.start(kind)
        if kind == "bad":
            raise ExpressionError(f"unexpected character {tok!r}", at)
        tokens.append((kind, int(tok) if kind == "int" else tok, at))
    tokens.append(("end", None, len(text)))
    return tokens


class _ExprParser:
    def __init__(self, text: str, names: tuple[str, ...]):
        self.text = text
        self.names = names
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self):
        value = self.expr()
        kind, tok, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected {tok!r}", pos)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, tok, _ = self.peek()
            if kind == "op" and tok in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if tok == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, tok, pos = self.peek()
            if kind == "op" and tok in "*/":
                self.advance()
                rhs = self.factor()
                if tok == "*":
                    value = value * rhs
                else:
                    if not rhs.is_constant:
                        raise ExpressionError("non-constant divisor", pos)
                    if not rhs:
                        raise ExpressionError("division by zero", pos)
                    value = value.scale(1 / rhs.constant_value())
            else:
                return value

    def factor(self):
        sign = 1
        while True:
            kind, tok, _ = self.peek()
            if kind == "op" and tok in "+-":
                self.advance()
                if tok == "-":
                    sign = -sign
            else:
                break
        value = self.power()
        return value if sign == 1 else -value

    def power(self):
        value = self.atom()
        kind, tok, pos = self.peek()
        if kind == "op" and tok == "^":
            self.advance()
            ekind, etok, epos = self.advance()
            if ekind != "int":
                raise ExpressionError("exponent must be a nonnegative integer", epos)
            value = value ** etok
        return value

    def atom(self):
        kind, tok, pos = self.advance()
        if kind == "int":
            return ParamPolynomial.constant(self.names, tok)
        if kind == "name":
            if tok not in self.names:
                raise ExpressionError(f"unknown identifier {tok!r}", pos)
            return ParamPolynomial.variable(self.names, tok)
        if kind == "op" and tok == "(":
            value = self.expr()
            kind2, tok2, pos2 = self.advance()
            if not (kind2 == "op" and tok2 == ")"):
                raise ExpressionError("expected ')'", pos2)
            return value
        raise ExpressionError(f"unexpected {tok!r}", pos)


def parse_coefficient(text: str, names: Sequence[str] = ()) -> Coefficient:
    """Parse a coefficient expression.

    With parameter names the result is a ParamPolynomial (constants included);
    without, its constant value, a Fraction.
    """
    names = tuple(names)
    try:
        value = _ExprParser(text, names).parse()
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None
    return value if names else value.constant_value()


def format_coefficient(c: Coefficient) -> str:
    """Render a coefficient so that parse_coefficient reads it back."""
    if isinstance(c, (Fraction, LocalizedFraction)):
        return str(c)
    if not c:
        return "0"
    parts = []
    for exp in sorted(c.terms, key=_term_key, reverse=True):
        coeff = c.terms[exp]
        mono = "*".join(
            f"{name}^{k}" if k > 1 else name
            for name, k in zip(c.names, exp)
            if k
        )
        mag = -coeff if coeff < 0 else coeff
        if mono:
            body = mono if mag == 1 else f"{mag}*{mono}"
        else:
            body = str(mag)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(parts)

"""JSON file formats, the module record, and deterministic serialization.

A module file declares the ambient space, truncation degree, order weights,
optional parameter names and denominator seeds, and named series given term
by term with coefficient expressions.  It is read into a `LoadedModule`; a
family is the same record checked, `ParamModule`.  Result files echo a hash
of their inputs and carry an operation-specific payload; identical inputs
give byte-identical files, so nothing time- or environment-dependent is
written unless explicitly requested.  Only the shapes all results share
live here (coefficients, series, diagrams); family points files and reports
are in `families`, and relation presentations in `syzygies`.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, NamedTuple, Optional

from . import __version__
from .errors import ExpressionError, PreconditionError, SchemaError
from .exponents import Diagram, ModExponent, StandardOrder
from .rationals import QQ
from .series import TruncatedSeries

try:  # builtin sha256, no OpenSSL: _sha256 up to CPython 3.11, then _sha2
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

if TYPE_CHECKING:
    from .coefficients import LocalizedRing, ParamPolynomial


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

class LoadedModule(NamedTuple):
    """A module as its file declares it: the order, the series in file order
    with their names and, for a family, the parameter names and the
    denominator seed.  Reading a file checks its schema only; the checks a
    family needs run when `param_module` builds one."""

    order: StandardOrder
    generators: tuple[TruncatedSeries, ...]
    param_names: tuple[str, ...] = ()
    denominator_seed: tuple[ParamPolynomial, ...] = ()
    series_names: tuple[str, ...] = ()

    # the ambient, as the generators share it
    n = property(lambda self: self.generators[0].n)
    p = property(lambda self: self.generators[0].p)
    trunc = property(lambda self: self.generators[0].trunc)

    @property
    def series(self) -> dict[str, TruncatedSeries]:
        return dict(zip(self.series_names, self.generators))

    def param_module(self) -> ParamModule:
        """The family the file declares, checked as a `ParamModule`."""
        if not self.param_names:
            raise SchemaError("module file declares no parameters")
        return ParamModule(*self)


class ParamModule(LoadedModule):
    """A family: nonzero series generators over one ambient and ring, with
    polynomial coefficients in the parameters."""

    __slots__ = ()

    def __new__(cls, order, generators, param_names, denominator_seed=(),
                series_names=()):
        if not generators:
            raise PreconditionError("family needs at least one generator")
        first = generators[0]
        for g in generators:
            first._check(g)
            if g.is_zero:
                raise PreconditionError("zero generator in parametrized family")
        return super().__new__(cls, order, generators, param_names, denominator_seed,
                               series_names)

    def localized(self) -> tuple[LocalizedRing, list[TruncatedSeries]]:
        """Fresh localized ring plus the generators lifted into it."""
        from .coefficients import DenominatorSet, LocalizedRing, PolynomialRing
        base = PolynomialRing(self.param_names)
        dset = DenominatorSet(self.param_names, seed=self.denominator_seed)
        ring = LocalizedRing(base, dset)
        if isinstance(self.generators[0].ring, LocalizedRing):
            raise PreconditionError(
                "family generators must carry polynomial coefficients; "
                "denominators belong in the denominator seed"
            )
        gens = [g.map_coefficients(ring.from_poly, ring) for g in self.generators]
        return ring, gens


def _expect(cond, path, message):
    if not cond:
        raise SchemaError(f"{path}: {message}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Integer and fraction literals (nonzero denominator) parse to Fraction(text).
_QQ_LITERAL = re.compile(r"-?[0-9]+(?:/0*[1-9][0-9]*)?")


def _parse_expression(text: str, param_names, path):
    if not param_names and _QQ_LITERAL.fullmatch(text):
        return Fraction(text)
    from .coefficients import parse_coefficient
    try:
        return parse_coefficient(text, param_names)
    except ExpressionError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _as_fraction(value, path) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(f"{path}: expected integer or rational string")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{path}: bad rational {value!r}: {exc}") from None


def load_module_data(data, source="module") -> LoadedModule:
    _expect(isinstance(data, dict), source, "expected a JSON object")
    for key in ("n", "p", "D"):
        _expect(key in data, f"{source}.{key}", "missing required field")
        _expect(_is_int(data[key]), f"{source}.{key}", "expected an integer")
    n, p, trunc = data["n"], data["p"], data["D"]
    _expect(n >= 1, f"{source}.n", "must be >= 1")
    _expect(p >= 1, f"{source}.p", "must be >= 1")
    _expect(trunc >= 0, f"{source}.D", "must be >= 0")

    params_raw = data.get("parameters", [])
    _expect(isinstance(params_raw, list), f"{source}.parameters", "expected a list")
    for i, name in enumerate(params_raw):
        _expect(isinstance(name, str) and name.isidentifier(),
                f"{source}.parameters[{i}]", "expected an identifier")
    param_names = tuple(params_raw)
    _expect(len(set(param_names)) == len(param_names),
            f"{source}.parameters", "duplicate parameter names")

    if param_names:
        from .coefficients import PolynomialRing
    ring = PolynomialRing(param_names) if param_names else QQ

    denom_raw = data.get("denominators", [])
    _expect(isinstance(denom_raw, list), f"{source}.denominators", "expected a list")
    _expect(not denom_raw or param_names,
            f"{source}.denominators", "denominators need parameters")
    seed = []
    for i, text in enumerate(denom_raw):
        path = f"{source}.denominators[{i}]"
        _expect(isinstance(text, str), path, "expected an expression string")
        poly = _parse_expression(text, param_names, path)
        _expect(bool(poly), path, "zero polynomial cannot be inverted")
        seed.append(poly)

    series_raw = data.get("series", [])
    _expect(isinstance(series_raw, list) and series_raw,
            f"{source}.series", "expected a nonempty list")
    names, generators = [], []
    for si, entry in enumerate(series_raw):
        path = f"{source}.series[{si}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        name = entry.get("name", f"F{si + 1}")
        _expect(isinstance(name, str) and name, f"{path}.name", "expected a name")
        _expect(name not in names, f"{path}.name", f"duplicate series name {name!r}")
        terms_raw = entry.get("terms", [])
        _expect(isinstance(terms_raw, list), f"{path}.terms", "expected a list")
        terms = {}
        for ti, term in enumerate(terms_raw):
            tpath = f"{path}.terms[{ti}]"
            _expect(isinstance(term, dict), tpath, "expected an object")
            comp = term.get("component", 1)
            _expect(_is_int(comp) and 1 <= comp <= p,
                    f"{tpath}.component", f"expected an integer in 1..{p}")
            exp = term.get("exponent")
            _expect(
                isinstance(exp, list) and len(exp) == n
                and all(_is_int(e) and e >= 0 for e in exp),
                f"{tpath}.exponent", f"expected {n} nonnegative integers",
            )
            _expect(sum(exp) <= trunc, f"{tpath}.exponent",
                    f"term degree {sum(exp)} exceeds D={trunc}")
            coeff_raw = term.get("coeff", "1")
            if _is_int(coeff_raw):
                coeff_raw = str(coeff_raw)
            _expect(isinstance(coeff_raw, str), f"{tpath}.coeff",
                    "expected an expression string or integer")
            coeff = _parse_expression(coeff_raw, param_names, f"{tpath}.coeff")
            e = ModExponent(tuple(exp), comp)
            if e in terms:
                raise SchemaError(f"{tpath}: duplicate exponent {exp} in {name!r}")
            terms[e] = coeff
        generators.append(TruncatedSeries(n, p, trunc, ring, terms))
        names.append(name)

    # read after the series, whose exponent lists check n before n weights are built
    weights_raw = data["weights"] if "weights" in data else [1] * n
    _expect(isinstance(weights_raw, list) and len(weights_raw) == n,
            f"{source}.weights", f"expected a list of {n} entries")
    weights = [_as_fraction(w, f"{source}.weights[{i}]") for i, w in enumerate(weights_raw)]
    for i, w in enumerate(weights):
        _expect(w > 0, f"{source}.weights[{i}]", "weights must be positive")
    order = StandardOrder(weights)
    return LoadedModule(order, tuple(generators), param_names, tuple(seed), tuple(names))


def load_json(path) -> tuple[str, object]:
    """The sha256 hex digest of a file's bytes and the JSON value they hold,
    from one read, so the digest describes exactly what was parsed."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        return hash_bytes(raw), json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from None


def parse_module_file(path) -> LoadedModule:
    return load_module_data(load_json(path)[1], source=str(path))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def coeff_to_json(c):
    """A coefficient as it prints, or a fraction with a denominator as its
    numerator and the powers of the denominator generators it divides by."""
    if not getattr(c, "powers", None):
        return str(c)
    return {
        "num": str(c.num),
        "den": [[str(c.dset.generators[i]), k] for i, k in sorted(c.powers.items())],
    }


def series_to_json(s: TruncatedSeries, order) -> list:
    return [
        {"component": e.comp, "exponent": list(e.alpha), "coeff": coeff_to_json(c)}
        for e, c in s.sorted_terms(order)
    ]


def named_series_to_json(names, series_list, order) -> list:
    return [
        {"name": name, "terms": series_to_json(s, order)}
        for name, s in zip(names, series_list)
    ]


def diagram_to_json(d: Diagram) -> list:
    return [[list(v.alpha), v.comp] for v in d.vertices]


# ---------------------------------------------------------------------------
# result files
# ---------------------------------------------------------------------------

def hash_bytes(data: bytes) -> str:
    return sha256(data).hexdigest()


def build_result(operation: str, input_hashes: dict, payload: dict,
                 wall_time: Optional[float] = None) -> dict:
    result = {
        "operation": operation,
        "engine": f"formaldiv {__version__}",
        "inputs": dict(sorted(input_hashes.items())),
        "payload": payload,
    }
    if wall_time is not None:
        result["wall_time_s"] = round(wall_time, 6)
    return result


def _json_text(value, newline="\n"):
    """json.dumps(value, indent=2) for dicts with string keys, without json's
    pure-Python indenting encoder.

    newline is the line break and indent of value's own depth; the items of
    a nonempty dict or list go one level deeper.
    """
    inner = newline + "  "
    if isinstance(value, dict) and value:
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                 for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)) and value:
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return int.__repr__(value) if type(value) is int else json.dumps(value)


def emit_result(result: dict, fmt: str = "json") -> bytes:
    """Deterministic bytes for a result: JSON, or with fmt "text" a
    human-readable mirror (the command-line reader admits no other fmt)."""
    if fmt == "text":
        from ._text import render_text
        return render_text(result)
    return (_json_text(result) + "\n").encode()


def write_atomic(path, data: bytes):
    """Replace path with data through a new file beside it, created with
    mode 0o666 less the umask, as a plain create would be.  A path that
    cannot be written is a SchemaError and leaves no temporary file."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".formaldiv-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc.strerror or exc}") from None

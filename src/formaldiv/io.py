"""JSON file formats and deterministic serialization.

A module file declares the ambient space, truncation degree, order weights,
optional parameter names and denominator seeds, and named series given term
by term with coefficient expressions.  Result files echo a hash of their
inputs and carry an operation-specific payload; identical inputs must yield
byte-identical result files, so nothing time- or environment-dependent is
written unless explicitly requested.
Only the shapes all results share live here (coefficients, series,
diagrams); family points files and reports are in `families`, and relation
presentations in `syzygies`.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional

from . import __version__
from .errors import ExpressionError, SchemaError
from .exponents import Diagram, ModExponent, Ordering, PositiveLinearForm, StandardOrder
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
    from .coefficients import ParamPolynomial


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

class LoadedModule(NamedTuple):
    """A validated module file: order, ring, and named series in file order."""

    n: int
    p: int
    trunc: int
    order: StandardOrder
    param_names: tuple[str, ...]
    denominator_seed: tuple[ParamPolynomial, ...]
    series_names: tuple[str, ...]
    series: dict[str, TruncatedSeries]

    @property
    def is_parametric(self) -> bool:
        return bool(self.param_names)

    def generators(self) -> list[TruncatedSeries]:
        return [self.series[name] for name in self.series_names]

    def param_module(self):
        """The family the file declares, as a `families.ParamModule`."""
        if not self.is_parametric:
            raise SchemaError("module file declares no parameters")
        from .families import ParamModule
        return ParamModule(
            order=self.order,
            generators=tuple(self.generators()),
            param_names=self.param_names,
            denominator_seed=self.denominator_seed,
        )


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

    weights_raw = data.get("weights", [1] * n)
    _expect(isinstance(weights_raw, list) and len(weights_raw) == n,
            f"{source}.weights", f"expected a list of {n} entries")
    weights = [_as_fraction(w, f"{source}.weights[{i}]") for i, w in enumerate(weights_raw)]
    for i, w in enumerate(weights):
        _expect(w > 0, f"{source}.weights[{i}]", "weights must be positive")
    order = StandardOrder(PositiveLinearForm(tuple(weights)))

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
    names = []
    series = {}
    for si, entry in enumerate(series_raw):
        path = f"{source}.series[{si}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        name = entry.get("name", f"F{si + 1}")
        _expect(isinstance(name, str) and name, f"{path}.name", "expected a name")
        _expect(name not in series, f"{path}.name", f"duplicate series name {name!r}")
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
        series[name] = TruncatedSeries(n, p, trunc, ring, terms)
        names.append(name)

    return LoadedModule(
        n=n, p=p, trunc=trunc, order=order,
        param_names=param_names,
        denominator_seed=tuple(seed),
        series_names=tuple(names),
        series=series,
    )


def load_json(path) -> tuple[str, object]:
    """The sha256 hex digest of a file's bytes and the JSON value they hold,
    from one read, so the digest describes exactly what was parsed."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
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
    if isinstance(c, Fraction):
        return str(c)
    from .coefficients import LocalizedFraction, ParamPolynomial, format_coefficient
    if isinstance(c, ParamPolynomial):
        return format_coefficient(c)
    if isinstance(c, LocalizedFraction):
        if not c.powers:
            return format_coefficient(c.num)
        return {
            "num": format_coefficient(c.num),
            "den": [
                [format_coefficient(c.dset.generators[i]), k]
                for i, k in sorted(c.powers.items())
            ],
        }
    raise SchemaError(f"cannot serialize coefficient {c!r}")


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


def vertex_to_json(v: ModExponent) -> list:
    return [list(v.alpha), v.comp]


def diagram_to_json(d: Diagram) -> list:
    return [vertex_to_json(v) for v in d.vertices]


def ordering_to_str(o: Ordering) -> str:
    return {Ordering.LESS: "less", Ordering.EQUAL: "equal",
            Ordering.GREATER: "greater"}[o]


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


def _render_text_value(value, indent=0):
    """Lines of an indented outline: `key:` for dict entries, `-` for list
    items, with scalars on the same line."""
    pad = "  " * indent
    if isinstance(value, dict):
        items = [(f"{k}:", v) for k, v in value.items()]
    elif isinstance(value, list):
        items = [("-", v) for v in value]
    else:
        return [f"{pad}{value}"]
    lines = []
    for label, v in items:
        if isinstance(v, (dict, list)):
            lines.append(f"{pad}{label}")
            lines.extend(_render_text_value(v, indent + 1))
        else:
            lines.append(f"{pad}{label} {v}")
    return lines


def emit_result(result: dict, fmt: str = "json") -> bytes:
    """Deterministic bytes for a result; text is a human-readable mirror."""
    if fmt == "json":
        return (json.dumps(result, indent=2, sort_keys=False) + "\n").encode()
    if fmt == "text":
        header = f"formaldiv result: {result['operation']}"
        lines = [header, "=" * len(header)]
        lines.extend(_render_text_value({k: v for k, v in result.items()
                                         if k != "operation"}))
        return ("\n".join(lines) + "\n").encode()
    raise SchemaError(f"unknown output format {fmt!r}")


def write_atomic(path, data: bytes):
    """Replace path with data; the file gets mode 0o666 less the umask, as
    a plain create would, not mkstemp's 0o600."""
    import tempfile
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".formaldiv-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

"""Batch command-line interface.

Exit codes: 0 success, 2 parse/schema error, 3 precondition violation,
4 degenerate input (vanishing denominator, singular constant matrix),
1 internal invariant failure (always a bug).
"""

import os
import sys
import time

from . import io
from .division import canonicalize, complete_to_standard_basis, hironaka_divide, is_member
from .errors import (
    DegeneracyError,
    EngineError,
    PreconditionError,
    SchemaError,
)
from .exponents import compare_diagrams

# families and syzygies are imported by the subcommands that run them.

# The subcommand table: each command's options in argparse's order.  It is
# read by `_read_args` and, for help and usage errors, built into a parser by
# `_usage.parse_args`.  Options take a string unless they are flags or ints;
# --format takes json or text, and a call names at most one point source.
_REQUIRED = ("module", "dividend", "other", "at")
_FLAGS = ("canonical", "timing", "refine")
_INTS = ("seed", "count")
_FORMATS = ("json", "text")
_POINT_SOURCES = ("points", "grid", "seed")
_OUTPUT = ("out", "format", "timing")
_POINTS = (*_POINT_SOURCES, "count")
_COMMANDS = {
    "divide": ("module", "dividend", *_OUTPUT),
    "diagram": ("module", *_OUTPUT),
    "std-basis": ("module", "canonical", *_OUTPUT),
    "membership": ("module", "dividend", *_OUTPUT),
    "syzygy": ("module", *_OUTPUT),
    "relations": ("module", *_OUTPUT),
    "compare-diagrams": ("module", "other", *_OUTPUT),
    "specialize": ("module", "at", *_OUTPUT),
    "semicont-scan": ("module", *_POINTS, *_OUTPUT, "refine"),
    "relations-check": ("module", *_POINTS, *_OUTPUT),
}


def _read_args(argv):
    """argparse's namespace for a well-formed command line, as a dict.

    None for help, for usage errors and for the rarer forms this reader
    leaves to argparse: abbreviated options, --opt=value, and values that
    begin with "-".
    """
    names = _COMMANDS.get(argv[0]) if argv else None
    if names is None:
        return None
    args = {**{name: False if name in _FLAGS else None for name in names}, "format": "json"}
    tokens = iter(argv[1:])
    for token in tokens:  # a repeated option keeps its last value, as in argparse
        name = token[2:]
        if token[:2] != "--" or name not in names:
            return None
        if name in _FLAGS:
            args[name] = True
            continue
        value = next(tokens, "-")  # a missing value declines as "-" does
        if value[:1] == "-" or name == "format" and value not in _FORMATS:
            return None
        try:
            args[name] = int(value) if name in _INTS else value
        except ValueError:
            return None
    missing = any(args[name] is None for name in names if name in _REQUIRED)
    sources = sum(args.get(name) is not None for name in _POINT_SOURCES)
    return None if missing or sources > 1 else {"command": argv[0], **args}


def _prepare(mod):
    """Generators over the working ring (localized for parametric modules)."""
    if mod.param_names:
        return mod.param_module().localized()[1]
    return mod.generators


def _load_module(path, hashes, key):
    """Parse a module file, recording the digest of the bytes parsed."""
    hashes[key], data = io.load_json(path)
    return io.load_module_data(data, source=str(path))


def _load_dividend(args, mod, hashes):
    """The module's generators over the working ring, and the dividend file's
    one series lifted into that ring."""
    div = _load_module(args["dividend"], hashes, "dividend")
    if (div.n, div.p, div.trunc) != (mod.n, mod.p, mod.trunc):
        raise SchemaError(
            f"dividend ambient ({div.n},{div.p},D={div.trunc}) differs from "
            f"module ({mod.n},{mod.p},D={mod.trunc})"
        )
    if div.order != mod.order:
        raise SchemaError("dividend order weights differ from module")
    if div.param_names != mod.param_names:
        raise SchemaError("dividend parameters differ from module")
    if len(div.generators) != 1:
        raise SchemaError("dividend file must contain exactly one series")
    gens = _prepare(mod)
    dividend = div.generators[0]
    if mod.param_names:
        ring = gens[0].ring
        dividend = dividend.map_coefficients(ring.from_poly, ring)
    return gens, dividend


def _diagram(mod):
    """The module's diagram and, for a parametric module, the certificates of
    its generic diagram over the localized ring (None over the rationals)."""
    if mod.param_names:
        from .families import generic_diagram
        return generic_diagram(mod.param_module())
    return complete_to_standard_basis(mod.order, mod.generators).diagram, None


def _division_to_json(res, order):
    """The quotients Q1, Q2, ... and the remainder of a division."""
    names = [f"Q{i + 1}" for i in range(len(res.quotients))]
    return {"quotients": io.named_series_to_json(names, res.quotients, order),
            "remainder": io.series_to_json(res.remainder, order)}


def _dispatch(args):
    hashes = {}
    mod = _load_module(args["module"], hashes, "module")
    return _payload(args, mod, hashes), hashes


def _payload(args, mod, hashes):
    """The result of args.command; input digests go into hashes."""
    order, command = mod.order, args["command"]

    if command == "divide":
        gens, dividend = _load_dividend(args, mod, hashes)
        res = hironaka_divide(order, gens, dividend)
        return {
            "truncation_degree": mod.trunc,
            **_division_to_json(res, order),
            "denominators_introduced": [io.coeff_to_json(p) for p in res.new_denominators],
        }

    if command == "diagram":
        diag, certs = _diagram(mod)
        payload = {"truncation_degree": mod.trunc, "vertices": io.diagram_to_json(diag)}
        if certs is not None:
            from .families import certificates_to_json
            payload["certificates"] = certificates_to_json(certs)
        return payload

    if command == "std-basis":
        basis = complete_to_standard_basis(order, _prepare(mod))
        if args["canonical"]:
            basis = canonicalize(basis)
        return {
            "truncation_degree": mod.trunc,
            "canonical": basis.canonical,
            "vertices": io.diagram_to_json(basis.diagram),
            "elements": io.named_series_to_json(
                [f"Psi{i + 1}" for i in range(len(basis.elements))],
                basis.elements, order,
            ),
            "denominators": [io.coeff_to_json(p) for p in basis.new_denominators],
        }

    if command == "membership":
        gens, g = _load_dividend(args, mod, hashes)
        basis = complete_to_standard_basis(order, gens)
        member, res = is_member(order, basis, g)
        return {
            "truncation_degree": mod.trunc,
            "member": member,
            "witness": _division_to_json(res, order),
        }

    if command == "syzygy":
        from .syzygies import syzygy_payload
        return syzygy_payload(order, _prepare(mod))

    if command == "relations":
        from .syzygies import relations_payload
        return relations_payload(order, _prepare(mod))

    if command == "compare-diagrams":
        other = _load_module(args["other"], hashes, "other")
        d1, d2 = _diagram(mod)[0], _diagram(other)[0]
        return {
            "left_vertices": io.diagram_to_json(d1),
            "right_vertices": io.diagram_to_json(d2),
            "comparison": compare_diagrams(d1, d2).name.lower(),
        }

    if command == "specialize":
        from .families import specialize_payload
        return specialize_payload(mod.param_module(), args["at"], hashes)

    if command == "semicont-scan":
        from .families import scan_payload
        return scan_payload(mod.param_module(), hashes, refine=args["refine"],
                            **{key: args[key] for key in _POINTS})

    if command == "relations-check":
        from .families import relations_check_payload
        return relations_check_payload(mod.param_module(), hashes,
                                       **{key: args[key] for key in _POINTS})


def run_command(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_args(argv)
    if args is None:  # help or a usage error: argparse writes those
        from ._usage import parse_args
        try:
            args = parse_args(argv, _COMMANDS, _REQUIRED, _FLAGS, _INTS, _FORMATS,
                              _POINT_SOURCES)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    started = time.monotonic()
    try:
        payload, hashes = _dispatch(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except DegeneracyError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return 4
    except EngineError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    wall = time.monotonic() - started if args["timing"] else None
    result = io.build_result(args["command"], hashes, payload, wall)
    data = io.emit_result(result, args["format"])
    if args["out"]:
        io.write_atomic(args["out"], data)
    else:
        sys.stdout.write(data.decode())
    return 0


def main():
    code = run_command()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # e.g. a closed pipe: finalize as usual
        sys.exit(code)
    os._exit(code)  # the result is written: skip interpreter finalization


if __name__ == "__main__":
    main()

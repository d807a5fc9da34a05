"""Batch command-line interface.  A call exits with 0, with 2 for a usage
error, or with the exit code of the `errors` class that ended it."""

import os
import sys
import time

from . import io
from .division import canonicalize, complete_to_standard_basis, hironaka_divide, is_member
from .errors import EngineError, SchemaError
from .exponents import compare_diagrams

# The subcommand table: each command's options, in the order help lists them.
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


class _Usage(Exception):
    """args: the command (None for the program) and a usage error, or None for help."""


def _option(token, names, command):
    """A token as argparse reads it: (None, None) a value, ("", None) an
    unknown option, else an option name and its "=" value or None."""
    if token == "-h" or token[:2] == "--":  # a unique prefix names an option
        key, eq, value = ("help" if token == "-h" else token[2:]).partition("=")
        found = [name for name in ("help", *names) if name.startswith(key)]
        if len(found) > 1:  # no option name is the prefix of another
            raise _Usage(command, f"{token}: ambiguous option (--{' or --'.join(found)})")
        if found:
            return found[0], value if eq else None
    if token[:1] != "-" or token == "-" or " " in token:
        return None, None
    # argparse's r"^-\d+$|^-\d*\.\d+$", whose $ also matches before a final "\n"
    whole, dot, frac = token[1:].removesuffix("\n").partition(".")
    return (None, None) if (whole + frac).isdecimal() and (frac or not dot) else ("", None)


def _read_args(argv):
    """The options of a command line, with the command, as a dict; help and
    usage errors raise _Usage.  The line is read as argparse read it (see
    tests/argparse_reference.py), but nothing may precede the command."""
    command, *tokens = argv or [""]
    names = _COMMANDS.get(command)
    if names is None:
        asks_help = command == "-h" or len(command) > 2 and "--help".startswith(command)
        raise _Usage(None, None if asks_help else f"unknown command {command!r}")
    end = tokens.index("--") if "--" in tokens else len(tokens)  # no options after it
    kinds = iter([(token, _option(token, names, command)) for token in tokens[:end]])
    args = {**{name: False if name in _FLAGS else None for name in names}, "format": "json"}
    stray = []
    for token, (name, value) in kinds:  # in order, so a repeated option keeps its last value
        if not name:
            stray.append(token)
            continue
        if name == "help" or name in _FLAGS:
            if name == "help" or value is not None:
                raise _Usage(command, None if value is None else f"--{name}: takes no value")
            value = True
        elif value is None:
            value, (after, _) = next(kinds, (None, ("", None)))
            if after is not None:  # the next token is no value
                raise _Usage(command, f"--{name}: expected a value")
        if name in _POINT_SOURCES and any(args[s] is not None for s in _POINT_SOURCES
                                          if s != name):
            raise _Usage(command, f"--{name}: only one of --points, --grid and --seed")
        try:
            if name == "format" and value not in _FORMATS:
                raise ValueError
            args[name] = int(value) if name in _INTS else value
        except ValueError:
            raise _Usage(command, f"--{name}: invalid value {value!r}") from None
    missing = " ".join(f"--{name}" for name in names if name in _REQUIRED and args[name] is None)
    if missing or stray or end < len(tokens):
        raise _Usage(command, f"required: {missing}" if missing else
                     f"unrecognized arguments: {', '.join(map(repr, stray + tokens[end:]))}")
    return {"command": command, **args}


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
    """The result of args["command"]; input digests go into hashes."""
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

    if command in ("syzygy", "relations"):
        from . import syzygies
        payload = syzygies.syzygy_payload if command == "syzygy" else syzygies.relations_payload
        return payload(order, _prepare(mod))

    if command == "compare-diagrams":
        other = _load_module(args["other"], hashes, "other")
        d1, d2 = _diagram(mod)[0], _diagram(other)[0]
        return {
            "left_vertices": io.diagram_to_json(d1),
            "right_vertices": io.diagram_to_json(d2),
            "comparison": compare_diagrams(d1, d2).name.lower(),
        }

    from . import families  # the family commands: specialize and the point scans
    pm, points = mod.param_module(), {key: args.get(key) for key in _POINTS}
    if command == "specialize":
        return families.specialize_payload(pm, args["at"], hashes)
    if command == "semicont-scan":
        return families.scan_payload(pm, hashes, refine=args["refine"], **points)
    return families.relations_check_payload(pm, hashes, **points)


def run_command(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    started = time.monotonic()
    try:
        args = _read_args(argv)
        payload, hashes = _dispatch(args)
        wall = time.monotonic() - started if args["timing"] else None
        data = io.emit_result(io.build_result(args["command"], hashes, payload, wall),
                              args["format"])
        if args["out"]:
            io.write_atomic(args["out"], data)
        else:
            sys.stdout.write(data.decode())
    except _Usage as usage:
        from ._usage import write_usage
        return write_usage(*usage.args, _COMMANDS, _REQUIRED, _FLAGS, _POINT_SOURCES)
    except EngineError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
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

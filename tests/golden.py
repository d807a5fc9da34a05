"""Pinned CLI bytes: the sha256 of stdout and of stderr and the exit code of
every fixture command, of the help texts and of the usage errors, as
recorded in ``fixtures/cli_golden.json``.

Identical inputs must give byte-identical results, including after a kernel
is rewritten.  Over a localized ring this is not automatic: fractions are
never gcd-reduced, so their printed form can depend on the order in which
terms are summed.  A moved hash therefore means the engine changed its
output; fix the engine rather than the file.

Each entry holds the bytes of CPython ``BASE_VERSION``.  argparse's help and
usage texts differ between Python versions, so an entry may also hold, under
``by_version``, the bytes of another version where they differ.  Regenerate
the file only for an intended output change, from the repository root, on
the base version first and then on each pinned version:

    PYTHONPATH=src python tests/golden.py --write

``--check`` runs every entry on the running interpreter without pytest and
lists the entries that differ.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from formaldiv import cli

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "cli_golden.json"
FIELDS = ("exit", "sha256", "stderr_sha256")
BASE_VERSION = "3.11"
VERSION = "%d.%d" % sys.version_info[:2]

MODULES = (
    "bad_degree.json", "bad_json.json", "family_adjugate.json", "family_defect.json",
    "family_pivot.json", "family_relations.json", "family_seeded.json",
    "family_xi.json", "module_squares.json", "module_unit.json", "module_weighted.json",
    "module_zero_series.json",
)
DIVIDENDS = ("dividend_corner.json", "dividend_mixed.json", "dividend_param.json")
GRIDS = {
    "family_adjugate.json": "t:-2..2",
    "family_defect.json": "t:-3..3",
    "family_xi.json": "t:-2..2",
}
SUBCOMMANDS = (
    "divide", "diagram", "std-basis", "membership", "syzygy", "relations",
    "compare-diagrams", "specialize", "semicont-scan", "relations-check",
)
# argparse wraps help and usage text to the terminal width
COLUMNS = "80"


def commands():
    """Every golden command line, with paths relative to the fixture folder."""
    for m in MODULES:
        base = ["--module", m]
        grid = GRIDS.get(m, "xi1:-2..2")
        yield ["diagram", *base]
        yield ["std-basis", *base]
        yield ["std-basis", *base, "--canonical"]
        yield ["syzygy", *base]
        yield ["relations", *base]
        yield ["relations", *base, "--format", "text"]
        for d in DIVIDENDS:
            yield ["divide", *base, "--dividend", d]
            yield ["membership", *base, "--dividend", d]
        yield ["compare-diagrams", *base, "--other", "module_squares.json"]
        yield ["specialize", *base, "--at", "1/2"]
        yield ["specialize", *base, "--at", "0"]
        yield ["semicont-scan", *base, "--grid", grid, "--refine"]
        yield ["semicont-scan", *base, "--points", "points_basic.json"]
        yield ["semicont-scan", *base, "--seed", "5", "--count", "6"]
        yield ["relations-check", *base, "--grid", grid]
    yield ["--help"]
    for command in SUBCOMMANDS:
        yield [command, "--help"]
    # usage errors, each exit 2
    yield []
    yield ["frobnicate", "--module", "module_unit.json"]
    yield ["divide", "--module", "module_unit.json"]
    yield ["diagram", "--module", "module_unit.json", "--format", "xml"]
    yield ["semicont-scan", "--module", "family_pivot.json", "--seed", "5", "--count", "x"]
    yield ["diagram", "--module", "module_unit.json", "--frobnicate"]
    yield ["diagram", "--module"]
    yield ["semicont-scan", "--module", "family_pivot.json", "--grid", "xi1:-2..2",
           "--seed", "5"]


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_captured(argv):
    """The golden entry of one CLI call run in the fixture folder: its exit
    code and the sha256 of its stdout and of its stderr."""
    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(FIXTURES)
    os.environ["COLUMNS"] = COLUMNS
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_command(list(argv))
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return {"exit": code, "sha256": _digest(out.getvalue()),
            "stderr_sha256": _digest(err.getvalue())}


def table():
    return json.loads(GOLDEN.read_text())


def expected(entry):
    """The pins of an entry for the running Python version."""
    pins = entry.get("by_version", {}).get(VERSION, entry)
    return {field: pins[field] for field in FIELDS}


def write():
    """Record the running version's bytes: every entry's base pins on the
    base version; elsewhere a per-version pin wherever they differ."""
    old, new = table(), {}
    for argv in commands():
        key = " ".join(argv)
        got, entry = run_captured(argv), dict(old.get(key, {}))
        by_version = entry.pop("by_version", {})
        if VERSION == BASE_VERSION:
            entry.update(got)
        elif not entry:
            sys.exit(f"no base entry for {key!r}: write on Python {BASE_VERSION} first")
        by_version.pop(VERSION, None)
        if got != expected(entry):
            by_version[VERSION] = got
        new[key] = {**entry, "by_version": by_version} if by_version else entry
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(new)} entries to {GOLDEN} for Python {VERSION}")


def check():
    """List the entries whose bytes differ on the running version."""
    pinned = table()
    differ = [" ".join(argv) for argv in commands()
              if run_captured(argv) != expected(pinned[" ".join(argv)])]
    for key in differ:
        print(f"differs: {key!r}")
    print(f"{len(pinned) - len(differ)} of {len(pinned)} entries match on Python {VERSION}")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write()
    elif sys.argv[1:] == ["--check"]:
        sys.exit(check())
    else:
        sys.exit("usage: python tests/golden.py --write | --check")

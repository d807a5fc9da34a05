"""Pinned CLI bytes: the sha256 of stdout and of stderr and the exit code of
every fixture command, of the help texts and of the usage errors, as
recorded in ``fixtures/cli_golden.json``.

Identical inputs must give byte-identical results, including after a kernel
is rewritten.  Over a localized ring this is not automatic: fractions are
never gcd-reduced, so their printed form can depend on the order in which
terms are summed.  A moved hash therefore means the engine changed its
output; fix the engine rather than the file.

formaldiv writes its help and usage errors itself, without wrapping, so one
entry holds on every supported Python version and at every terminal width.
Regenerate the file only for an intended output change, from the
repository root:

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
    # the other forms of an option: a "-"-led value, a unique prefix and
    # --opt=value are read; a value that is no number, an ambiguous prefix
    # and a flag's "=" value are usage errors; help wins over an unknown option
    yield ["specialize", "--module", "family_pivot.json", "--at", "-1"]
    yield ["specialize", "--module", "family_pivot.json", "--at", "-1/2"]
    yield ["specialize", "--mod", "family_pivot.json", "--at", "0"]
    yield ["diagram", "--module=module_unit.json"]
    yield ["compare-diagrams", "--module", "module_unit.json", "--o", "x"]
    yield ["diagram", "--module", "module_unit.json", "--frobnicate", "--help"]
    yield ["std-basis", "--module", "module_unit.json", "--canonical=1"]


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_captured(argv):
    """The golden entry of one CLI call run in the fixture folder: its exit
    code and the sha256 of its stdout and of its stderr."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_command(list(argv))
    finally:
        os.chdir(cwd)
    return {"exit": code, "sha256": _digest(out.getvalue()),
            "stderr_sha256": _digest(err.getvalue())}


def table():
    return json.loads(GOLDEN.read_text())


def write():
    """Record every entry's bytes on the running interpreter."""
    new = {" ".join(argv): run_captured(argv) for argv in commands()}
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(new)} entries to {GOLDEN}")


def check():
    """List the entries whose bytes differ on the running interpreter."""
    pinned = table()
    differ = [" ".join(argv) for argv in commands()
              if run_captured(argv) != pinned[" ".join(argv)]]
    for key in differ:
        print(f"differs: {key!r}")
    version = sys.version.split()[0]
    print(f"{len(pinned) - len(differ)} of {len(pinned)} entries match on Python {version}")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write()
    elif sys.argv[1:] == ["--check"]:
        sys.exit(check())
    else:
        sys.exit("usage: python tests/golden.py --write | --check")

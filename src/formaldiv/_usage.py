"""The argparse parser of the command line, built from the subcommand table
that `cli` passes in and the help texts below.  `cli` reads a well-formed
command line itself and builds this parser only for the rest, so help texts
and usage errors are argparse's."""

import argparse

COMMAND_HELP = {
    "divide": "divide a series by the module generators",
    "diagram": "staircase diagram of the module",
    "std-basis": "standard basis of the module",
    "membership": "membership test with division witness",
    "syzygy": "distinguished relations of the standard basis",
    "relations": "generating relations of the given generators",
    "compare-diagrams": "compare the diagrams of two modules",
    "specialize": "evaluate a parametrized module at a point",
    "semicont-scan": "diagram census over sample points",
    "relations-check": "verify specialized relations generate",
}
OPTION_HELP = {
    "module": "module file (JSON)",
    "dividend": "dividend file (JSON)",
    "other": "second module file",
    "at": "comma-separated rational parameter values",
    "points": "points file (JSON)",
    "grid": "grid spec, e.g. 'xi1:-2..2'",
    "seed": "seed for random sample points",
    "count": "number of random sample points (with --seed)",
    "canonical": "emit the canonical basis",
    "out": "output path (default: stdout)",
    "timing": "record wall time (breaks byte-determinism)",
    "refine": "also scan the half-step refinement of the grid",
}


def parse_args(argv, commands, required, flags, ints, formats, sources) -> dict:
    """argparse's namespace for argv, as a dict; help and usage errors end
    in SystemExit, as argparse ends them.

    commands maps each subcommand to its option names in order; required,
    flags, ints and formats say how an option is read, and at most one of
    the point sources may be given.  Every option but --format has a help
    text in OPTION_HELP.
    """
    parser = argparse.ArgumentParser(
        prog="formaldiv",
        description="exact division engine for truncated power series modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, names in commands.items():
        p = sub.add_parser(command, help=COMMAND_HELP[command])
        group = None
        for name in names:
            target, flag = p, f"--{name}"
            if name in sources:
                if group is None:
                    group = p.add_mutually_exclusive_group()
                target = group
            if name == "format":
                target.add_argument(flag, choices=formats, default="json")
            elif name in flags:
                target.add_argument(flag, action="store_true", help=OPTION_HELP[name])
            else:
                target.add_argument(flag, required=name in required, help=OPTION_HELP[name],
                                    type=int if name in ints else None)
    return vars(parser.parse_args(argv))

"""The argparse parser that read formaldiv's command line before `cli` read
it alone, kept as the reference that `cli._read_args` is tested against.

It is built from the same subcommand table: each option takes a string
unless it is a flag or an int, --format takes json or text, and a call names
at most one point source.
"""

import argparse
import contextlib
import io

from formaldiv import cli
from formaldiv._usage import COMMAND_HELP, DESCRIPTION, OPTION_HELP


def parser():
    """The argparse parser of the subcommand table."""
    top = argparse.ArgumentParser(prog="formaldiv", description=DESCRIPTION)
    sub = top.add_subparsers(dest="command", required=True)
    for command, names in cli._COMMANDS.items():
        p = sub.add_parser(command, help=COMMAND_HELP[command])
        group = None
        for name in names:
            target, flag = p, f"--{name}"
            if name in cli._POINT_SOURCES:
                if group is None:
                    group = p.add_mutually_exclusive_group()
                target = group
            if name == "format":
                target.add_argument(flag, choices=cli._FORMATS, default="json")
            elif name in cli._FLAGS:
                target.add_argument(flag, action="store_true", help=OPTION_HELP[name])
            else:
                target.add_argument(flag, required=name in cli._REQUIRED,
                                    help=OPTION_HELP[name],
                                    type=int if name in cli._INTS else None)
    return top


def parse_args(argv):
    """vars() of argparse's namespace for argv, or the exit code where
    argparse ends the call: 0 for help, 2 for a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser().parse_args(list(argv)))
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0

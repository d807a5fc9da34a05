"""Help texts and usage errors of the command line.  `cli` reads the command
line and imports this module only to write help or a usage error, which it
builds from its subcommand table and the texts below.  Lines do not wrap,
so the bytes depend on no terminal width and no Python version."""

import sys

DESCRIPTION = "exact division engine for truncated power series modules"
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
    "format": "json or text (default: json)",
    "timing": "record wall time (breaks byte-determinism)",
    "refine": "also scan the half-step refinement of the grid",
}


def write_usage(command, problem, commands, required, flags, sources) -> int:
    """Write help for command (None for the program) to stdout and return 0,
    or, given a problem, the usage line and the problem to stderr and return 2.

    commands maps each subcommand to its option names in order; required and
    flags say how an option is written, and the point sources are exclusive.
    """
    if command is None:
        usage, about, title = "formaldiv [-h] COMMAND ...", DESCRIPTION, "commands"
        rows = [(name, COMMAND_HELP[name]) for name in commands]
    else:
        spec = {n: f"--{n}" if n in flags else f"--{n} {n.upper()}" for n in commands[command]}
        items = {n: " | ".join(spec[s] for s in sources) if n == sources[0] else text
                 for n, text in spec.items() if n not in sources[1:]}  # sources are one item
        usage = " ".join([f"formaldiv {command} [-h]",
                          *(text if n in required else f"[{text}]" for n, text in items.items())])
        about, title = COMMAND_HELP[command], "options"
        rows = [("-h, --help", "show this help and exit")]
        rows += [(text, OPTION_HELP[name]) for name, text in spec.items()]
    if problem is not None:
        sys.stderr.write(f"usage: {usage}\n{usage.partition(' [-h]')[0]}: error: {problem}\n")
        return 2
    width = max(len(left) for left, _ in rows) + 2
    listed = "".join(f"  {left.ljust(width)}{text}\n" for left, text in rows)
    sys.stdout.write(f"usage: {usage}\n\n{about}\n\n{title}:\n{listed}")
    return 0

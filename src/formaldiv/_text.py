"""The `--format text` mirror of a result: an indented outline for people
to read, not to parse.  `io.emit_result` loads it only for text output, so
a JSON call does not compile it."""


def render_text(result: dict) -> bytes:
    """The header line naming the operation, then the rest of the result."""
    header = f"formaldiv result: {result['operation']}"
    lines = [header, "=" * len(header)]
    lines.extend(_render_text_value({k: v for k, v in result.items() if k != "operation"}))
    return ("\n".join(lines) + "\n").encode()


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

"""The CLI bytes pinned in ``fixtures/cli_golden.json`` (see ``golden.py``,
which also regenerates the file)."""

import pytest

from golden import commands, run_captured, table


def test_golden_covers_every_command():
    assert sorted(table()) == sorted(" ".join(a) for a in commands())


@pytest.mark.parametrize("argv", list(commands()), ids=" ".join)
def test_cli_bytes_match_golden(argv):
    assert run_captured(argv) == table()[" ".join(argv)]

"""What importing formaldiv and running one CLI call loads.

Each footprint check runs a fresh interpreter without the site hook
(``python -S``), so only what the code itself imports is in ``sys.modules``.
Nothing is timed.
"""

import subprocess
import sys
from importlib import import_module
from importlib.util import find_spec
from pathlib import Path

import pytest

import formaldiv

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURES = Path(__file__).parent / "fixtures"
SUBMODULES = {"cli", "coefficients", "division", "errors", "exponents",
              "families", "io", "linalg", "rationals", "series", "syzygies"}
# hashlib loads OpenSSL; CPython hashes with its builtin _sha256 (up to 3.11)
# or _sha2 (3.12 and later) wherever the build has one.
NO_HASHLIB = any(find_spec(name) for name in ("_sha256", "_sha2"))


def loaded_after(code):
    """Names in sys.modules after running code in a fresh interpreter."""
    prog = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
            "print(' '.join(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", prog],
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def formaldiv_modules(names):
    return {n.split(".", 1)[1] for n in names if n.startswith("formaldiv.")}


def cli_call(*argv):
    return f"import formaldiv.cli\nassert formaldiv.cli.run_command({list(argv)!r}) == 0"


# A rational divide loaded 1,981 lines of formaldiv source while cli and io
# still held the point sources and JSON shapes of family and relation results.
RATIONAL_DIVIDE_LINE_BUDGET = 1981 - 150


def source_lines(names):
    """Lines of the formaldiv source files among the loaded module names."""
    files = ["__init__", *formaldiv_modules(names)]
    return sum(len((SRC / "formaldiv" / f"{m}.py").read_text().splitlines())
               for m in files)


# -- import footprint ----------------------------------------------------------

def test_import_package_loads_no_submodule():
    assert formaldiv_modules(loaded_after("import formaldiv")) == set()


def test_import_cli_loads_the_division_path_only():
    names = loaded_after("import formaldiv.cli")
    assert formaldiv_modules(names) == {
        "cli", "io", "errors", "rationals", "exponents", "series", "division",
    }
    assert "dataclasses" not in names and "inspect" not in names
    if NO_HASHLIB:
        assert "hashlib" not in names


def test_divide_loads_no_family_or_relation_module(tmp_path):
    names = loaded_after(cli_call(
        "divide", "--module", str(FIXTURES / "module_squares.json"),
        "--dividend", str(FIXTURES / "dividend_mixed.json"),
        "--out", str(tmp_path / "r.json"),
    ))
    assert not formaldiv_modules(names) & {"coefficients", "families", "syzygies", "linalg"}
    assert "dataclasses" not in names and "inspect" not in names
    if NO_HASHLIB:
        assert "hashlib" not in names


def test_rational_divide_loads_a_bounded_amount_of_source(tmp_path):
    names = loaded_after(cli_call(
        "divide", "--module", str(FIXTURES / "module_squares.json"),
        "--dividend", str(FIXTURES / "dividend_mixed.json"),
        "--out", str(tmp_path / "r.json"),
    ))
    assert formaldiv_modules(names) == {
        "cli", "io", "errors", "rationals", "exponents", "series", "division",
    }
    assert source_lines(names) <= RATIONAL_DIVIDE_LINE_BUDGET
    # what it loaded when the minimal-subset pass moved to syzygies
    assert source_lines(names) <= 1721


@pytest.mark.parametrize("argv", [
    ("divide", "--module", str(FIXTURES / "module_squares.json"),
     "--dividend", str(FIXTURES / "dividend_mixed.json")),
    ("relations", "--module", str(FIXTURES / "module_squares.json")),
])
def test_rational_call_builds_no_argument_parser(tmp_path, argv):
    # a well-formed command line is read without argparse and its locale code
    names = loaded_after(cli_call(*argv, "--out", str(tmp_path / "r.json")))
    assert not names & {"argparse", "gettext", "locale"}
    assert "_usage" not in formaldiv_modules(names)


def test_semicont_scan_loads_no_relation_code(tmp_path):
    mods = formaldiv_modules(loaded_after(cli_call(
        "semicont-scan", "--module", str(FIXTURES / "family_relations.json"),
        "--grid", "xi1:-2..2", "--refine", "--out", str(tmp_path / "r.json"),
    )))
    assert "families" in mods
    assert not mods & {"syzygies", "linalg"}


def test_relations_check_loads_relation_code(tmp_path):
    mods = formaldiv_modules(loaded_after(cli_call(
        "relations-check", "--module", str(FIXTURES / "family_relations.json"),
        "--grid", "xi1:-2..2", "--out", str(tmp_path / "r.json"),
    )))
    assert {"families", "syzygies", "linalg"} <= mods


def test_relations_loads_syzygies_but_not_families(tmp_path):
    names = loaded_after(cli_call(
        "relations", "--module", str(FIXTURES / "module_squares.json"),
        "--out", str(tmp_path / "r.json"),
    ))
    mods = formaldiv_modules(names)
    assert "syzygies" in mods
    assert not mods & {"coefficients", "families", "linalg"}
    if NO_HASHLIB:
        assert "hashlib" not in names
    # what it loaded when every sum of series products became one _dot
    assert source_lines(names) <= 2246


def test_parametric_divide_loads_coefficients(tmp_path):
    mods = formaldiv_modules(loaded_after(cli_call(
        "divide", "--module", str(FIXTURES / "family_pivot.json"),
        "--dividend", str(FIXTURES / "dividend_param.json"),
        "--out", str(tmp_path / "r.json"),
    )))
    assert "coefficients" in mods


@pytest.mark.parametrize("command", ["std-basis", "relations"])
def test_parametric_call_loads_no_family_code(tmp_path, command):
    mods = formaldiv_modules(loaded_after(cli_call(
        command, "--module", str(FIXTURES / "family_pivot.json"),
        "--out", str(tmp_path / "r.json"),
    )))
    assert "coefficients" in mods
    assert "families" not in mods


# -- package namespace ---------------------------------------------------------

def test_public_names_are_the_submodule_objects():
    assert len(formaldiv.__all__) == 44
    assert not set(formaldiv.__all__) & SUBMODULES
    for name in formaldiv.__all__:
        module = import_module(f"formaldiv.{formaldiv._MODULE_OF[name]}")
        assert getattr(formaldiv, name) is getattr(module, name)


def test_star_import_and_dir():
    namespace = {}
    exec("from formaldiv import *", namespace)
    assert set(formaldiv.__all__) <= set(namespace)
    assert set(formaldiv.__all__) <= set(dir(formaldiv))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        formaldiv.no_such_name

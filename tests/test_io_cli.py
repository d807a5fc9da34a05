import itertools
import json
import os
import stat
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from formaldiv import ModExponent, QQ, TruncatedSeries, parse_coefficient
from argparse_reference import parse_args as argparse_args
from formaldiv import cli, io
from formaldiv.errors import InvariantError, SchemaError
from golden import commands as golden_commands

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[1] / "src"


def fx(name):
    return str(FIXTURES / name)


def run(*argv):
    return cli.run_command(list(argv))


def run_json(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = run(*argv, "--out", str(out))
    assert code == 0, f"exit {code} for {argv}"
    return json.loads(out.read_text())


# -- module file parsing --------------------------------------------------------

def test_parse_minimal_module():
    mod = io.load_module_data(
        {"n": 1, "p": 1, "D": 3,
         "series": [{"name": "Phi",
                     "terms": [{"component": 1, "exponent": [1], "coeff": "1"}]}]}
    )
    assert mod.series["Phi"] == TruncatedSeries(
        1, 1, 3, QQ, {ModExponent((1,), 1): Fraction(1)}
    )


def test_parse_weighted_module():
    mod = io.parse_module_file(fx("module_weighted.json"))
    assert mod.order.weights == (Fraction(1), Fraction(2))
    # L((2,0)) = 2 < L((0,1)) = 2? equal; lex picks (0,1)
    init = mod.series["Phi"].initial(mod.order)
    assert init.exponent == ModExponent((0, 1), 1)


def test_family_is_the_checked_module_record():
    mod = io.parse_module_file(fx("family_pivot.json"))
    pm = mod.param_module()
    assert type(mod) is io.LoadedModule and isinstance(pm, io.LoadedModule)
    assert tuple(pm) == tuple(mod)
    assert (pm.n, pm.p, pm.trunc, pm.series_names) == (1, 1, 4, ("Phi",))
    assert pm.series == {"Phi": mod.generators[0]}


def test_parse_rejects_term_beyond_horizon():
    with pytest.raises(SchemaError):
        io.parse_module_file(fx("bad_degree.json"))


def test_parse_rejects_bad_weights():
    with pytest.raises(SchemaError):
        io.load_module_data(
            {"n": 1, "p": 1, "D": 2, "weights": [0],
             "series": [{"terms": [{"component": 1, "exponent": [1], "coeff": "1"}]}]}
        )


def test_module_round_trip_through_serialization():
    for name in ("module_squares.json", "family_relations.json", "module_weighted.json"):
        mod = io.parse_module_file(fx(name))
        data = {
            "n": mod.n, "p": mod.p, "D": mod.trunc,
            "weights": [str(w) for w in mod.order.weights],
            "parameters": list(mod.param_names),
            "series": [
                {"name": nm, "terms": io.series_to_json(mod.series[nm], mod.order)}
                for nm in mod.series_names
            ],
        }
        again = io.load_module_data(data, source=name)
        assert again.series_names == mod.series_names
        for nm in mod.series_names:
            assert again.series[nm] == mod.series[nm]


# -- CLI happy paths ----------------------------------------------------------------

def test_cli_divide_worked_example(tmp_path):
    result = run_json(
        tmp_path, "divide",
        "--module", fx("module_squares.json"),
        "--dividend", fx("dividend_mixed.json"),
    )
    payload = result["payload"]
    assert payload["quotients"][0]["terms"] == [
        {"component": 1, "exponent": [1, 0], "coeff": "1"},
        {"component": 1, "exponent": [0, 2], "coeff": "1"},
    ]
    assert payload["quotients"][1]["terms"] == []
    assert payload["remainder"] == []
    # payload terms re-parse to the exact computed series
    q1 = {
        ModExponent(tuple(t["exponent"]), t["component"]): parse_coefficient(t["coeff"])
        for t in payload["quotients"][0]["terms"]
    }
    assert TruncatedSeries(2, 1, 6, QQ, q1) == TruncatedSeries(
        2, 1, 6, QQ,
        {ModExponent((1, 0), 1): Fraction(1), ModExponent((0, 2), 1): Fraction(1)},
    )


def test_cli_divide_remainder(tmp_path):
    result = run_json(
        tmp_path, "divide",
        "--module", fx("module_squares.json"),
        "--dividend", fx("dividend_corner.json"),
    )
    assert result["payload"]["remainder"] == [
        {"component": 1, "exponent": [1, 1], "coeff": "1"}
    ]


def test_cli_divide_parametric_fractions(tmp_path):
    result = run_json(
        tmp_path, "divide",
        "--module", fx("family_pivot.json"),
        "--dividend", fx("dividend_param.json"),
    )
    payload = result["payload"]
    assert payload["denominators_introduced"] == ["xi1"]
    assert payload["remainder"] == []
    terms = payload["quotients"][0]["terms"]
    assert terms[0]["coeff"] == {"num": "1", "den": [["xi1", 1]]}
    assert terms[1]["coeff"] == {"num": "-1", "den": [["xi1", 2]]}
    # structured fraction payloads re-parse to the computed coefficients
    from formaldiv import DenominatorSet, LocalizedFraction

    dset = DenominatorSet(("xi1",), seed=[parse_coefficient("xi1", ("xi1",))])
    rebuilt = LocalizedFraction(
        parse_coefficient(terms[2]["coeff"]["num"], ("xi1",)),
        {0: terms[2]["coeff"]["den"][0][1]},
        dset,
    )
    assert rebuilt.evaluate((Fraction(2),)) == Fraction(1, 8)


def test_cli_missing_input_is_schema_error():
    assert run("diagram", "--module", "/nonexistent/nowhere.json") == 2


@pytest.mark.parametrize("argv", [
    ("membership", "--module", "module_squares.json", "--dividend", "dividend_corner.json"),
    ("compare-diagrams", "--module", "module_squares.json", "--other", "module_unit.json"),
    ("semicont-scan", "--module", "family_pivot.json", "--points", "points_basic.json"),
])
def test_cli_reads_each_input_once_and_hashes_what_it_parsed(tmp_path, monkeypatch, argv):
    import builtins
    import hashlib
    argv = [fx(a) if a.endswith(".json") else a for a in argv]
    inputs = {flag[2:]: path for flag, path in zip(argv[1::2], argv[2::2])}
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    result = run_json(tmp_path, *argv)
    for key, path in inputs.items():
        assert opened.count(path) == 1
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert result["inputs"][key] == digest


def test_cli_diagram_unit_module(tmp_path):
    result = run_json(tmp_path, "diagram", "--module", fx("module_unit.json"))
    assert result["payload"]["vertices"] == [[[0, 0], 1]]


def test_cli_membership(tmp_path):
    result = run_json(
        tmp_path, "membership",
        "--module", fx("module_squares.json"),
        "--dividend", fx("dividend_corner.json"),
    )
    assert result["payload"]["member"] is False


def test_cli_std_basis_canonical(tmp_path):
    result = run_json(
        tmp_path, "std-basis", "--canonical",
        "--module", fx("module_squares.json"),
    )
    payload = result["payload"]
    assert payload["canonical"] is True
    assert payload["vertices"] == [[[0, 2], 1], [[2, 0], 1]]


def test_cli_syzygy(tmp_path):
    result = run_json(tmp_path, "syzygy", "--module", fx("module_squares.json"))
    payload = result["payload"]
    assert len(payload["relations"]) == 1


def test_cli_std_basis_canonical_parametric(tmp_path):
    result = run_json(
        tmp_path, "std-basis", "--canonical",
        "--module", fx("family_relations.json"),
    )
    payload = result["payload"]
    assert payload["canonical"] is True
    # canonical representatives are the plain vertex monomials here
    for elem, vertex in zip(payload["elements"], payload["vertices"]):
        assert elem["terms"] == [
            {"component": vertex[1], "exponent": vertex[0], "coeff": "1"}
        ]
    assert payload["denominators"] == ["xi1"]


def test_cli_relations(tmp_path):
    result = run_json(tmp_path, "relations", "--module", fx("family_relations.json"))
    payload = result["payload"]
    assert payload["m"] == 2
    assert len(payload["relations"]) == 2
    assert "xi1" in payload["certificates"]["denominator_generators"]


def test_cli_compare_diagrams(tmp_path):
    result = run_json(
        tmp_path, "compare-diagrams",
        "--module", fx("module_unit.json"),
        "--other", fx("module_unit.json"),
    )
    assert result["payload"]["comparison"] == "equal"


def test_cli_specialize(tmp_path):
    result = run_json(
        tmp_path, "specialize",
        "--module", fx("family_pivot.json"), "--at", "2",
    )
    assert result["payload"]["series"][0]["terms"] == [
        {"component": 1, "exponent": [1], "coeff": "2"},
        {"component": 1, "exponent": [2], "coeff": "1"},
    ]


def test_cli_semicont_scan_grid(tmp_path):
    result = run_json(
        tmp_path, "semicont-scan",
        "--module", fx("family_pivot.json"),
        "--grid", "xi1:-2..2", "--refine",
    )
    payload = result["payload"]
    assert payload["semicontinuity_ok"] and payload["genericity_ok"]
    assert payload["refinement"]["stable"] is True
    assert payload["census"][0]["vertices"] == [[[1], 1]]


def test_cli_semicont_scan_points_file(tmp_path):
    result = run_json(
        tmp_path, "semicont-scan",
        "--module", fx("family_pivot.json"),
        "--points", fx("points_basic.json"),
    )
    assert result["payload"]["semicontinuity_ok"]


def test_cli_semicont_scan_seeded(tmp_path):
    result = run_json(
        tmp_path, "semicont-scan",
        "--module", fx("family_pivot.json"),
        "--seed", "7", "--count", "20",
    )
    assert len(result["payload"]["points"]) == 20


def test_cli_seed_without_count_samples_100_points(tmp_path):
    result = run_json(
        tmp_path, "semicont-scan", "--module", fx("family_pivot.json"), "--seed", "7",
    )
    payload = result["payload"]
    assert payload["points_source"] == {"kind": "seed", "seed": 7, "count": 100}
    assert len(payload["points"]) == 100


@pytest.mark.parametrize("command", ["semicont-scan", "relations-check"])
@pytest.mark.parametrize("source", [
    ("--grid", "xi1:-1..1"),
    ("--points", fx("points_basic.json")),
    (),
])
def test_cli_count_needs_a_seed(capsys, command, source):
    argv = [command, "--module", fx("family_pivot.json"), *source, "--count", "5"]
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--count needs --seed" in captured.err


def test_cli_relations_check(tmp_path):
    result = run_json(
        tmp_path, "relations-check",
        "--module", fx("family_relations.json"),
        "--points", fx("points_basic.json"),
    )
    payload = result["payload"]
    assert payload["all_passed"] is True
    statuses = {tuple(rec["point"]): rec["status"] for rec in payload["points"]}
    assert statuses[("0",)] == "skipped"


@pytest.mark.parametrize("argv", [
    # relations-check checks no refined point, so it takes no --refine
    ["relations-check", "--grid", "xi1:-2..2"],
    ["semicont-scan", "--seed", "7", "--count", "5"],
    ["semicont-scan", "--points", fx("points_basic.json")],
])
def test_cli_refine_only_scans_a_grid(capsys, argv):
    command, *source = argv
    assert run(command, "--module", fx("family_pivot.json"), *source, "--refine") == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["semicont-scan", "--grid", ""],
    ["semicont-scan", "--grid", "", "--refine"],
    ["relations-check", "--grid", ""],
])
def test_cli_empty_grid_is_a_malformed_grid(capsys, argv):
    command, *source = argv
    assert run(command, "--module", fx("family_pivot.json"), *source) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--grid: expected 'name:lo..hi', got ''" in captured.err


@pytest.mark.parametrize("command", ["semicont-scan", "relations-check"])
@pytest.mark.parametrize("sources", [
    ("--points", "--grid"), ("--points", "--seed"), ("--grid", "--seed"),
])
def test_cli_point_sources_are_exclusive(capsys, command, sources):
    values = {"--points": fx("points_basic.json"), "--grid": "xi1:-2..2",
              "--seed": "7"}
    argv = [command, "--module", fx("family_pivot.json")]
    for flag in sources:
        argv += [flag, values[flag]]
    assert run(*argv) == 2
    assert capsys.readouterr().out == ""



def _weighted_module(path, p, series):
    """A module file with n = 2, D = 3 and weights 1/3 and 3, under which x^2
    comes before y although its total degree is higher."""
    path.write_text(json.dumps({"n": 2, "p": p, "D": 3, "weights": ["1/3", 3], "series": [
        {"terms": [{"exponent": e, "component": c, "coeff": k} for e, c, k in terms]}
        for terms in series]}))
    return str(path)


def test_cli_completes_multiples_that_truncation_strips_of_their_initial_term(tmp_path):
    # phi = x^2 + y: y^2 = y*phi - x^2*phi modulo degree > 3, so (0,2) is a
    # vertex and y^3 a member, though y*phi and x^2*phi cross no cell
    module = _weighted_module(tmp_path / "m.json", 1, [[([2, 0], 1, "1"), ([0, 1], 1, "1")]])
    dividend = _weighted_module(tmp_path / "f.json", 1, [[([0, 3], 1, "1")]])
    diagram = run_json(tmp_path, "diagram", "--module", module)["payload"]
    assert diagram["vertices"] == [[[2, 0], 1], [[0, 2], 1]]
    member = run_json(tmp_path, "membership", "--module", module, "--dividend", dividend)
    assert member["payload"]["member"] is True
    # with (0,2) missing from its basis, a generator failed to reduce through it
    pair = _weighted_module(tmp_path / "pair.json", 2, [
        [([0, 1], 1, "-3/2"), ([2, 0], 1, "7/3"), ([1, 0], 2, "-1")],
        [([1, 0], 1, "1"), ([0, 0], 2, "4"), ([1, 0], 2, "-5/4")],
    ])
    relations = run_json(tmp_path, "relations", "--module", pair)["payload"]
    assert relations["basis_vertices"] == [[[0, 0], 2], [[2, 0], 1], [[0, 2], 1]]

# -- reading the command line --------------------------------------------------------

def reader_args(argv):
    """The reader's options for argv, or the exit code where it ends the
    call: 0 for help, 2 for a usage error (argparse_args reads the same)."""
    try:
        return cli._read_args(list(argv))
    except cli._Usage as usage:
        return 0 if usage.args[1] is None else 2


VALUES = ("m.json", "", "a b", "5", "-3", " 7 ", "0x10", "1_0", "x", "json", "text", "xml",
          "-x", "--", "--module", "-h", "-1/2", "-.5", "-1", "-", "-1\n", "-١", "a -b")
NOISE = ("--", "-h", "--help", "--frobnicate", "stray", "-5", "--module", "--seed", "--timing")


@st.composite
def command_lines(draw):
    """Command lines from the subcommand table, some well-formed, some with
    abbreviations, --opt=value, repeats, '--', '-'-led values, unknown
    tokens or missing values."""
    command = draw(st.sampled_from([*cli._COMMANDS, "frobnicate", "--help"]))
    argv = [command]
    names = cli._COMMANDS.get(command, ("module",))
    for name in draw(st.permutations(names)):
        if name not in cli._REQUIRED and draw(st.booleans()):
            continue
        flag = f"--{name}"
        form = draw(st.sampled_from(["plain"] * 8 + ["abbrev", "equals", "repeat"]))
        if form == "abbrev":
            flag = flag[:draw(st.integers(3, len(flag)))]
        if name in cli._FLAGS:
            argv += [flag] * (2 if form == "repeat" else 1)
            continue
        values = {"seed": ("5", "-3", " 7 ", "x", "1_0"), "count": ("6", "0x10", "x"),
                  "format": ("json", "text", "xml")}.get(name, ("m.json", "", "a b"))
        value = draw(st.sampled_from(values) | st.sampled_from(VALUES))
        if form == "equals":
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value] * (2 if form == "repeat" else 1)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        if draw(st.booleans()) and len(argv) > 1:
            del argv[draw(st.integers(1, len(argv) - 1))]
        else:
            argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(NOISE)))
    return argv


# Forms that CPython releases read differently, left out by name.  An "="
# value of "--" reads as [] up to 3.12 and as "--" from 3.13; the reader
# takes "--" (and rejects it where a number or a format is due, as 3.13 does).
VERSION_DEPENDENT = {
    "--opt=--": lambda token: token[:2] == "--" and token.endswith("=--"),
}


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_reader_reads_every_line_as_argparse(argv):
    assume(not any(form(token) for token in argv for form in VERSION_DEPENDENT.values()))
    assert reader_args(argv) == argparse_args(argv)


def test_reader_reads_every_golden_command_as_argparse():
    for argv in golden_commands():
        assert reader_args(argv) == argparse_args(argv), argv


def test_no_option_name_is_the_prefix_of_another():
    # the reader takes a prefix that matches one option name as that option
    for names in cli._COMMANDS.values():
        options = ("help", *names)
        assert not [(a, b) for a in options for b in options if a != b and b.startswith(a)]


def test_cli_text_format(tmp_path, capsys):
    code = run(
        "diagram", "--module", fx("module_unit.json"), "--format", "text"
    )
    assert code == 0
    assert "formaldiv result: diagram" in capsys.readouterr().out


# -- determinism ---------------------------------------------------------------------

def test_cli_byte_identical_runs(tmp_path):
    args = [
        "semicont-scan", "--module", fx("family_pivot.json"),
        "--grid", "xi1:-2..2", "--refine",
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(*args, "--out", str(out1)) == 0
    assert run(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


# -- exit codes -------------------------------------------------------------------------

def test_exit_code_schema_errors():
    assert run("diagram", "--module", fx("bad_json.json")) == 2
    assert run("diagram", "--module", fx("bad_degree.json")) == 2
    assert run("nonsense", "--module", fx("module_unit.json")) == 2


def test_exit_code_precondition():
    assert run(
        "divide",
        "--module", fx("module_zero_series.json"),
        "--dividend", fx("module_zero_series.json"),
    ) == 3


# -- input checks -------------------------------------------------------------------------

def _module_variants(tmp_path):
    """module_weighted.json with unit weights, and with one term given twice."""
    base = json.loads((FIXTURES / "module_weighted.json").read_text())
    term = {"component": 1, "exponent": [2, 0], "coeff": "1"}
    return {
        "UNWEIGHTED": _write_module(tmp_path, "unweighted.json", {**base, "weights": [1, 1]}),
        "DUPLICATE": _write_module(tmp_path, "duplicate.json",
                                   {**base, "series": [{"terms": [term, term]}]}),
    }


@pytest.mark.parametrize("code, message, argv", [
    (2, "dividend order weights differ from module",
     ("divide", "--module", fx("module_weighted.json"), "--dividend", "UNWEIGHTED")),
    (2, "dividend file must contain exactly one series",
     ("divide", "--module", fx("module_squares.json"), "--dividend", fx("module_squares.json"))),
    (3, "empty grid range 2..-2", ("semicont-scan", "--grid", "xi1:2..-2")),
    (2, "--grid: expected 'lo..hi' in 'xi1:0'", ("semicont-scan", "--grid", "xi1:0")),
    (2, "--grid: invalid literal for int()", ("semicont-scan", "--grid", "xi1:a..2")),
    (2, "missing ['xi1'], unknown ['t']", ("relations-check", "--grid", "t:0..2")),
    (2, "one of --points, --grid, or --seed is required", ("semicont-scan",)),
    (2, "--at expects 1 coordinates, got 2", ("specialize", "--at", "1,2")),
    (2, "--at: bad rational 'x'", ("specialize", "--at", "x")),
    (2, "duplicate exponent [2, 0] in 'F1'", ("diagram", "--module", "DUPLICATE")),
])
def test_cli_rejects_malformed_input(tmp_path, capsys, code, message, argv):
    # the family commands run on family_pivot.json unless argv names a module
    files = _module_variants(tmp_path)
    module = () if "--module" in argv else ("--module", fx("family_pivot.json"))
    assert run(argv[0], *module, *(files.get(arg, arg) for arg in argv[1:])) == code
    out, err = capsys.readouterr()
    assert out == "" and message in err and err.count("\n") == 1


DEEP_BRACKETS = "[" * 100_000 + "]" * 100_000
DEEP_COEFF = json.dumps({"n": 1, "p": 1, "D": 2, "series": [{"terms": [
    {"exponent": [1], "coeff": "(" * 10_000 + "1" + ")" * 10_000}]}]})


@pytest.mark.parametrize("argv, text, message", [
    (("diagram", "--module", "FILE"), DEEP_BRACKETS, ": invalid JSON: nested too deeply"),
    (("semicont-scan", "--module", fx("family_pivot.json"), "--points", "FILE"),
     DEEP_BRACKETS, ": invalid JSON: nested too deeply"),
    (("diagram", "--module", "FILE"), DEEP_COEFF,
     ".series[0].terms[0].coeff: expression nested too deeply"),
], ids=["module", "points", "coeff"])
def test_deeply_nested_input_is_a_schema_error(tmp_path, capsys, argv, text, message):
    # the JSON decoder and the expression parser recurse once per level
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert run(*(str(path) if arg == "FILE" else arg for arg in argv)) == 2
    assert capsys.readouterr() == ("", f"error: {path}{message}\n")


def test_integer_coeff_reads_as_its_decimal_string(tmp_path):
    base = json.loads((FIXTURES / "module_weighted.json").read_text())
    payloads = []
    for coeff in (-3, "-3"):
        terms = [{**term, "coeff": coeff} for term in base["series"][0]["terms"]]
        path = _write_module(tmp_path, "m.json", {**base, "series": [{"terms": terms}]})
        payloads.append(run_json(tmp_path, "std-basis", "--module", path)["payload"])
    assert payloads[0] == payloads[1]
    assert {term["coeff"] for term in payloads[0]["elements"][0]["terms"]} == {"-3"}


def test_timing_adds_only_the_wall_time(tmp_path):
    argv = ("diagram", "--module", fx("module_squares.json"), "--out")
    plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
    assert run(*argv, str(plain)) == 0
    assert run(*argv, str(timed), "--timing") == 0
    result = json.loads(timed.read_text())
    assert result.pop("wall_time_s") >= 0
    assert io.emit_result(result) == plain.read_bytes()


# -- where the family checks run ----------------------------------------------------------
#
# A module file is read without the checks a family needs; they run when a
# command takes the file's family, so a dividend may be zero and a family
# with a zero series fails before any point option is parsed.

def _write_module(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("module, params", [
    ("module_unit.json", []),
    ("family_pivot.json", ["xi1"]),
])
def test_zero_dividend_is_accepted(tmp_path, module, params):
    ambient = json.loads((FIXTURES / module).read_text())
    zero = _write_module(tmp_path, "zero.json", {
        "n": ambient["n"], "p": ambient["p"], "D": ambient["D"],
        "parameters": params, "series": [{"name": "G", "terms": []}],
    })
    payload = run_json(tmp_path, "divide", "--module", fx(module),
                       "--dividend", zero)["payload"]
    assert payload["remainder"] == []


def _family_with_zero_series(tmp_path):
    data = json.loads((FIXTURES / "family_pivot.json").read_text())
    data["series"].append({"name": "Zero", "terms": []})
    return _write_module(tmp_path, "family_zero.json", data)


@pytest.mark.parametrize("argv", [
    ("divide", "--dividend", fx("dividend_param.json")),
    ("std-basis",),
    ("specialize", "--at", "x"),
    ("semicont-scan", "--grid", "bad"),
])
def test_family_with_a_zero_series_fails_its_check_first(tmp_path, capsys, argv):
    module = _family_with_zero_series(tmp_path)
    assert run(argv[0], "--module", module, *argv[1:]) == 3
    assert "zero generator in parametrized family" in capsys.readouterr().err


def test_family_check_runs_after_the_dividend_is_read(tmp_path):
    module = _family_with_zero_series(tmp_path)
    assert run("divide", "--module", module,
               "--dividend", str(tmp_path / "missing.json")) == 2


@pytest.mark.parametrize("term", [
    {"exponent": [True, False]},
    {"exponent": [1, 0], "component": True},
])
def test_json_booleans_are_not_integers(tmp_path, term):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "p": 1, "D": 3, "series": [{"terms": [term]}]}))
    assert run("diagram", "--module", str(path)) == 2


@pytest.mark.parametrize("command, module", [
    ("semicont-scan", "family_pivot.json"),
    ("relations-check", "family_relations.json"),
])
@pytest.mark.parametrize("source", [
    ("--seed", "1", "--count", "0"),
    ("--seed", "1", "--count", "-3"),
    ("--points", "EMPTY"),
])
def test_empty_point_set_is_a_precondition_violation(tmp_path, capsys, command, module, source):
    empty = tmp_path / "points.json"
    empty.write_text('{"points": []}')
    argv = [str(empty) if arg == "EMPTY" else arg for arg in source]
    assert run(command, "--module", fx(module), *argv) == 3
    assert "empty point set" in capsys.readouterr().err


def test_grid_rejects_a_repeated_parameter(capsys):
    assert run(
        "semicont-scan", "--module", fx("family_pivot.json"), "--grid", "xi1:-1..1,xi1:5..6"
    ) == 2
    assert "repeated parameter 'xi1'" in capsys.readouterr().err


def test_exit_code_degeneracy():
    assert run(
        "specialize", "--module", fx("family_seeded.json"), "--at", "0"
    ) == 4


def test_vanishing_denominator_prints_the_point_as_the_payload_does(tmp_path, capsys):
    assert run("specialize", "--module", fx("family_seeded.json"), "--at", "0") == 4
    assert capsys.readouterr().err == (
        "degenerate input: declared denominator xi1 vanishes at (0)\n")
    payload = run_json(tmp_path, "semicont-scan", "--module", fx("family_seeded.json"),
                       "--grid", "xi1:-2..2")["payload"]
    reasons = {tuple(rec["point"]): rec.get("reason") for rec in payload["points"]}
    assert reasons[("0",)] == "declared denominator xi1 vanishes at (0)"


def test_exit_code_internal_error(monkeypatch):
    def boom(args):
        raise InvariantError("synthetic")

    monkeypatch.setattr(cli, "_dispatch", boom)
    assert run("diagram", "--module", fx("module_unit.json")) == 1


def test_output_written_atomically(tmp_path):
    out = tmp_path / "result.json"
    assert run("diagram", "--module", fx("module_unit.json"),
               "--out", str(out)) == 0
    assert out.exists()
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".formaldiv-")]
    assert not leftovers


@pytest.mark.parametrize("target, reason", [
    ("missing/result.json", "No such file or directory"),
    ("folder", "Is a directory"),
])
def test_unwritable_output_is_a_schema_error(tmp_path, capsys, target, reason):
    (tmp_path / "folder").mkdir()
    out = tmp_path / target
    assert run("diagram", "--module", fx("module_unit.json"), "--out", str(out)) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {out}: {reason}\n")
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".formaldiv-")]
    assert not leftovers and os.listdir(tmp_path / "folder") == []


@pytest.mark.parametrize("target, reason", [
    ("missing.json", "No such file or directory"),
    ("folder", "Is a directory"),
])
def test_unreadable_input_names_its_path_once(tmp_path, capsys, target, reason):
    (tmp_path / "folder").mkdir()
    module = tmp_path / target
    assert run("diagram", "--module", str(module)) == 2
    assert capsys.readouterr() == ("", f"error: cannot read {module}: {reason}\n")


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_output_file_mode_follows_umask(tmp_path, umask):
    out, plain = tmp_path / "result.json", tmp_path / "plain.json"
    old = os.umask(umask)
    try:
        assert run("diagram", "--module", fx("module_unit.json"),
                   "--out", str(out)) == 0
        plain.write_bytes(b"")
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


# -- writing JSON -----------------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64)
    | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(json_values)
def test_json_writer_equals_json_dumps(value):
    assert io._json_text(value) == json.dumps(value, indent=2)
    result = {"operation": "x", "payload": value}
    assert io.emit_result(result) == (json.dumps(result, indent=2) + "\n").encode()


# -- the CLI as a process ---------------------------------------------------------------
#
# main() ends the process with os._exit once the result is flushed, so these
# run `python -m formaldiv.cli` and compare it with run_command in-process.

def cli_process(*argv, stdout=subprocess.PIPE):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    return subprocess.Popen([sys.executable, "-m", "formaldiv.cli", *argv], env=env,
                            stdout=stdout, stderr=subprocess.PIPE)


@pytest.mark.parametrize("argv", [
    ("divide", "--module", fx("module_squares.json"), "--dividend", fx("dividend_mixed.json")),
    ("relations-check", "--module", fx("family_relations.json"), "--grid", "xi1:-2..2"),
])
def test_cli_process_prints_what_run_command_writes(tmp_path, argv):
    out, err = cli_process(*argv).communicate()
    assert err == b""
    path = tmp_path / "out.json"
    assert run(*argv, "--out", str(path)) == 0
    assert out == path.read_bytes()


@pytest.mark.parametrize("code, argv", [
    (2, ("diagram", "--module", fx("bad_json.json"))),
    (2, ("divide", "--module", fx("module_squares.json"), "--dividend", fx("dividend_param.json"))),
    (3, ("syzygy", "--module", fx("module_zero_series.json"))),
])
def test_cli_process_exit_codes_keep_their_stderr(capsys, code, argv):
    proc = cli_process(*argv)
    out, err = proc.communicate()
    assert run(*argv) == code
    assert (proc.returncode, out, err.decode()) == (code, b"", capsys.readouterr().err)
    assert err.startswith(b"error: " if code == 2 else b"precondition violated: ")


def test_cli_process_unwritable_output_exits_2(tmp_path):
    out = tmp_path / "missing" / "result.json"
    proc = cli_process("diagram", "--module", fx("module_unit.json"), "--out", str(out))
    stdout, err = proc.communicate()
    assert (proc.returncode, stdout) == (2, b"")
    assert err == f"error: cannot write {out}: No such file or directory\n".encode()


@pytest.mark.parametrize("weights", [None, [1, 1]])
def test_cli_process_oversized_n_is_a_schema_error(tmp_path, weights):
    # the exponent lists reject n = 10**30 before any n-long weight list is built
    data = json.loads(Path(fx("module_unit.json")).read_text())
    data["n"] = 10**30
    if weights is not None:
        data["weights"] = weights
    (tmp_path / "m.json").write_text(json.dumps(data))
    proc = cli_process("diagram", "--module", str(tmp_path / "m.json"))
    out, err = proc.communicate()
    assert (proc.returncode, out) == (2, b"")
    assert err.startswith(b"error: ") and err.endswith(
        b".series[0].terms[0].exponent: expected " + str(10**30).encode()
        + b" nonnegative integers\n")


@pytest.mark.parametrize("code, argv", [
    (0, ("--help",)),
    (2, ("relations",)),
    (2, ("diagram", "--module", fx("module_unit.json"), "--format", "xml")),
    (0, ("semicont-scan", "--help")),
])
def test_cli_process_help_and_usage_errors_match_run_command(capsys, monkeypatch, code, argv):
    runs = []
    for columns in ("40", "200"):  # the bytes do not follow the terminal width
        monkeypatch.setenv("COLUMNS", columns)
        proc = cli_process(*argv)
        runs.append((*proc.communicate(), proc.returncode))
    assert runs[0] == runs[1]
    out, err, returncode = runs[0]
    assert run(*argv) == code == returncode
    captured = capsys.readouterr()
    assert (out.decode(), err.decode()) == (captured.out, captured.err)
    assert (out if code == 0 else err).startswith(b"usage: formaldiv")


def test_cli_process_with_stdout_closed_fails_as_a_broken_pipe(tmp_path):
    # a 1001-term quotient by 1 - x1, far more than a pipe holds; the reader
    # is gone before the result is written, so the write fails with EPIPE,
    # and that exception takes the normal exit path (status 1, traceback)
    n, trunc = 4, 10
    exps = [list(e) for e in itertools.product(range(trunc + 1), repeat=n)
            if sum(e) <= trunc]

    def module(terms):
        return json.dumps({"n": n, "p": 1, "D": trunc, "series": [{"terms": [
            {"component": 1, "exponent": e, "coeff": c} for e, c in terms]}]})
    (tmp_path / "m.json").write_text(module([([0, 0, 0, 0], "1"), ([1, 0, 0, 0], "-1")]))
    (tmp_path / "f.json").write_text(module([(e, "1/3") for e in exps]))
    read, write = os.pipe()
    proc = cli_process("divide", "--module", str(tmp_path / "m.json"),
                       "--dividend", str(tmp_path / "f.json"), stdout=write)
    os.close(write)
    os.close(read)
    _, err = proc.communicate()
    assert proc.returncode == 1
    assert err.endswith(b"BrokenPipeError: [Errno 32] Broken pipe\n")


def test_diagram_over_many_shared_linear_denominators(tmp_path):
    # the initial coefficient (t^2+1)*t*(t-1)*...*(t-7) is no unit over the
    # declared t, t-1, ..., t-7; the unit search retried every ordering of
    # them and took about 40 s before it searched each quotient once
    linear = ["t"] + [f"t - {i}" for i in range(1, 8)]
    module = tmp_path / "module.json"
    module.write_text(json.dumps({
        "n": 1, "p": 1, "D": 3, "parameters": ["t"], "denominators": linear,
        "series": [{"name": "Phi", "terms": [
            {"component": 1, "exponent": [0],
             "coeff": "(t^2 + 1)*" + "*".join(f"({g})" for g in linear)},
            {"component": 1, "exponent": [1], "coeff": "1"}]}]}))
    start = time.monotonic()
    data = run_json(tmp_path, "diagram", "--module", str(module))
    assert time.monotonic() - start < 5.0
    assert data["payload"]["vertices"] == [[[0], 1]]
    assert len(data["payload"]["certificates"]["denominator_generators"]) == 9

import hashlib
import json
import os

import pytest
from click.testing import CliRunner

from aquiver import cli, jsonio
from aquiver.cli import main
from aquiver.decompose import InternalInvariantError
from aquiver.jsonio import SchemaError

HERE = os.path.dirname(__file__)

ZIGZAG_ORIENTATION = {
    "criticals": [{"pos": "0", "kind": "sink"}, {"pos": "1", "kind": "source"}],
    "empty_direction": "descending",
}
EMPTY_ORIENTATION = {"criticals": [], "empty_direction": "descending"}

BARS_DOC = {
    "orientation": EMPTY_ORIENTATION,
    "bars": [
        {"lo": "0", "lo_closed": True, "hi": "2", "hi_closed": False, "mult": 1},
        {"lo": "1", "lo_closed": True, "hi": "3", "hi_closed": False, "mult": 2},
    ],
}


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_decompose_pretty_and_json(runner, tmp_path):
    f = _write(tmp_path, "doc.json", BARS_DOC)
    res = runner.invoke(main, ["decompose", f])
    assert res.exit_code == 0
    assert res.output == "[0, 2)\n[1, 3)  x2\n"
    res = runner.invoke(main, ["decompose", f, "--json"])
    assert res.exit_code == 0
    got = json.loads(res.output)
    assert got["bars"][0]["lo"] == "0"
    assert got["bars"][1]["mult"] == 2


def test_decompose_empty(runner, tmp_path):
    f = _write(tmp_path, "doc.json", {"orientation": EMPTY_ORIENTATION, "bars": []})
    res = runner.invoke(main, ["decompose", f, "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output) == {"bars": []}


def test_scramble_roundtrip_and_determinism(runner, tmp_path):
    f = _write(tmp_path, "doc.json", BARS_DOC)
    r1 = runner.invoke(main, ["scramble", f, "--seed", "11"])
    r2 = runner.invoke(main, ["scramble", f, "--seed", "11"])
    assert r1.exit_code == 0
    assert r1.output == r2.output
    scr = tmp_path / "scrambled.json"
    scr.write_text(r1.output)
    res = runner.invoke(main, ["decompose", str(scr)])
    assert res.output == "[0, 2)\n[1, 3)  x2\n"


# sha256 of `scramble --seed 11` stdout on BARS_DOC.  The determinism test
# above compares two runs of one version; these pin the rng stream and the
# exact entries across versions.
SCRAMBLE_SHA256 = {
    "Q": "adcd6e60b718f5d821101f2e78700e9a5b91016f2b7f0d61b0b26bb8c09141e2",
    "Fp:5": "a1a597a9855a238d626f507af1beb5635a51eb9f5b651f23ba8a53a26cc9d3c8",
    # 2^61 - 1: units drawn by multi-word getrandbits
    "Fp:2305843009213693951": "76d3f6585575516d75de9d4e98c34c4382a5e3f8c46165799f42d2f69d83ff23",
}


@pytest.mark.parametrize("field", sorted(SCRAMBLE_SHA256))
def test_scramble_bytes_are_pinned(runner, tmp_path, field):
    f = _write(tmp_path, "doc.json", BARS_DOC)
    res = runner.invoke(main, ["scramble", f, "--seed", "11", "--field", field])
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == SCRAMBLE_SHA256[field]


# sha256 of the concatenated `present --json` stdout over PRESENT_INTERVALS
# on a sink-source-sink orientation.  The list holds projective down-sets
# ((-inf,0], {0}, [0,2], [2,+inf)) and half-open projectives ([0,1), (1,2]),
# whose presentations have no relation, next to non-projective intervals.
PRESENT_ORIENTATION = {
    "criticals": [{"pos": "0", "kind": "sink"}, {"pos": "1", "kind": "source"},
                  {"pos": "2", "kind": "sink"}],
    "empty_direction": "descending",
}
PRESENT_INTERVALS = ["(-inf,0]", "{0}", "[0,1)", "[0,2]", "(1,2]", "[2,+inf)", "[0,1]",
                     "(0,1]", "{1}", "(1/2,3/2)", "[1/2,3)", "(2,+inf)", "(-inf,+inf)",
                     "{1/2}", "(0,2)"]
PRESENT_SHA256 = {
    "Q": "83a11138d0e479c575a60b5b6500ba12ecfca7edc2d4f637b6174d1d98bee989",
    "Fp:5": "55c1c7a696f34f0b3d1e6f5ace97aadc89f36cb791f232cf419996ac57bbcfef",
}


@pytest.mark.parametrize("field", sorted(PRESENT_SHA256))
def test_present_bytes_are_pinned(runner, tmp_path, field):
    f = _write(tmp_path, "o.json", PRESENT_ORIENTATION)
    digest = hashlib.sha256()
    for iv in PRESENT_INTERVALS:
        res = runner.invoke(main, ["present", f, iv, "--field", field, "--json"])
        assert res.exit_code == 0
        digest.update(res.output.encode())
    assert digest.hexdigest() == PRESENT_SHA256[field]


def test_scramble_requires_seed(runner, tmp_path):
    f = _write(tmp_path, "doc.json", BARS_DOC)
    res = runner.invoke(main, ["scramble", f])
    assert res.exit_code == 2


def test_scramble_prime_field(runner, tmp_path):
    doc = dict(BARS_DOC)
    doc["field"] = {"kind": "Fp", "p": 5}
    f = _write(tmp_path, "doc.json", doc)
    res = runner.invoke(main, ["scramble", f, "--seed", "3"])
    assert res.exit_code == 0
    scr = tmp_path / "s.json"
    scr.write_text(res.output)
    out = runner.invoke(main, ["decompose", str(scr)])
    assert out.output == "[0, 2)\n[1, 3)  x2\n"


def test_hom_and_ext(runner, tmp_path):
    f = _write(tmp_path, "o.json", EMPTY_ORIENTATION)
    assert runner.invoke(main, ["hom", f, "[0,2)", "[1,3)"]).output == "1\n"
    assert runner.invoke(main, ["hom", f, "[1,3)", "[0,2)"]).output == "0\n"
    assert runner.invoke(main, ["hom", f, "[0,2)", "[0,2)"]).output == "1\n"
    assert runner.invoke(main, ["ext", f, "[0,1)", "(-inf,0)"]).output == "1\n"
    # projective first argument
    assert runner.invoke(main, ["ext", f, "(-inf,0]", "[0,1)"]).output == "0\n"


def test_present(runner, tmp_path):
    f = _write(tmp_path, "o.json", EMPTY_ORIENTATION)
    res = runner.invoke(main, ["present", f, "[0,1)", "--json"])
    assert res.exit_code == 0
    got = json.loads(res.output)
    assert [l["form"] for l in got["p0"]] == ["open_right"]
    assert got["p0"][0]["a"] == "1"
    assert [l["a"] for l in got["p1"]] == ["0"]
    pretty = runner.invoke(main, ["present", f, "[0,1)"])
    assert "P_1)" in pretty.output and "P_0)" in pretty.output


def test_projectives_golden_table(runner, tmp_path):
    f = _write(tmp_path, "o.json", ZIGZAG_ORIENTATION)
    res = runner.invoke(main, ["projectives", f])
    assert res.exit_code == 0
    with open(os.path.join(HERE, "data", "projectives_zigzag_table.txt")) as fh:
        golden = fh.read()
    assert res.output == golden


def test_projectives_window(runner, tmp_path):
    f = _write(tmp_path, "o.json", ZIGZAG_ORIENTATION)
    res = runner.invoke(main, ["projectives", f, "--window", "0:1"])
    assert res.exit_code == 0
    assert "P_c" not in res.output
    assert "P_b" in res.output and "P_0" in res.output


def test_ar_command(runner, tmp_path):
    f = _write(tmp_path, "o.json", ZIGZAG_ORIENTATION)
    res = runner.invoke(main, ["ar", f, "(1/4,1/2]", "--ending"])
    assert res.output == "0 -> [1/4, 1/2) -> [1/4, 1/2] + (1/4, 1/2) -> (1/4, 1/2] -> 0\n"
    res = runner.invoke(main, ["ar", f, "{1/3}", "--ending"])
    assert "no almost-split sequence" in res.output
    res = runner.invoke(main, ["ar", f, "[1/4,1/2]", "--ending"])
    assert "outside the established classification" in res.output
    res = runner.invoke(main, ["ar", f, "[1/4,1/2)", "--starting", "--json"])
    got = json.loads(res.output)
    assert got["status"] == "exists"
    assert got["sequence"]["right"]["lo_closed"] is False


def test_exit_code_2_on_bad_input(runner, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    res = runner.invoke(main, ["decompose", str(p)])
    assert res.exit_code == 2
    assert "line 1" in res.output or "line 1" in (res.stderr or "")
    f = _write(tmp_path, "o.json", EMPTY_ORIENTATION)
    res = runner.invoke(main, ["hom", str(f), "[0,zz)", "[0,1)"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["decompose", str(f)])
    assert res.exit_code == 2  # orientation file is not a document


def test_missing_file(runner):
    res = runner.invoke(main, ["decompose", "/nonexistent/x.json"])
    assert res.exit_code == 2


def test_byte_determinism_across_runs(runner, tmp_path):
    f = _write(tmp_path, "doc.json", BARS_DOC)
    outs = {runner.invoke(main, ["decompose", f, "--json"]).output for _ in range(3)}
    assert len(outs) == 1


def _assert_clean_exit_2(res):
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error: ")
    assert res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr and "Traceback" not in res.stdout


@pytest.mark.parametrize("spec", ["Fp:1", "Fp:4", "Fp:561", "Fp:" + str(10**24),
                                  "Fp:" + str(10**400 + 1)],
                         ids=["1", "4", "561", "1e24", "1e400+1"])
def test_bad_prime_field_exits_2(runner, tmp_path, spec):
    f = _write(tmp_path, "o.json", EMPTY_ORIENTATION)
    _assert_clean_exit_2(runner.invoke(main, ["hom", f, "[0,1)", "[0,1)", "--field", spec]))


def test_large_prime_field_accepted(runner, tmp_path):
    f = _write(tmp_path, "o.json", EMPTY_ORIENTATION)
    res = runner.invoke(main, ["hom", f, "[0,1)", "[0,1)", "--field", f"Fp:{2**61 - 1}"])
    assert res.exit_code == 0


@pytest.mark.parametrize("args", [["hom", "[0,1/0)", "[0,1)"], ["hom", "[0,1)", "(1/0,2]"],
                                  ["present", "{-inf}"], ["present", "{+inf}"],
                                  ["present", "{1/0}"]])
def test_bad_interval_literal_exits_2(runner, tmp_path, args):
    f = _write(tmp_path, "o.json", EMPTY_ORIENTATION)
    _assert_clean_exit_2(runner.invoke(main, [args[0], f] + args[1:]))


@pytest.mark.parametrize("orientation", [[1], "descending", 3, None])
def test_orientation_not_an_object_exits_2(runner, tmp_path, orientation):
    f = _write(tmp_path, "o.json", {"orientation": orientation})
    _assert_clean_exit_2(runner.invoke(main, ["hom", f, "[0,1)", "[0,1)"]))
    d = _write(tmp_path, "d.json", {"orientation": orientation, "bars": []})
    _assert_clean_exit_2(runner.invoke(main, ["decompose", d]))


@pytest.mark.parametrize("doc", [
    {"orientation": EMPTY_ORIENTATION, "field": {"kind": "Fp", "p": None}, "bars": []},
    {"orientation": EMPTY_ORIENTATION, "field": {"kind": "Fp", "p": 4}, "bars": []},
    {"orientation": {"criticals": [{"pos": "1/0", "kind": "sink"}]}, "bars": []},
    {"orientation": EMPTY_ORIENTATION,
     "bars": [{"lo": "0", "lo_closed": True, "hi": "1/0", "hi_closed": False, "mult": 1}]},
    {"orientation": EMPTY_ORIENTATION,
     "tame": {"grid": ["1/0"], "dims": [0, 0, 0], "maps": []}},
    {"orientation": EMPTY_ORIENTATION,
     "tame": {"grid": ["0"], "dims": [1, 1, 1],
              "maps": [{"dir": "down", "entries": [["1/0"]]},
                       {"dir": "down", "entries": [["1"]]}]}},
], ids=["p-null", "p-composite", "critical-1/0", "bar-1/0", "grid-1/0", "entry-1/0"])
def test_malformed_numbers_in_documents_exit_2(runner, tmp_path, doc):
    f = _write(tmp_path, "d.json", doc)
    _assert_clean_exit_2(runner.invoke(main, ["decompose", f]))


def _two_cell_tame(grid, e1, e2, field=None):
    """A tame document on a two-point grid, one-dimensional on [grid[0], grid[1]]."""
    doc = {"orientation": EMPTY_ORIENTATION,
           "tame": {"grid": grid, "dims": [0, 1, 1, 1, 0],
                    "maps": [{"dir": "down", "entries": []},
                             {"dir": "down", "entries": [[e1]]},
                             {"dir": "down", "entries": [[e2]]},
                             {"dir": "down", "entries": [[]]}]}}
    if field is not None:
        doc["field"] = field
    return doc


def test_two_cell_tame_document_is_valid(runner, tmp_path):
    f = _write(tmp_path, "d.json", _two_cell_tame(["0", "1"], "1", "1", {"kind": "Fp", "p": 5}))
    res = runner.invoke(main, ["decompose", f])
    assert res.exit_code == 0 and res.output == "[0, 1]\n"


@pytest.mark.parametrize("command", [["decompose"], ["scramble", "--seed", "11"]],
                         ids=["decompose", "scramble"])
def test_field_other_than_a_tame_documents_exits_2(runner, tmp_path, command):
    # a tame document's maps are parsed over its own field, which --field
    # may repeat but not change; a bars document takes the override
    f = _write(tmp_path, "d.json", _two_cell_tame(["0", "1/2"], "1/2", "-3/7"))
    res = runner.invoke(main, [command[0], f, *command[1:], "--field", "Fp:5"])
    _assert_clean_exit_2(res)
    assert res.stderr == "error: --field Fp:5 differs from the tame document's field Q\n"
    same = runner.invoke(main, [command[0], f, *command[1:], "--field", "Q"])
    assert same.exit_code == 0
    assert same.output == runner.invoke(main, [command[0], f, *command[1:]]).output
    f5 = _write(tmp_path, "d5.json", _two_cell_tame(["0", "1"], "2", "3", {"kind": "Fp", "p": 5}))
    res = runner.invoke(main, [command[0], f5, *command[1:], "--field", "Q"])
    _assert_clean_exit_2(res)
    assert res.stderr == "error: --field Q differs from the tame document's field Fp:5\n"
    bars = _write(tmp_path, "bars.json", BARS_DOC)
    res = runner.invoke(main, [command[0], bars, *command[1:], "--field", "Fp:5"])
    assert res.exit_code == 0


COERCED_NUMBER_DOCS = [
    {"orientation": EMPTY_ORIENTATION, "field": {"kind": "Fp", "p": 5.5}, "bars": []},
    {"orientation": EMPTY_ORIENTATION, "field": {"kind": "Fp", "p": True}, "bars": []},
    _two_cell_tame(["0", "1"], True, "1"),
    _two_cell_tame(["0", "1"], "1", False),
    _two_cell_tame(["0", "1"], 2.5, 1, {"kind": "Fp", "p": 5}),
    _two_cell_tame(["0", True], "1", "1"),
    {"orientation": {"criticals": [{"pos": True, "kind": "sink"}]}, "bars": []},
    {"orientation": EMPTY_ORIENTATION,
     "bars": [{"lo": "0", "lo_closed": True, "hi": "1", "hi_closed": False, "mult": True}]},
    {"orientation": EMPTY_ORIENTATION,
     "bars": [{"lo": 0, "lo_closed": True, "hi": "1", "hi_closed": False, "mult": 1}]},
    {**_two_cell_tame(["0", "1"], "1", "1"),
     "tame": {**_two_cell_tame(["0", "1"], "1", "1")["tame"], "dims": [0, 1, 1, 1.5, 0]}},
    {"orientation": EMPTY_ORIENTATION,
     "bars": [{"lo": "0", "lo_closed": True, "hi": "1", "hi_closed": False, "mult": 2.5}]},
    {"orientation": EMPTY_ORIENTATION,
     "bars": [{"lo": "0", "lo_closed": "false", "hi": "1", "hi_closed": False}]},
    {"orientation": EMPTY_ORIENTATION,
     "bars": [{"lo": "0", "lo_closed": True, "hi": "1", "hi_closed": None}]},
    {"orientation": EMPTY_ORIENTATION,
     "bars": [{"lo": "0", "lo_closed": 0, "hi": "1", "hi_closed": False}]},
    {"orientation": EMPTY_ORIENTATION,
     "bars": [{"lo": "0", "lo_closed": True, "hi": "1", "hi_closed": False, "mult": "1_0"}]},
    {"orientation": EMPTY_ORIENTATION, "field": {"kind": "Fp", "p": "1_1"}, "bars": []},
    _two_cell_tame(["0", "1"], " 3 ", "1", {"kind": "Fp", "p": 5}),
    {"orientation": EMPTY_ORIENTATION,
     "bars": [{"lo": "0", "lo_closed": True, "hi": "1", "hi_closed": False, "mult": "\u0663"}]},
]
COERCED_NUMBER_IDS = [
    "p-5.5", "p-true", "entry-true", "entry-false", "Fp-entry-2.5", "grid-true",
    "critical-true", "mult-true", "bar-number", "dim-1.5", "mult-2.5",
    "closed-string", "closed-null", "closed-0", "mult-underscore", "p-underscore",
    "Fp-entry-spaces", "mult-arabic-indic-digit"]


@pytest.mark.parametrize("doc", COERCED_NUMBER_DOCS, ids=COERCED_NUMBER_IDS)
def test_coerced_numbers_in_documents_exit_2(runner, tmp_path, doc):
    f = _write(tmp_path, "d.json", doc)
    _assert_clean_exit_2(runner.invoke(main, ["decompose", f]))


def _load_with_full_walk(text):
    """jsonio._load with its true/false walk run on every text, also those
    that spell neither literal: the reference for the shortcut."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"line {e.lineno} column {e.colno}: {e.msg}")
    except ValueError as e:
        raise SchemaError(str(e))
    except RecursionError:
        raise SchemaError("JSON nested too deeply")
    todo = [(None, obj)]
    while todo:
        key, x = todo.pop()
        if isinstance(x, bool):
            if key not in ("lo_closed", "hi_closed"):
                raise SchemaError(f"{json.dumps(x)} where a number or string belongs"
                                  + (f" (in {key!r})" if key else ""))
        elif isinstance(x, dict):
            todo.extend(x.items())
        elif isinstance(x, list):
            todo.extend((key, y) for y in x)
    return obj


def _load_outcome(load, text):
    try:
        return "value", load(text)
    except SchemaError as e:
        return "error", str(e)


@pytest.mark.parametrize("doc", COERCED_NUMBER_DOCS + [
    BARS_DOC,
    {"criticals": [{"pos": False, "kind": "sink"}]},
    {"orientation": EMPTY_ORIENTATION, "bars": [], "true": "false"},
], ids=COERCED_NUMBER_IDS + ["closed-flags", "orientation-false", "literals-in-strings"])
def test_load_matches_the_full_boolean_walk(doc):
    text = json.dumps(doc)
    want = _load_outcome(_load_with_full_walk, text)
    assert _load_outcome(jsonio._load, text) == want


def _tame_ones(e0, e1):
    """A tame document with one-dimensional cells; map 0 holds e0, map 1 e1."""
    return {"orientation": EMPTY_ORIENTATION,
            "tame": {"grid": ["0", "1"], "dims": [1, 1, 1, 1, 1],
                     "maps": [{"dir": "down", "entries": [[e0]]},
                              {"dir": "down", "entries": [[e1]]},
                              {"dir": "down", "entries": [["1"]]},
                              {"dir": "down", "entries": [["1"]]}]}}


@pytest.mark.parametrize("doc, message", [
    (_two_cell_tame(["0", "1"], 1, 1.0), "map 2: 1.0 is not a rational"),
    (_tame_ones("1_0", "1_0"), 'map 0: "1_0" is not a rational'),
    (_two_cell_tame(["0", "1"], "3", "3.0", {"kind": "Fp", "p": 5}),
     'map 2: "3.0" is not an integer'),
], ids=["Q-int-then-float", "bad-string-twice", "Fp-string-then-decimal"])
def test_repeated_entries_are_each_checked(runner, tmp_path, doc, message):
    # entries are parsed once per distinct string; a JSON number is never
    # taken from that memo, and a string that fails fails at its first map
    f = _write(tmp_path, "d.json", doc)
    for command in (["decompose"], ["scramble", "--seed", "1"]):
        res = runner.invoke(main, command[:1] + [f] + command[1:])
        _assert_clean_exit_2(res)
        assert res.stderr == f"error: {message}\n"


def _bar(lo, hi):
    return {"orientation": EMPTY_ORIENTATION,
            "bars": [{"lo": lo, "lo_closed": True, "hi": hi, "hi_closed": False}]}


@pytest.mark.parametrize("doc", [
    _bar("0", "1_0"),
    _bar("0", " 3 "),
    _bar("0", "\u0663"),
    _two_cell_tame(["0", "1"], 0.1, "1"),
    _two_cell_tame(["0", "1"], " 3 ", "1"),
    _two_cell_tame(["0", 0.5], "1", "1"),
    _two_cell_tame(["0", "1_0"], "1", "1"),
    {"orientation": {"criticals": [{"pos": 0.1, "kind": "sink"}]}, "bars": []},
    {"orientation": {"criticals": [{"pos": "1/2/3", "kind": "sink"}]}, "bars": []},
], ids=["bar-underscore", "bar-spaces", "bar-arabic-indic-digit", "Q-entry-0.1",
        "Q-entry-spaces", "grid-0.5", "grid-underscore", "critical-0.1", "critical-1/2/3"])
def test_inexact_rationals_in_documents_exit_2(runner, tmp_path, doc):
    # Fraction() would read each of these: "1_0" as 10, " 3 " as 3, the
    # float 0.1 as 3602879701896397/36028797018963968
    f = _write(tmp_path, "d.json", doc)
    _assert_clean_exit_2(runner.invoke(main, ["decompose", f]))
    _assert_clean_exit_2(runner.invoke(main, ["scramble", f, "--seed", "1"]))


@pytest.mark.parametrize("args", [["hom", "[0,1_0)", "[0,1)"], ["projectives", "--window", "0:1_0"],
                                  ["projectives", "--window", " 0:1"]],
                         ids=["interval-underscore", "window-underscore", "window-space"])
def test_inexact_rationals_in_arguments_exit_2(runner, tmp_path, args):
    f = _write(tmp_path, "o.json", ZIGZAG_ORIENTATION)
    _assert_clean_exit_2(runner.invoke(main, args[:1] + [f] + args[1:]))


@pytest.mark.parametrize("text", [
    json.dumps(_bar("0", "1e5000")),
    json.dumps(_bar("0", "1" * 4400)),
    '{"orientation": {"criticals": [{"pos": %s, "kind": "sink"}]}, "bars": []}' % ("1" * 5000),
    "[" * 100000 + "]" * 100000,
], ids=["decimal-exponent", "long-integer-string", "long-json-integer", "deep-nesting"])
def test_oversized_input_exits_2(runner, tmp_path, text):
    p = tmp_path / "d.json"
    p.write_text(text)
    _assert_clean_exit_2(runner.invoke(main, ["decompose", str(p)]))


def test_scrambled_entry_past_the_digit_limit(runner, tmp_path):
    # A 4300-digit Q entry is accepted; scramble's row operations on a
    # two-dimensional cell grow it to 4301 digits, which str() refuses.
    doc = {"orientation": EMPTY_ORIENTATION,
           "tame": {"grid": ["0", "1"], "dims": [0, 2, 2, 2, 0],
                    "maps": [{"dir": "down", "entries": []},
                             {"dir": "down", "entries": [["9" * 4300, "0"], ["0", "1"]]},
                             {"dir": "down", "entries": [["1", "0"], ["0", "1"]]},
                             {"dir": "down", "entries": [[], []]}]}}
    res = runner.invoke(main, ["scramble", _write(tmp_path, "d.json", doc), "--seed", "0"])
    _assert_clean_exit_2(res)
    assert "4300-digit limit" in res.stderr


def test_integer_and_decimal_rationals_are_exact(runner, tmp_path):
    doc = {"orientation": {"criticals": [{"pos": 3, "kind": "sink"}]},
           "bars": [{"lo": "-0.5", "lo_closed": True, "hi": "1.25e1", "hi_closed": False},
                    {"lo": "+.5", "lo_closed": True, "hi": "3/6", "hi_closed": True}]}
    res = runner.invoke(main, ["decompose", _write(tmp_path, "d.json", doc)])
    assert res.exit_code == 0 and res.output == "[-1/2, 25/2)\n{1/2}\n"
    f = _write(tmp_path, "t.json", _two_cell_tame([0, "1/2"], 2, "-0.5"))
    res = runner.invoke(main, ["scramble", f, "--seed", "0"])
    assert res.exit_code == 0 and json.loads(res.output)["tame"]["grid"] == ["0", "1/2"]


def test_signed_integer_strings_are_Fp_entries(runner, tmp_path):
    f = _write(tmp_path, "d.json", _two_cell_tame(["0", "1"], "3", "-1", {"kind": "Fp", "p": 5}))
    res = runner.invoke(main, ["decompose", f])
    assert res.exit_code == 0 and res.output == "[0, 1]\n"


@pytest.mark.parametrize("key", ["lo", "hi", "lo_closed", "hi_closed"])
def test_bar_without_a_key_names_it(runner, tmp_path, key):
    bar = {"lo": "0", "lo_closed": True, "hi": "1", "hi_closed": False}
    del bar[key]
    f = _write(tmp_path, "d.json", {"orientation": EMPTY_ORIENTATION, "bars": [bar]})
    res = runner.invoke(main, ["decompose", f])
    _assert_clean_exit_2(res)
    assert f"missing key '{key}'" in res.stderr


def test_boolean_in_orientation_file_exits_2(runner, tmp_path):
    f = _write(tmp_path, "o.json", {"criticals": [{"pos": False, "kind": "sink"}]})
    _assert_clean_exit_2(runner.invoke(main, ["hom", f, "[0,1)", "[0,1)"]))


def test_unsorted_grid_reported_as_such(runner, tmp_path):
    f = _write(tmp_path, "d.json", _two_cell_tame(["1", "0"], "1", "1"))
    res = runner.invoke(main, ["decompose", f])
    _assert_clean_exit_2(res)
    assert "grid must be strictly increasing" in res.stderr


def test_unsorted_grid_reported_before_the_dims_count(runner, tmp_path):
    # Three dims are wrong for two grid points, but the grid order is
    # checked first, as TameRep checks it; a sorted grid still gets the count.
    doc = {"orientation": EMPTY_ORIENTATION,
           "tame": {"grid": ["1", "0"], "dims": [0, 1, 0], "maps": []}}
    res = runner.invoke(main, ["decompose", _write(tmp_path, "d.json", doc)])
    assert res.exit_code == 2 and res.stderr == "error: grid must be strictly increasing\n"
    doc["tame"]["grid"] = ["0", "1"]
    res = runner.invoke(main, ["decompose", _write(tmp_path, "d.json", doc)])
    assert res.exit_code == 2
    assert res.stderr == "error: tame object needs 5 dims for 2 grid points\n"


@pytest.mark.parametrize("command", [["decompose"], ["scramble", "--seed", "1"]],
                         ids=["decompose", "scramble"])
@pytest.mark.parametrize("grid, dims, message",
                         [(["0"], [0, -1, 0], "negative dimension"),
                          (["0"], [-1, 0, 0], "negative dimension"),
                          (["0", "1"], [0, 1, -2, 1, 0], "negative dimension"),
                          (["1", "0"], [0, -1, 0, 0, 0], "grid must be strictly increasing")],
                         ids=["middle", "first", "wide", "unsorted-grid"])
def test_negative_dimension_exits_2(runner, tmp_path, command, grid, dims, message):
    # Two empty "down" maps per grid point: their shapes would be -1x0 or
    # 0x-1, and the dimension (or the grid before it) is reported instead.
    doc = {"orientation": EMPTY_ORIENTATION,
           "tame": {"grid": grid, "dims": dims,
                    "maps": [{"dir": "down", "entries": []} for _ in range(2 * len(grid))]}}
    res = runner.invoke(main, [command[0], _write(tmp_path, "d.json", doc), *command[1:]])
    _assert_clean_exit_2(res)
    assert res.stderr == f"error: {message}\n"


@pytest.mark.parametrize("dims, up_entries, down_entries",
                         [([1, 1, 1], [["1"]], [["1"]]), ([1, 2, 0], [["1"], ["0"]], [[], []])],
                         ids=["1x1", "2x1"])
def test_direction_against_the_orientation_exits_2(runner, tmp_path, dims, up_entries,
                                                   down_entries):
    # On the descending line every junction points down.  An "up" map is
    # refused with the same message whether its shape is square or is the
    # transpose of the shape the orientation asks for.
    doc = {"orientation": EMPTY_ORIENTATION,
           "tame": {"grid": ["0"], "dims": dims,
                    "maps": [{"dir": "up", "entries": up_entries},
                             {"dir": "down", "entries": down_entries}]}}
    res = runner.invoke(main, ["decompose", _write(tmp_path, "d.json", doc)])
    _assert_clean_exit_2(res)
    assert res.stderr == ("error: junction 0 direction 'up' contradicts "
                          "the orientation ('down')\n")


def test_direction_reported_before_a_later_malformed_map(runner, tmp_path):
    # Each map's "dir" is checked when that map is read, so a wrong
    # direction at map 0 is reported ahead of a bad entry at map 1.
    doc = {"orientation": EMPTY_ORIENTATION,
           "tame": {"grid": ["0"], "dims": [1, 1, 1],
                    "maps": [{"dir": "up", "entries": [["1"]]},
                             {"dir": "down", "entries": [["1/0"]]}]}}
    res = runner.invoke(main, ["decompose", _write(tmp_path, "d.json", doc)])
    _assert_clean_exit_2(res)
    assert res.stderr == ("error: junction 0 direction 'up' contradicts "
                          "the orientation ('down')\n")


def _point_tame(**tame):
    """A tame document on the grid [0], one-dimensional everywhere, with
    the given keys of its tame object replaced."""
    maps = [{"dir": "down", "entries": [["1"]]}, {"dir": "down", "entries": [["1"]]}]
    return {"orientation": EMPTY_ORIENTATION,
            "tame": {"grid": ["0"], "dims": [1, 1, 1], "maps": maps, **tame}}


@pytest.mark.parametrize("doc, message", [
    (_point_tame(grid="0"), "bad tame object: grid must be a JSON array"),
    (_point_tame(dims="011"), "bad tame object: dims must be a JSON array"),
    (_point_tame(maps=5), "bad tame object: maps must be a JSON array"),
    (_point_tame(maps=["x", "y"]), "map 0 must be a JSON object"),
    (_point_tame(maps=[{"dir": "down", "entries": [["1"]]}, 7]), "map 1 must be a JSON object"),
    (_point_tame(maps=[{"dir": "down", "entries": 5}, {"dir": "down", "entries": [["1"]]}]),
     "map 0: entries must be 1x1"),
    (_point_tame(maps=[{"dir": "down", "entries": [5]}, {"dir": "down", "entries": [["1"]]}]),
     "map 0: entries must be 1x1"),
    (_point_tame(maps=[{"dir": "down", "entries": ["1"]}, {"dir": "down", "entries": [["1"]]}]),
     "map 0: entries must be 1x1"),
    (_point_tame(maps=[{"dir": "down", "entries": [["1"]]}, {"dir": "down", "entries": "1"}]),
     "map 1: entries must be 1x1"),
], ids=["grid-string", "dims-string", "maps-number", "maps-strings", "map-number",
        "entries-number", "row-number", "row-string", "entries-string"])
def test_tame_containers_of_the_wrong_type_exit_2(runner, tmp_path, doc, message):
    # A container of the wrong JSON type gets a one-line message; a string
    # is never read as a list of its characters.
    res = runner.invoke(main, ["decompose", _write(tmp_path, "d.json", doc)])
    _assert_clean_exit_2(res)
    assert res.stderr == f"error: {message}\n"


@pytest.mark.parametrize("window", ["1:0", "1:1/0", "1/0:1", "0:1:2", "x:1"])
def test_bad_projectives_window_exits_2(runner, tmp_path, window):
    f = _write(tmp_path, "o.json", EMPTY_ORIENTATION)
    _assert_clean_exit_2(runner.invoke(main, ["projectives", f, "--window", window]))


def test_equal_window_ends_accepted(runner, tmp_path):
    f = _write(tmp_path, "o.json", ZIGZAG_ORIENTATION)
    res = runner.invoke(main, ["projectives", f, "--window", "1:1"])
    assert res.exit_code == 0 and "P_1" in res.output


@pytest.mark.parametrize("error", [AssertionError("cell 3: rank 2 > 1"),
                                   InternalInvariantError("Ext dimension 2 outside {0,1}")],
                         ids=["assertion", "invariant"])
def test_library_assertion_exits_3(runner, tmp_path, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error
    monkeypatch.setattr(cli, "hom_dim", broken)
    f = _write(tmp_path, "o.json", EMPTY_ORIENTATION)
    res = runner.invoke(main, ["hom", f, "[0,1)", "[0,1)"])
    assert res.exit_code == 3
    assert res.stderr == f"internal invariant violated: {error}\n"
    assert res.exception is None or isinstance(res.exception, SystemExit)

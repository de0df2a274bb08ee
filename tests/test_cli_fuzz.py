"""Property tests of the input boundary: whatever document, interval literal
or field string reaches the CLI, it exits 0, 2 or 3 and never with a
traceback.

Sizes stay small on purpose: a valid document with a large multiplicity or
dimension is a large computation, not a malformed input.  Every test is
derandomized, so a run is deterministic and its cost bounded.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import InProcessRunner
from aquiver.cli import main

FUZZ = settings(max_examples=120, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])

# Strings near the number grammar: digits, signs, fractions, decimals,
# exponents, infinities, underscores, spaces and non-ASCII digits.
NUMBER_TEXT = st.one_of(
    st.sampled_from(["0", "1", "-1", "+2", "1/2", "-3/4", "1/0", "0.5", ".5", "1.",
                     "1e1", "2E-1", "inf", "-inf", "+inf", "-oo", "+oo", "1_0", " 3 ",
                     "٣", "1/2/3", "", ".", "e1", "nan", "0x1", "1e5000", "9" * 4400]),
    st.text(alphabet="0123456789+-/._eE io n", max_size=8),
    st.text(max_size=6))
NUMBER = st.one_of(NUMBER_TEXT, st.integers(-3, 20), st.floats(allow_nan=True),
                   st.booleans(), st.none())
SMALL = st.one_of(st.integers(-1, 3), st.sampled_from([1.0, 2.5, "2", "1_0", True, None]))
KIND = st.sampled_from(["sink", "source", "Sink", 1, None])

ORIENTATION = st.one_of(
    st.fixed_dictionaries(
        {"criticals": st.lists(st.fixed_dictionaries({"pos": NUMBER, "kind": KIND}),
                               max_size=3)},
        optional={"empty_direction": st.sampled_from(["descending", "ascending", "up", 0])}),
    st.sampled_from([{}, [], "descending", None]))
FIELD_JSON = st.one_of(st.none(), st.sampled_from(["Q", "Fp:5", "Fp:4", "F5"]),
                       st.fixed_dictionaries({"kind": st.sampled_from(["Q", "Fp", "R"])},
                                             optional={"p": st.one_of(SMALL, st.just(5))}))
BAR = st.fixed_dictionaries(
    {"lo": NUMBER, "hi": NUMBER, "lo_closed": st.one_of(st.booleans(), SMALL),
     "hi_closed": st.one_of(st.booleans(), SMALL)},
    optional={"mult": SMALL})
# Maps, entries, rows, grids and dims are now and then a number or a
# string instead of an object or an array.
ROW = st.one_of(st.lists(NUMBER, max_size=2), NUMBER)
MAP = st.one_of(
    st.fixed_dictionaries(
        {"dir": st.sampled_from(["down", "up", "left"]),
         "entries": st.one_of(st.lists(ROW, max_size=2), NUMBER)}),
    NUMBER)
TAME = st.fixed_dictionaries(
    {"grid": st.one_of(st.lists(NUMBER, max_size=2), NUMBER),
     "dims": st.one_of(st.lists(SMALL, max_size=5), NUMBER),
     "maps": st.one_of(st.lists(MAP, max_size=4), NUMBER)})
DOCUMENT = st.fixed_dictionaries(
    {"orientation": ORIENTATION},
    optional={"field": FIELD_JSON, "bars": st.one_of(st.lists(BAR, max_size=3), NUMBER),
              "tame": TAME})
# Arbitrary JSON with small numbers, for documents of the wrong shape.
ANY_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=4)),
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.sampled_from(
                               ["orientation", "bars", "tame", "field", "criticals", "pos",
                                "kind", "grid", "dims", "maps", "lo", "hi", "mult"]),
                               kids, max_size=4)),
    max_leaves=12)

INTERVAL = st.one_of(
    st.builds(lambda lb, lo, hi, rb: f"{lb}{lo},{hi}{rb}", st.sampled_from("[({"),
              NUMBER_TEXT, NUMBER_TEXT, st.sampled_from("])}")),
    st.builds(lambda lo: "{%s}" % lo, NUMBER_TEXT),
    st.text(alphabet="[](){},-+/0123456789.inf _", max_size=10),
    st.text(max_size=6))
FIELD_SPEC = st.one_of(st.sampled_from(["Q", "Fp:2", "Fp:5", "Fp:4", "Fp:", "fp:5", "Fp:05",
                                        "Fp:1_1", "Fp:٥", "Fp: 5", "Q "]),
                       st.text(max_size=6))


def _assert_clean(res):
    assert res.exit_code in (0, 2, 3), (res.exit_code, res.exception, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    assert "Traceback" not in res.stdout and "Traceback" not in res.stderr


def _write(tmp_path, text):
    p = tmp_path / "in.json"
    p.write_text(text, encoding="utf-8")
    return str(p)


@FUZZ
@given(doc=st.one_of(DOCUMENT, ANY_JSON),
       command=st.sampled_from([["decompose"], ["decompose", "--json"],
                                ["scramble", "--seed", "3"]]))
def test_any_document(tmp_path, doc, command):
    f = _write(tmp_path, json.dumps(doc))
    _assert_clean(InProcessRunner().invoke(main, [command[0], f] + command[1:]))


@FUZZ
@given(maps=st.lists(MAP, min_size=2, max_size=2), dims=st.sampled_from([[1, 1, 1], [0, 1, 2]]))
def test_any_maps_on_a_valid_grid(tmp_path, maps, dims):
    # the grid, dims and maps count are valid, so every draw reaches the maps
    doc = {"orientation": {"criticals": []}, "tame": {"grid": ["0"], "dims": dims, "maps": maps}}
    _assert_clean(InProcessRunner().invoke(main, ["decompose", _write(tmp_path, json.dumps(doc))]))


WINDOW = st.one_of(st.builds(lambda lo, hi: f"{lo}:{hi}", NUMBER_TEXT, NUMBER_TEXT),
                   st.text(max_size=6))


@FUZZ
@given(orientation=ORIENTATION, i=INTERVAL, j=INTERVAL, window=WINDOW,
       command=st.sampled_from(["hom", "ext", "present", "ar", "projectives"]))
def test_any_interval_literal(tmp_path, orientation, i, j, window, command):
    f = _write(tmp_path, json.dumps(orientation))
    args = {"hom": [i, j], "ext": [i, j], "present": [i], "ar": [i],
            "projectives": ["--window", window]}[command]
    _assert_clean(InProcessRunner().invoke(main, [command, f] + args))


@FUZZ
@given(spec=FIELD_SPEC, doc=st.one_of(st.none(), DOCUMENT))
def test_any_field_string(tmp_path, spec, doc):
    o = _write(tmp_path, json.dumps({"criticals": [{"pos": "0", "kind": "sink"}]}))
    _assert_clean(InProcessRunner().invoke(main, ["hom", o, "[0,1)", "(-1,0]", "--field", spec]))
    if doc is not None:
        f = _write(tmp_path, json.dumps(doc))
        _assert_clean(InProcessRunner().invoke(main, ["decompose", f, "--field", spec]))

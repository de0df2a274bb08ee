"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/tests
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import aquiver as aq  # noqa: E402
from aquiver import tamerep  # noqa: E402

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def tiny(name, tmp_path, seed=7):
    """A workload instance shrunk to a few bars / intervals."""
    wl = W.WORKLOADS[name]()
    if name == "barcode-q":
        wl.bars, wl.window = 4, (0, 10**6)
    elif name == "hom-f5":
        wl.bars, wl.cols_window = 2, (0, 10**6)
    elif name == "queries-q":
        wl.intervals, wl.probes = 2, 3
    wl.setup(seed, str(tmp_path))
    return wl


# -- generators ---------------------------------------------------------------

def test_cell_dims_match_the_library():
    rng = random.Random(1)
    for _ in range(30):
        a = aq.BarMultiset.from_intervals(W.random_bar(rng) for _ in range(4))
        b = aq.BarMultiset.from_intervals(W.random_bar(rng) for _ in range(3))
        v, w = tamerep.common_grid(aq.from_bars(W.LINE, a), aq.from_bars(W.LINE, b))
        assert W.cell_dims(a, b) == [list(v.dims), list(w.dims)]


def test_sized_bars_respect_the_window():
    rng = random.Random(2)
    for _ in range(5):
        bars = W.sized_bars(rng, 6, 40, 80)
        dims, = W.cell_dims(bars)
        assert 40 <= sum(d * d for d in dims) <= 80 and bars.total() == 6


@pytest.mark.parametrize("name", ["barcode-q", "hom-f5", "queries-q"])
def test_inputs_follow_the_seed(name, tmp_path):
    a, b, c = (tiny(name, tmp_path, seed) for seed in (3, 3, 4))
    assert repr(a.make(2)) == repr(b.make(2))
    assert repr(a.make(2)) != repr(c.make(2))


def test_ar_interval_has_a_sequence():
    rng = random.Random(5)
    for _ in range(20):
        o = W.random_orientation(rng, 3)
        assert aq.ar_ending_at(o, W.ar_interval(rng, o)).status == "exists"


# -- checks -------------------------------------------------------------------

def test_barcode_check(tmp_path):
    wl = tiny("barcode-q", tmp_path)
    inp = wl.make(0)
    out = wl.run(inp)
    assert wl.check(inp, out)
    extra = out[1].union(aq.BarMultiset.from_intervals([aq.Interval.point(0)]))
    assert not wl.check(inp, (out[0], extra, out[2]))


def test_hom_check(tmp_path):
    wl = tiny("hom-f5", tmp_path)
    inp = wl.make(0)
    out = wl.run(inp)
    assert wl.check(inp, out) and not wl.check(inp, out + 1)


def test_queries_check(tmp_path):
    wl = tiny("queries-q", tmp_path)
    inp = wl.make(0)
    hom, ext, status, ok = wl.run(inp)
    assert wl.check(inp, (hom, ext, status, ok))
    assert not wl.check(inp, (hom, ext, status, False))
    bad = [row[:] for row in hom]
    bad[0][0] = 0
    assert not wl.check(inp, (bad, ext, status, ok))
    flipped = [row[:] for row in ext]
    flipped[0][1] = 1 - flipped[0][1]
    assert not wl.check(inp, (hom, flipped, status, ok))


def test_cli_check(tmp_path):
    wl = tiny("cli", tmp_path)
    inp = wl.make(0)
    out = wl.run(inp)
    assert wl.check(inp, out)
    assert not wl.check(inp, (out[0], out[1] + b"x", out[2]))
    assert not wl.check(inp, (2, out[1], out[2]))


# -- compare rule ---------------------------------------------------------------

def test_compare_verdicts():
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert compare.verdict(parent, [x * 0.8 for x in parent], "lower", 0.1)[0] == "gain"
    assert compare.verdict(parent, [x * 1.2 for x in parent], "lower", 0.1)[0] == "regression"
    assert compare.verdict(parent, [x * 1.01 for x in parent], "lower", 0.1)[0] == "no change"
    assert compare.verdict(parent, [x * 1.2 for x in parent], "higher", 0.1)[0] == "gain"
    wide = [60.0, 140, 70, 130, 80, 120, 90, 110, 100, 100]
    assert compare.verdict(wide, [x * 0.95 for x in wide], "lower", 0.1)[0] == "unresolved"
    # 8 of 10 pairs won is not a gain
    mixed = [x * 0.8 for x in parent[:8]] + [x * 1.01 for x in parent[8:]]
    assert compare.verdict(parent, mixed, "lower", 0.3)[0] == "no change"


def test_compare_rows_and_failures():
    def rec(wl, seed, value, failed=0):
        metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        return {"workload": wl, "seed": seed, "trace": 0, "digest": "d", "correct": not failed,
                "attempted": 10, "failed": failed, "metrics": metrics}
    names = [w["name"] for w in SPEC["workloads"]]
    parent = {w: [rec(w, s, 100.0 + s % 3) for s in range(10)] for w in names}
    change = {w: [rec(w, s, 100.0 + s % 3) for s in range(10)] for w in names}
    lines, bad = compare.compare(parent, change, SPEC)
    assert not bad
    assert len(lines) == 1 + len(names) * (len(SPEC["end_to_end"]) + 1)
    change[names[0]][0] = rec(names[0], 0, 100.0, failed=1)
    assert compare.compare(parent, change, SPEC)[1]


# -- tracing and the run itself -------------------------------------------------

def test_tracer_restores_and_counts(tmp_path):
    originals = {k: getattr(tamerep, k) for k in ("scramble", "from_bars")}
    wl = tiny("barcode-q", tmp_path)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert tamerep.scramble is not originals["scramble"]
        inp = wl.make(0)
        tr.begin_op(0)
        out = wl.run(inp)
        tr.end_op()
    finally:
        tr.uninstall()
    assert wl.check(inp, out)
    assert {k: getattr(tamerep, k) for k in originals} == originals
    per_op = tr.per_op()
    assert per_op[0]["tamerep.scramble_ms"] > 0 and per_op[0]["decompose.junctions"] > 0
    values = tracing.layer_metrics(per_op, 1, [1.0])
    assert set(values) == set(tracing.LAYER_METRICS)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_result_line(trace):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", "queries-q",
                           "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
    for m in SPEC[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_spec_names_match_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"] for m in SPEC["per_layer"]} == set(tracing.LAYER_METRICS) | set(run.TRACE_METRICS)

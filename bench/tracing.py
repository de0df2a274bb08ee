"""Spans around the public calls into the aquiver modules, recorded from
outside the library.

`Tracer.install()` replaces each traced function with a wrapper wherever a
module of the package holds a reference to it (the defining module, every
consumer that imported the name, and the package namespace), and
`uninstall()` puts the originals back.  A wrapper records a span only while
an op is open (`begin_op`/`end_op`); calls made outside ops, by input
generation or answer checks, pass straight through.

Spans stay in memory in flat arrays until the run ends; `per_op()` then
folds them into one dict of layer figures per op, and `layer_metrics()`
reduces those dicts to the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from array import array
from time import perf_counter_ns

MODULES = ("linalg", "intervals", "orientation", "tamerep", "decompose",
           "homological", "ar", "jsonio", "cli")

LINALG_FNS = ("rank", "kernel_basis", "column_space_basis", "solve_matrix",
              "solve_linear_system", "bottom_column_echelon", "invert",
              "Matrix.matmul")

# (module, attribute path, span name)
TARGETS = (
    [("linalg", fn, "linalg." + fn) for fn in LINALG_FNS]
    + [
        ("jsonio", "parse_document", "jsonio.parse"),
        ("jsonio", "document_to_json", "jsonio.emit"),
        ("tamerep", "scramble", "tamerep.scramble"),
        ("tamerep", "from_bars", "tamerep.from_bars"),
        ("tamerep", "refine", "tamerep.refine"),
        ("tamerep", "common_grid", "tamerep.common_grid"),
        ("decompose", "decompose", "decompose.decompose"),
        ("homological", "hom_space_dim", "homological.hom_space_dim"),
        ("homological", "hom_dim", "homological.hom_dim"),
        ("homological", "ext_dim", "homological.ext_dim"),
        ("ar", "verify_almost_split", "ar.verify"),
    ])

GRID_SPANS = ("tamerep.from_bars", "tamerep.refine", "tamerep.common_grid")

# span name -> metric for its inclusive time, where that is not "<span>_ms"
INCLUSIVE = {"decompose.decompose": "decompose.busy_ms", "ar.verify": "ar.verify_ms"}
# span name -> metric for its self time (the span minus its direct children)
SELF = {"decompose.decompose": "decompose.self_ms", "ar.verify": "ar.self_ms",
        "homological.hom_space_dim": "homological.assembly_self_ms"}

# Metric name -> how the per-op values reduce over a run:
#   "time"  mean per op over every traced op;
#   "count" mean per op over the fixed op prefix (repeats exactly per seed);
#   "max"   largest value over the fixed op prefix;
#   ("ratio", num, den)  sum(num) / sum(den) over the fixed op prefix.
LAYER_METRICS = {
    "jsonio.parse_ms": "time",
    "jsonio.emit_ms": "time",
    "jsonio.bytes_in": "count",
    "tamerep.scramble_ms": "time",
    "tamerep.grid_ms": "time",
    "tamerep.cells": "count",
    "tamerep.max_cell_dim": "max",
    "decompose.busy_ms": "time",
    "decompose.self_ms": "time",
    "decompose.junctions": "count",
    "homological.hom_space_dim_ms": "time",
    "homological.assembly_self_ms": "time",
    "homological.system_rows": "count",
    "homological.system_cols": "count",
    "homological.rank_yield": ("ratio", "_system_rank", "homological.system_rows"),
    "homological.hom_dim_ms": "time",
    "homological.ext_dim_ms": "time",
    "ar.verify_ms": "time",
    "ar.self_ms": "time",
    "ar.probes": "count",
    "ar.lift_solves": "count",
    **{f"linalg.{fn}_ms": "time" for fn in LINALG_FNS},
    **{f"linalg.{fn}_calls": "count" for fn in LINALG_FNS},
    "linalg.entries_in": "count",
    "linalg.entries_per_call": ("ratio", "linalg.entries_in", "_linalg_calls"),
    "cli.interp_ms": "time",
    "cli.import_ms": "time",
    "cli.compute_ms": "time",
}

UNITS = {"bytes_in": "bytes", "rank_yield": "ratio"}


def metric_unit(name: str) -> str:
    leaf = name.rsplit(".", 1)[-1]
    if leaf in UNITS:
        return UNITS[leaf]
    return "ms" if leaf.endswith("_ms") else "count"


def _entries(m) -> int:
    return m.nrows * m.ncols


def _linalg_entries(fn: str, args) -> int:
    if fn == "bottom_column_echelon":
        cols = args[1]
        return len(cols) * (len(cols[0]) if cols else 0)
    if fn == "solve_linear_system":
        return _entries(args[0]) + len(args[1])
    if fn in ("solve_matrix", "Matrix.matmul"):
        return _entries(args[0]) + _entries(args[1])
    return _entries(args[0])


class Tracer:
    def __init__(self):
        self.names = sorted({span for _, _, span in TARGETS})
        self._name_ids = {span: i for i, span in enumerate(self.names)}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self._op = -1
        self.counts: dict[int, dict[str, float]] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- ops -------------------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self.counts.setdefault(op_id, {})

    def end_op(self) -> None:
        self._op = -1
        self._stack.clear()

    def count(self, key: str, value: float) -> None:
        c = self.counts[self._op]
        c[key] = c.get(key, 0) + value

    def add_op_figures(self, op_id: int, figures: dict) -> None:
        """Merge figures measured elsewhere (a traced child process)."""
        c = self.counts.setdefault(op_id, {})
        for k, v in figures.items():
            c[k] = c.get(k, 0) + v

    # -- wrapping --------------------------------------------------------
    def _wrap(self, fn, span: str):
        sid = self._name_ids[span]
        counter = self._counter(span)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr._op < 0:
                return fn(*args, **kwargs)
            stack = tr._stack
            idx = len(tr.start)
            tr.name_id.append(sid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.op.append(tr._op)
            tr.end.append(0)
            stack.append(idx)
            tr.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                counter(args, result, stack)
            return result
        return wrapper

    def _counter(self, span: str):
        """Counts taken at the span's boundary, from its arguments and result."""
        count = self.count
        if span.startswith("linalg."):
            fn = span[len("linalg."):]
            hom_id = self._name_ids["homological.hom_space_dim"]
            verify_id = self._name_ids["ar.verify"]

            def linalg_counter(args, result, stack):
                count("linalg.entries_in", _linalg_entries(fn, args))
                count("_linalg_calls", 1)
                if fn == "rank" and stack and self.name_id[stack[-1]] == hom_id:
                    count("homological.system_rows", args[0].nrows)
                    count("homological.system_cols", args[0].ncols)
                    count("_system_rank", result)
                if fn == "solve_linear_system" and any(
                        self.name_id[i] == verify_id for i in stack):
                    count("ar.lift_solves", 1)
            return linalg_counter
        if span == "jsonio.parse":
            return lambda args, result, stack: count("jsonio.bytes_in", len(args[0].encode()))
        if span in GRID_SPANS:
            def grid_counter(args, result, stack):
                for rep in (result if isinstance(result, tuple) else (result,)):
                    count("tamerep.cells", rep.ncells)
                    c = self.counts[self._op]
                    c["tamerep.max_cell_dim"] = max(c.get("tamerep.max_cell_dim", 0),
                                                    max(rep.dims, default=0))
            return grid_counter
        if span == "decompose.decompose":
            return lambda args, result, stack: count("decompose.junctions", args[0].ncells - 1)
        if span == "ar.verify":
            return lambda args, result, stack: count("ar.probes", len(args[1]))
        return None

    def install(self) -> None:
        pkg = importlib.import_module("aquiver")
        mods = [pkg] + [sys.modules[f"aquiver.{m}"] for m in MODULES
                        if f"aquiver.{m}" in sys.modules]
        for mod_name, attr, span in TARGETS:
            mod = sys.modules[f"aquiver.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, span))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, span)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patched.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # -- folding ---------------------------------------------------------
    def per_op(self) -> dict[int, dict[str, float]]:
        """Layer figures per op: inclusive time per span name (outermost
        occurrence only), call counts, self times, and the boundary counts."""
        n = len(self.start)
        names, name_id, parent = self.names, self.name_id, self.parent
        dur = [(self.end[i] - self.start[i]) / 1e6 for i in range(n)]
        child = [0.0] * n
        # bit k of ancestors[i] is set when a span named names[k] encloses span i
        ancestors = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                ancestors[i] = ancestors[p] | (1 << name_id[p])
        grid_mask = sum(1 << self._name_ids[s] for s in GRID_SPANS)
        out: dict[int, dict[str, float]] = {op: dict(c) for op, c in self.counts.items()}
        for i in range(n):
            figs = out.setdefault(self.op[i], {})
            nid = name_id[i]
            name = names[nid]
            if name.startswith("linalg."):
                key = f"{name}_calls"
                figs[key] = figs.get(key, 0) + 1
            if not (ancestors[i] >> nid) & 1:
                key = INCLUSIVE.get(name, f"{name}_ms")
                figs[key] = figs.get(key, 0.0) + dur[i]
                if name in SELF:
                    figs[SELF[name]] = figs.get(SELF[name], 0.0) + dur[i] - child[i]
            if (grid_mask >> nid) & 1 and not ancestors[i] & grid_mask:
                figs["tamerep.grid_ms"] = figs.get("tamerep.grid_ms", 0.0) + dur[i]
        return out


def layer_metrics(per_op: dict[int, dict[str, float]], prefix: int,
                  scales: list[float]) -> dict[str, float]:
    """Reduce per-op figures to the per-layer metrics; figures a workload
    never produced read 0 (the layer is idle there).  Times of op i are
    multiplied by scales[i], as the op's own time is."""
    ops = sorted(per_op)
    head = [per_op[o] for o in ops if o < prefix]
    out = {}
    for name, how in LAYER_METRICS.items():
        if how == "time":
            out[name] = statistics.fmean(per_op[o].get(name, 0.0) * scales[o] for o in ops) if ops else 0.0
        elif how == "count":
            out[name] = sum(f.get(name, 0) for f in head) / len(head) if head else 0.0
        elif how == "max":
            out[name] = max((f.get(name, 0) for f in head), default=0)
        else:
            _, num, den = how
            d = sum(f.get(den, 0) for f in head)
            out[name] = sum(f.get(num, 0) for f in head) / d if d else 0.0
    return out

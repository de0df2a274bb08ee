"""Run one benchmark workload against the aquiver sources in ../src.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]

One client in one process runs ops as a closed loop: the next op starts
only when the last one has finished and been checked.  Input generation
and answer checks happen between ops and are not timed.  The loop runs
for --seconds of wall time, and always at least the workload's prefix of
ops, whose outputs make the printed digest.

With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics.  With --trace 1 the run first times half of --seconds
untraced, then installs the span wrappers and replays the same ops traced
for the other half; the result carries the per-layer metrics, including
the tracing overhead measured on the ops both halves ran.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 3
TAIL_PCT = 80

END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "ops_per_s": "1/s", "peak_rss_mib": "MiB"}
TRACE_METRICS = {"trace.op_p50_ms": "ms", "trace.overhead_pct": "%"}


def load_library(modules) -> float:
    """Import aquiver from this checkout's src/ and return the import time
    in seconds.  Refuses to fall back on any other copy."""
    if not os.path.isfile(os.path.join(SRC, "aquiver", "__init__.py")):
        sys.exit(f"bench: no aquiver sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    for m in modules:
        importlib.import_module(m)
    elapsed = perf_counter() - t0
    found = os.path.realpath(sys.modules["aquiver"].__file__)
    if not found.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"bench: imported aquiver from {found}, not from {SRC}")
    return elapsed


def tail(ms: list[float]) -> tuple[float, int]:
    """The TAIL_PCT-th percentile and the number of ops slower than it.
    The percentile is fixed, not the highest one with ten ops beyond it,
    because the op count of a run follows the host's speed and a moving
    percentile would move the metric with it; at 25 s every workload runs
    well over 50 ops, which leaves more than ten beyond p80."""
    cut = statistics.quantiles(ms, n=100, method="inclusive")[TAIL_PCT - 1]
    return cut, sum(1 for x in ms if x > cut)


class Loop:
    """Result of a closed loop: per-op raw and scaled durations (s), the
    scale applied to each op, failures, and the digest of the prefix."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.scales: list[float] = []
        self.failed = 0
        self.digest = ""


def scale(wl, before: float, after: float) -> float:
    """Factor taking a time measured between two reference timings to the
    reference's nominal speed."""
    return wl.reference_s / ((before + after) / 2)


def closed_loop(wl, seconds: float, tracer=None) -> Loop:
    """Run ops 0, 1, ... until `seconds` have passed and the prefix is done.
    Each op is bracketed by timings of the workload's reference task."""
    loop = Loop()
    digest = hashlib.sha256()
    gc.collect()
    start = perf_counter()
    ref_before = wl.reference()
    i = 0
    while i < wl.prefix or perf_counter() - start < seconds:
        inp = wl.make(i)
        if tracer is not None:
            tracer.begin_op(i)
        t0 = perf_counter()
        try:
            out = wl.run(inp)
            ok = True
        except Exception as e:  # a raising op is a failed op, not a crash
            print(f"op {i} raised {type(e).__name__}: {e}", file=sys.stderr)
            out, ok = None, False
        t1 = perf_counter()
        if tracer is not None:
            tracer.end_op()
        ref_after = wl.reference()
        k = scale(wl, ref_before, ref_after)
        if tracer is not None and ok:
            tracer.add_op_figures(i, wl.figures(out))
        try:
            ok = ok and wl.check(inp, out)
        except Exception as e:  # so is an answer the check cannot even read
            print(f"op {i} check raised {type(e).__name__}: {e}", file=sys.stderr)
            ok = False
        loop.failed += not ok
        if i < wl.prefix:
            digest.update(wl.serialize(out) if ok else b"<failed>\n")
        loop.raw.append(t1 - t0)
        loop.scaled.append((t1 - t0) * k)
        loop.scales.append(k)
        ref_before = ref_after
        i += 1
    loop.digest = digest.hexdigest()
    return loop


def set_up(wl, seed: int, tmp_dir: str) -> tuple[float, float]:
    """Build the run's state and warm up.  Returns (raw, scaled) seconds."""
    before = wl.reference()
    t0 = perf_counter()
    wl.setup(seed, tmp_dir)
    wl.warm_up()
    elapsed = perf_counter() - t0
    return elapsed, elapsed * scale(wl, before, wl.reference())


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(wl, seed: int, seconds: float, import_s: tuple[float, float], tmp_dir: str):
    """End-to-end metrics; import_s is the (raw, scaled) import time."""
    setups = [set_up(wl, seed, tmp_dir) for _ in range(SETUP_REPS)]
    loop = closed_loop(wl, seconds)
    ms = [d * 1e3 for d in loop.scaled]
    tail_ms, beyond = tail(ms)
    values = {
        "setup_s": import_s[1] + statistics.median(s for _, s in setups),
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": tail_ms,
        "ops_per_s": len(ms) / sum(loop.scaled),
        "peak_rss_mib": peak_rss_mib(children=wl.subprocesses),
    }
    raw_ms = [d * 1e3 for d in loop.raw]
    notes = [
        f"setup_s: scaled import {import_s[1]:.4f} s (raw {import_s[0]:.4f} s) "
        f"+ median of {SETUP_REPS} scaled set-ups "
        + ", ".join(f"{s:.4f}" for _, s in setups) + " s (raw "
        + ", ".join(f"{r:.4f}" for r, _ in setups) + " s)",
        f"op_tail_ms: p{TAIL_PCT} of {len(ms)} ops ({beyond} slower)",
        f"raw wall times: op_p50 {statistics.median(raw_ms):.3f} ms, tail {tail(raw_ms)[0]:.3f} ms, "
        f"{len(raw_ms) / sum(loop.raw):.4f} ops/s; scale factors "
        f"{min(loop.scales):.3f}..{max(loop.scales):.3f} (median {statistics.median(loop.scales):.3f})",
        "peak_rss_mib: " + ("largest child process" if wl.subprocesses else "this process"),
    ]
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return metrics, len(ms), loop.failed, loop.digest, notes


def measure_traced(wl, seed: int, seconds: float, tmp_dir: str):
    from tracing import Tracer, LAYER_METRICS, layer_metrics, metric_unit
    set_up(wl, seed, tmp_dir)
    plain = closed_loop(wl, seconds / 2)
    tracer = Tracer()
    tracer.install()
    wl.traced = True
    try:
        traced = closed_loop(wl, seconds / 2, tracer)
    finally:
        wl.traced = False
        tracer.uninstall()
    values = layer_metrics(tracer.per_op(), wl.prefix, traced.scales)
    paired = min(len(plain.scaled), len(traced.scaled))
    values["trace.op_p50_ms"] = statistics.median(traced.scaled) * 1e3
    values["trace.overhead_pct"] = 100.0 * (statistics.median(
        traced.scaled[i] / plain.scaled[i] for i in range(paired)) - 1.0)
    units = {name: metric_unit(name) for name in LAYER_METRICS} | TRACE_METRICS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    notes = [
        f"untraced op_p50_ms {statistics.median(plain.scaled) * 1e3:.3f} over {len(plain.scaled)} ops, "
        f"traced {values['trace.op_p50_ms']:.3f} over {len(traced.scaled)} ops; "
        f"overhead {values['trace.overhead_pct']:.2f}% (median ratio over {paired} paired ops)",
        f"counts are per op over ops 0..{wl.prefix - 1}; times are scaled per-op means over traced ops",
    ]
    failed = plain.failed + traced.failed
    if traced.digest != plain.digest:
        notes.append(f"traced digest {traced.digest} differs from untraced")
        failed += 1
    return metrics, len(plain.scaled) + len(traced.scaled), failed, plain.digest, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the result, with workload and seed, to this JSON-lines file")
    args = ap.parse_args(argv)
    # a terminated run still removes its work files and its child process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    modules = ["aquiver", "aquiver.jsonio"] + (["aquiver.cli"] if args.workload == "cli" else [])
    import_raw = load_library(modules)
    from workloads import WORKLOADS, Workload
    # the kernel runs slower until the interpreter has specialized it
    ref = [Workload().reference() for _ in range(8)][3:]
    import_s = (import_raw, import_raw * Workload.reference_s / statistics.median(ref))
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()

    work_dir = os.path.join(ROOT, ".bench_run")
    os.makedirs(work_dir, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_dir)
    try:
        if args.trace:
            metrics, attempted, failed, digest, notes = measure_traced(
                wl, args.seed, args.seconds, tmp_dir)
        else:
            metrics, attempted, failed, digest, notes = measure(
                wl, args.seed, args.seconds, import_s, tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            os.rmdir(work_dir)
        except OSError:
            pass

    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    for note in notes:
        print(f"  {note}")
    print(f"  failed_frac = {failed}/{attempted} = {failed / attempted!r}")
    print(f"digest {wl.name} seed={args.seed} ops={wl.prefix} sha256={digest}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                                 "digest": digest, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

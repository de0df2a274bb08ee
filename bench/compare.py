"""Compare a parent commit's benchmark runs with a change's.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds one JSON line per run, as `run.py --record FILE` appends
them.  Runs pair up in file order within a workload: the i-th parent run
of a workload with the i-th change run of it.  Make each pair back to back
on the same seed, alternating which side runs first.

One row per workload and end-to-end metric of BENCHMARK.json:

  gain        the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  regression  the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  the parent's interquartile range, as a share of its median,
              is wider than the bound, and not every change run beats
              every parent run;
  no change   otherwise.

A workload whose change runs fail more ops than the parent's gets no gain
rows.  Exit status 1 when any row is a regression or more ops fail.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GAIN_SHARE = 0.9


def load(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                r = json.loads(line)
                if not r.get("trace"):
                    runs[r["workload"]].append(r)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int, int]:
    """(verdict, pairs won by the change, pairs) for one metric."""
    wins_fn = (lambda c, p: c < p) if better == "lower" else (lambda c, p: c > p)
    pairs = min(len(parent), len(change))
    wins = sum(wins_fn(change[i], parent[i]) for i in range(pairs))
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    worse_by = (cm - pm) / pm if better == "lower" else (pm - cm) / pm
    all_better = all(wins_fn(c, p) for c in change for p in parent)
    if (p3 - p1) / pm > bound and not all_better:
        return "unresolved", wins, pairs
    if wins >= math.ceil(GAIN_SHARE * pairs) and abs(cm - pm) > p3 - p1 and wins_fn(cm, pm):
        return "gain", wins, pairs
    if worse_by > bound:
        return "regression", wins, pairs
    return "no change", wins, pairs


def compare(parent: dict[str, list[dict]], change: dict[str, list[dict]], spec: dict) -> tuple[list[str], bool]:
    lines = []
    bad = False
    header = f"{'workload':<10} {'metric':<13} {'parent median [q1, q3]':<32} {'change median [q1, q3]':<32} {'delta':>8} {'wins':>6}  verdict"
    lines.append(header)
    for wl in [w["name"] for w in spec["workloads"]]:
        if not parent.get(wl) or not change.get(wl):
            lines.append(f"{wl:<10} (missing runs on one side)")
            continue
        p_fail = sum(r["failed"] for r in parent[wl])
        c_fail = sum(r["failed"] for r in change[wl])
        more_failures = c_fail > p_fail
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in parent[wl]]
            cv = [r["metrics"][name]["value"] for r in change[wl]]
            v, wins, pairs = verdict(pv, cv, m["better"], m["bound"])
            if v == "gain" and more_failures:
                v = "no gain (more failures)"
            bad |= v == "regression"
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            unit = m["unit"]
            parent_s = f"{pm:.4g} [{p1:.4g}, {p3:.4g}] {unit}"
            change_s = f"{cm:.4g} [{c1:.4g}, {c3:.4g}] {unit}"
            lines.append(f"{wl:<10} {name:<13} {parent_s:<32} {change_s:<32} "
                         f"{100 * (cm - pm) / pm:>+7.2f}% {f'{wins}/{pairs}':>6}  {v}")
        p_att = sum(r["attempted"] for r in parent[wl])
        c_att = sum(r["attempted"] for r in change[wl])
        same = sum(1 for p, c in zip(parent[wl], change[wl])
                   if p["seed"] == c["seed"] and p["digest"] == c["digest"])
        lines.append(f"{wl:<10} failed {p_fail}/{p_att} -> {c_fail}/{c_att}"
                     f"{'  MORE FAILURES' if more_failures else ''}; "
                     f"identical output digests on {same}/{min(len(parent[wl]), len(change[wl]))} pairs")
        bad |= more_failures
    return lines, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    lines, bad = compare(load(argv[0]), load(argv[1]), spec)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

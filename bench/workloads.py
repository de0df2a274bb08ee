"""The benchmark's four workloads.

Each workload turns (seed, op index) into one op's inputs and its expected
answer, runs the op through aquiver's public calls, and checks the answer.
Inputs depend only on the seed and the op index, so a run is reproducible
and every in-process op sees fresh inputs (the library keeps no caches, and
repeated inputs would flatter one that did).  The cli workload cycles
twelve invocations, each in a fresh process, so nothing carries over.

Input sizes are held in a narrow window (bar count plus a window on the
size measure that sets the op's cost), so that runs at different seeds
measure the same amount of work and their medians agree.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

from aquiver import (BarMultiset, Interval, NEG_INF, Orientation, POS_INF, QQ,
                     PrimeField)
import aquiver as aq
from aquiver import jsonio, tamerep
from aquiver.homological import OPEN_RIGHT, POINT
from aquiver.orientation import orientation_to_json

HERE = os.path.dirname(os.path.abspath(__file__))

# Sink/source alternation used by the Q and F_5 barcode workloads.
LINE = Orientation.make([(1, "sink"), (5, "source"), (9, "sink"),
                         (13, "source"), (17, "sink")])
F5 = PrimeField(5)


def _rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{i}")


def random_bar(rng: random.Random, span: int = 20) -> Interval:
    """An interval with integer endpoints in [0, span)."""
    a, b = sorted((rng.randrange(span), rng.randrange(span)))
    if a == b:
        return Interval.point(a)
    return Interval.make(a, b, rng.random() < 0.5, rng.random() < 0.5)


def cell_dims(*barcodes: BarMultiset) -> list[list[int]]:
    """Cell dimensions of each barcode's representation on LINE, all on the
    common grid of their endpoints, without building the representations."""
    ivs = [iv for bars in barcodes for iv in bars.intervals()]
    ends = {e for iv in ivs for e in (iv.lo, iv.hi) if e not in (NEG_INF, POS_INF)}
    lo, hi = min(ends), max(ends)
    grid = sorted(ends | {p for p in LINE.positions if lo <= p <= hi})
    out = []
    for bars in barcodes:
        dims = [0] * (2 * len(grid) + 1)
        for iv in bars.intervals():
            a, b = tamerep.interval_to_cells(grid, iv)
            for c in range(a, b + 1):
                dims[c] += 1
        out.append(dims)
    return out


def sized_bars(rng: random.Random, n: int, lo: int, hi: int) -> BarMultiset:
    """n random bars whose representation has sum of squared cell
    dimensions in [lo, hi]: that sum tracks elimination cost."""
    while True:
        bars = BarMultiset.from_intervals(random_bar(rng) for _ in range(n))
        dims, = cell_dims(bars)
        if lo <= sum(d * d for d in dims) <= hi:
            return bars


def reference_kernel() -> Fraction:
    """Fixed pure-Python work (Fraction arithmetic, small dict), the same
    kind of work as the in-process ops."""
    a = Fraction(1)
    d = {}
    for i in range(1, 400):
        a = a * Fraction(i % 7 + 1, i % 5 + 1) % 97 + 1
        d[i & 63] = a
    return a


class Workload:
    name = ""
    # Seconds the reference task takes on an uncontended core of the host
    # the baseline was recorded on (2-vCPU Intel Xeon VM, Python 3.11).
    reference_s = 0.002
    # ops whose outputs feed the digest and whose counts feed the traced
    # run's exact per-op counts; every run completes at least these
    prefix = 4
    # peak RSS is read from child processes rather than this one
    subprocesses = False
    # set while a traced run replays ops with span wrappers installed
    traced = False

    def setup(self, seed: int, tmp_dir: str) -> None:
        """Per-run state, built before the first op; files go in tmp_dir."""
        self.seed = seed

    def make(self, i: int):
        """Inputs and expected answer of op i (untimed)."""
        raise NotImplementedError

    def run(self, inp):
        """The op itself (timed)."""
        raise NotImplementedError

    def check(self, inp, out) -> bool:
        raise NotImplementedError

    def serialize(self, out) -> bytes:
        raise NotImplementedError

    def figures(self, out) -> dict:
        """Layer figures of a traced op measured outside this process."""
        return {}

    def warm_up(self) -> None:
        """Run and check op 0 of seed 0, so that set-up does the same work
        whatever the run's seed."""
        seed, self.seed = self.seed, 0
        try:
            inp = self.make(0)
        finally:
            self.seed = seed
        self.check(inp, self.run(inp))

    def reference(self) -> float:
        """Time the reference task once; returns seconds."""
        t0 = perf_counter()
        reference_kernel()
        return perf_counter() - t0


class BarcodeQ(Workload):
    """from_bars -> scramble -> emit JSON -> parse -> decompose -> emit, over Q."""

    name = "barcode-q"
    bars = 24
    window = (2200, 2600)

    def make(self, i):
        rng = _rng(self.name, self.seed, i)
        bars = sized_bars(rng, self.bars, *self.window)
        return bars, rng.randrange(2**31)

    def run(self, inp):
        bars, scramble_seed = inp
        v = aq.scramble(aq.from_bars(LINE, bars, QQ), scramble_seed)
        text = json.dumps(jsonio.document_to_json(jsonio.Document(LINE, QQ, tame=v)))
        got = aq.decompose(jsonio.parse_document(text).rep())
        return text, got, json.dumps(got.to_json())

    def check(self, inp, out):
        return out[1] == inp[0]

    def serialize(self, out):
        return (out[0] + "\n" + out[2] + "\n").encode()


class HomF5(Workload):
    """hom_space_dim between two scrambled multi-bar representations over F_5."""

    name = "hom-f5"
    bars = 10
    # bars are drawn from one fixed pool of intervals (the same for every
    # seed, so every seed sees the same cost mix); the hom_dim table behind
    # the expected answers then fills after a few ops
    pool = 32
    cols_window = (480, 520)
    prefix = 8

    def setup(self, seed, tmp_dir):
        super().setup(seed, tmp_dir)
        rng = random.Random(self.name)
        self._pool = [random_bar(rng) for _ in range(self.pool)]
        self._hom: dict[tuple[Interval, Interval], int] = {}

    def _hom_dim(self, i_iv, j_iv) -> int:
        key = (i_iv, j_iv)
        if key not in self._hom:
            self._hom[key] = aq.hom_dim(LINE, i_iv, j_iv, F5)
        return self._hom[key]

    def make(self, i):
        rng = _rng(self.name, self.seed, i)
        lo, hi = self.cols_window
        while True:
            bv = BarMultiset.from_intervals(rng.choice(self._pool) for _ in range(self.bars))
            bw = BarMultiset.from_intervals(rng.choice(self._pool) for _ in range(self.bars))
            dv, dw = cell_dims(bv, bw)
            if lo <= sum(a * b for a, b in zip(dv, dw)) <= hi:
                break
        expected = sum(m * n * self._hom_dim(i_iv, j_iv)
                       for i_iv, m in bv for j_iv, n in bw)
        return (aq.scramble(aq.from_bars(LINE, bv, F5), rng.randrange(2**31)),
                aq.scramble(aq.from_bars(LINE, bw, F5), rng.randrange(2**31)),
                expected)

    def run(self, inp):
        return aq.hom_space_dim(inp[0], inp[1])

    def check(self, inp, out):
        return out == inp[2]

    def serialize(self, out):
        return f"{out}\n".encode()


# Positions for random orientations: halves in [-2, 3].
POSITIONS = [Fraction(k, 2) for k in range(-4, 7)]
ENDPOINTS = [Fraction(k, 2) for k in range(-5, 8)]


def random_orientation(rng: random.Random, k: int) -> Orientation:
    pos = sorted(rng.sample(POSITIONS, k))
    first = rng.choice(["sink", "source"])
    other = "source" if first == "sink" else "sink"
    return Orientation.make([(p, first if n % 2 == 0 else other) for n, p in enumerate(pos)])


def random_interval(rng: random.Random) -> Interval:
    """Finite or half-infinite interval with endpoints on the half-integers."""
    while True:
        lo = rng.choice([NEG_INF] + ENDPOINTS)
        hi = rng.choice(ENDPOINTS + [POS_INF])
        if lo == NEG_INF and hi == POS_INF or lo > hi:
            continue
        if lo == hi:
            return Interval.point(lo)
        return Interval(lo, hi, lo != NEG_INF and rng.random() < 0.5,
                        hi != POS_INF and rng.random() < 0.5)


def hom_from_projective(o: Orientation, label, w: Interval) -> int:
    """dim Hom(P, W) for the projective P named by label and an interval
    summand W, by Yoneda: the dimension of W at the label's point (just
    left of it, just right of it, or at an infinite end).  Independent of
    the library's Hom solver."""
    if aq.realize_projective(o, label) is None:
        return 0
    a = label.a
    if a == NEG_INF:
        return int(w.lo == NEG_INF)
    if a == POS_INF:
        return int(w.hi == POS_INF)
    if label.form == POINT:
        return int(w.contains(a))
    if label.form == OPEN_RIGHT:
        return int(w.lo < a <= w.hi)
    return int(w.lo <= a < w.hi)


def ar_interval(rng: random.Random, o: Orientation) -> Interval:
    """An interval strictly inside a bounded segment, open at the end where
    an almost-split sequence ends at it."""
    pos = o.positions
    k = rng.randrange(len(pos) - 1)
    lo_b, hi_b = pos[k], pos[k + 1]
    width = hi_b - lo_b
    a = lo_b + width * Fraction(rng.randint(1, 3), 8)
    b = lo_b + width * Fraction(rng.randint(5, 7), 8)
    increasing = aq.segment_index(o, (a + b) / 2).increasing
    return Interval(a, b, not increasing, increasing)


class QueriesQ(Workload):
    """6x6 hom and ext tables plus one almost-split sequence, verified."""

    name = "queries-q"
    criticals = 3
    intervals = 6
    probes = 20
    prefix = 4

    def make(self, i):
        rng = _rng(self.name, self.seed, i)
        o = random_orientation(rng, self.criticals)
        ivs = [random_interval(rng) for _ in range(self.intervals)]
        return o, ivs, ar_interval(rng, o)

    def run(self, inp):
        o, ivs, w = inp
        hom = [[aq.hom_dim(o, a, b) for b in ivs] for a in ivs]
        ext = [[aq.ext_dim(o, a, b) for b in ivs] for a in ivs]
        ans = aq.ar_ending_at(o, w)
        ok = (ans.status == "exists"
              and aq.verify_almost_split(ans.sequence, aq.standard_probes(o, ans.sequence, self.probes)))
        return hom, ext, ans.status, ok

    def check(self, inp, out):
        o, ivs, _ = inp
        hom, ext, status, ok = out
        if not ok or status != "exists":
            return False
        if any(x not in (0, 1) for row in hom + ext for x in row):
            return False
        if any(hom[a][a] != 1 for a in range(len(ivs))):
            return False
        for a, v in enumerate(ivs):
            pres = aq.proj_presentation(o, v)
            for b, w in enumerate(ivs):
                if hom[a][b] - ext[a][b] != (sum(hom_from_projective(o, lab, w) for lab in pres.p0)
                                             - sum(hom_from_projective(o, lab, w) for lab in pres.p1)):
                    return False
        return True

    def serialize(self, out):
        hom, ext, status, ok = out
        return (json.dumps({"hom": hom, "ext": ext, "ar": status, "verified": ok}) + "\n").encode()


class Cli(Workload):
    """One `python -m aquiver.cli` invocation per op, cycling six commands."""

    name = "cli"
    prefix = 12
    subprocesses = True
    reference_s = 0.045

    def __init__(self):
        self.root = os.path.dirname(HERE)
        self.env = dict(os.environ)
        src = os.path.join(self.root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")

    def setup(self, seed, tmp_dir):
        super().setup(seed, tmp_dir)
        from click.testing import CliRunner
        from aquiver.cli import main
        rng = _rng(self.name, seed, -1)
        o = random_orientation(rng, 3)
        orient = os.path.join(tmp_dir, "orientation.json")
        with open(orient, "w", encoding="utf-8") as fh:
            json.dump({"orientation": orientation_to_json(o)}, fh)
        doc = os.path.join(tmp_dir, "rep.json")
        bars = BarMultiset.from_intervals(random_interval(rng) for _ in range(5))
        v = aq.scramble(aq.from_bars(o, bars, F5), rng.randrange(2**31))
        with open(doc, "w", encoding="utf-8") as fh:
            json.dump(jsonio.document_to_json(jsonio.Document(o, F5, tame=v)), fh)
        pool = []
        for variant in range(2):
            fmt = ["--json"] if variant else []
            i_iv, j_iv = random_interval(rng), random_interval(rng)
            pool += [
                ["hom", orient, str(i_iv), str(j_iv)] + fmt,
                ["ext", orient, str(i_iv), str(j_iv)] + fmt,
                ["present", orient, str(i_iv)] + fmt,
                ["ar", orient, str(ar_interval(rng, o))] + fmt,
                ["projectives", orient] + fmt,
                ["decompose", doc] + fmt,
            ]
        runner = CliRunner()
        self.pool = []
        for args in pool:
            res = runner.invoke(main, args)
            self.pool.append((args, res.stdout.encode("utf-8"), res.exit_code))

    def make(self, i):
        return self.pool[i % len(self.pool)]

    def run(self, inp):
        args = inp[0]
        if self.traced:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py")] + args
        else:
            cmd = [sys.executable, "-m", "aquiver.cli"] + args
        proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, inp, out):
        _, expected, expected_code = inp
        return expected_code == 0 and out[0] == 0 and out[1] == expected

    def serialize(self, out):
        return out[1]

    def reference(self):
        """Bare interpreter start-up: `python -c pass` in the same environment."""
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=self.root, env=self.env, check=True)
        self.last_reference = perf_counter() - t0
        return self.last_reference

    def figures(self, out):
        """The traced child's figures (its last stderr line), with the
        interpreter start-up timed right after the op."""
        figs = json.loads(out[2].splitlines()[-1]) if out[0] == 0 else {}
        figs["cli.interp_ms"] = self.last_reference * 1e3
        return figs


WORKLOADS = {w.name: w for w in (BarcodeQ, HomF5, QueriesQ, Cli)}

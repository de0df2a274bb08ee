import contextlib
import io
import itertools
import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from oracle import hom_basis
from aquiver.intervals import BarMultiset, Interval, NEG_INF, POS_INF, is_finite
from aquiver.linalg import _ADD, _SWAP, Matrix, random_elementary_ops
from aquiver.orientation import Orientation
from aquiver.tamerep import RepMorphism, TameRep, dual, kernel_rep

POSITIONS = [Fraction(s) for s in
             ("-2", "-3/2", "-1", "-1/2", "0", "1/2", "1", "3/2", "2", "5/2", "3")]
ENDPOINTS = [Fraction(e) for e in (-2, -1, 0, 1, 2, 3)]


def random_orientation(rng: random.Random, max_criticals: int = 4) -> Orientation:
    k = rng.randint(0, max_criticals)
    if k == 0:
        return Orientation.make([], rng.choice(["descending", "ascending"]))
    pos = sorted(rng.sample(POSITIONS, k))
    first = rng.choice(["sink", "source"])
    other = "source" if first == "sink" else "sink"
    kinds = [first if i % 2 == 0 else other for i in range(k)]
    return Orientation.make(list(zip(pos, kinds)))


def random_interval(rng: random.Random, allow_infinite: bool = True) -> Interval:
    while True:
        lo = rng.choice(([NEG_INF] if allow_infinite else []) + ENDPOINTS)
        hi = rng.choice(ENDPOINTS + ([POS_INF] if allow_infinite else []))
        if lo == NEG_INF or hi == POS_INF:
            lo_c = False if lo == NEG_INF else rng.random() < 0.5
            hi_c = False if hi == POS_INF else rng.random() < 0.5
            if lo == NEG_INF and hi == POS_INF and rng.random() < 0.8:
                continue  # keep the full line rare
            return Interval(lo, hi, lo_c, hi_c)
        if lo > hi:
            continue
        if lo == hi:
            return Interval(lo, hi, True, True)
        return Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5)


def all_orientations(max_criticals: int = 3) -> list[Orientation]:
    """Every orientation with at most max_criticals critical points, all at
    ENDPOINTS: both empty ones, then each position set with either first
    kind (84 for three)."""
    out = [Orientation.make([], d) for d in ("descending", "ascending")]
    for k in range(1, max_criticals + 1):
        for pos in itertools.combinations(ENDPOINTS, k):
            for kinds in (("sink", "source"), ("source", "sink")):
                out.append(Orientation.make([(p, kinds[i % 2]) for i, p in enumerate(pos)]))
    return out


def all_intervals() -> list[Interval]:
    """Every interval with endpoints in ENDPOINTS or at infinity, with every
    closedness of its finite ends (91)."""
    ends = [NEG_INF] + ENDPOINTS + [POS_INF]
    out = []
    for lo, hi in itertools.combinations_with_replacement(ends, 2):
        if lo == hi:
            if is_finite(lo):
                out.append(Interval.point(lo))
            continue
        for lo_c in (False, True) if is_finite(lo) else (False,):
            for hi_c in (False, True) if is_finite(hi) else (False,):
                out.append(Interval(lo, hi, lo_c, hi_c))
    return out


def random_bars(rng: random.Random, max_bars: int = 8, max_mult: int = 3) -> BarMultiset:
    n = rng.randint(1, max_bars)
    return BarMultiset((random_interval(rng), rng.randint(1, max_mult))
                       for _ in range(n))


def interval_in_segment(rng: random.Random, o: Orientation) -> Interval:
    """A random interval strictly inside one segment of the orientation."""
    pos = o.positions
    bounds = [(NEG_INF, pos[0] if pos else POS_INF)]
    for a, b in zip(pos, pos[1:]):
        bounds.append((a, b))
    if pos:
        bounds.append((pos[-1], POS_INF))
    lo_b, hi_b = rng.choice(bounds)
    lo_ref = Fraction(lo_b) if lo_b != NEG_INF else Fraction(hi_b) - 2 if hi_b != POS_INF else Fraction(-1)
    hi_ref = Fraction(hi_b) if hi_b != POS_INF else lo_ref + 2
    width = hi_ref - lo_ref
    a = lo_ref + width * Fraction(rng.randint(1, 3), 8)
    b = lo_ref + width * Fraction(rng.randint(5, 7), 8)
    return Interval(a, b, rng.random() < 0.5, rng.random() < 0.5)


def dense_hom_space_dim(v, w) -> int:
    """dim Hom(v, w) as the nullity of the oracle's commuting-square system
    on a common grid: the reference hom_space_dim is checked against, since
    hom_space_dim itself reads the answer off decompose and hom_dim."""
    return len(hom_basis(v, w))


def dual_cokernel(f: RepMorphism) -> TameRep:
    """(coker f)^*, with no cokernel construction: the transposes form
    f^T: dual(f.cod) -> dual(f.dom) over the reversed orientation, which
    RepMorphism checks commutes, and ker f^T is (coker f)^*.  An interval
    module and its dual have the same support, so both decompose alike."""
    f_t = RepMorphism(dual(f.cod), dual(f.dom), [m.transpose() for m in f.mats])
    return kernel_rep(f_t)[0]


def cell_representative(grid, idx: int) -> Fraction:
    """A point of cell idx of the sorted grid."""
    m = len(grid)
    if idx % 2 == 1:
        return grid[(idx - 1) // 2]
    if m == 0:
        return Fraction(0)
    if idx == 0:
        return grid[0] - 1
    if idx == 2 * m:
        return grid[-1] + 1
    return (grid[idx // 2 - 1] + grid[idx // 2]) / 2


def random_invertible(field, n: int, rng) -> Matrix:
    """Seeded random invertible matrix: the operations of
    ``random_elementary_ops`` applied in order to the rows of the identity,
    so entries stay small and the result is exactly invertible.  The P of
    the scramble parity reference: ``scramble(v, seed)`` equals conjugating
    v by one such P per cell, drawn in cell order from Random(seed)."""
    rows = list(Matrix.identity(field, n).rows)
    for op, i, k, c in random_elementary_ops(field, n, rng):
        if op == _ADD:
            rows[i] = [field.add(a, field.mul(c, b)) for a, b in zip(rows[i], rows[k])]
        elif op == _SWAP:
            rows[i], rows[k] = rows[k], rows[i]
        else:
            rows[i] = [field.mul(c, a) if a else a for a in rows[i]]
    return Matrix(field, n, n, rows)


def count_rows_reads(monkeypatch, counted: list) -> None:
    """Replace ``Matrix.rows`` by a descriptor that appends "rows" to
    counted on every read of a matrix's field-scalar view."""
    real_rows = Matrix.__dict__["rows"]

    class CountingRows:
        def __get__(self, m, owner=None):
            if m is None:
                return self
            counted.append("rows")
            return real_rows.__get__(m, owner)

    monkeypatch.setattr(Matrix, "rows", CountingRows())


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved as written
    exception: BaseException | None  # None after exit 0


class _Tee(io.StringIO):
    """A StringIO that also writes everything to a shared one."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, s):
        self.both.write(s)
        return super().write(s)


class InProcessRunner:
    """Runs a command line's main(args) in this process, with stdout and
    stderr captured, and reads the exit code off SystemExit.  Any other
    exception ends the run with code 1 and is kept."""

    @staticmethod
    def invoke(main, args) -> CliResult:
        both = io.StringIO()
        out, err = _Tee(both), _Tee(both)
        code, exception = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(list(args))
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
                exception = e if code else None
            except Exception as e:
                code, exception = 1, e
        return CliResult(code, out.getvalue(), err.getvalue(), both.getvalue(), exception)


@pytest.fixture
def rng():
    return random.Random(987654321)

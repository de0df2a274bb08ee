import itertools
import random
from fractions import Fraction

import pytest

from oracle import hom_basis
from random_inputs import ENDPOINTS
from aquiver.intervals import Interval, NEG_INF, POS_INF, is_finite
from aquiver.linalg import _ADD, _SWAP, Matrix, random_elementary_ops
from aquiver.orientation import Orientation
from aquiver.tamerep import RepMorphism, TameRep, dual, kernel_rep


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
    return Matrix.from_rows(field, rows)


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


@pytest.fixture
def rng():
    return random.Random(987654321)

"""Decomposition of a tame representation into interval summands.

A tame representation is a finite zigzag of vector spaces, one per grid
cell.  The decomposer sweeps the cells left to right carrying one list of
alive lines, each a (birth cell, vector) pair.  A block is a run of lines
with one birth cell, and the list keeps the blocks in the one-directional
hom order between one-sided interval summands: a block born at a forward
junction is maximal among the bars alive at its birth and goes last, one
born at a backward junction is minimal and goes first.  The alive vectors,
in list order, are the columns of a basis A of the cell, and each junction
map M is read in those coordinates by one column reduction
(``bottom_column_echelon``), in which a line absorbs only earlier lines,
the moves the block order allows.  Forward, the columns of MA: a line
whose column reduces to zero dies, the others push forward as their
images, and the unit vectors at no column's pivot row are born last.
Backward, the columns [e_k ; B e_k] with B = A^-1 M from one solve: a
column whose pivot lies in B's part keeps that line alive, with its
e-part as a preimage, and the lines no column reaches die; the e-parts of
the columns with no pivot in B's part span ker M and are born first.  The
multiset of (birth, death) cell ranges that falls out is the barcode,
whatever bases the reduction picks: the incremental compatible-basis form
of zigzag persistence (Carlsson and de Silva, 2010).
"""

from __future__ import annotations

from .intervals import BarMultiset, Interval
from .linalg import Matrix, bottom_column_echelon, solve_matrix
from .tamerep import DOWN, TameRep, cells_to_interval


class InternalInvariantError(AssertionError):
    """A computation contradicted a proven structural fact; always a bug."""


def _cell_bars(v: TameRep) -> list[tuple[int, int]]:
    """The (birth_cell, death_cell) multiset of the sweep."""
    field = v.field
    dead: list[tuple[int, int]] = []
    lines = [(0, vec) for vec in Matrix.identity(field, v.dims[0]).columns()]
    for j in range(v.ncells - 1):
        fwd = v.dirs[j] != DOWN
        nxt, born = _step(field, [vec for _, vec in lines], v.maps[j], fwd)
        kept = []
        for (birth, _), vec in zip(lines, nxt):
            if vec is None:
                dead.append((birth, j))
            else:
                kept.append((birth, vec))
        born = [(j + 1, vec) for vec in born]
        lines = kept + born if fwd else born + kept
    dead.extend((birth, v.ncells - 1) for birth, _ in lines)
    return dead


def _step(field, vecs, mat, fwd):
    """Read the junction map mat in the coordinates of the alive lines vecs:
    each line's vector in the next cell (None where the line dies) and the
    vectors of the lines born there."""
    d_here, d_next = (mat.ncols, mat.nrows) if fwd else (mat.nrows, mat.ncols)
    alive = Matrix.from_columns(field, d_here, vecs)
    units = Matrix.identity(field, d_next).columns()
    if fwd:
        images = mat.matmul(alive).columns()
        lows = bottom_column_echelon(field, [list(col) for col in images])
        taken = set(lows)
        return ([col if low != -1 else None for col, low in zip(images, lows)],
                [units[i] for i in range(d_next) if i not in taken])
    coords = solve_matrix(alive, mat)
    if coords is None:
        raise InternalInvariantError("alive vectors stopped spanning the cell")
    nxt, born = [None] * len(vecs), []
    cols = [e + b for e, b in zip(units, coords.columns())]
    for col, low in zip(cols, bottom_column_echelon(field, cols)):
        if low >= d_next:
            nxt[low - d_next] = col[:d_next]
        else:
            born.append(col[:d_next])
    return nxt, born


def decompose(v: TameRep) -> BarMultiset:
    """The barcode: from_bars(orientation, result) is isomorphic to v."""
    bars = _cell_bars(v)
    return BarMultiset.from_intervals(
        cells_to_interval(v.grid, b, d) for b, d in bars)


def multiplicity(v: TameRep, iv: Interval) -> int:
    return decompose(v).count(iv)


def iso(a: TameRep, b: TameRep) -> bool:
    """Isomorphism test: equal barcodes over the same orientation."""
    if a.orientation != b.orientation:
        raise ValueError("orientation mismatch")
    return decompose(a) == decompose(b)


def indecomposable_direct(v: TameRep) -> bool:
    """Pointwise dimension at most one, connected support, and every
    in-support junction map an isomorphism."""
    if any(d > 1 for d in v.dims):
        return False
    nz = [i for i, d in enumerate(v.dims) if d == 1]
    if not nz:
        return False
    if nz[-1] - nz[0] + 1 != len(nz):
        return False
    for j in range(nz[0], nz[-1]):
        if not v.maps[j].rows[0][0]:
            return False
    return True


def is_indecomposable(v: TameRep) -> bool:
    ans = decompose(v).total() == 1
    direct = indecomposable_direct(v)
    if ans != direct:
        raise InternalInvariantError(
            "decomposition and the direct indecomposability criterion disagree")
    return ans

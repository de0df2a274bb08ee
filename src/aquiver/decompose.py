"""Decomposition of a tame representation into interval summands.

A tame representation is a finite zigzag of vector spaces, one per grid
cell.  The decomposer sweeps the cells left to right carrying a list of
"alive" bars, each owning a line of the current cell, kept in blocks
ordered by the one-directional hom order between one-sided interval
summands: a block born at a forward junction is maximal among the bars
alive at its birth, one born at a backward junction is minimal.  The alive
lines, in block order, are the columns of a basis A of the cell, and each
junction map M is read in those coordinates by one column reduction
(``bottom_column_echelon``), in which a line absorbs only earlier lines,
the moves the block order allows.  Forward, the columns of MA: a line whose
column reduces to zero dies, the others push forward as their images, and
the unit vectors at no column's pivot row start a new last block.
Backward, the columns [e_k ; B e_k] with B = A^-1 M from one solve: a
column whose pivot lies in B's part keeps that line alive, with its
e-part as a preimage, and the lines no column reaches die; the e-parts of
the columns with no pivot in B's part span ker M and start a new first
block.  The multiset of (birth, death) cell ranges that falls out is the
barcode, whatever bases the reduction picks: the incremental
compatible-basis form of zigzag persistence (Carlsson and de Silva, 2010).
"""

from __future__ import annotations

from dataclasses import dataclass

from .intervals import BarMultiset, Interval
from .linalg import Matrix, bottom_column_echelon, solve_matrix
from .tamerep import DOWN, TameRep, cells_to_interval


class InternalInvariantError(AssertionError):
    """A computation contradicted a proven structural fact; always a bug."""


@dataclass
class _Block:
    birth: int
    vectors: list  # columns in current cell coords


def _cell_bars(v: TameRep) -> list[tuple[int, int]]:
    """The (birth_cell, death_cell) multiset of the sweep."""
    n = v.ncells
    field = v.field
    dead: list[tuple[int, int]] = []
    blocks: list[_Block] = []
    d0 = v.dims[0]
    if d0:
        blocks.append(_Block(0, Matrix.identity(field, d0).columns()))
    for j in range(n - 1):
        blocks = _step(field, blocks, v.maps[j], v.dirs[j] != DOWN, j, dead)
    last = n - 1
    for b in blocks:
        dead.extend((b.birth, last) for _ in b.vectors)
    return dead


def _step(field, blocks, mat, fwd, j, dead):
    """Process junction j: append the bars that die there to dead and
    return the blocks alive in cell j + 1."""
    d_here, d_next = (mat.ncols, mat.nrows) if fwd else (mat.nrows, mat.ncols)
    owners = [bi for bi, b in enumerate(blocks) for _ in b.vectors]  # block of each line
    alive = Matrix.from_columns(field, d_here, [vec for b in blocks for vec in b.vectors])
    units = Matrix.identity(field, d_next).columns()
    if fwd:
        images = mat.matmul(alive).columns()
        lows = bottom_column_echelon(field, [list(col) for col in images])
        # surviving line -> its vector in cell j + 1
        nxt = {r: images[r] for r, low in enumerate(lows) if low != -1}
        taken = set(lows)
        born = [units[i] for i in range(d_next) if i not in taken]
    else:
        coords = solve_matrix(alive, mat)
        if coords is None:
            raise InternalInvariantError("alive vectors stopped spanning the cell")
        cols = [e + b for e, b in zip(units, coords.columns())]
        nxt, born = {}, []
        for col, low in zip(cols, bottom_column_echelon(field, cols)):
            if low >= d_next:
                nxt[low - d_next] = col[:d_next]
            else:
                born.append(col[:d_next])
    survivors: dict[int, list] = {}  # block index -> its surviving vectors
    for r, bi in enumerate(owners):
        if r in nxt:
            survivors.setdefault(bi, []).append(nxt[r])
        else:
            dead.append((blocks[bi].birth, j))
    new_blocks = [_Block(blocks[bi].birth, vecs) for bi, vecs in survivors.items()]
    if born:
        new_blocks.insert(len(new_blocks) if fwd else 0, _Block(j + 1, born))
    return new_blocks


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

"""Decomposition of a tame representation into interval summands.

A tame representation is a finite zigzag of vector spaces, one per grid
cell.  The decomposer sweeps the cells left to right carrying a list of
"alive" bars, each owning a line of the current cell, kept in blocks
ordered by the one-directional hom order between one-sided interval
summands: a block born at a forward junction is maximal among the bars
alive at its birth, one born at a backward junction is minimal.  At every
junction the current lines are re-chosen compatibly with both that block
flag and the kernel (forward) or image (backward) of the junction map;
lines falling in the kernel / outside the image die, the rest push
forward or pull back, and the cokernel / kernel of the map starts a new
block.  The block discipline is exactly what makes the re-mixing of lines
legal, so the multiset of (birth, death) cell ranges that falls out is
the barcode.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .intervals import BarMultiset, Interval
from .linalg import (Matrix, bottom_column_echelon, column_space_basis,
                     kernel_basis, solve_matrix, unit_complement)
from .tamerep import DOWN, TameRep, cells_to_interval


class InternalInvariantError(AssertionError):
    """A computation contradicted a proven structural fact; always a bug."""


@dataclass
class _Block:
    birth: int
    vectors: list = dc_field(default_factory=list)  # columns in current cell coords


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
        fwd = v.dirs[j] != DOWN
        mat = v.maps[j]
        d_here, d_next = v.dims[j], v.dims[j + 1]
        if fwd:
            sub = kernel_basis(mat)  # dying directions
        else:
            sub = column_space_basis(mat)  # surviving directions
        blocks, newly_dead = _step(field, blocks, mat, fwd, sub, d_here, d_next, j)
        dead.extend(newly_dead)
    last = n - 1
    for b in blocks:
        dead.extend((b.birth, last) for _ in b.vectors)
    return dead


def _step(field, blocks, mat, fwd, sub, d_here, d_next, j):
    """Process one junction; returns (new blocks, dead bars)."""
    dead = []
    new_blocks: list[_Block] = []
    if d_here:
        alive_cols = [vec for b in blocks for vec in b.vectors]
        alive_mat = Matrix.from_columns(field, d_here, alive_cols)
        # coordinates of the distinguished subspace in the alive basis,
        # bottom-echelonized so each column owns its lowest nonzero row
        coords_mat = solve_matrix(alive_mat, sub)
        if coords_mat is None:
            raise InternalInvariantError("alive vectors stopped spanning the cell")
        coords = coords_mat.columns()
        pivots = bottom_column_echelon(field, coords) if coords else []
        in_sub = {piv: alive_mat.apply(col) for col, piv in zip(coords, pivots)}
        row_block = []
        for bi, b in enumerate(blocks):
            row_block.extend([bi] * len(b.vectors))
        # classify lines; survivors keep their block (hom-order level)
        surviving: list[tuple[int, list]] = []
        for r in range(d_here):
            flagged = r in in_sub
            vec = in_sub[r] if flagged else alive_cols[r]
            dies = flagged if fwd else not flagged
            if dies:
                dead.append((blocks[row_block[r]].birth, j))
            else:
                surviving.append((row_block[r], vec))
        if fwd:
            pushed = [mat.apply(vec) for _, vec in surviving]
        else:
            rhs = Matrix.from_columns(field, d_here, [vec for _, vec in surviving])
            pre = solve_matrix(mat, rhs)
            if pre is None:
                raise InternalInvariantError("image vector lost its preimage")
            pushed = pre.columns()
        survivors: dict[int, list] = {}
        for (bi, _), nxt in zip(surviving, pushed):
            survivors.setdefault(bi, []).append(nxt)
        for bi, b in enumerate(blocks):
            if bi in survivors:
                new_blocks.append(_Block(b.birth, survivors[bi]))
    # newborns: cokernel directions (forward) / kernel directions (backward)
    if fwd:
        alive = [vec for b in new_blocks for vec in b.vectors]
        units = Matrix.identity(field, d_next).columns()
        born = [units[i] for i in unit_complement(field, alive, d_next)]
        if born:
            new_blocks.append(_Block(j + 1, born))
    else:
        ker = kernel_basis(mat).columns()
        if ker:
            new_blocks.insert(0, _Block(j + 1, ker))
    return new_blocks, dead


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

"""The decomposition sweep in its earlier form, kept as a reference for the
parity tests: at every junction it re-chooses the alive lines against the
kernel (forward) or image (backward) of the junction map, computed as a
subspace of the cell and solved into alive coordinates, then pushes or
pulls the survivors one by one and completes the newborns separately.
``decompose._cell_bars`` must return the same (birth, death) multiset.
It holds field scalars throughout, and it reduces columns with its own
textbook loop (``textbook_column_reduction``), not with the integer
``bottom_column_echelon`` that the sweep under test relies on.
"""

from dataclasses import dataclass, field as dc_field

from aquiver.decompose import InternalInvariantError
from aquiver.linalg import (Matrix, column_space_basis, integer_row_echelon, kernel_basis,
                            solve_matrix)
from aquiver.tamerep import DOWN


def unit_complement(field, cols, d: int) -> list[int]:
    """Indices i of the unit vectors e_i that a greedy scan of cols, then
    e_0, ..., e_{d-1}, keeps: those completing a basis of the span of cols
    to the whole d-dimensional space.  Those are the pivots at or past
    len(cols) of the reduced [cols | I_d], less len(cols).  The scan skips
    e_i exactly when some vector of the span has its last nonzero entry at
    i, and those last entries are the pivots of the reduced cols with their
    coordinates reversed, which spares eliminating the identity block."""
    ints, _ = field.integer_rows([list(reversed(col)) for col in cols])
    _, pivots = integer_row_echelon(field, ints)
    last = {d - 1 - p for p in pivots}
    return [i for i in range(d) if i not in last]


def textbook_column_reduction(field, cols) -> list[int]:
    """Column-reduce cols in place, left to right, in field operations:
    while a column's lowest nonzero entry sits at an earlier column's
    pivot, subtract that multiple of the earlier (unit-pivot) column, then
    divide by the pivot.  Returns the pivot rows, -1 for a column that
    reduces to zero."""
    used, pivots = {}, []
    for col in cols:
        while (low := max((i for i, x in enumerate(col) if x), default=-1)) in used:
            c = col[low]
            col[:] = [field.sub(x, field.mul(c, y)) for x, y in zip(col, used[low])]
        if low != -1:
            inv = field.inv(col[low])
            col[:] = [field.mul(inv, x) for x in col]
            used[low] = col
        pivots.append(low)
    return pivots


def columns(m):
    return [m.column(j) for j in range(m.ncols)]


@dataclass
class _Block:
    birth: int
    vectors: list = dc_field(default_factory=list)  # columns in current cell coords


def _apply(m, vec):
    """m times the column vec."""
    return m.matmul(Matrix.from_columns(m.field, len(vec), [vec])).column(0)


def reference_cell_bars(v):
    """The (birth_cell, death_cell) multiset of the reference sweep."""
    n = v.ncells
    field = v.field
    dead = []
    blocks = []
    d0 = v.dims[0]
    if d0:
        blocks.append(_Block(0, columns(Matrix.identity(field, d0))))
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
    new_blocks = []
    if d_here:
        alive_cols = [vec for b in blocks for vec in b.vectors]
        alive_mat = Matrix.from_columns(field, d_here, alive_cols)
        # coordinates of the distinguished subspace in the alive basis,
        # bottom-echelonized so each column owns its lowest nonzero row
        coords_mat = solve_matrix(alive_mat, sub)
        if coords_mat is None:
            raise InternalInvariantError("alive vectors stopped spanning the cell")
        coords = columns(coords_mat)
        pivots = textbook_column_reduction(field, coords)
        assert -1 not in pivots  # the coordinates of a basis are independent
        in_sub = {piv: _apply(alive_mat, col) for col, piv in zip(coords, pivots)}
        row_block = []
        for bi, b in enumerate(blocks):
            row_block.extend([bi] * len(b.vectors))
        # classify lines; survivors keep their block (hom-order level)
        surviving = []
        for r in range(d_here):
            flagged = r in in_sub
            vec = in_sub[r] if flagged else alive_cols[r]
            dies = flagged if fwd else not flagged
            if dies:
                dead.append((blocks[row_block[r]].birth, j))
            else:
                surviving.append((row_block[r], vec))
        if fwd:
            pushed = [_apply(mat, vec) for _, vec in surviving]
        else:
            rhs = Matrix.from_columns(field, d_here, [vec for _, vec in surviving])
            pre = solve_matrix(mat, rhs)
            if pre is None:
                raise InternalInvariantError("image vector lost its preimage")
            pushed = columns(pre)
        survivors = {}
        for (bi, _), nxt in zip(surviving, pushed):
            survivors.setdefault(bi, []).append(nxt)
        for bi, b in enumerate(blocks):
            if bi in survivors:
                new_blocks.append(_Block(b.birth, survivors[bi]))
    # newborns: cokernel directions (forward) / kernel directions (backward)
    if fwd:
        alive = [vec for b in new_blocks for vec in b.vectors]
        units = columns(Matrix.identity(field, d_next))
        born = [units[i] for i in unit_complement(field, alive, d_next)]
        if born:
            new_blocks.append(_Block(j + 1, born))
    else:
        ker = columns(kernel_basis(mat))
        if ker:
            new_blocks.insert(0, _Block(j + 1, ker))
    return new_blocks, dead

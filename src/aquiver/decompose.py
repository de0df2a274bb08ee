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
reduced columns (M applied to the line after its absorptions), and the
unit vectors at no column's pivot row are born last.  Backward, the
columns [e_k ; B e_k] with B = A^-1 M from one elimination of [A | M]: a
column whose pivot lies in B's part keeps that line alive, with its
e-part as a preimage, and the lines no column reaches die; the e-parts of
the columns with no pivot in B's part span ker M and are born first.  The
multiset of (birth, death) cell ranges that falls out is the barcode,
whatever bases the reduction picks: the incremental compatible-basis form
of zigzag persistence (Carlsson and de Silva, 2010).

The sweep runs on Python ints from the first cell to the last; it builds
no Fraction and no Matrix, and it leaves every field-specific step to the
field (``linalg``).  Each junction map is read, with no conversion, as
the integer rows its ``Matrix`` stores, ``ints``, one nonzero scalar
times the map (over ``den``).  Each line is an integer vector, and the
integer elimination loops (``integer_row_echelon``,
``bottom_column_echelon``) leave every vector a nonzero multiple of the
one field arithmetic would give.  Backward, B is never divided out: it is
read off the eliminated [A | M] as integer rows over one scale
(``linalg.reduced_block``), and column k of [I ; B] is taken times that
scale.  A nonzero multiple of M has the kernel, the image and the
column-reduction pivots of M, so each junction reads the same ranks;
equally, scaling each map by its own scalar gives an isomorphic
representation, since a zigzag is a tree.  A line scaled by a nonzero
scalar is the same line, and scaling single lines keeps the basis
block-triangular, so each line is born, absorbed and dies exactly where
its unscaled form would be.
"""

from __future__ import annotations

from .intervals import BarMultiset
from .linalg import bottom_column_echelon, integer_row_echelon, reduced_block
from .tamerep import DOWN, TameRep, cells_to_interval


class InternalInvariantError(AssertionError):
    """A computation contradicted a proven structural fact; always a bug."""


def _cell_bars(v: TameRep) -> list[tuple[int, int]]:
    """The (birth_cell, death_cell) multiset of the sweep."""
    field = v.field
    dead: list[tuple[int, int]] = []
    lines = [(0, _unit(v.dims[0], i)) for i in range(v.dims[0])]
    for j in range(v.ncells - 1):
        fwd = v.dirs[j] != DOWN
        rows = v.maps[j].ints
        step = _forward if fwd else _backward
        nxt, born = step(field, [vec for _, vec in lines], rows, v.dims[j + 1])
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


def _unit(d: int, i: int, c: int = 1) -> list:
    """c times the i-th unit vector of length d."""
    vec = [0] * d
    vec[i] = c
    return vec


def _forward(field, vecs, rows, d_next):
    """The junction map, given by its integer rows, read in the coordinates
    of the alive lines vecs: each line's vector in the next cell (None
    where the line dies) and the vectors of the lines born there."""
    cols = list(zip(*rows))
    images = []
    for vec in vecs:
        image = [0] * d_next
        for x, col in zip(vec, cols):
            if x:
                image = [y + x * a for y, a in zip(image, col)]
        images.append(image)
    lows = bottom_column_echelon(field, images)
    taken = set(lows)
    return ([col if low != -1 else None for col, low in zip(images, lows)],
            [_unit(d_next, i) for i in range(d_next) if i not in taken])


def _backward(field, vecs, rows, d_next):
    """As ``_forward``, for a junction map into this cell from the next,
    through B = A^-1 M from one elimination of [A | M], where A has the
    columns vecs."""
    n = len(rows)
    aug = [[vec[i] for vec in vecs] + row for i, row in enumerate(rows)]
    ech, pivots = integer_row_echelon(field, aug)
    if len(vecs) != n or pivots != list(range(n)):
        raise InternalInvariantError("alive vectors stopped spanning the cell")
    # B is block over scale; column k of [I ; B] is taken times scale
    block, scale = reduced_block(field, ech, pivots, n)
    cols = [_unit(d_next, k, scale) + [row[k] for row in block] for k in range(d_next)]
    nxt, born = [None] * n, []
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


def iso(a: TameRep, b: TameRep) -> bool:
    """Isomorphism test: equal barcodes over the same orientation."""
    if a.orientation != b.orientation:
        raise ValueError("orientation mismatch")
    return decompose(a) == decompose(b)


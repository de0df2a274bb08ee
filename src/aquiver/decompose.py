"""Decomposition of a tame representation into interval summands.

A tame representation is a finite zigzag of vector spaces, one per grid
cell.  The decomposer sweeps the cells left to right in one loop over the
junctions, carrying the alive lines as two parallel lists, their birth
cells and their vectors.  A block is a run of lines with one birth cell,
and the lists keep the blocks in the one-directional hom order between
one-sided interval summands: a block born at a forward junction is
maximal among the bars alive at its birth and goes last, one born at a
backward junction is minimal and goes first.  The alive vectors, in list
order, are the columns of a basis A of the cell, and each junction map M
is read in those coordinates by one column reduction
(``bottom_column_echelon``), in which a line absorbs only earlier lines,
the moves the block order allows.  Forward, the columns of MA, each built
from its line's first nonzero coordinate on: a line whose column reduces
to zero dies, the others push forward as their reduced columns (M applied
to the line after its absorptions), and the unit vectors at no column's
pivot row are born last.  Backward, the columns [e_k ; B e_k] with
B = A^-1 M from one elimination of [A | M]: a column whose pivot lies in
B's part keeps that line alive, with its e-part as a preimage, and the
lines no column reaches die; the e-parts of the columns with no pivot in
B's part span ker M and are born first.  The multiset of (birth, death)
cell ranges that falls out is the barcode, whatever bases the reduction
picks: the incremental compatible-basis form of zigzag persistence
(Carlsson and de Silva, 2010).

The barcode is built from the int pairs: ``decompose`` counts the
(birth cell, death cell) pairs, sorts the distinct pairs as ints and
builds one ``Interval`` per pair.  On one grid a cell range maps to its
interval monotonically, lexicographic (birth, death) order being the
canonical bar order (``Interval.sort_key``), so
``BarMultiset.from_sorted_counts`` takes the bars in that order as they
come, with no Fraction comparison and one hash per distinct bar.

The sweep runs on Python ints from the first cell to the last; it builds
no Fraction and no Matrix, and it leaves every field-specific step to the
field (``linalg``).  Each junction map is read, with no conversion, as
the integer rows its ``Matrix`` stores, ``ints``, one nonzero scalar
times the map (over ``den``).  Each line is an integer vector, and the
integer elimination loops (``integer_row_echelon``,
``bottom_column_echelon``) leave every vector a nonzero multiple of the
one field arithmetic would give.  Backward, B is never divided out: row r
of the eliminated [A | M] is its pivot entry p_r times row r of [I | B],
so column k is read as e_k over column k of the eliminated rows' M part,
[I ; B] e_k with B's row r scaled by p_r.  Scaling one coordinate of
every column alike keeps each column's lowest nonzero row and the ratio
that eliminating at it divides, so the column reduction picks the same
pivots and the same moves, and each carried vector changes only by a
nonzero scalar.  A nonzero multiple of M has the kernel, the image and the
column-reduction pivots of M, so each junction reads the same ranks;
equally, scaling each map by its own scalar gives an isomorphic
representation, since a zigzag is a tree.  A line scaled by a nonzero
scalar is the same line, and scaling single lines keeps the basis
block-triangular, so each line is born, absorbed and dies exactly where
its unscaled form would be.
"""

from __future__ import annotations

from collections import Counter

from .intervals import BarMultiset
from .linalg import bottom_column_echelon, integer_row_echelon
from .tamerep import DOWN, TameRep, cells_to_interval


class InternalInvariantError(AssertionError):
    """A computation contradicted a proven structural fact; always a bug."""


def _cell_bars(v: TameRep) -> list[tuple[int, int]]:
    """The (birth_cell, death_cell) multiset of the sweep."""
    field = v.field
    dead: list[tuple[int, int]] = []
    d = v.dims[0]
    births = [0] * d
    vecs = [[int(i == k) for i in range(d)] for k in range(d)]
    for j in range(v.ncells - 1):
        rows = v.maps[j].ints
        d_next = v.dims[j + 1]
        kept_births, kept_vecs = [], []
        if v.dirs[j] != DOWN:
            # the columns of MA, each started at its line's first nonzero
            # coordinate; a map into a zero cell has no rows to zip
            cols = list(zip(*rows)) if d_next else [()] * len(vecs)
            images = []
            for vec in vecs:
                image = None
                for x, col in zip(vec, cols):
                    if x:
                        if image is None:
                            image = [x * a for a in col]
                        else:
                            image = [y + x * a for y, a in zip(image, col)]
                images.append(image)
            lows = bottom_column_echelon(field, images)
            for birth, image, low in zip(births, images, lows):
                if low == -1:
                    dead.append((birth, j))
                else:
                    kept_births.append(birth)
                    kept_vecs.append(image)
            taken = set(lows)
            for i in range(d_next):
                if i not in taken:
                    unit = [0] * d_next
                    unit[i] = 1
                    kept_births.append(j + 1)
                    kept_vecs.append(unit)
        else:
            n = len(rows)
            aug = [[*a, *row] for a, row in zip(zip(*vecs), rows)]
            ech, pivots = integer_row_echelon(field, aug)
            if len(vecs) != n or pivots != list(range(n)):
                raise InternalInvariantError("alive vectors stopped spanning the cell")
            # row r of ech is its pivot entry times row r of [I | B]; a
            # map into a zero cell has no rows to zip
            cols = [[0] * d_next + list(b) for b in (list(zip(*ech))[n:] if n else [()] * d_next)]
            for k, col in enumerate(cols):
                col[k] = 1
            reached = [None] * n
            for col, low in zip(cols, bottom_column_echelon(field, cols)):
                if low >= d_next:
                    reached[low - d_next] = col[:d_next]
                else:
                    kept_births.append(j + 1)
                    kept_vecs.append(col[:d_next])
            for birth, vec in zip(births, reached):
                if vec is None:
                    dead.append((birth, j))
                else:
                    kept_births.append(birth)
                    kept_vecs.append(vec)
        births, vecs = kept_births, kept_vecs
    dead.extend((birth, v.ncells - 1) for birth in births)
    return dead


def decompose(v: TameRep) -> BarMultiset:
    """The barcode: from_bars(orientation, result) is isomorphic to v."""
    grid = v.grid
    return BarMultiset.from_sorted_counts(
        (cells_to_interval(grid, b, d), m) for (b, d), m in sorted(Counter(_cell_bars(v)).items()))


def iso(a: TameRep, b: TameRep) -> bool:
    """Isomorphism test: equal barcodes over the same orientation."""
    if a.orientation != b.orientation:
        raise ValueError("orientation mismatch")
    return decompose(a) == decompose(b)

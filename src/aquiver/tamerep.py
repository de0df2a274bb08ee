"""Tame representations: constant on the open cells of a finite grid.

A grid c_1 < ... < c_m cuts the line into 2m+1 cells
(-inf,c_1), {c_1}, (c_1,c_2), ..., {c_m}, (c_m,+inf).  A representation
stores one dimension per cell and one exact matrix per junction between
adjacent cells.  A junction's direction ("down" points toward the lower
cell index) is not stored input: the orientation forces it, and a
representation derives it from its orientation and grid (junction_dirs).
Transition maps inside a cell are identities, so the whole object is a
finite zigzag of vector spaces.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, Sequence

from .intervals import BarMultiset, Interval, NEG_INF, POS_INF, is_finite
from .linalg import (Matrix, QQ, change_basis, column_space_basis, invert,
                     kernel_basis, random_elementary_ops, solve_matrix)
from .orientation import Orientation, reverse

DOWN = "down"
UP = "up"


# ---------------------------------------------------------------------------
# cell geometry

def num_cells(grid: Sequence[Fraction]) -> int:
    return 2 * len(grid) + 1


def cell_of_point(grid: Sequence[Fraction], x) -> int:
    x = Fraction(x)
    i = bisect_right(grid, x)
    if i > 0 and grid[i - 1] == x:
        return 2 * i - 1
    return 2 * i


def interval_to_cells(grid: Sequence[Fraction], iv: Interval) -> tuple[int, int]:
    """Inclusive cell index range of an interval whose finite endpoints are
    grid points."""
    def index(e):
        g = bisect_right(grid, e) - 1
        if g < 0 or grid[g] != e:
            raise ValueError(f"endpoint {e} not on the grid")
        return g

    c_lo, c_hi = _cell_range(iv, index, len(grid))
    if c_lo > c_hi:
        raise ValueError(f"interval {iv} spans no cell")
    return c_lo, c_hi


def _cell_range(iv: Interval, index, m: int) -> tuple[int, int]:
    """(first, last) cell of iv on a grid of m points, where index(e) is
    the grid index g of a finite end e: a closed end is cell 2g+1, an open
    lower end 2g+2 and an open upper end 2g; an infinite end reaches the
    first or last cell."""
    if is_finite(iv.lo):
        g = index(iv.lo)
        c_lo = 2 * g + 1 if iv.lo_closed else 2 * g + 2
    else:
        c_lo = 0
    if is_finite(iv.hi):
        g = index(iv.hi)
        c_hi = 2 * g + 1 if iv.hi_closed else 2 * g
    else:
        c_hi = 2 * m
    return c_lo, c_hi


def cells_to_interval(grid: Sequence[Fraction], b: int, d: int) -> Interval:
    m = len(grid)
    if b == 0:
        lo, lo_closed = NEG_INF, False
    elif b % 2 == 1:
        lo, lo_closed = grid[(b - 1) // 2], True
    else:
        lo, lo_closed = grid[b // 2 - 1], False
    if d == 2 * m:
        hi, hi_closed = POS_INF, False
    elif d % 2 == 1:
        hi, hi_closed = grid[(d - 1) // 2], True
    else:
        hi, hi_closed = grid[d // 2], False
    return Interval(lo, hi, lo_closed, hi_closed)


def junction_dirs(o: Orientation, grid: Sequence[Fraction]) -> list[str]:
    """Direction of every junction of a strictly increasing grid, in one
    walk over the grid and ``o.segments``.  Junction j lies between cells j
    and j+1; it is "down" when its segment increases (maps run toward
    smaller reals).  The two junctions of a critical grid point lie in the
    segments on either side of it; the two of any other point lie in the
    segment that contains it."""
    pos, segs = o.positions, o.segments
    dirs = []
    i = 0  # number of critical points <= the current grid point
    for c in grid:
        while i < len(pos) and pos[i] <= c:
            i += 1
        left = segs[i - 1] if i and pos[i - 1] == c else segs[i]
        dirs += (DOWN if left.increasing else UP, DOWN if segs[i].increasing else UP)
    return dirs


def refined_cells(old: Sequence[Fraction], new: Sequence[Fraction]) -> list[int]:
    """For each cell of the sorted grid ``new``, which contains the sorted
    grid ``old``, the cell of ``old`` that contains it; one walk over
    ``new``."""
    where = {g: i for i, g in enumerate(old)}
    cells = [0]
    k = 0  # the open cell of old that the walk is in
    for p in new:
        i = where.get(p)
        if i is None:
            cells += (k, k)
        else:
            k = 2 * i + 2
            cells += (k - 1, k)
    return cells


def junction_cells(d: str, j: int) -> tuple[int, int]:
    """(source cell, target cell) of the map at junction j in direction d."""
    return (j + 1, j) if d == DOWN else (j, j + 1)


def check_grid_and_dims(o: Orientation, grid, dims) -> None:
    """Raise ValueError unless grid strictly increases, dims are one
    nonnegative dimension per cell of it, and every critical point of o
    inside the grid's hull is a grid point."""
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if len(dims) != num_cells(grid):
        raise ValueError(f"tame object needs {num_cells(grid)} dims for {len(grid)} grid points")
    if any(d < 0 for d in dims):
        raise ValueError("negative dimension")
    missing = _criticals_off_grid(o, grid)
    if missing:
        raise ValueError(f"critical point {missing[0]} inside the hull is missing from the grid")


def _criticals_off_grid(o: Orientation, grid) -> list[Fraction]:
    """The critical points of o inside the sorted grid's hull but off it, in order."""
    if not grid:
        return []
    on_grid = set(grid)
    return [p for p in o.positions if grid[0] <= p <= grid[-1] and p not in on_grid]


# ---------------------------------------------------------------------------
# the representation type

class TameRep:
    __slots__ = ("orientation", "field", "grid", "dims", "maps", "dirs")

    def __init__(self, orientation: Orientation, field, grid, dims, maps):
        self.orientation = orientation
        self.field = field
        self.grid = tuple(g if type(g) is Fraction else Fraction(g) for g in grid)
        self.dims = tuple(int(d) for d in dims)
        self.maps = tuple(maps)
        self.dirs = tuple(junction_dirs(orientation, self.grid))
        self._validate()

    def _validate(self):
        check_grid_and_dims(self.orientation, self.grid, self.dims)
        if len(self.maps) != 2 * len(self.grid):
            raise ValueError("need 2m junction maps")
        for j, (mat, d) in enumerate(zip(self.maps, self.dirs)):
            lo, hi = self.dims[j], self.dims[j + 1]
            shape = (lo, hi) if d == DOWN else (hi, lo)
            if (mat.nrows, mat.ncols) != shape:
                raise ValueError(f"junction {j} matrix shape {(mat.nrows, mat.ncols)} != {shape}")
            if mat.field != self.field:
                raise ValueError("matrix field mismatch")

    @property
    def ncells(self) -> int:
        return len(self.dims)

    def dim_at(self, x) -> int:
        return self.dims[cell_of_point(self.grid, x)]

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)

    def total_dim(self) -> int:
        return sum(self.dims)

    def __eq__(self, other):
        return (isinstance(other, TameRep)
                and self.orientation == other.orientation
                and self.field == other.field
                and self.grid == other.grid
                and self.dims == other.dims
                and self.maps == other.maps)

    def __repr__(self):
        return f"TameRep(grid={[str(g) for g in self.grid]}, dims={self.dims})"


def zero_rep(o: Orientation, field=QQ, grid: Sequence = ()) -> TameRep:
    grid = sorted(Fraction(g) for g in grid)
    grid = _close_under_criticals(o, grid)
    dims = [0] * num_cells(grid)
    maps = [Matrix.zero(field, 0, 0) for _ in range(2 * len(grid))]
    return TameRep(o, field, grid, dims, maps)


def _close_under_criticals(o: Orientation, grid: list[Fraction]) -> list[Fraction]:
    extra = _criticals_off_grid(o, grid)
    return sorted(set(grid).union(extra)) if extra else grid


def reps_on_common_grid(o: Orientation, groups: Sequence[Sequence[Interval]],
                        field=QQ) -> list[tuple[TameRep, list[list[int]]]]:
    """For each group of intervals, the direct sum of the one-dimensional
    representations supported on them, with identity transitions.  Every
    group gets the same grid: the finite endpoints of all the intervals
    plus each critical point inside the hull of all of them.  Returns, per
    group, the representation and, per cell, the list of the group's
    interval indices occupying its slots.  Each bar's ends are placed
    through one dict from grid point to index, and each junction map is
    read off a slot -> column dict of its source cell."""
    family = [iv for group in groups for iv in group]
    pts = {Fraction(e) for iv in family for e in (iv.lo, iv.hi) if is_finite(e)}
    if family:
        lo_h, hi_h = min(iv.lo for iv in family), max(iv.hi for iv in family)
        pts.update(p for p in o.positions if lo_h <= p <= hi_h)
    grid = sorted(pts)
    index = {g: i for i, g in enumerate(grid)}.__getitem__
    dirs = junction_dirs(o, grid)
    one, zero = field.one(), field.zero()
    out = []
    for group in groups:
        slots: list[list[int]] = [[] for _ in range(num_cells(grid))]
        for idx, iv in enumerate(group):
            a, b = _cell_range(iv, index, len(grid))
            for c in range(a, b + 1):
                slots[c].append(idx)
        dims = [len(s) for s in slots]
        columns = [{iv: col for col, iv in enumerate(s)} for s in slots]
        maps = []
        for j, d in enumerate(dirs):
            src, tgt = junction_cells(d, j)
            col_of, width = columns[src], dims[src]
            rows = []
            for iv in slots[tgt]:
                row = [zero] * width
                col = col_of.get(iv)
                if col is not None:
                    row[col] = one
                rows.append(row)
            maps.append(Matrix(field, dims[tgt], width, rows))
        out.append((TameRep(o, field, grid, dims, maps), slots))
    return out


def overlap_morphism(dom_pack, cod_pack, pairs) -> RepMorphism:
    """The morphism between two (representation, slots) packs of
    reps_on_common_grid that sends the dom group's interval i to the cod
    group's interval k with the scalar pairs[(i, k)] wherever both occupy a
    cell, and is zero elsewhere."""
    (dom, dom_slots), (cod, cod_slots) = dom_pack, cod_pack
    z = dom.field.zero()
    mats = [Matrix(dom.field, len(cod_slots[c]), len(dom_slots[c]),
                   [[pairs.get((i, k), z) for i in dom_slots[c]] for k in cod_slots[c]])
            for c in range(dom.ncells)]
    return RepMorphism(dom, cod, mats)


def from_bars(o: Orientation, bars: BarMultiset, field=QQ) -> TameRep:
    """The canonical representation of a barcode: one slot per bar copy, in
    canonical bar order."""
    (rep, _), = reps_on_common_grid(o, [bars.intervals()], field)
    return rep


def refine(v: TameRep, points: Iterable) -> TameRep:
    """Insert grid points (plus any critical points pulled into the hull);
    the representation is unchanged as a representation."""
    pts = sorted(set(v.grid) | {Fraction(p) for p in points})
    pts = _close_under_criticals(v.orientation, pts)
    if len(pts) == len(v.grid):  # pts contains v.grid
        return v
    cells = refined_cells(v.grid, pts)
    dims = [v.dims[c] for c in cells]
    maps = []
    for t in range(len(pts)):
        c = cells[2 * t + 1]
        if c % 2:
            # an old grid point keeps the maps at both of its junctions
            maps += v.maps[c - 1:c + 1]
        else:
            # a new point inside old cell c: identities on either side
            maps += (Matrix.identity(v.field, v.dims[c]), Matrix.identity(v.field, v.dims[c]))
    return TameRep(v.orientation, v.field, pts, dims, maps)


def common_grid(a: TameRep, b: TameRep) -> tuple[TameRep, TameRep]:
    if a.orientation != b.orientation:
        raise ValueError("orientation mismatch")
    if a.field != b.field:
        raise ValueError("field mismatch")
    pts = set(a.grid) | set(b.grid)
    return refine(a, pts), refine(b, pts)


def direct_sum(a: TameRep, b: TameRep) -> TameRep:
    a, b = common_grid(a, b)
    field = a.field
    dims = [da + db for da, db in zip(a.dims, b.dims)]
    maps = []
    for j in range(len(a.maps)):
        ma, mb = a.maps[j], b.maps[j]
        z = field.zero()
        rows = []
        for r in range(ma.nrows):
            rows.append(list(ma.rows[r]) + [z] * mb.ncols)
        for r in range(mb.nrows):
            rows.append([z] * ma.ncols + list(mb.rows[r]))
        maps.append(Matrix(field, ma.nrows + mb.nrows, ma.ncols + mb.ncols, rows))
    return TameRep(a.orientation, field, a.grid, dims, maps)


def dual(v: TameRep) -> TameRep:
    """Same spaces over the reversed orientation, where every junction runs
    the other way; every map is transposed."""
    maps = [m.transpose() for m in v.maps]
    return TameRep(reverse(v.orientation), v.field, v.grid, v.dims, maps)


def restrict(v: TameRep, j_iv: Interval) -> TameRep:
    """Zero outside the interval, unchanged inside; maps crossing the
    boundary become zero."""
    w = refine(v, [e for e in (j_iv.lo, j_iv.hi) if is_finite(e)])
    a, b = interval_to_cells(w.grid, j_iv)
    keep = [a <= c <= b for c in range(w.ncells)]
    dims = [d if k else 0 for d, k in zip(w.dims, keep)]
    maps = []
    for j in range(len(w.maps)):
        src, tgt = junction_cells(w.dirs[j], j)
        if keep[src] and keep[tgt]:
            maps.append(w.maps[j])
        else:
            maps.append(Matrix.zero(w.field, dims[tgt], dims[src]))
    return TameRep(w.orientation, w.field, w.grid, dims, maps)


def conjugate(v: TameRep, cell_mats: Sequence[Matrix]) -> TameRep:
    """Change basis at every cell by the given invertible matrices; the
    result is isomorphic to the input."""
    if len(cell_mats) != v.ncells:
        raise ValueError("need one matrix per cell")
    invs = [invert(g) for g in cell_mats]
    maps = []
    for j in range(len(v.maps)):
        src, tgt = junction_cells(v.dirs[j], j)
        maps.append(cell_mats[tgt].matmul(v.maps[j]).matmul(invs[src]))
    return TameRep(v.orientation, v.field, v.grid, v.dims, maps)


def scramble(v: TameRep, seed: int) -> TameRep:
    """Seeded random change of basis at every cell: a reproducible isomorphic
    copy with no distinguished slot structure left.  The result is
    ``conjugate(v, Ps)``, where cell c's P is the product of the operations
    ``random_elementary_ops(v.field, v.dims[c], rng)`` draws, cell by cell
    from ``rng = random.Random(seed)``, but each P is applied as its
    elementary operations, never formed: a junction map M becomes
    P_tgt M P_src^-1 by P_tgt's operations on M's rows, then P_src's
    inverse operations on its columns (``change_basis``).  Over Q these run
    on Python ints: M is multiplied by the lcm of its denominators, and the
    result divided by it once.  That is exact, because every operation has
    an integer coefficient and an integer inverse: adds by +-1 or +-2 (undone
    by the opposite add), swaps, and scalings by +-1.  The operations are
    drawn with ``getrandbits`` alone, in the stream ``randrange`` and
    ``choice`` would give (``linalg._below``), so a seed scrambles to the
    same bytes as it always has."""
    rng = random.Random(seed)
    field = v.field
    ops = [random_elementary_ops(field, d, rng) for d in v.dims]
    maps = []
    for j, m in enumerate(v.maps):
        src, tgt = junction_cells(v.dirs[j], j)
        rows = change_basis(field, m.rows, ops[tgt], ops[src])
        maps.append(Matrix(field, m.nrows, m.ncols, rows))
    return TameRep(v.orientation, field, v.grid, v.dims, maps)


# ---------------------------------------------------------------------------
# morphisms

class RepMorphism:
    """A cellwise family of matrices dom(x) -> cod(x) commuting with the
    junction maps.  dom and cod must live on the same grid."""

    __slots__ = ("dom", "cod", "mats")

    def __init__(self, dom: TameRep, cod: TameRep, mats: Sequence[Matrix],
                 validate: bool = True):
        if dom.grid != cod.grid or dom.orientation != cod.orientation or dom.field != cod.field:
            raise ValueError("morphism endpoints must share grid, orientation and field")
        if len(mats) != dom.ncells:
            raise ValueError("need one matrix per cell")
        for c, m in enumerate(mats):
            if (m.nrows, m.ncols) != (cod.dims[c], dom.dims[c]):
                raise ValueError(f"cell {c}: matrix shape {(m.nrows, m.ncols)} != "
                                 f"{(cod.dims[c], dom.dims[c])}")
        self.dom = dom
        self.cod = cod
        self.mats = list(mats)
        if validate and not self.commutes():
            raise ValueError("non-commuting squares: not a morphism")

    def commutes(self) -> bool:
        for j in range(len(self.dom.maps)):
            src, tgt = junction_cells(self.dom.dirs[j], j)
            lhs = self.mats[tgt].matmul(self.dom.maps[j])
            rhs = self.cod.maps[j].matmul(self.mats[src])
            if lhs != rhs:
                return False
        return True

    def compose(self, other: "RepMorphism") -> "RepMorphism":
        """self after other."""
        if other.cod is not self.dom and other.cod != self.dom:
            raise ValueError("composition mismatch")
        mats = [a.matmul(b) for a, b in zip(self.mats, other.mats)]
        return RepMorphism(other.dom, self.cod, mats, validate=False)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats)

    def power(self, n: int) -> "RepMorphism":
        if self.dom != self.cod:
            raise ValueError("power needs an endomorphism")
        out = identity_morphism(self.dom)
        for _ in range(n):
            out = self.compose(out)
        return out


def identity_morphism(v: TameRep) -> RepMorphism:
    return RepMorphism(v, v, [Matrix.identity(v.field, d) for d in v.dims], validate=False)


def _subrep_from_embeddings(parent: TameRep, embeds: list[Matrix]) -> TameRep:
    """Build the representation carried by cellwise subspaces (columns of
    embeds) that are closed under the junction maps."""
    field = parent.field
    dims = [e.ncols for e in embeds]
    maps = []
    for j in range(len(parent.maps)):
        src, tgt = junction_cells(parent.dirs[j], j)
        pushed = parent.maps[j].matmul(embeds[src])
        x = solve_matrix(embeds[tgt], pushed)
        if x is None:
            raise ValueError("subspaces are not closed under the maps")
        maps.append(x)
    return TameRep(parent.orientation, field, parent.grid, dims, maps)


def kernel_rep(f: RepMorphism) -> tuple[TameRep, list[Matrix]]:
    embeds = [kernel_basis(m) for m in f.mats]
    return _subrep_from_embeddings(f.dom, embeds), embeds


def image_rep(f: RepMorphism) -> tuple[TameRep, list[Matrix]]:
    embeds = [column_space_basis(m) for m in f.mats]
    return _subrep_from_embeddings(f.cod, embeds), embeds

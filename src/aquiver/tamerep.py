"""Tame representations: constant on the open cells of a finite grid.

A grid c_1 < ... < c_m cuts the line into 2m+1 cells
(-inf,c_1), {c_1}, (c_1,c_2), ..., {c_m}, (c_m,+inf).  A representation
stores one dimension per cell and one exact matrix per junction between
adjacent cells.  A junction's direction ("down" points toward the lower
cell index) is not stored input: the orientation forces it, and a
representation derives it from its orientation and grid (junction_dirs).
Transition maps inside a cell are identities, so the whole object is a
finite zigzag of vector spaces.

The tame JSON object (tame_to_json, tame_from_json) is {"grid": [...],
"dims": [one per cell], "maps": [{"dir": "down" or "up", "entries": rows
of dims[target] x dims[source] scalars}, one per junction]}.  Its reader
names the first fault in this order: a grid, dims or maps value that does
not parse ("bad tame object: ..."), grid order, dims count, a negative
dim, a missing critical point (check_grid_and_dims), the maps count, then
map by map: not an object, a "dir" not "down"/"up", a "dir" against the
orientation, the entries' shape, an entry the field does not read.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Iterable, Sequence

from .intervals import (MALFORMED, BarMultiset, Interval, NEG_INF, POS_INF, compare,
                        format_extreal, is_finite, parse_integer, parse_rational)
from .linalg import (Matrix, QQ, change_basis, column_space_basis, invert,
                     kernel_basis, random_elementary_ops, rank, solve_matrix)
from .orientation import Orientation, locate, reverse

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
    """Direction of every junction of a strictly increasing grid, from one
    locate per grid point.  Junction j lies between cells j and j+1; it is
    "down" when its segment increases (maps run toward smaller reals).  The
    two junctions of a critical grid point lie in the segments on either
    side of it; the two of any other point lie in the segment that
    contains it."""
    segs = o.segments
    dirs = []
    for c in grid:
        i, critical = locate(o, c)
        dirs += (DOWN if segs[i - critical].increasing else UP, DOWN if segs[i].increasing else UP)
    return dirs


def refined_cells(old: Sequence[Fraction], new: Sequence[Fraction]) -> list[int]:
    """For each cell of the sorted grid ``new``, which contains the sorted
    grid ``old``, the cell of ``old`` that contains it; one walk over both
    grids (intervals.compare)."""
    cells = [0]
    k = i = 0  # the open cell of old that the walk is in, and old's next point
    for p in new:
        if i < len(old) and compare(p, old[i]) == 0:
            i += 1
            k = 2 * i
            cells += (k - 1, k)
        else:
            cells += (k, k)
    return cells


def junction_cells(d: str, j: int) -> tuple[int, int]:
    """(source cell, target cell) of the map at junction j in direction d."""
    return (j + 1, j) if d == DOWN else (j, j + 1)


def check_grid_and_dims(o: Orientation, grid, dims) -> tuple[str, ...]:
    """Raise ValueError unless grid strictly increases, dims are one
    nonnegative dimension per cell of it, and every critical point of o
    inside the grid's hull is a grid point; then return the junction
    directions (junction_dirs).  A missing critical point is the first
    point where _grid's grid differs from grid."""
    if any(compare(a, b) >= 0 for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if len(dims) != num_cells(grid):
        raise ValueError(f"tame object needs {num_cells(grid)} dims for {len(grid)} grid points")
    if any(d < 0 for d in dims):
        raise ValueError("negative dimension")
    full, _ = _grid(o, grid)
    if len(full) > len(grid):
        missing = next(p for p, g in zip(full, grid) if compare(p, g))
        raise ValueError(f"critical point {missing} inside the hull is missing from the grid")
    return tuple(junction_dirs(o, grid))


def _grid(o: Orientation, ends) -> tuple[tuple[Fraction, ...], dict]:
    """The one grid rule: (grid, where) for a family of ends.  grid is the
    sorted, distinct finite ends plus every critical point of o inside
    their hull, which an infinite end stretches to its side; where maps
    each finite end's integer ratio to its grid index.  Ends and critical
    points are keyed as ints over the lcm of their denominators, so no
    Fraction is compared or hashed."""
    ratios, below, above = {}, False, False
    for e in ends:
        if is_finite(e):
            ratios[e.as_integer_ratio()] = e
        elif e < 0:
            below = True
        else:
            above = True
    crits = {p.as_integer_ratio(): p for p in o.positions}
    den = lcm(*{q for _, q in chain(ratios, crits)})
    point = {n * (den // q): e if type(e) is Fraction else Fraction(e)
             for (n, q), e in ratios.items()}
    # the hull's ends; with no finite end on a side it is empty there
    lo = NEG_INF if below else min(point, default=POS_INF)
    hi = POS_INF if above else max(point, default=NEG_INF)
    for (n, q), p in crits.items():
        if lo <= (k := n * (den // q)) <= hi:
            point.setdefault(k, p)
    keys = sorted(point)
    # from a list, not an iterator: CPython grows a tuple read from an
    # iterator, and freed grown tuples pile up in its per-size free lists
    grid = tuple([point[k] for k in keys])
    at = {k: i for i, k in enumerate(keys)}
    return grid, {(n, q): at[n * (den // q)] for n, q in ratios}


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
        self.dirs = check_grid_and_dims(orientation, self.grid, self.dims)
        self._check_maps()

    @classmethod
    def _on_checked_grid(cls, orientation: Orientation, field, grid: tuple, dims: tuple,
                         dirs: tuple, maps) -> "TameRep":
        """The representation with the given maps on a grid, dims and
        junction directions already checked (those of a validated
        representation, or built to pass the checks), taken as they are:
        only the maps' count, shapes and field are checked."""
        v = cls.__new__(cls)
        v.orientation, v.field, v.grid, v.dims, v.dirs = orientation, field, grid, dims, dirs
        v.maps = tuple(maps)
        v._check_maps()
        return v

    def _check_maps(self):
        if len(self.maps) != 2 * len(self.grid):
            raise ValueError("need 2m junction maps")
        for j, (mat, d) in enumerate(zip(self.maps, self.dirs)):
            src, tgt = junction_cells(d, j)
            shape = (self.dims[tgt], self.dims[src])
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


def reps_on_common_grid(o: Orientation, groups: Sequence[Sequence[Interval]],
                        field=QQ) -> list[tuple[TameRep, list[list[int]]]]:
    """For each group of intervals, the direct sum of the one-dimensional
    representations supported on them, with identity transitions.  Every
    group gets the same grid: the finite endpoints of all the intervals
    plus each critical point inside the hull of all of them (_grid, given
    every end of every interval).  Returns, per group, the representation
    and, per cell, the list of the group's interval indices occupying its
    slots.  Each bar's ends are placed through _grid's dict from integer
    ratio to grid index, and each junction map is read off a slot -> column
    dict of its source cell, as 0/1 integer rows over den 1.  The grid
    holds every critical point inside its hull, so it passes
    ``check_grid_and_dims`` by construction and is not checked again."""
    grid, where = _grid(o, [e for group in groups for iv in group for e in (iv.lo, iv.hi)])

    def index(e):
        return where[e.as_integer_ratio()]

    dirs = tuple(junction_dirs(o, grid))
    out = []
    for group in groups:
        slots: list[list[int]] = [[] for _ in range(num_cells(grid))]
        for idx, iv in enumerate(group):
            a, b = _cell_range(iv, index, len(grid))
            for c in range(a, b + 1):
                slots[c].append(idx)
        dims = tuple(len(s) for s in slots)
        columns = [{iv: col for col, iv in enumerate(s)} for s in slots]
        maps = []
        for j, d in enumerate(dirs):
            src, tgt = junction_cells(d, j)
            col_of, width = columns[src], dims[src]
            ints = []
            for iv in slots[tgt]:
                row = [0] * width
                col = col_of.get(iv)
                if col is not None:
                    row[col] = 1
                ints.append(row)
            maps.append(Matrix(field, dims[tgt], width, ints))
        out.append((TameRep._on_checked_grid(o, field, grid, dims, dirs, maps), slots))
    return out


def overlap_morphism(dom_pack, cod_pack, pairs) -> RepMorphism:
    """The morphism between two (representation, slots) packs of
    reps_on_common_grid that sends the dom group's interval i to the cod
    group's interval k with the int coefficient pairs[(i, k)] wherever both
    occupy a cell, and is zero elsewhere; over F_p the ints are reduced, so
    -1 is p - 1."""
    (dom, dom_slots), (cod, cod_slots) = dom_pack, cod_pack
    f = dom.field
    mats = [Matrix(f, len(ks), len(js), f.reduce_rows([[pairs.get((i, k), 0) for i in js]
                                                       for k in ks]))
            for js, ks in zip(dom_slots, cod_slots)]
    return RepMorphism(dom, cod, mats)


def from_bars(o: Orientation, bars: BarMultiset, field=QQ) -> TameRep:
    """The canonical representation of a barcode: one slot per bar copy, in
    canonical bar order."""
    (rep, _), = reps_on_common_grid(o, [bars.intervals()], field)
    return rep


def refine(v: TameRep, points: Iterable) -> TameRep:
    """Insert grid points, each read by Fraction(), plus the critical points
    pulled into the hull (_grid); the representation itself is unchanged."""
    o = v.orientation
    grid, _ = _grid(o, [*v.grid, *map(Fraction, points)])
    if len(grid) == len(v.grid):  # grid contains v.grid
        return v
    cells = refined_cells(v.grid, grid)
    dims = [v.dims[c] for c in cells]
    maps = []
    for t in range(len(grid)):
        c = cells[2 * t + 1]
        if c % 2:
            # an old grid point keeps the maps at both of its junctions
            maps += v.maps[c - 1:c + 1]
        else:
            # a new point inside old cell c: identities on either side
            maps += (Matrix.identity(v.field, v.dims[c]), Matrix.identity(v.field, v.dims[c]))
    # the grid holds its critical points, and dims are v's
    return TameRep._on_checked_grid(o, v.field, grid, tuple(dims),
                                    tuple(junction_dirs(o, grid)), maps)


def common_grid(a: TameRep, b: TameRep) -> tuple[TameRep, TameRep]:
    if a.orientation != b.orientation:
        raise ValueError("orientation mismatch")
    if a.field != b.field:
        raise ValueError("field mismatch")
    return refine(a, b.grid), refine(b, a.grid)


def dual(v: TameRep) -> TameRep:
    """Same spaces over the reversed orientation, where every segment and
    so every junction runs the other way; every map is transposed."""
    maps = [m.transpose() for m in v.maps]
    dirs = tuple(UP if d == DOWN else DOWN for d in v.dirs)
    return TameRep._on_checked_grid(reverse(v.orientation), v.field, v.grid, v.dims, dirs, maps)


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
    return TameRep._on_checked_grid(v.orientation, v.field, v.grid, v.dims, v.dirs, maps)


def scramble(v: TameRep, seed: int) -> TameRep:
    """Seeded random change of basis at every cell: a reproducible isomorphic
    copy with no distinguished slot structure left.  The result is
    ``conjugate(v, Ps)``, where cell c's P is the product of the operations
    ``random_elementary_ops(v.field, v.dims[c], rng)`` draws, cell by cell
    from ``rng = random.Random(seed)``, but each P is applied as its
    elementary operations, never formed: a junction map M becomes
    P_tgt M P_src^-1 by P_tgt's operations on M's rows, then P_src's
    inverse operations on its columns (``change_basis``).  These run on
    M's integer form, its integer rows over one denominator (``m.ints`` and
    ``m.den``), and each new map is built from the integer rows they give,
    over the same denominator; no scalar is divided.
    Over Q that is exact, because every operation has an integer
    coefficient and an integer inverse: adds by +-1 or +-2 (undone by the
    opposite add), swaps, and scalings by +-1.  The copy keeps v's grid,
    dims and junction directions, which v has validated, and checks only
    its maps.  The operations are drawn with ``getrandbits`` alone, in the
    stream ``randrange`` and ``choice`` would give (``linalg._below``), so
    a seed scrambles to the same bytes as it always has."""
    rng = random.Random(seed)
    field = v.field
    ops = [random_elementary_ops(field, d, rng) for d in v.dims]
    maps = []
    for j, m in enumerate(v.maps):
        src, tgt = junction_cells(v.dirs[j], j)
        ints, den = change_basis(field, m.ints, m.den, ops[tgt], ops[src])
        maps.append(Matrix(field, m.nrows, m.ncols, ints, den))
    return TameRep._on_checked_grid(v.orientation, field, v.grid, v.dims, v.dirs, maps)


# ---------------------------------------------------------------------------
# the tame JSON object

def tame_to_json(v: TameRep) -> dict:
    return {"grid": [format_extreal(g) for g in v.grid], "dims": list(v.dims),
            "maps": [{"dir": d, "entries": m.to_json()} for m, d in zip(v.maps, v.dirs)]}


def _array(obj, key: str) -> list:
    x = obj[key]
    if not isinstance(x, list):
        raise TypeError(f"{key} must be a JSON array")
    return x


def tame_from_json(o: Orientation, obj: dict, field) -> TameRep:
    """The TameRep a tame JSON object spells over field; ValueError names
    the first fault, in the module docstring's order.  Each map is integer
    rows over the lcm of its entries' denominators, read through one entry
    table per document: a distinct string is parsed once, at its first
    occurrence (so errors keep document order), into table (str -> (n, q))
    and, when q is 1, into whole (str -> n).  A map whose distinct entries
    are all in whole reads its rows off whole over den 1; a map holding a
    non-string parses each entry, since 1 and 1.0 are equal keys."""
    try:
        grid = tuple(parse_rational(s) for s in _array(obj, "grid"))
        dims = tuple(parse_integer(d) for d in _array(obj, "dims"))
        maps_json = _array(obj, "maps")
    except MALFORMED as e:
        raise ValueError(f"bad tame object: {e}")
    dirs = check_grid_and_dims(o, grid, dims)
    if len(maps_json) != 2 * len(grid):
        raise ValueError(f"tame object needs {2 * len(grid)} maps")
    parse, flat = field.parse, chain.from_iterable
    table, whole = {}, {}

    def ratio(x):
        if type(x) is not str:
            return parse(x).as_integer_ratio()
        y = table.get(x)
        if y is None:
            y = table[x] = parse(x).as_integer_ratio()
            if y[1] == 1:
                whole[x] = y[0]
        return y

    maps = []
    for j, (mj, want) in enumerate(zip(maps_json, dirs)):
        if not isinstance(mj, dict):
            raise ValueError(f"map {j} must be a JSON object")
        d = mj.get("dir")
        if d not in (DOWN, UP):
            raise ValueError(f"map {j}: dir must be 'down' or 'up'")
        if d != want:
            raise ValueError(f"junction {j} direction {d!r} contradicts the orientation ({want!r})")
        src, tgt = junction_cells(d, j)
        nrows, ncols = dims[tgt], dims[src]
        entries = mj.get("entries", [])
        if (not isinstance(entries, list) or len(entries) != nrows
                or any(not isinstance(r, list) or len(r) != ncols for r in entries)):
            raise ValueError(f"map {j}: entries must be {nrows}x{ncols}")
        keyed = {str}.issuperset(map(type, flat(entries)))
        distinct = dict.fromkeys(flat(entries)) if keyed else flat(entries)
        try:
            if keyed:
                for x in distinct:
                    if x not in table:
                        ratio(x)
                if distinct.keys() <= whole.keys():
                    rows = [list(map(whole.__getitem__, r)) for r in entries]
                    maps.append(Matrix(field, nrows, ncols, rows))
                    continue
            ratios = {x: ratio(x) for x in distinct}
        except MALFORMED as e:
            raise ValueError(f"map {j}: {e}")
        den = lcm(*{q for _, q in ratios.values()})
        scaled = {x: n * (den // q) for x, (n, q) in ratios.items()}
        maps.append(Matrix(field, nrows, ncols, [[scaled[x] for x in r] for r in entries], den))
    return TameRep._on_checked_grid(o, field, grid, dims, dirs, maps)


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


def is_short_exact(f: RepMorphism, g: RepMorphism) -> bool:
    """Whether 0 -> A -f-> B -g-> C -> 0 is exact: on every cell rank f is
    dim A, rank g is dim C and dim B - rank g is rank f, and g f = 0, so
    f is injective, g is onto and the image of f is the kernel of g."""
    a, b, c = f.dom.dims, f.cod.dims, g.cod.dims
    for k, (fm, gm) in enumerate(zip(f.mats, g.mats)):
        fr, gr = rank(fm), rank(gm)
        if fr != a[k] or gr != c[k] or b[k] - gr != fr:
            return False
    return g.compose(f).is_zero()


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
    return TameRep._on_checked_grid(parent.orientation, field, parent.grid, tuple(dims),
                                    parent.dirs, maps)


def kernel_rep(f: RepMorphism) -> tuple[TameRep, list[Matrix]]:
    embeds = [kernel_basis(m) for m in f.mats]
    return _subrep_from_embeddings(f.dom, embeds), embeds


def image_rep(f: RepMorphism) -> tuple[TameRep, list[Matrix]]:
    embeds = [column_space_basis(m) for m in f.mats]
    return _subrep_from_embeddings(f.cod, embeds), embeds

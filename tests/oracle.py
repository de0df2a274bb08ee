"""Independent references: a decomposer that cross-checks the sweep, and
the dense Hom space that hom_space_dim is checked against.

hom_basis solves the commuting-square equations between two
representations from scratch; it is the one such system in the project,
since the library reads Hom off barcodes.  The decomposer finds split
idempotents by analyzing the endomorphism algebra directly: first Fitting
splittings along each basis endomorphism, then (over F_2) an exhaustive
scan of the whole algebra for an idempotent.  A summand with no
nontrivial idempotent is verified to be pointwise one-dimensional with
connected support and nonzero in-support maps, and contributes its
support interval.  No code from the sweep decomposer, nor from the
interval-level Hom rules, is involved.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from aquiver.intervals import BarMultiset
from aquiver.linalg import Matrix, PrimeField, kernel_basis
from aquiver.orientation import Orientation
from aquiver.tamerep import (DOWN, UP, RepMorphism, TameRep, cells_to_interval,
                             common_grid, image_rep, kernel_rep)

F2 = PrimeField(2)


def hom_basis(v: TameRep, w: TameRep) -> list[RepMorphism]:
    """Basis of the morphisms v -> w, by solving the commuting-square
    equations from scratch on a common grid: cellwise X_c: v_c -> w_c with
    X_tgt v_j = w_j X_src at every junction j.  The unknowns are the
    entries of X_0, X_1, ... row by row."""
    v, w = common_grid(v, w)
    field = v.field
    offs, total = [], 0
    for c in range(v.ncells):
        offs.append(total)
        total += w.dims[c] * v.dims[c]
    rows = []
    z = field.zero()
    for j, (mv, mw) in enumerate(zip(v.maps, w.maps)):
        d = v.dirs[j]
        src, tgt = (j + 1, j) if d == DOWN else (j, j + 1)
        for r in range(w.dims[tgt]):
            for cc in range(v.dims[src]):
                row = [z] * total
                for s in range(v.dims[tgt]):
                    coef = mv.rows[s][cc]
                    if coef != z:
                        idx = offs[tgt] + r * v.dims[tgt] + s
                        row[idx] = field.add(row[idx], coef)
                for s in range(w.dims[src]):
                    coef = mw.rows[r][s]
                    if coef != z:
                        idx = offs[src] + s * v.dims[src] + cc
                        row[idx] = field.sub(row[idx], coef)
                rows.append(row)
    ker = kernel_basis(Matrix(field, len(rows), total, rows))
    out = []
    for col in (ker.column(j) for j in range(ker.ncols)):
        mats = []
        for c in range(v.ncells):
            nr, nc = w.dims[c], v.dims[c]
            base = offs[c]
            mats.append(Matrix(field, nr, nc,
                               [[col[base + r * nc + s] for s in range(nc)]
                                for r in range(nr)]))
        out.append(RepMorphism(v, w, mats, validate=False))
    return out


def _is_identity(phi: RepMorphism) -> bool:
    return all(m == Matrix.identity(m.field, m.nrows) for m in phi.mats)


def _split_once(v: TameRep) -> tuple[TameRep, TameRep] | None:
    basis = hom_basis(v, v)  # the endomorphism algebra
    n = v.total_dim()
    for phi in basis:
        psi = phi.power(n)
        ker, _ = kernel_rep(psi)
        if 0 < ker.total_dim() < n:
            im, _ = image_rep(psi)
            return ker, im
    # exhaustive idempotent scan; only feasible over F_2
    if v.field != F2:
        raise RuntimeError("exhaustive idempotent scan requires F_2")
    e = len(basis)
    if e > 18:
        raise RuntimeError(f"endomorphism algebra too large for the oracle ({e})")
    for coeffs in itertools.product((0, 1), repeat=e):
        if not any(coeffs):
            continue
        mats = [Matrix.zero(F2, d, d) for d in v.dims]
        for c_i, phi in zip(coeffs, basis):
            if c_i:
                mats = [a.add(b) for a, b in zip(mats, phi.mats)]
        phi = RepMorphism(v, v, mats, validate=False)
        if _is_identity(phi):
            continue
        if all(m.matmul(m) == m for m in phi.mats):
            ker, _ = kernel_rep(phi)
            if 0 < ker.total_dim() < n:
                im, _ = image_rep(phi)
                return ker, im
    return None


def _leaf_interval(v: TameRep):
    nz = [i for i, d in enumerate(v.dims) if d > 0]
    assert nz, "zero summand reached the leaf case"
    assert all(v.dims[i] == 1 for i in nz), "indecomposable with a fat cell"
    assert nz[-1] - nz[0] + 1 == len(nz), "indecomposable with disconnected support"
    for j in range(nz[0], nz[-1]):
        assert not v.maps[j].is_zero(), "indecomposable with a zero in-support map"
    return cells_to_interval(v.grid, nz[0], nz[-1])


def oracle_decompose(v: TameRep) -> BarMultiset:
    out = []
    stack = [v]
    while stack:
        w = stack.pop()
        if w.total_dim() == 0:
            continue
        split = _split_once(w)
        if split is None:
            out.append(_leaf_interval(w))
        else:
            stack.extend(split)
    return BarMultiset.from_intervals(out)


# ---------------------------------------------------------------------------
# exhaustive instance stream for the parity check

def _orientations_over(grid: list[Fraction]) -> list[Orientation]:
    out = []
    n = len(grid)
    masks = sorted(range(1, 2 ** n), key=lambda m: (-bin(m).count("1"), m))
    for mask in masks:
        pts = [grid[i] for i in range(n) if mask & (1 << i)]
        for first in ("sink", "source"):
            kinds = [first if i % 2 == 0 else ("source" if first == "sink" else "sink")
                     for i in range(len(pts))]
            out.append(Orientation.make(list(zip(pts, kinds))))
    for direction in ("descending", "ascending"):
        out.append(Orientation.make([], direction))
    return out


def increasing_beside(o: Orientation, x, side: str) -> bool:
    """Does the order increase on the stretch just left ("left") or just
    right of x?  Read from the raw critical points alone: the stretch
    increases when the nearest critical point behind it is a sink, or,
    with none behind it, when the nearest one ahead is a source."""
    if side == "left":
        behind = [k for p, k in o.criticals if p < x]
        ahead = [k for p, k in o.criticals if p >= x]
    else:
        behind = [k for p, k in o.criticals if p <= x]
        ahead = [k for p, k in o.criticals if p > x]
    if behind:
        return behind[-1] == "sink"
    if ahead:
        return ahead[0] == "source"
    return o.empty_direction == "descending"


def _junction_direction(o: Orientation, grid, j: int) -> str:
    """Direction of junction j, read off the stretch on its side of the
    grid point."""
    side = "left" if j % 2 == 0 else "right"
    return DOWN if increasing_beside(o, grid[j // 2], side) else UP


def _all_matrices(field, nrows: int, ncols: int):
    if nrows * ncols == 0:
        yield Matrix(field, nrows, ncols, [[] for _ in range(nrows)])
        return
    scalars = [field.from_int(i) for i in range(field.p)]
    for flat in itertools.product(scalars, repeat=nrows * ncols):
        rows = [list(flat[r * ncols:(r + 1) * ncols]) for r in range(nrows)]
        yield Matrix(field, nrows, ncols, rows)


def enumerate_f2_instances(budget: int, max_grid: int = 3, max_dim: int = 2):
    """Deterministic stream of small F_2 representations: every orientation
    over the first grids, every dimension profile, every junction matrix,
    until the budget runs out."""
    count = 0
    for ngrid in range(1, max_grid + 1):
        grid = [Fraction(i) for i in range(ngrid)]
        for o in _orientations_over(grid):
            dirs = [_junction_direction(o, grid, j) for j in range(2 * ngrid)]
            ncell = 2 * ngrid + 1
            for dims in itertools.product(range(max_dim + 1), repeat=ncell):
                shapes = []
                for j, d in enumerate(dirs):
                    lo, hi = dims[j], dims[j + 1]
                    shapes.append((lo, hi) if d == DOWN else (hi, lo))
                pools = [list(_all_matrices(F2, nr, nc)) for nr, nc in shapes]
                for mats in itertools.product(*pools):
                    yield TameRep(o, F2, grid, dims, list(mats))
                    count += 1
                    if count >= budget:
                        return

"""Exact dense linear algebra over the rationals and prime fields.

Everything here is bit-exact: rationals are ``fractions.Fraction`` and
prime-field elements are ints in ``range(p)``.  No floating point enters
anywhere.  Matrices are small (desk scale), so plain row-list Gaussian
elimination is the right tool.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


class RationalField:
    """The field of rationals; scalars are Fraction."""

    kind = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n: int):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def parse(self, s: str):
        return Fraction(s)

    def format(self, a) -> str:
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """F_p for a prime p; scalars are ints reduced mod p."""

    kind = "Fp"

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"not a prime: {p}")
        self.p = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def parse(self, s: str):
        return int(s) % self.p

    def format(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


class Matrix:
    """Immutable-by-convention dense matrix over a field.

    ``rows`` is a list of row lists.  Zero-row / zero-column matrices are
    legal and show up constantly (zero-dimensional cells).
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, nrows: int, ncols: int, rows):
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError("inconsistent matrix shape")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @staticmethod
    def from_rows(field, rows: Sequence[Sequence]) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return Matrix(field, len(rows), ncols, rows)

    @staticmethod
    def zero(field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero()
        return Matrix(field, nrows, ncols, [[z] * ncols for _ in range(nrows)])

    @staticmethod
    def identity(field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return Matrix(field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(field, dim: int, cols: Sequence[Sequence]) -> "Matrix":
        rows = [[col[i] for col in cols] for i in range(dim)]
        return Matrix(field, dim, len(cols), rows)

    def column(self, j: int) -> list:
        return [r[j] for r in self.rows]

    def columns(self) -> list:
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.ncols, self.nrows,
                      [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matmul")
        f = self.field
        z = f.zero()
        out = []
        for i in range(self.nrows):
            arow = self.rows[i]
            orow = []
            for j in range(other.ncols):
                acc = z
                for k in range(self.ncols):
                    a = arow[k]
                    if a != z:
                        acc = f.add(acc, f.mul(a, other.rows[k][j]))
                orow.append(acc)
            out.append(orow)
        return Matrix(f, self.nrows, other.ncols, out)

    def apply(self, vec: Sequence) -> list:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        f = self.field
        z = f.zero()
        out = []
        for row in self.rows:
            acc = z
            for a, x in zip(row, vec):
                if a != z and x != z:
                    acc = f.add(acc, f.mul(a, x))
            out.append(acc)
        return out

    def add(self, other: "Matrix") -> "Matrix":
        f = self.field
        return Matrix(f, self.nrows, self.ncols,
                      [[f.add(a, b) for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix(f, self.nrows, self.ncols, [[f.mul(c, a) for a in r] for r in self.rows])

    def is_zero(self) -> bool:
        z = self.field.zero()
        return all(a == z for r in self.rows for a in r)

    def copy_rows(self) -> list:
        return [list(r) for r in self.rows]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, {self.rows!r})"


def _row_echelon(field, rows: list) -> tuple[list, list]:
    """In-place reduction to reduced row echelon form; returns
    (rows, pivot column list).  Skips zero entries aggressively, since the
    commuting-square systems this feeds on are sparse."""
    z = field.zero()
    one = field.one()
    mul, sub, inv_ = field.mul, field.sub, field.inv
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c] != z:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        row_r = rows[r]
        if row_r[c] != one:
            inv = inv_(row_r[c])
            for idx in range(c, ncols):
                if row_r[idx] != z:
                    row_r[idx] = mul(inv, row_r[idx])
        for i in range(nrows):
            if i == r:
                continue
            factor = rows[i][c]
            if factor == z:
                continue
            row_i = rows[i]
            for idx in range(c, ncols):
                b = row_r[idx]
                if b != z:
                    row_i[idx] = sub(row_i[idx], mul(factor, b))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(m: Matrix) -> int:
    _, pivots = _row_echelon(m.field, m.copy_rows())
    return len(pivots)


def kernel_basis(m: Matrix) -> Matrix:
    """Columns span ker(m); satisfies m @ K = 0 and ncols(K) = ncols(m) - rank(m)."""
    f = m.field
    rows, pivots = _row_echelon(f, m.copy_rows())
    z, o = f.zero(), f.one()
    free = [c for c in range(m.ncols) if c not in pivots]
    cols = []
    for fc in free:
        vec = [z] * m.ncols
        vec[fc] = o
        for r, pc in enumerate(pivots):
            vec[pc] = f.neg(rows[r][fc])
        cols.append(vec)
    return Matrix.from_columns(f, m.ncols, cols)


def solve_linear_system(a: Matrix, b: Sequence) -> tuple[Optional[list], int]:
    """Solve a x = b.  Returns (one solution or None, kernel dimension)."""
    if len(b) != a.nrows:
        raise ValueError("rhs length mismatch")
    f = a.field
    z = f.zero()
    aug = [row + [bv] for row, bv in zip(a.copy_rows(), b)]
    if not aug:
        return ([z] * a.ncols, a.ncols)
    rows, pivots = _row_echelon(f, aug)
    nullity = a.ncols - len([p for p in pivots if p < a.ncols])
    for r, pc in enumerate(pivots):
        if pc == a.ncols:
            return (None, nullity)
    sol = [z] * a.ncols
    for r, pc in enumerate(pivots):
        sol[pc] = rows[r][a.ncols]
    return (sol, nullity)


def solve_matrix(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """Solve a X = b columnwise; None if any column is inconsistent."""
    if a.nrows != b.nrows:
        raise ValueError("shape mismatch")
    f = a.field
    z = f.zero()
    aug = [arow + brow for arow, brow in zip(a.copy_rows(), b.copy_rows())]
    if not aug:
        return Matrix.zero(f, a.ncols, b.ncols)
    rows, pivots = _row_echelon(f, aug)
    for r, pc in enumerate(pivots):
        if pc >= a.ncols:
            return None
    out = [[z] * b.ncols for _ in range(a.ncols)]
    for r, pc in enumerate(pivots):
        for j in range(b.ncols):
            out[pc][j] = rows[r][a.ncols + j]
    return Matrix(f, a.ncols, b.ncols, out)


def column_space_basis(m: Matrix) -> Matrix:
    """Columns form a basis of the column space (a subset of m's columns)."""
    f = m.field
    keep = []
    ech: list = []
    for j in range(m.ncols):
        col = m.column(j)
        if _reduce_against(f, ech, col) is not None:
            keep.append(col)
    return Matrix.from_columns(f, m.nrows, keep)


def _reduce_against(field, ech: list, vec: Sequence) -> Optional[list]:
    """Reduce vec against an echelon list of (pivot index, row); if a nonzero
    residual remains, insert it and return it, else return None."""
    z = field.zero()
    v = list(vec)
    for piv, row in ech:
        if v[piv] != z:
            c = v[piv]
            v = [field.sub(a, field.mul(c, b)) for a, b in zip(v, row)]
    for i, a in enumerate(v):
        if a != z:
            inv = field.inv(a)
            v = [field.mul(inv, x) for x in v]
            ech.append((i, v))
            ech.sort(key=lambda t: t[0])
            return v
    return None


class SpanTracker:
    """Incremental independence oracle over a fixed ambient dimension."""

    def __init__(self, field):
        self.field = field
        self._ech: list = []

    def try_add(self, vec: Sequence) -> bool:
        return _reduce_against(self.field, self._ech, vec) is not None

    @property
    def dim(self) -> int:
        return len(self._ech)


def invert(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise ValueError("not square")
    out = solve_matrix(m, Matrix.identity(m.field, m.nrows))
    if out is None:
        raise ValueError("singular matrix")
    return out


def bottom_column_echelon(field, cols: list) -> list[int]:
    """Column-reduce (in place) so each column has a distinct lowest nonzero
    row; returns the list of those pivot rows (parallel to cols).

    Columns must be independent.  Used to refine a flag against a subspace.
    """
    z = field.zero()
    used: dict[int, int] = {}
    pivots = [-1] * len(cols)
    for j in range(len(cols)):
        col = cols[j]
        while True:
            low = -1
            for i in range(len(col) - 1, -1, -1):
                if col[i] != z:
                    low = i
                    break
            if low == -1:
                raise ValueError("dependent columns in bottom_column_echelon")
            if low not in used:
                inv = field.inv(col[low])
                if col[low] != field.one():
                    col = [field.mul(inv, a) for a in col]
                cols[j] = col
                used[low] = j
                pivots[j] = low
                break
            other = cols[used[low]]
            c = col[low]
            col = [field.sub(a, field.mul(c, b)) for a, b in zip(col, other)]
    return pivots


def random_invertible(field, n: int, rng) -> Matrix:
    """Seeded random invertible matrix built from elementary operations, so
    entries stay small and the result is exactly invertible."""
    rows = Matrix.identity(field, n).copy_rows()
    if n == 0:
        return Matrix(field, 0, 0, [])
    if field.kind == "Q":
        coeffs = [Fraction(c) for c in (-2, -1, 1, 2)]
    else:
        coeffs = [field.from_int(c) for c in range(1, field.p)]
    for _ in range(2 * n + 2):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice(coeffs)
            rows[i] = [field.add(a, field.mul(c, b)) for a, b in zip(rows[i], rows[j])]
        elif op == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            c = rng.choice(coeffs) if field.kind != "Q" else Fraction(rng.choice((-1, 1)))
            rows[i] = [field.mul(c, a) for a in rows[i]]
    return Matrix(field, n, n, rows)

"""Exact dense linear algebra over the rationals and prime fields.

Everything here is bit-exact: rationals are ``fractions.Fraction`` and
prime-field elements are ints in ``range(p)``.  No floating point enters
anywhere.  Matrices are dense row lists.  ``_row_echelon`` is the one
elimination routine behind every rank, kernel, solve, column-space basis
and unit-vector completion; ``bottom_column_echelon``, the decomposition
sweep's column reduction, is the one other.  Over Q both run on integer
vectors, each scaled to a primitive vector of Python ints (``_primitive``)
and eliminated by cross-multiplying and dividing by the content gcd
(``_eliminate``); they convert back to Fractions only at the end, which
spares a gcd per scalar operation.  The other arithmetic (elimination over
F_p, products) runs inside one row operation per field,
``field.axpy(dst, c, pairs)``, which adds c times a sparse row, given as
its nonzero (column, value) pairs, to a dense row.  Elimination over F_p
collects each pivot row's nonzero pairs once, so every other row touches
only those columns; products collect the nonzero pairs of the right
factor's rows.  Zero tests are truthiness tests: a Fraction or an int is
falsy exactly at zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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

    def axpy(self, dst, c, pairs):
        """dst[j] += c * b for each (j, b) in pairs."""
        for j, b in pairs:
            dst[j] += c * b

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


# Miller-Rabin with the first twelve primes as bases is exact below
# 318665857834031151167461, the least strong pseudoprime to all twelve
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_PRIME = 318665857834031151167460


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= n <= MAX_PRIME."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p for a prime p <= MAX_PRIME; scalars are ints reduced mod p."""

    kind = "Fp"

    def __init__(self, p: int):
        if p > MAX_PRIME:
            raise ValueError(f"prime too large: p must be at most {MAX_PRIME}")
        if not _is_prime(p):
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

    def axpy(self, dst, c, pairs):
        """dst[j] = (dst[j] + c * b) mod p for each (j, b) in pairs."""
        p = self.p
        for j, b in pairs:
            dst[j] = (dst[j] + c * b) % p

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
        other_pairs = [[(j, b) for j, b in enumerate(row) if b] for row in other.rows]
        out = []
        for arow in self.rows:
            orow = [z] * other.ncols
            for k, a in enumerate(arow):
                if a:
                    f.axpy(orow, a, other_pairs[k])
            out.append(orow)
        return Matrix(f, self.nrows, other.ncols, out)

    def add(self, other: "Matrix") -> "Matrix":
        f = self.field
        return Matrix(f, self.nrows, self.ncols,
                      [[f.add(a, b) for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix(f, self.nrows, self.ncols, [[f.mul(c, a) for a in r] for r in self.rows])

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.rows)

    def copy_rows(self) -> list:
        return [list(r) for r in self.rows]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, {self.rows!r})"


def _to_unit(field, row: list, lead: int, pairs: list) -> list:
    """Scale row in place so that row[lead] becomes one; pairs are its
    nonzero (index, value) pairs, and the scaled pairs are returned."""
    one = field.one()
    if row[lead] == one:
        return pairs
    # row += (1/row[lead] - 1) * row
    field.axpy(row, field.sub(field.inv(row[lead]), one), pairs)
    return [(j, row[j]) for j, _ in pairs]


def _row_echelon(field, rows: list) -> tuple[list, list]:
    """Reduced row echelon form of rows (which it may change); returns
    (rows, pivot column list).  Over F_p each pivot row's nonzero entries
    are collected once, so eliminating it from another row costs one row
    operation over those entries only.  Over Q the work runs on integer
    rows (``_integer_rref``)."""
    if field.kind == "Q":
        return _integer_rref(rows)
    neg, axpy = field.neg, field.axpy
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        row_r = rows[r]
        pairs = _to_unit(field, row_r, c, [(j, b) for j in range(c, ncols) if (b := row_r[j])])
        for row in [row for row in rows if row[c]]:
            if row is not row_r:
                axpy(row, neg(row[c]), pairs)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


_ZERO = Fraction(0)


def _primitive(row: list) -> list:
    """row (Fractions or ints) scaled by a nonzero rational to a primitive
    integer row, one of Python ints with content gcd 1 (or all zero)."""
    dens = [x.denominator for x in row]
    den = lcm(*dens)
    if den == 1:
        irow = [x.numerator for x in row]
    else:
        irow = [x.numerator * (den // d) for x, d in zip(row, dens)]
    g = gcd(*irow)
    return [x // g for x in irow] if g > 1 else irow


def _eliminate(row: list, prow: list, a: int, p: int) -> list:
    """The primitive integer row p' * row - a' * prow, where p' / a' is
    p / a in lowest terms: row less a / p times prow, up to a nonzero
    scalar, so that an entry where row holds a and prow holds p becomes 0."""
    g = gcd(p, a)
    pg, ag = p // g, a // g
    row = [pg * x - ag * y for x, y in zip(row, prow)]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_rref(rows: list) -> tuple[list, list]:
    """``_row_echelon`` over Q without a Fraction in the loop.  Each row is
    scaled to a primitive integer row (one with content gcd 1); eliminating
    with pivot p replaces a row by p' * row - a' * pivot_row, where
    p' / a' is p / a in lowest terms, and divides it by its content.  The
    pivot rows are divided by their pivots, back into Fractions, at the
    end.  The reduced form is unique, so it equals the Fraction one."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    ints = [_primitive(row) for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if ints[i][c]), None)
        if pr is None:
            continue
        ints[r], ints[pr] = ints[pr], ints[r]
        prow = ints[r]
        p = prow[c]
        for i, row in enumerate(ints):
            a = row[c]
            if a and i != r:
                ints[i] = _eliminate(row, prow, a, p)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = [[Fraction(x, row[c]) if x else _ZERO for x in row]
           for row, c in zip(ints, pivots)]
    out.extend([_ZERO] * ncols for _ in range(nrows - r))
    return out, pivots


def rank(m: Matrix) -> int:
    _, pivots = _row_echelon(m.field, m.copy_rows())
    return len(pivots)


def kernel_basis(m: Matrix) -> Matrix:
    """Columns span ker(m); satisfies m @ K = 0 and ncols(K) = ncols(m) - rank(m)."""
    f = m.field
    rows, pivots = _row_echelon(f, m.copy_rows())
    z, o = f.zero(), f.one()
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
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
    """Columns form a basis of the column space: m's columns at the pivots
    of its reduced row echelon form, which are the columns a greedy left to
    right scan keeps."""
    _, pivots = _row_echelon(m.field, m.copy_rows())
    return Matrix.from_columns(m.field, m.nrows, [m.column(j) for j in pivots])


def unit_complement(field, cols: Sequence[Sequence], d: int) -> list[int]:
    """Indices i of the unit vectors e_i that a greedy scan of cols, then
    e_0, ..., e_{d-1}, keeps: those completing a basis of the span of cols
    to the whole d-dimensional space.  Those are the pivots at or past
    len(cols) of the reduced [cols | I_d], less len(cols).  The scan skips
    e_i exactly when some vector of the span has its last nonzero entry at
    i, and those last entries are the pivots of the reduced cols with their
    coordinates reversed, which spares eliminating the identity block."""
    _, pivots = _row_echelon(field, [list(reversed(col)) for col in cols])
    last = {d - 1 - p for p in pivots}
    return [i for i in range(d) if i not in last]


def invert(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise ValueError("not square")
    out = solve_matrix(m, Matrix.identity(m.field, m.nrows))
    if out is None:
        raise ValueError("singular matrix")
    return out


def _last_nonzero(col: list) -> int:
    return next((i for i in range(len(col) - 1, -1, -1) if col[i]), -1)


def bottom_column_echelon(field, cols: list) -> list[int]:
    """Column-reduce (in place), left to right, so that each column has a
    distinct lowest nonzero row, there equal to one; returns the list of
    those pivot rows (parallel to cols).  A column in the span of the
    earlier ones reduces to zero and gets pivot -1.  Over Q the columns are
    reduced as primitive integer columns (``_primitive``, ``_eliminate``)
    and divided by their pivots, back into Fractions, at the end; each
    integer column is a nonzero multiple of the Fraction one, so the result
    is the same."""
    if field.kind == "Q":
        return _integer_bottom_echelon(cols)
    used: dict[int, list] = {}  # pivot row -> nonzero pairs of its column
    pivots = [-1] * len(cols)
    for j, col in enumerate(cols):
        while (low := _last_nonzero(col)) != -1:
            if low not in used:
                used[low] = _to_unit(field, col, low, [(i, a) for i, a in enumerate(col) if a])
                pivots[j] = low
                break
            field.axpy(col, field.neg(col[low]), used[low])
    return pivots


def _integer_bottom_echelon(cols: list) -> list[int]:
    """``bottom_column_echelon`` over Q without a Fraction in the loop."""
    used: dict[int, list] = {}  # pivot row -> its primitive integer column
    pivots = [-1] * len(cols)
    for j, col in enumerate(cols):
        icol = _primitive(col)
        p = 1
        while (low := _last_nonzero(icol)) != -1:
            if low not in used:
                used[low] = icol
                pivots[j], p = low, icol[low]
                break
            prow = used[low]
            icol = _eliminate(icol, prow, icol[low], prow[low])
        col[:] = [Fraction(x, p) if x else _ZERO for x in icol]
    return pivots


# the kinds of elementary row operation: row_i += c * row_k, swap rows i
# and k, row_i *= c
_ADD, _SWAP, _SCALE = 0, 1, 2


def random_elementary_ops(field, n: int, rng) -> list[tuple]:
    """2n+2 seeded elementary row operations on n rows, each (op, i, k, c):
    additions with c in {+-1, +-2} over Q and any unit over F_p, swaps, and
    scalings by +-1 over Q and by any unit over F_p.  The one definition of
    the draw behind ``random_invertible`` and ``tamerep.scramble``; n = 0
    draws nothing."""
    if n == 0:
        return []
    if field.kind == "Q":
        coeffs = [Fraction(c) for c in (-2, -1, 1, 2)]
        units = [Fraction(-1), Fraction(1)]
        coeff, unit = (lambda: rng.choice(coeffs)), (lambda: rng.choice(units))
    else:
        # a unit drawn as 1 + randbelow(p - 1), as rng.choice over the
        # list of all p - 1 units would, without building that list
        coeff = unit = lambda: field.from_int(rng.randrange(1, field.p))
    ops = []
    for _ in range(2 * n + 2):
        op = rng.randrange(3)
        i = rng.randrange(n)
        k = rng.randrange(n)
        if op == _ADD and i != k:
            ops.append((_ADD, i, k, coeff()))
        elif op == _SWAP and i != k:
            ops.append((_SWAP, i, k, None))
        else:
            ops.append((_SCALE, i, i, unit()))
    return ops


def apply_row_ops(field, rows: list, ops) -> None:
    """Apply ops in order to rows, in place: rows becomes P @ rows, where P
    is the product of the operations, which is never formed."""
    mul = field.mul
    for op, i, k, c in ops:
        if op == _ADD:
            field.axpy(rows[i], c, [(j, b) for j, b in enumerate(rows[k]) if b])
        elif op == _SWAP:
            rows[i], rows[k] = rows[k], rows[i]
        else:
            rows[i] = [mul(c, a) if a else a for a in rows[i]]


def apply_inverse_column_ops(field, rows: list, ops) -> None:
    """Undo ops in order as column operations on rows, in place: rows
    becomes rows @ P^-1, where P is the product of the operations.  P^-1 is
    the inverses of the operations in the reverse order, so on the right
    they act in the original order: col_k -= c * col_i, the swap, and
    col_i *= 1/c."""
    add, mul = field.add, field.mul
    for op, i, k, c in ops:
        if op == _ADD:
            c = field.neg(c)
            for row in rows:
                if row[i]:
                    row[k] = add(row[k], mul(c, row[i]))
        elif op == _SWAP:
            for row in rows:
                row[i], row[k] = row[k], row[i]
        else:
            c = field.inv(c)
            for row in rows:
                if row[i]:
                    row[i] = mul(c, row[i])


def random_invertible(field, n: int, rng) -> Matrix:
    """Seeded random invertible matrix: the operations of
    ``random_elementary_ops`` applied to the rows of the identity, so
    entries stay small and the result is exactly invertible."""
    rows = Matrix.identity(field, n).copy_rows()
    apply_row_ops(field, rows, random_elementary_ops(field, n, rng))
    return Matrix(field, n, n, rows)

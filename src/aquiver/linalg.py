"""Exact dense linear algebra over the rationals and prime fields.

Everything here is bit-exact: rationals are ``fractions.Fraction`` and
prime-field elements are ints in ``range(p)``.  No floating point enters
anywhere.  Matrices are dense row lists.  Zero tests are truthiness tests:
a Fraction or an int is falsy exactly at zero.

The hot paths run on Python ints, and the two field classes alone know how
their scalars become ints and come back; no other code asks which field it
holds.  Over Q a row of scalars becomes a primitive integer row, a nonzero
rational multiple of it with content gcd 1 (``to_ints``), a matrix becomes
integer rows over one common denominator (``integer_rows``), and
``divide`` builds the Fractions again.  Over F_p the ints in range(p) are
the scalars already, ``divide`` multiplies by an inverse mod p, and
``canonical``, which over Q divides the content out of an integer vector,
reduces mod p.  Each of these scales a vector by a nonzero scalar, which
keeps its span, its pivots and its zeros.

``integer_row_echelon`` is the one elimination loop, behind every rank,
kernel, solve and column-space basis (``_row_echelon`` wraps it for rows of
field scalars) and behind the decomposition sweep's backward solve.
``bottom_column_echelon``, the sweep's column reduction, is the one other
loop.  Both eliminate by cross-multiplying (``eliminate``): a vector
holding a where the pivot vector holds p becomes a multiple of vector -
(a/p) * pivot vector, with no division in the loop; over Q the content is
divided out after each step, over F_p the entries are reduced mod p.
``_row_echelon`` divides each finished row by its pivot at the end, so it
returns the textbook reduced form.  Products run inside one row operation
per field, ``field.axpy(dst, c, pairs)``, which adds c times a sparse row,
given as its nonzero (column, value) pairs, to a dense row.

``change_basis``, the scramble's P M Q^-1 by elementary operations, runs
on integer rows as well.  The field draws the operations' scalars
(``draw_coeff``, ``draw_unit``) and inverts a scaling (``unit_inverse``):
over Q the adds are by +-1 or +-2 and the scalings by +-1, so every
coefficient and every inverse is an int and the rows stay integral.  The
common denominator is divided out once at the end, and a scaling by 1 is
skipped.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .intervals import parse_integer, parse_rational


def _below(rng, n: int) -> int:
    """A uniform int in range(n), n >= 1: getrandbits(n.bit_length())
    drawn until it is below n.  That is how ``random.Random`` draws
    randrange(n), and choice(seq) with len(seq) == n, so the three consume
    an rng alike and give the same values."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


class RationalField:
    """The field of rationals; scalars are Fraction.  Its integer form is
    primitive integer vectors: eliminating divides the content out."""

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
        """1 / a as a Fraction, for an int or a Fraction a; raises
        ZeroDivisionError at 0."""
        return Fraction(1) / a

    def axpy(self, dst, c, pairs):
        """dst[j] += c * b for each (j, b) in pairs."""
        for j, b in pairs:
            dst[j] += c * b

    def canonical(self, vec: list) -> list:
        """The integer vector divided by its content gcd: primitive (or all
        zero)."""
        g = gcd(*vec)
        return [x // g for x in vec] if g > 1 else vec

    def to_ints(self, row) -> list:
        """row (Fractions or ints) scaled by a nonzero rational to a new
        primitive integer row."""
        return self.canonical(self.integer_rows([row])[0][0])

    def eliminate(self, row: list, prow: list, a: int, p: int) -> list:
        """The primitive integer row p' * row - a' * prow, where p' / a' is
        p / a in lowest terms: row less a / p times prow, up to a nonzero
        scalar, so that an entry where row holds a and prow holds p becomes
        0."""
        g = gcd(p, a)
        pg, ag = p // g, a // g
        return self.canonical([pg * x - ag * y for x, y in zip(row, prow)])

    def integer_rows(self, rows) -> tuple[list, int]:
        """(ints, den): den times the rows, as new lists of Python ints,
        where den is the lcm of the denominators; each entry is read once,
        by ``as_integer_ratio()``."""
        ratios = [[x.as_integer_ratio() for x in row] for row in rows]
        den = lcm(*{d for row in ratios for _, d in row})
        if den == 1:
            return [[n for n, _ in row] for row in ratios], 1
        return [[n * (den // d) for n, d in row] for row in ratios], den

    def divide(self, rows: list, den: int) -> list:
        """The integer rows over den, as Fractions; one Fraction is built
        per distinct int."""
        frac = {x: Fraction(x, den) for x in set().union(*rows)}
        return [[frac[x] for x in row] for row in rows]

    def pivot_scaling(self, pivots: list) -> tuple[int, list]:
        """(scale, factors) with factors[r] = scale / pivots[r], all ints:
        scale is the lcm of the nonzero int pivots."""
        scale = lcm(*pivots)
        return scale, [scale // q for q in pivots]

    def draw_coeff(self, rng) -> int:
        """An addition coefficient of the scramble, drawn as choice over
        (-2, -1, 1, 2)."""
        return (-2, -1, 1, 2)[_below(rng, 4)]

    def draw_unit(self, rng) -> int:
        """A scaling of the scramble, drawn as choice over (-1, 1)."""
        return (-1, 1)[_below(rng, 2)]

    def unit_inverse(self, c: int) -> int:
        """The int inverse of a drawn unit: +-1 is its own."""
        return c

    # a Fraction's str spells "p" or "p/q" in lowest terms, q > 0
    format = staticmethod(str)
    parse = staticmethod(parse_rational)

    def to_json(self) -> dict:
        return {"kind": "Q"}

    def __str__(self):
        return "Q"

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
    """F_p for a prime p <= MAX_PRIME; scalars are ints reduced mod p.  Its
    integer form is the scalars themselves: eliminating reduces mod p."""

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

    def canonical(self, vec: list) -> list:
        """The integer vector reduced mod p, as a new list."""
        p = self.p
        return [x % p for x in vec]

    # the scalars are ints already
    to_ints = staticmethod(list)

    def eliminate(self, row: list, prow: list, a: int, pivot: int) -> list:
        """pivot * row - a * prow mod p: an entry where row holds a and
        prow holds pivot becomes 0."""
        p = self.p
        return [(pivot * x - a * y) % p for x, y in zip(row, prow)]

    def integer_rows(self, rows) -> tuple[list, int]:
        """(ints, 1): the rows as new lists; the scalars are ints already."""
        return [list(row) for row in rows], 1

    def divide(self, rows: list, den: int) -> list:
        """The integer rows over den, reduced mod p."""
        p, inv = self.p, self.inv(den)
        return [[x * inv % p for x in row] for row in rows]

    def pivot_scaling(self, pivots: list) -> tuple[int, list]:
        """(1, the pivots' inverses mod p).  A common multiple of the
        pivots, as over Q, would grow by about log2(p) bits per pivot."""
        return 1, [self.inv(q) for q in pivots]

    def draw_coeff(self, rng) -> int:
        """A unit, drawn as choice over the list of all p - 1 units
        without building it."""
        return 1 + _below(rng, self.p - 1)

    draw_unit = draw_coeff
    unit_inverse = inv

    def format(self, a) -> str:
        return str(a % self.p)

    def parse(self, x) -> int:
        """An entry: an integer, never truncated, reduced mod p."""
        return parse_integer(x) % self.p

    def to_json(self) -> dict:
        return {"kind": "Fp", "p": self.p}

    def __str__(self):
        return f"Fp:{self.p}"

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

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, {self.rows!r})"


def integer_row_echelon(field, ints: list) -> tuple[list, list]:
    """The one elimination loop: integer rows (``field.to_ints``; over F_p
    in range(p)) reduced in place to a reduced row echelon form up to one
    nonzero scalar per row; returns (rows, pivot column list).  Row r holds
    a nonzero entry, not normalized, at pivot column r, and zeros at the
    other pivot columns; the rows past the pivots are zero.  Eliminating
    with pivot p replaces a row holding a by a nonzero multiple of row -
    (a/p) * pivot row (``field.eliminate``), so no division enters the
    loop."""
    eliminate = field.eliminate
    nrows = len(ints)
    ncols = len(ints[0]) if ints else 0
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
                ints[i] = eliminate(row, prow, a, p)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return ints, pivots


def _row_echelon(field, rows: list) -> tuple[list, list]:
    """Reduced row echelon form of rows, which it leaves as they are;
    returns (rows, pivot column list).  The rows are reduced as integer
    rows by ``integer_row_echelon`` and each pivot row divided by its pivot
    at the end.  The reduced form is unique, so it equals the textbook
    one."""
    ints, pivots = integer_row_echelon(field, [field.to_ints(row) for row in rows])
    out = [field.divide([row], row[c])[0] for row, c in zip(ints, pivots)]
    z = field.zero()
    ncols = len(rows[0]) if rows else 0
    out.extend([z] * ncols for _ in range(len(rows) - len(pivots)))
    return out, pivots


def rank(m: Matrix) -> int:
    """The number of pivots of m's integer row echelon form."""
    f = m.field
    return len(integer_row_echelon(f, [f.to_ints(row) for row in m.rows])[1])


def kernel_basis(m: Matrix) -> Matrix:
    """Columns span ker(m); satisfies m @ K = 0 and ncols(K) = ncols(m) - rank(m)."""
    f = m.field
    rows, pivots = _row_echelon(f, m.rows)
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
    x = solve_matrix(a, Matrix.from_columns(a.field, a.nrows, [b]))
    return (None if x is None else x.column(0), a.ncols - rank(a))


def solve_matrix(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """Solve a X = b columnwise; None if any column is inconsistent."""
    if a.nrows != b.nrows:
        raise ValueError("shape mismatch")
    f = a.field
    z = f.zero()
    aug = [arow + brow for arow, brow in zip(a.rows, b.rows)]
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
    _, pivots = _row_echelon(m.field, m.rows)
    return Matrix.from_columns(m.field, m.nrows, [m.column(j) for j in pivots])


def invert(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise ValueError("not square")
    out = solve_matrix(m, Matrix.identity(m.field, m.nrows))
    if out is None:
        raise ValueError("singular matrix")
    return out


def _last_nonzero(col: list) -> int:
    for i in range(len(col) - 1, -1, -1):
        if col[i]:
            return i
    return -1


def bottom_column_echelon(field, cols: list) -> list[int]:
    """Column-reduce integer columns, left to right, so that each has a
    distinct lowest nonzero row; returns the list of those pivot rows
    (parallel to cols).  A column in the span of the earlier ones reduces
    to zero and gets pivot -1.  Each column is taken to its canonical form
    on entry (``field.canonical``: over Q content-free, over F_p mod p),
    and eliminating (``field.eliminate``) replaces a column holding a at an
    earlier column's pivot p by a nonzero multiple of column - (a/p) *
    earlier column.  cols[j] is replaced by its reduced column, a nonzero
    multiple of the one the textbook reduction, with pivots normalized to
    1, gives; the pivot entries are left as they fall."""
    canonical, eliminate = field.canonical, field.eliminate
    used: dict[int, list] = {}  # pivot row -> its reduced column
    pivots = [-1] * len(cols)
    for j, col in enumerate(cols):
        col = canonical(col)
        while (low := _last_nonzero(col)) != -1:
            if low not in used:
                used[low] = col
                pivots[j] = low
                break
            prow = used[low]
            col = eliminate(col, prow, col[low], prow[low])
        cols[j] = col
    return pivots


# the kinds of elementary row operation: row_i += c * row_k, swap rows i
# and k, row_i *= c
_ADD, _SWAP, _SCALE = 0, 1, 2


def random_elementary_ops(field, n: int, rng) -> list[tuple]:
    """2n+2 seeded elementary row operations on n rows, each (op, i, k, c):
    additions by ``field.draw_coeff`` (over Q c in {+-1, +-2}, over F_p any
    unit), swaps, and scalings by ``field.draw_unit`` (over Q +-1, over F_p
    any unit).  The scalars are ints (over Q too; ``change_basis`` works on
    ints).  The one definition of the draw behind ``tamerep.scramble``;
    n = 0 draws nothing.  Every draw is ``_below``, which consumes the rng
    as randrange and choice do: the kind of operation as randrange(3), each
    row as randrange(n), and each scalar as choice over the field's list of
    candidates.  So the stream, and every scramble drawn from it, is the one
    the random module's own calls gave."""
    if n == 0:
        return []
    coeff, unit = field.draw_coeff, field.draw_unit
    ops = []
    for _ in range(2 * n + 2):
        op = _below(rng, 3)
        i = _below(rng, n)
        k = _below(rng, n)
        if op == _ADD and i != k:
            ops.append((_ADD, i, k, coeff(rng)))
        elif op == _SWAP and i != k:
            ops.append((_SWAP, i, k, None))
        else:
            ops.append((_SCALE, i, i, unit(rng)))
    return ops


def change_basis(field, rows: list, row_ops, col_ops) -> list:
    """The rows of P @ rows @ Q^-1, where P and Q are the products of
    row_ops and col_ops, two draws of ``random_elementary_ops``; neither
    product is formed.  The row operations act in order, then the inverses
    of the column operations, which on the right act in the original order
    (col_k -= c * col_i, the swap, col_i *= 1/c).  They act on rows times a
    common denominator, as Python ints (``field.integer_rows``), which is
    divided out once at the end (``field.divide``).  Over Q that is exact
    because every drawn coefficient and every ``field.unit_inverse`` is an
    int, so the scaled matrix stays integral.  A scaling by 1 changes
    nothing and is skipped."""
    ints, den = field.integer_rows(rows)
    for op, i, k, c in row_ops:
        if op == _ADD:
            ints[i] = [a + c * b for a, b in zip(ints[i], ints[k])]
        elif op == _SWAP:
            ints[i], ints[k] = ints[k], ints[i]
        elif c != 1:
            ints[i] = [c * a for a in ints[i]]
    for op, i, k, c in col_ops:
        if op == _ADD:
            for row in ints:
                if row[i]:
                    row[k] -= c * row[i]
        elif op == _SWAP:
            for row in ints:
                row[i], row[k] = row[k], row[i]
        elif c != 1:
            c = field.unit_inverse(c)
            for row in ints:
                row[i] *= c
    return field.divide(ints, den)

"""Exact dense linear algebra over the rationals and prime fields.

Everything here is bit-exact: rationals are ``fractions.Fraction`` and
prime-field elements are ints in ``range(p)``.  No floating point enters
anywhere.  Matrices are dense row lists.  Zero tests are truthiness tests:
a Fraction or an int is falsy exactly at zero.

Every operation runs on Python ints, and the two field classes alone know
how their scalars become ints and come back; no other code asks which
field it holds.  Over Q a matrix becomes integer rows over one common
denominator (``integer_rows``), ``divide`` builds the Fractions again, and
``canonical`` divides the content out of an integer vector.  Over F_p the
ints in range(p) are the scalars already, ``divide`` multiplies by an
inverse mod p, and ``canonical`` and ``reduce_rows`` reduce mod p.  Each
of these scales a vector by a nonzero scalar, which keeps its span, its
pivots and its zeros.

A ``Matrix`` stores one form: integer rows ``ints`` over one nonzero
denominator ``den`` (over F_p the ints are reduced mod p), and its one
constructor takes that form as it is stored.  Field scalars come in only
at the API edge, through ``from_rows``, ``from_columns`` and ``scale``,
which turn them into ints with ``integer_rows``.  ``rows``, the row lists
of field scalars, is a read-only view built from the ints on first read,
for callers at the same edge; every operation here reads and builds the
integer form.  ``Matrix.to_json`` spells the entries from it, each
distinct int once.

``integer_row_echelon`` is the one elimination loop, behind every rank,
kernel, solve and column-space basis and behind the decomposition sweep's
backward solve; ``reduced_block`` reads a block of its reduced form, each
row divided by its pivot, as integer rows over one scale, for kernel and
solve (the sweep reads the unscaled rows, see ``decompose``).
``bottom_column_echelon``, the sweep's column reduction, is the one other
loop.  Both eliminate by cross-multiplying (``eliminate``): a vector
holding a where the pivot vector holds p becomes a multiple of vector -
(a/p) * pivot vector, with no division in the loop; over Q the content is
divided out after each step, over F_p the entries are reduced mod p.

``change_basis``, the scramble's P M Q^-1 by elementary operations, takes
a map's integer form (ints, den) and returns the integer form of the
result over the same den, with no division.  The field draws the
operations' scalars (``draw_coeff``, ``draw_unit``) and inverts a scaling
(``unit_inverse``): over Q the adds are by +-1 or +-2 and the scalings by
+-1, so every coefficient and every inverse is an int and the rows stay
integral.  Over F_p the ints are reduced mod p once at the end
(``reduce_rows``), and a scaling by 1 is skipped.
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

    def from_int(self, n: int):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        """1 / a as a Fraction, for an int or a Fraction a; raises
        ZeroDivisionError at 0."""
        return Fraction(1) / a

    def canonical(self, vec: list) -> list:
        """The integer vector divided by its content gcd: primitive (or all
        zero)."""
        g = gcd(*vec)
        return [x // g for x in vec] if g > 1 else vec

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

    def reduce_rows(self, ints: list) -> list:
        """The integer rows as a matrix stores them: any ints will do."""
        return ints

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

    def from_int(self, n: int):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def canonical(self, vec: list) -> list:
        """The integer vector reduced mod p, as a new list."""
        p = self.p
        return [x % p for x in vec]

    def eliminate(self, row: list, prow: list, a: int, pivot: int) -> list:
        """pivot * row - a * prow mod p: an entry where row holds a and
        prow holds pivot becomes 0."""
        p = self.p
        return [(pivot * x - a * y) % p for x, y in zip(row, prow)]

    def integer_rows(self, rows) -> tuple[list, int]:
        """(ints, 1): the rows reduced mod p, as new lists; the scalars are
        ints already."""
        return self.reduce_rows(rows), 1

    def divide(self, rows: list, den: int) -> list:
        """The integer rows over den, reduced mod p."""
        p, inv = self.p, self.inv(den)
        return [[x * inv % p for x in row] for row in rows]

    def reduce_rows(self, ints: list) -> list:
        """The integer rows as a matrix stores them: reduced mod p, as new
        lists."""
        p = self.p
        return [[x % p for x in row] for row in ints]

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
    """Immutable-by-convention dense matrix over a field, stored as integer
    rows ``ints`` over one nonzero denominator ``den`` (module docstring);
    ``Matrix(field, nrows, ncols, ints, den=1)`` is the one constructor, and
    ``from_rows``, ``from_columns`` and ``scale`` build one from field
    scalars.  ``rows``, the same map as row lists of field scalars, is a
    view built on first read.  Zero-row / zero-column matrices are legal
    and show up constantly (zero-dimensional cells).
    """

    __slots__ = ("field", "nrows", "ncols", "ints", "den", "_rows")

    def __init__(self, field, nrows: int, ncols: int, ints: list, den: int = 1):
        """The matrix whose rows are the integer rows ints over the nonzero
        den, stored as given: over F_p the ints must lie in range(p)."""
        if len(ints) != nrows or any(map(ncols.__ne__, map(len, ints))):
            raise ValueError("inconsistent matrix shape")
        self.field, self.nrows, self.ncols = field, nrows, ncols
        self.ints, self.den, self._rows = ints, den, None

    @property
    def rows(self) -> list:
        """The rows as field scalars (``field.divide``), built on first
        read.  Read them, never change them."""
        if self._rows is None:
            self._rows = self.field.divide(self.ints, self.den)
        return self._rows

    @staticmethod
    def from_rows(field, rows: Sequence[Sequence]) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return Matrix(field, len(rows), ncols, *field.integer_rows(rows))

    @staticmethod
    def zero(field, nrows: int, ncols: int) -> "Matrix":
        return Matrix(field, nrows, ncols, [[0] * ncols for _ in range(nrows)])

    @staticmethod
    def identity(field, n: int) -> "Matrix":
        return Matrix(field, n, n, [[int(i == j) for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(field, dim: int, cols: Sequence[Sequence]) -> "Matrix":
        rows = [[col[i] for col in cols] for i in range(dim)]
        return Matrix(field, dim, len(cols), *field.integer_rows(rows))

    def column(self, j: int) -> list:
        return [r[j] for r in self.rows]

    def transpose(self) -> "Matrix":
        ints = self.ints
        return Matrix(self.field, self.ncols, self.nrows,
                      [[row[j] for row in ints] for j in range(self.ncols)], self.den)

    def matmul(self, other: "Matrix") -> "Matrix":
        """self @ other on the integer rows, over the product of the two
        denominators."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matmul")
        n = other.ncols
        other_pairs = [[(j, b) for j, b in enumerate(row) if b] for row in other.ints]
        out = []
        for arow in self.ints:
            orow = [0] * n
            for a, pairs in zip(arow, other_pairs):
                if a:
                    for j, b in pairs:
                        orow[j] += a * b
            out.append(orow)
        f = self.field
        return Matrix(f, self.nrows, n, f.reduce_rows(out), self.den * other.den)

    def common_den(self, other: "Matrix") -> tuple[list, list, int]:
        """(self's integer rows, other's, den): both matrices as integer
        rows over one denominator, the product of theirs where they
        differ."""
        da, db = self.den, other.den
        if da == db:
            return self.ints, other.ints, da
        f = self.field
        return (f.reduce_rows([[x * db for x in row] for row in self.ints]),
                f.reduce_rows([[y * da for y in row] for row in other.ints]), da * db)

    def add(self, other: "Matrix") -> "Matrix":
        f = self.field
        a, b, den = self.common_den(other)
        ints = f.reduce_rows([[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)])
        return Matrix(f, self.nrows, self.ncols, ints, den)

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix(f, self.nrows, self.ncols,
                      *f.integer_rows([[f.mul(c, a) for a in r] for r in self.rows]))

    def is_zero(self) -> bool:
        return not any(map(any, self.ints))

    def to_json(self) -> list:
        """The entries as ``field.format`` spells them, read off the integer
        form with each distinct int spelled once: over den 1 the int itself,
        which both fields read as the scalar it is, and otherwise the scalar
        ``field.divide`` makes of it."""
        ints, den, field = self.ints, self.den, self.field
        vals = list(set().union(*ints))
        scalars = vals if den == 1 else field.divide([vals], den)[0]
        text = dict(zip(vals, map(field.format, scalars)))
        return [[text[x] for x in row] for row in ints]

    def __eq__(self, other):
        if not (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols):
            return False
        a, b, _ = self.common_den(other)
        return a == b

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, {self.rows!r})"


def integer_row_echelon(field, ints: list) -> tuple[list, list]:
    """The one elimination loop: integer rows (over F_p in range(p)),
    reduced in place to a reduced row echelon form up to one nonzero scalar
    per row; returns (rows, pivot column list).  The list is changed, the
    rows in it are not.  Row r holds a nonzero entry, not normalized, at
    pivot column r, and zeros at the other pivot columns; the rows past the
    pivots are zero.  Eliminating with pivot p replaces a row holding a by
    a nonzero multiple of row - (a/p) * pivot row (``field.eliminate``), so
    no division enters the loop."""
    eliminate = field.eliminate
    nrows = len(ints)
    ncols = len(ints[0]) if ints else 0
    pivots = []
    r = 0
    for c in range(ncols):
        for pr in range(r, nrows):
            if ints[pr][c]:
                break
        else:
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


def reduced_block(field, ech: list, pivots: list, start: int) -> tuple[list, int]:
    """(block, scale): the columns from start on of the textbook reduced
    row echelon form, one row per pivot, as integer rows over scale, read
    off the form ``integer_row_echelon`` returned as (ech, pivots).  The
    textbook row r is ech[r] divided by its pivot entry; ``pivot_scaling``
    gives scale and factors[r] = scale / pivot entry as ints, and the
    block's row r is factors[r] times ech[r].  Over F_p the entries are
    left unreduced."""
    scale, factors = field.pivot_scaling([row[c] for row, c in zip(ech, pivots)])
    return [[f * x for x in row[start:]] for f, row in zip(factors, ech)], scale


def rank(m: Matrix) -> int:
    """The number of pivots of m's integer row echelon form."""
    return len(integer_row_echelon(m.field, list(m.ints))[1])


def kernel_basis(m: Matrix) -> Matrix:
    """Columns span ker(m); satisfies m @ K = 0 and ncols(K) = ncols(m) - rank(m).
    One column per free column of m's reduced form: 1 there, and at each
    pivot column minus the reduced form's entry in the free column."""
    f = m.field
    ech, pivots = integer_row_echelon(f, list(m.ints))
    block, scale = reduced_block(f, ech, pivots, 0)
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    out = [None] * m.ncols
    for k, fc in enumerate(free):
        out[fc] = [scale if i == k else 0 for i in range(len(free))]
    for row, pc in zip(block, pivots):
        out[pc] = [-row[fc] for fc in free]
    return Matrix(f, m.ncols, len(free), f.reduce_rows(out), scale)


def solve_linear_system(a: Matrix, b: Sequence) -> tuple[Optional[list], int]:
    """Solve a x = b.  Returns (one solution or None, kernel dimension)."""
    if len(b) != a.nrows:
        raise ValueError("rhs length mismatch")
    x = solve_matrix(a, Matrix.from_columns(a.field, a.nrows, [b]))
    return (None if x is None else x.column(0), a.ncols - rank(a))


def solve_matrix(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """Solve a X = b columnwise; None if any column is inconsistent.  With
    a and b the integer rows A and B over da and db, one elimination of
    [A | B] gives A^-1 B at the pivot rows (``reduced_block``), X is da /
    db times it, and a free column of a gets a zero row."""
    if a.nrows != b.nrows:
        raise ValueError("shape mismatch")
    f, n = a.field, a.ncols
    ech, pivots = integer_row_echelon(f, [arow + brow for arow, brow in zip(a.ints, b.ints)])
    if pivots and pivots[-1] >= n:
        return None
    block, scale = reduced_block(f, ech, pivots, n)
    out = [[0] * b.ncols for _ in range(n)]
    for row, pc in zip(block, pivots):
        out[pc] = [a.den * x for x in row]
    return Matrix(f, n, b.ncols, f.reduce_rows(out), scale * b.den)


def column_space_basis(m: Matrix) -> Matrix:
    """Columns form a basis of the column space: m's columns at the pivots
    of its reduced row echelon form, which are the columns a greedy left to
    right scan keeps."""
    _, pivots = integer_row_echelon(m.field, list(m.ints))
    return Matrix(m.field, m.nrows, len(pivots),
                  [[row[j] for j in pivots] for row in m.ints], m.den)


def invert(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise ValueError("not square")
    out = solve_matrix(m, Matrix.identity(m.field, m.nrows))
    if out is None:
        raise ValueError("singular matrix")
    return out


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
    1, gives; the pivot entries are left as they fall.  Each column is
    scanned once, from its last row toward row 0: eliminating at the
    lowest nonzero row l zeroes row l, and the rows past l were zero
    already, so the search for the next lowest nonzero row goes on at
    l - 1, with one lookup of the pivot table per nonzero row."""
    canonical, eliminate = field.canonical, field.eliminate
    used: dict[int, list] = {}  # pivot row -> its reduced column
    pivots = [-1] * len(cols)
    for j, col in enumerate(cols):
        col = canonical(col)
        low = len(col) - 1
        while low >= 0:
            if col[low]:
                prow = used.get(low)
                if prow is None:
                    used[low] = col
                    pivots[j] = low
                    break
                col = eliminate(col, prow, col[low], prow[low])
            low -= 1
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


def change_basis(field, ints: list, den: int, row_ops, col_ops) -> tuple[list, int]:
    """The integer form (ints, den) of P @ M @ Q^-1, where M is the matrix
    with integer form (ints, den), which is left as it is, and P and Q are
    the products of row_ops and col_ops, two draws of
    ``random_elementary_ops``; neither product is formed.  The row
    operations act in order, then the inverses of the column operations,
    which on the right act in the original order (col_k -= c * col_i, the
    swap, col_i *= 1/c).  They act on the ints alone, and the result is
    over the same den, with no division: over Q every drawn coefficient and
    every ``field.unit_inverse`` is an int, so the rows stay integral; over
    F_p the ints are reduced mod p once at the end (``field.reduce_rows``).
    A scaling by 1 changes nothing and is skipped."""
    ints = [row[:] for row in ints]
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
    return field.reduce_rows(ints), den

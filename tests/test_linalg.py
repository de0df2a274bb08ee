import random
from fractions import Fraction
from math import gcd

import pytest

from aquiver.linalg import (MAX_PRIME, Matrix, PrimeField, QQ, _row_echelon,
                            bottom_column_echelon, column_space_basis, invert,
                            kernel_basis, random_invertible, rank,
                            solve_linear_system, solve_matrix, unit_complement)

F5 = PrimeField(5)


def mat(rows, field=QQ):
    return Matrix.from_rows(field, [[field.from_int(x) for x in r] for r in rows])


def column(field, vec):
    """vec as a one-column matrix."""
    return Matrix.from_columns(field, len(vec), [vec])


def test_rank_examples():
    assert rank(Matrix.identity(QQ, 3)) == 3
    assert rank(Matrix.zero(QQ, 2, 5)) == 0
    assert rank(mat([[1, 2], [2, 4]])) == 1


def test_kernel_examples():
    assert kernel_basis(Matrix.identity(QQ, 3)).ncols == 0
    assert kernel_basis(Matrix.zero(QQ, 2, 3)).ncols == 3
    k = kernel_basis(mat([[1, 1]]))
    assert k.ncols == 1
    x, y = k.column(0)
    assert x == -y != 0


def test_solve_examples():
    b = [Fraction(3), Fraction(-1)]
    sol, nullity = solve_linear_system(Matrix.identity(QQ, 2), b)
    assert sol == b and nullity == 0
    sol, _ = solve_linear_system(mat([[1, 0], [1, 0]]), [Fraction(1), Fraction(2)])
    assert sol is None
    sol, nullity = solve_linear_system(mat([[1, 1]]), [Fraction(2)])
    assert sol is not None and nullity == 1
    assert sol[0] + sol[1] == 2


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_rank_nullity_random(field):
    rng = random.Random(4242)
    for _ in range(60):
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        rows = [[field.from_int(rng.randint(-3, 3)) for _ in range(m)] for _ in range(n)]
        a = Matrix(field, n, m, rows)
        k = kernel_basis(a)
        assert rank(a) + k.ncols == m
        if k.ncols:
            assert a.matmul(k).is_zero()


def test_solve_matrix_and_invert():
    rng = random.Random(7)
    for field in (QQ, F5):
        for n in (1, 2, 4):
            g = random_invertible(field, n, rng)
            gi = invert(g)
            assert g.matmul(gi) == Matrix.identity(field, n)


def test_column_space_basis():
    a = mat([[1, 2, 3], [2, 4, 6]])
    b = column_space_basis(a)
    assert b.ncols == 1 and b.nrows == 2


def test_bottom_column_echelon_distinct_pivots():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        g = random_invertible(QQ, n, rng)
        cols = [g.column(j) for j in range(k)]
        pivots = bottom_column_echelon(QQ, cols)
        assert len(set(pivots)) == k
        for col, piv in zip(cols, pivots):
            assert col[piv] != 0
            assert all(col[i] == 0 for i in range(piv + 1, n))


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_prime_field_miller_rabin():
    for p in (2, 3, 7919, 2**61 - 1, 2**64 - 59):
        assert PrimeField(p).p == p
    # 561 is a Carmichael number; 3825123056546413051 is a strong
    # pseudoprime to every prime base up to 31, caught only by base 37
    for n in (0, 1, 4, 561, 3825123056546413051, MAX_PRIME):
        with pytest.raises(ValueError, match="not a prime"):
            PrimeField(n)
    # the first strong pseudoprime to all twelve bases, and beyond
    for n in (MAX_PRIME + 1, 10**24, 10**400 + 1):
        with pytest.raises(ValueError, match="too large"):
            PrimeField(n)


def test_prime_field_matches_sieve():
    n = 3000
    sieve = [True] * n
    sieve[0] = sieve[1] = False
    for i in range(2, n):
        if sieve[i]:
            for j in range(i * i, n, i):
                sieve[j] = False
    for k in range(n):
        try:
            PrimeField(k)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == sieve[k], k


def test_exactness_no_floats():
    a = mat([[1, 3], [2, 7]])
    sol, _ = solve_linear_system(a, [Fraction(1, 3), Fraction(2, 5)])
    assert all(isinstance(x, Fraction) for x in sol)
    assert a.matmul(column(QQ, sol)).column(0) == [Fraction(1, 3), Fraction(2, 5)]


# ---------------------------------------------------------------------------
# Parity with a textbook Gauss-Jordan elimination.  The reference below uses
# only the scalar field operations and nothing from linalg except Matrix.

# 2**61 - 1 is a prime below MAX_PRIME: cross-multiplying during elimination
# then gives products of about 122 bits before each reduction
PARITY_FIELDS = [QQ, PrimeField(2), F5, PrimeField(7919), PrimeField(2**61 - 1)]
PARITY_IDS = ["Q", "F2", "F5", "F7919", "F2^61-1"]


def textbook_rref(field, rows):
    rows = [list(r) for r in rows]
    z = field.zero()
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
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, a) for a in rows[r]]
        for i in range(nrows):
            factor = rows[i][c]
            if i != r and factor != z:
                rows[i] = [field.sub(a, field.mul(factor, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def naive_matmul(field, a, b, ncols):
    """a times b, where b has ncols columns."""
    return [[_naive_dot(field, arow, [brow[j] for brow in b]) for j in range(ncols)]
            for arow in a]


def _naive_dot(field, xs, ys):
    acc = field.zero()
    for x, y in zip(xs, ys):
        acc = field.add(acc, field.mul(x, y))
    return acc


def _random_scalar(field, rng):
    if field.kind == "Q":
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return field.from_int(rng.randrange(field.p))


def _random_sparse(field, rng, nrows, ncols):
    """Sparse rows, some of them combinations of earlier rows, so that the
    rank is often below both dimensions."""
    density = rng.choice((0.0, 0.05, 0.15, 0.4))
    z = field.zero()
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.25:
            c1, c2 = _random_scalar(field, rng), _random_scalar(field, rng)
            r1, r2 = rng.choice(rows), rng.choice(rows)
            rows.append([field.add(field.mul(c1, a), field.mul(c2, b)) for a, b in zip(r1, r2)])
        else:
            rows.append([_random_scalar(field, rng) if rng.random() < density else z
                         for _ in range(ncols)])
    return Matrix(field, nrows, ncols, rows)


def _parity_cases(field, seed, count=16):
    rng = random.Random(seed)
    yield rng, Matrix.zero(field, 6, 9)
    shapes = [(0, 0), (0, 7), (7, 0), (5, 5)]
    shapes += [(rng.randint(1, 40), rng.randint(1, 60)) for _ in range(count - len(shapes))]
    for nrows, ncols in shapes:
        yield rng, _random_sparse(field, rng, nrows, ncols)


def _assert_exact(field, values):
    for x in values:
        if field.kind == "Q":
            assert isinstance(x, Fraction)
        else:
            assert type(x) is int and 0 <= x < field.p


@pytest.mark.parametrize("field", PARITY_FIELDS, ids=PARITY_IDS)
def test_row_echelon_matches_textbook(field):
    for _, m in _parity_cases(field, 11):
        want_rows, want_pivots = textbook_rref(field, m.rows)
        got_rows, got_pivots = _row_echelon(field, m.copy_rows())
        assert got_pivots == want_pivots
        assert got_rows == want_rows
        _assert_exact(field, [x for r in got_rows for x in r])
        assert rank(m) == len(want_pivots)
        basis = column_space_basis(m)
        assert basis.nrows == m.nrows
        assert basis.columns() == [m.column(j) for j in want_pivots]


def _textbook_kernel(field, m):
    """The kernel basis read off textbook_rref: one column per free column."""
    z, o = field.zero(), field.one()
    ref, pivots = textbook_rref(field, m.rows)
    want = []
    for fc in [c for c in range(m.ncols) if c not in pivots]:
        vec = [z] * m.ncols
        vec[fc] = o
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(ref[r][fc])
        want.append(vec)
    return want


def _check_kernel_basis(field, m, want):
    k = kernel_basis(m)
    assert k.nrows == m.ncols and k.columns() == want
    _assert_exact(field, [x for col in k.columns() for x in col])
    prod = naive_matmul(field, m.rows, k.rows, k.ncols)
    assert all(x == field.zero() for r in prod for x in r)


@pytest.mark.parametrize("field", PARITY_FIELDS, ids=PARITY_IDS)
def test_kernel_basis_matches_textbook(field):
    for _, m in _parity_cases(field, 12):
        _check_kernel_basis(field, m, _textbook_kernel(field, m))


def _check_solve_matrix(field, m, b, k, ref_rows=None):
    """solve_matrix(m, b), where b has k columns, against textbook_rref of
    [m | b] (of [ref_rows | b] when m's rows are given as plain ints);
    returns the expected solution, or None when some column of b is
    inconsistent."""
    ref, pivots = textbook_rref(field, [row + brow for row, brow in
                                        zip(ref_rows or m.rows, b)])
    got = solve_matrix(m, Matrix(field, m.nrows, k, b))
    if any(pc >= m.ncols for pc in pivots):
        assert got is None
        return None
    want = [[field.zero()] * k for _ in range(m.ncols)]
    for r, pc in enumerate(pivots):
        want[pc] = ref[r][m.ncols:]
    assert got.rows == want
    _assert_exact(field, [x for r in got.rows for x in r])
    return want


@pytest.mark.parametrize("field", PARITY_FIELDS, ids=PARITY_IDS)
def test_solvers_match_textbook(field):
    for rng, m in _parity_cases(field, 13):
        k = rng.randint(1, 3)
        if rng.random() < 0.5 and m.ncols:
            # consistent right-hand sides, in the column space
            xs = [[_random_scalar(field, rng) for _ in range(k)] for _ in range(m.ncols)]
            b = naive_matmul(field, m.rows, xs, k)
        else:
            b = [[_random_scalar(field, rng) for _ in range(k)] for _ in range(m.nrows)]
        want = _check_solve_matrix(field, m, b, k)
        # solve_linear_system: the first column alone
        sol, nullity = solve_linear_system(m, [brow[0] for brow in b])
        col_ref, col_pivots = textbook_rref(field, [row + [brow[0]] for row, brow in zip(m.rows, b)])
        assert nullity == m.ncols - len([pc for pc in col_pivots if pc < m.ncols])
        if m.ncols in col_pivots:
            assert sol is None
        else:
            if want is not None:
                assert sol == [r[0] for r in want]
            _assert_exact(field, sol)
            assert m.matmul(column(field, sol)).column(0) == [brow[0] for brow in b]


@pytest.mark.parametrize("field", PARITY_FIELDS, ids=PARITY_IDS)
def test_matmul_and_apply_match_naive(field):
    for rng, a in _parity_cases(field, 14):
        n = rng.randint(0, 30)
        b = _random_sparse(field, rng, a.ncols, n)
        got = a.matmul(b)
        assert (got.nrows, got.ncols) == (a.nrows, n)
        assert got.rows == naive_matmul(field, a.rows, b.rows, n)
        _assert_exact(field, [x for r in got.rows for x in r])
        vec = [_random_scalar(field, rng) if rng.random() < 0.5 else field.zero()
               for _ in range(a.ncols)]
        out = a.matmul(column(field, vec)).column(0)
        assert out == [_naive_dot(field, row, vec) for row in a.rows]
        _assert_exact(field, out)


@pytest.mark.parametrize("field", PARITY_FIELDS, ids=PARITY_IDS)
def test_bottom_column_echelon_spans_and_pivots(field):
    rng = random.Random(15)
    for _ in range(20):
        n = rng.randint(1, 12)
        g = random_invertible(field, n, rng)
        cols = [g.column(j) for j in rng.sample(range(n), rng.randint(1, n))]
        before = Matrix.from_columns(field, n, cols)
        pivots = bottom_column_echelon(field, cols)
        assert len(set(pivots)) == len(cols)
        for col, piv in zip(cols, pivots):
            assert col[piv] == field.one()
            assert all(col[i] == field.zero() for i in range(piv + 1, n))
        _assert_exact(field, [x for col in cols for x in col])
        # same span: the echelonized columns solve against the originals
        assert solve_matrix(before, Matrix.from_columns(field, n, cols)) is not None


def _greedy_keeps(field, vectors):
    """Indices of the vectors a left to right scan keeps: each one that
    raises the rank of those kept before it, by textbook_rref."""
    kept = []
    for i, vec in enumerate(vectors):
        cand = [vectors[k] for k in kept] + [vec]
        if len(textbook_rref(field, cand)[1]) == len(cand):
            kept.append(i)
    return kept


@pytest.mark.parametrize("field", [QQ, PrimeField(2), F5], ids=["Q", "F2", "F5"])
def test_unit_complement_matches_greedy_scan(field):
    rng = random.Random(16)
    shapes = [(0, 0), (0, 3), (4, 0), (3, 3)]
    shapes += [(rng.randint(1, 8), rng.randint(1, 10)) for _ in range(36)]
    for d, n in shapes:
        cols = _random_sparse(field, rng, n, d).rows  # n columns of length d
        units = Matrix.identity(field, d).columns()
        want = [i - n for i in _greedy_keeps(field, cols + units) if i >= n]
        got = unit_complement(field, cols, d)
        assert got == want, (d, cols)
        # the same indices as the pivots past the cols of reduced [cols | I_d]
        stacked = [[col[i] for col in cols] + units[i] for i in range(d)]
        assert got == [p - n for p in textbook_rref(field, stacked)[1] if p >= n]
        # the kept unit vectors complete a basis
        assert rank(Matrix.from_columns(field, d, cols + [units[i] for i in got])) == d


@pytest.mark.parametrize("field", [QQ, PrimeField(2), F5], ids=["Q", "F2", "F5"])
def test_bottom_column_echelon_dependent_columns(field):
    rng = random.Random(17)
    dependent = 0
    for _ in range(40):
        d, n = rng.randint(1, 8), rng.randint(1, 10)
        given = _random_sparse(field, rng, n, d).rows  # n columns of length d
        cols = [list(col) for col in given]
        pivots = bottom_column_echelon(field, cols)
        kept = [j for j, piv in enumerate(pivots) if piv != -1]
        assert kept == _greedy_keeps(field, given)
        assert len({pivots[j] for j in kept}) == len(kept)
        dependent += len(given) - len(kept)
        for col, piv in zip(cols, pivots):
            if piv == -1:
                assert all(x == field.zero() for x in col)
            else:
                assert col[piv] == field.one()
                assert all(col[i] == field.zero() for i in range(piv + 1, d))
        _assert_exact(field, [x for col in cols for x in col])
        # the kept columns span what the given ones span
        assert rank(Matrix.from_columns(field, d, given)) == len(kept)
        assert rank(Matrix.from_columns(field, d, given + [cols[j] for j in kept])) == len(kept)
    assert dependent >= 40


# ---------------------------------------------------------------------------
# Q parity with wide rationals.  Elimination over Q runs on integer rows, so
# these cases reach it with numerators of 30 to 40 digits over denominators
# up to 10**9, negative pivots, rank-deficient matrices with all-zero rows,
# and rows given as plain ints.

def _wide_scalar(rng):
    num = rng.randrange(10**29, 10**40) * rng.choice((-1, 1))
    return Fraction(num, rng.randint(1, 10**9))


def _wide_cases(seed, count=14):
    rng = random.Random(seed)
    z = Fraction(0)
    # negative pivots, a zero row and a dependent row: rank 2 of 4 rows
    big = Fraction(-10**35 + 7, 999_999_937)
    yield rng, Matrix.from_rows(QQ, [[big, 3 * big, z], [z] * 3,
                                     [-2 * big, -6 * big, z], [z, z, big / 11]])
    for _ in range(count - 1):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        rows = []
        for _ in range(nrows):
            roll = rng.random()
            if roll < 0.15:
                rows.append([z] * ncols)
            elif rows and roll < 0.45:
                c1, c2 = _wide_scalar(rng), _wide_scalar(rng)
                r1, r2 = rng.choice(rows), rng.choice(rows)
                rows.append([c1 * a + c2 * b for a, b in zip(r1, r2)])
            else:
                rows.append([_wide_scalar(rng) if rng.random() < 0.7 else z
                             for _ in range(ncols)])
        yield rng, Matrix(QQ, nrows, ncols, rows)


def _int_rows(m):
    """m's rows, each scaled by a nonzero integer to plain ints."""
    out = []
    for row in m.rows:
        scale = 1
        for x in row:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        out.append([int(x * scale) for x in row])
    return out


def _given_and_reference(m):
    """(m, m) and (m with plain int rows, the same rows as Fractions)."""
    ints = _int_rows(m)
    assert all(type(x) is int for row in ints for x in row)
    return [(m, m), (Matrix(QQ, m.nrows, m.ncols, ints),
                     Matrix.from_rows(QQ, [[Fraction(x) for x in r] for r in ints]))]


def test_q_wide_row_echelon_and_kernel():
    cases = list(_wide_cases(21))
    assert any(m.rows[r][c] < 0 for _, m in cases
               for r, c in enumerate(textbook_rref(QQ, m.rows)[1]))
    assert any(not any(row) for _, m in cases for row in m.rows)
    for _, m in cases:
        for given, ref in _given_and_reference(m):
            want_rows, want_pivots = textbook_rref(QQ, ref.rows)
            got_rows, got_pivots = _row_echelon(QQ, given.copy_rows())
            assert (got_rows, got_pivots) == (want_rows, want_pivots)
            _assert_exact(QQ, [x for r in got_rows for x in r])
            _check_kernel_basis(QQ, given, _textbook_kernel(QQ, ref))


def test_q_wide_solvers_invert_and_unit_complement():
    for rng, m in _wide_cases(22):
        for given, ref in _given_and_reference(m):
            k = rng.randint(1, 3)
            xs = [[_wide_scalar(rng) for _ in range(k)] for _ in range(m.ncols)]
            b = naive_matmul(QQ, ref.rows, xs, k)
            assert _check_solve_matrix(QQ, given, b, k, ref.rows) is not None
            b = [[_wide_scalar(rng) for _ in range(k)] for _ in range(m.nrows)]
            _check_solve_matrix(QQ, given, b, k, ref.rows)
            # unit_complement of the rows, as columns of length ncols
            d, n = m.ncols, m.nrows
            units = Matrix.identity(QQ, d).columns()
            stacked = [[col[i] for col in ref.rows] + units[i] for i in range(d)]
            want = [p - n for p in textbook_rref(QQ, stacked)[1] if p >= n]
            assert unit_complement(QQ, given.rows, d) == want
        # invert a square invertible matrix of wide entries, given both ways
        n = rng.randint(1, 6)
        while True:
            a = Matrix(QQ, n, n, [[_wide_scalar(rng) for _ in range(n)] for _ in range(n)])
            if len(textbook_rref(QQ, a.rows)[1]) == n:
                break
        ident = Matrix.identity(QQ, n).rows
        for given, ref in _given_and_reference(a):
            got = invert(given)
            want = textbook_rref(QQ, [row + irow for row, irow in zip(ref.rows, ident)])[0]
            assert got.rows == [r[n:] for r in want]
            _assert_exact(QQ, [x for r in got.rows for x in r])
            assert naive_matmul(QQ, given.rows, got.rows, n) == ident


def textbook_bottom_echelon(field, cols):
    """bottom_column_echelon in field operations: while a column's lowest
    nonzero entry sits at an earlier column's pivot, subtract that many of
    the earlier (unit-pivot) column; then scale to a unit pivot.  A column
    that reduces to zero gets pivot -1."""
    z = field.zero()
    used = {}
    pivots = []
    for col in cols:
        while (low := max((i for i, x in enumerate(col) if x != z), default=-1)) in used:
            c = col[low]
            col[:] = [field.sub(x, field.mul(c, y)) for x, y in zip(col, used[low])]
        if low != -1:
            inv = field.inv(col[low])
            col[:] = [field.mul(inv, x) for x in col]
            used[low] = col
        pivots.append(low)
    return pivots


def _check_bottom_echelon(field, given, ref):
    """bottom_column_echelon of given's rows, as columns of length ncols,
    entry for entry against textbook_bottom_echelon of ref's rows; returns
    the number of dependent columns."""
    cols = given.copy_rows()
    want = ref.copy_rows()
    want_pivots = textbook_bottom_echelon(field, want)
    assert bottom_column_echelon(field, cols) == want_pivots
    assert cols == want
    _assert_exact(field, [x for col in cols for x in col])
    return want_pivots.count(-1)


@pytest.mark.parametrize("field", PARITY_FIELDS, ids=PARITY_IDS)
def test_bottom_column_echelon_matches_textbook(field):
    dependent = sum(_check_bottom_echelon(field, m, m) for _, m in _parity_cases(field, 25))
    assert dependent


def test_q_bottom_column_echelon_matches_fraction_elimination():
    cases = [m for _, m in _wide_cases(23)] + [m for _, m in _parity_cases(QQ, 24)]
    dependent = 0
    for m in cases:
        for given, ref in _given_and_reference(m):
            dependent += _check_bottom_echelon(QQ, given, ref)
    assert dependent

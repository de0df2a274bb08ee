import json
import random
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest

from conftest import count_rows_reads, random_invertible
from sweep_reference import columns, textbook_column_reduction, unit_complement
from aquiver.ar import ar_ending_at, standard_probes, verify_almost_split
from aquiver.homological import proj_presentation
from aquiver.jsonio import parse_field, parse_interval
from aquiver.linalg import (MAX_PRIME, Matrix, PrimeField, QQ, _below, bottom_column_echelon,
                            change_basis, column_space_basis, integer_row_echelon, invert,
                            kernel_basis, random_elementary_ops, rank, solve_linear_system,
                            solve_matrix)
from aquiver.orientation import orientation_from_json
from aquiver.tamerep import scramble, tame_from_json, tame_to_json

F5 = PrimeField(5)


def mat(rows, field=QQ):
    return Matrix.from_rows(field, [[field.from_int(x) for x in r] for r in rows])


def column(field, vec):
    """vec as a one-column matrix."""
    return Matrix.from_columns(field, len(vec), [vec])


def _as_ints(field, vecs):
    """Each vector as Python ints: over Q times the lcm of its
    denominators, over F_p as it is."""
    if field != QQ:
        return [list(vec) for vec in vecs]
    scales = [lcm(*(x.denominator for x in vec)) for vec in vecs]
    return [[int(x * scale) for x in vec] for scale, vec in zip(scales, vecs)]


def _unit_pivot(field, col, piv):
    """The integer column col divided by its entry at piv, in field scalars."""
    if field == QQ:
        return [Fraction(x, col[piv]) for x in col]
    inv = field.inv(col[piv])
    return [x * inv % field.p for x in col]


def _assert_reduced_ints(field, cols, pivots):
    """cols are ints (in range(p) over F_p) with the given distinct pivot
    rows: a nonzero entry there and zeros below; -1 marks a zero column."""
    assert len({piv for piv in pivots if piv != -1}) == len(pivots) - pivots.count(-1)
    for col, piv in zip(cols, pivots):
        assert all(type(x) is int for x in col)
        if field != QQ:
            assert all(0 <= x < field.p for x in col)
        assert piv == -1 or col[piv]
        assert not any(col[piv + 1:])


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
        a = Matrix(field, n, m, *field.integer_rows(rows))
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
        cols = _as_ints(QQ, [g.column(j) for j in range(k)])
        pivots = bottom_column_echelon(QQ, cols)
        assert len(set(pivots)) == k
        for col, piv in zip(cols, pivots):
            assert col[piv] != 0
            assert all(col[i] == 0 for i in range(piv + 1, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 2**32 - 1, 2**32, 2**32 + 1,
                               2**61 - 2, MAX_PRIME - 1])
def test_below_draws_as_randrange_and_choice(n):
    # n = 1 draws one bit until it is 0; above 32 bits getrandbits reads
    # several words of the generator.  choice needs len(seq), which no
    # sequence has past sys.maxsize, so MAX_PRIME - 1 is checked against
    # randrange alone.
    for seed in range(30):
        rng, by_randrange, by_choice = (random.Random(seed) for _ in range(3))
        draws = [_below(rng, n) for _ in range(20)]
        assert draws == [by_randrange.randrange(n) for _ in range(20)]
        assert rng.getstate() == by_randrange.getstate()
        if n <= sys.maxsize:
            assert draws == [by_choice.choice(range(n)) for _ in range(20)]
            assert rng.getstate() == by_choice.getstate()


def test_q_format_spells_numerator_and_denominator():
    def spelled(a):
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    values = [Fraction(0), Fraction(10**40, 3), Fraction(-10**40, 3)]
    values += [Fraction(s * p, q) for s in (1, -1) for q in range(1, 13) for p in range(1, 25)]
    assert Fraction(1) in values and Fraction(-1) in values
    for a in values:
        assert QQ.format(a) == spelled(a)


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


def test_q_inverse_is_an_exact_fraction():
    for a, want in [(2, Fraction(1, 2)), (-3, Fraction(-1, 3)), (1, Fraction(1)),
                    (Fraction(-2, 7), Fraction(-7, 2)), (10**40, Fraction(1, 10**40))]:
        got = QQ.inv(a)
        assert type(got) is Fraction and got == want
    for field, zero in [(QQ, 0), (QQ, Fraction(0)), (F5, 0), (F5, 10)]:
        with pytest.raises(ZeroDivisionError):
            field.inv(zero)


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
    z = field.from_int(0)
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
    acc = field.from_int(0)
    for x, y in zip(xs, ys):
        acc = field.add(acc, field.mul(x, y))
    return acc


def _random_scalar(field, rng):
    if field == QQ:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return field.from_int(rng.randrange(field.p))


def _random_sparse(field, rng, nrows, ncols):
    """Sparse rows, some of them combinations of earlier rows, so that the
    rank is often below both dimensions."""
    density = rng.choice((0.0, 0.05, 0.15, 0.4))
    z = field.from_int(0)
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.25:
            c1, c2 = _random_scalar(field, rng), _random_scalar(field, rng)
            r1, r2 = rng.choice(rows), rng.choice(rows)
            rows.append([field.add(field.mul(c1, a), field.mul(c2, b)) for a, b in zip(r1, r2)])
        else:
            rows.append([_random_scalar(field, rng) if rng.random() < density else z
                         for _ in range(ncols)])
    return Matrix(field, nrows, ncols, *field.integer_rows(rows))


def _parity_cases(field, seed, count=16):
    rng = random.Random(seed)
    yield rng, Matrix.zero(field, 6, 9)
    shapes = [(0, 0), (0, 7), (7, 0), (5, 5)]
    shapes += [(rng.randint(1, 40), rng.randint(1, 60)) for _ in range(count - len(shapes))]
    for nrows, ncols in shapes:
        yield rng, _random_sparse(field, rng, nrows, ncols)


def _assert_exact(field, values):
    for x in values:
        if field == QQ:
            assert isinstance(x, Fraction)
        else:
            assert type(x) is int and 0 <= x < field.p


def _divided_echelon(field, m):
    """integer_row_echelon of m's integer rows, with each pivot row divided
    by its pivot entry, in field scalars; and the pivots."""
    ech, pivots = integer_row_echelon(field, list(m.ints))
    scales = [row[c] for row, c in zip(ech, pivots)] + [1] * (len(ech) - len(pivots))
    return [field.divide([row], s)[0] for row, s in zip(ech, scales)], pivots


@pytest.mark.parametrize("field", PARITY_FIELDS, ids=PARITY_IDS)
def test_row_echelon_matches_textbook(field):
    for _, m in _parity_cases(field, 11):
        want_rows, want_pivots = textbook_rref(field, m.rows)
        got_rows, got_pivots = _divided_echelon(field, m)
        assert got_pivots == want_pivots
        assert got_rows == want_rows
        _assert_exact(field, [x for r in got_rows for x in r])
        assert rank(m) == len(want_pivots)
        basis = column_space_basis(m)
        assert basis.nrows == m.nrows
        assert columns(basis) == [m.column(j) for j in want_pivots]


def _textbook_kernel(field, m):
    """The kernel basis read off textbook_rref: one column per free column."""
    z, o = field.from_int(0), field.from_int(1)
    ref, pivots = textbook_rref(field, m.rows)
    want = []
    for fc in [c for c in range(m.ncols) if c not in pivots]:
        vec = [z] * m.ncols
        vec[fc] = o
        for r, pc in enumerate(pivots):
            vec[pc] = field.sub(z, ref[r][fc])
        want.append(vec)
    return want


def _check_kernel_basis(field, m, want):
    k = kernel_basis(m)
    assert k.nrows == m.ncols and columns(k) == want
    _assert_exact(field, [x for col in columns(k) for x in col])
    prod = naive_matmul(field, m.rows, k.rows, k.ncols)
    assert all(x == field.from_int(0) for r in prod for x in r)


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
    got = solve_matrix(m, Matrix(field, m.nrows, k, *field.integer_rows(b)))
    if any(pc >= m.ncols for pc in pivots):
        assert got is None
        return None
    want = [[field.from_int(0)] * k for _ in range(m.ncols)]
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
        vec = [_random_scalar(field, rng) if rng.random() < 0.5 else field.from_int(0)
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
        given = [g.column(j) for j in rng.sample(range(n), rng.randint(1, n))]
        cols = _as_ints(field, given)
        pivots = bottom_column_echelon(field, cols)
        assert -1 not in pivots
        _assert_reduced_ints(field, cols, pivots)
        # same span: the echelonized columns solve against the originals
        reduced = [_unit_pivot(field, col, piv) for col, piv in zip(cols, pivots)]
        before = Matrix.from_columns(field, n, given)
        assert solve_matrix(before, Matrix.from_columns(field, n, reduced)) is not None


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
        units = columns(Matrix.identity(field, d))
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
        cols = _as_ints(field, given)
        pivots = bottom_column_echelon(field, cols)
        kept = [j for j, piv in enumerate(pivots) if piv != -1]
        assert kept == _greedy_keeps(field, given)
        dependent += len(given) - len(kept)
        _assert_reduced_ints(field, cols, pivots)
        # the kept columns span what the given ones span
        reduced = [_unit_pivot(field, cols[j], pivots[j]) for j in kept]
        assert rank(Matrix.from_columns(field, d, given)) == len(kept)
        assert rank(Matrix.from_columns(field, d, given + reduced)) == len(kept)
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
        yield rng, Matrix(QQ, nrows, ncols, *QQ.integer_rows(rows))


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
            got_rows, got_pivots = _divided_echelon(QQ, given)
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
            units = columns(Matrix.identity(QQ, d))
            stacked = [[col[i] for col in ref.rows] + units[i] for i in range(d)]
            want = [p - n for p in textbook_rref(QQ, stacked)[1] if p >= n]
            assert unit_complement(QQ, given.rows, d) == want
        # invert a square invertible matrix of wide entries, given both ways
        n = rng.randint(1, 6)
        while True:
            a = Matrix.from_rows(QQ, [[_wide_scalar(rng) for _ in range(n)] for _ in range(n)])
            if len(textbook_rref(QQ, a.rows)[1]) == n:
                break
        ident = Matrix.identity(QQ, n).rows
        for given, ref in _given_and_reference(a):
            got = invert(given)
            want = textbook_rref(QQ, [row + irow for row, irow in zip(ref.rows, ident)])[0]
            assert got.rows == [r[n:] for r in want]
            _assert_exact(QQ, [x for r in got.rows for x in r])
            assert naive_matmul(QQ, given.rows, got.rows, n) == ident


def _check_bottom_echelon(field, given, ref):
    """bottom_column_echelon of given's rows, as integer columns of length
    ncols, against sweep_reference.textbook_column_reduction of ref's rows:
    the same pivots, and each reduced column, divided by its pivot entry,
    equal entry for entry to the textbook one; returns the number of
    dependent columns."""
    cols = _as_ints(field, given.rows)
    want = [list(r) for r in ref.rows]
    want_pivots = textbook_column_reduction(field, want)
    assert bottom_column_echelon(field, cols) == want_pivots
    _assert_reduced_ints(field, cols, want_pivots)
    for col, piv, wcol in zip(cols, want_pivots, want):
        assert (_unit_pivot(field, col, piv) if piv != -1 else col) == wcol
    return want_pivots.count(-1)


@pytest.mark.parametrize("field", [QQ, F5, PrimeField(2**61 - 1)], ids=["Q", "F5", "F2^61-1"])
def test_bottom_column_echelon_matches_reference_reduction(field):
    # integer columns as the sweep passes them: over Q of mixed sign and
    # content, over F_p in range(p); some are combinations of earlier ones
    rng = random.Random(26)
    dependent = with_content = 0
    for _ in range(40):
        d, n = rng.randint(1, 9), rng.randint(1, 10)
        cols = []
        for _ in range(n):
            if cols and rng.random() < 0.3:
                a, b = rng.choice(cols), rng.choice(cols)
                c1, c2 = rng.randint(-4, 4), rng.randint(-4, 4)
                col = [c1 * x + c2 * y for x, y in zip(a, b)]
            else:
                g = rng.choice((1, 1, 2, -6, 10**12))
                col = [g * rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(d)]
            if field != QQ:
                col = [x % field.p for x in col]
            cols.append(col)
        with_content += sum(gcd(*col) > 1 and min(col) < 0 for col in cols)
        ref = [[field.from_int(x) for x in col] for col in cols]
        want = textbook_column_reduction(field, ref)
        assert bottom_column_echelon(field, cols) == want
        _assert_reduced_ints(field, cols, want)
        for col, piv, wcol in zip(cols, want, ref):
            # a nonzero multiple of the reference column
            c = col[piv] if piv != -1 else 0
            assert [field.from_int(x) for x in col] == [field.mul(c, y) for y in wcol]
        dependent += want.count(-1)
    assert dependent >= 40
    assert field != QQ or with_content >= 40


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


# ---------------------------------------------------------------------------
# The field's integer form: the methods through which every integer loop
# and the decomposition sweep reach the scalars, checked against the scalar
# field operations.

CONTRACT_FIELDS = [QQ, PrimeField(2), F5, PrimeField(2**61 - 1)]
CONTRACT_IDS = ["Q", "F2", "F5", "F2^61-1"]


def _is_nonzero_multiple(field, ints, vec):
    """Whether the ints, read as field scalars, are c * vec for some c != 0."""
    got = [field.from_int(x) for x in ints]
    j = next((j for j, x in enumerate(vec) if x), None)
    if j is None:
        return not any(got)
    c = field.mul(got[j], field.inv(vec[j]))
    return bool(c) and got == [field.mul(c, x) for x in vec]


def _random_ints(field, rng, n):
    """Integers as the loops meet them: over Q of any sign and with a
    content, over F_p in range(p)."""
    if field == QQ:
        g = rng.choice((1, 1, 3, -10**12))
        return [g * rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(n)]
    return [rng.randrange(1, field.p) if rng.random() < 0.7 else 0 for _ in range(n)]


@pytest.mark.parametrize("field", CONTRACT_FIELDS, ids=CONTRACT_IDS)
def test_field_integer_rows_divide_and_to_ints(field):
    cases = [m for _, m in _parity_cases(field, 41)]
    if field == QQ:
        cases += [m for _, m in _wide_cases(42)]
    for m in cases:
        ints, den = field.integer_rows(m.rows)
        assert all(type(x) is int for row in ints for x in row) and den
        assert field.divide(ints, den) == m.rows
    rng = random.Random(43)
    for _ in range(50):
        ints = _random_ints(field, rng, rng.randint(0, 6))
        den = rng.choice((1, -1, 2, 7, 10**30 + 1)) if field == QQ else rng.randrange(1, field.p)
        inv = field.inv(field.from_int(den))
        assert field.divide([ints], den) == [[field.mul(field.from_int(x), inv) for x in ints]]


@pytest.mark.parametrize("field", CONTRACT_FIELDS, ids=CONTRACT_IDS)
def test_field_eliminate_and_canonical(field):
    rng = random.Random(44)
    eliminated = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        row, prow = _random_ints(field, rng, n), _random_ints(field, rng, n)
        for j in range(n):
            a, p = row[j], prow[j]
            if not (a and p):
                continue
            out = field.eliminate(row, prow, a, p)
            assert all(type(x) is int for x in out) and out[j] == 0
            c = field.mul(field.from_int(a), field.inv(field.from_int(p)))
            want = [field.sub(field.from_int(x), field.mul(c, field.from_int(y)))
                    for x, y in zip(row, prow)]
            assert _is_nonzero_multiple(field, out, want)
            eliminated += 1
        vec = [rng.choice((1, -1)) * rng.randint(0, 10**20) for _ in range(n)]
        got = field.canonical(vec)
        assert all(type(x) is int for x in got)
        assert _is_nonzero_multiple(field, got, [field.from_int(x) for x in vec])
        if field == QQ:
            assert gcd(*got) in (0, 1)
        else:
            assert all(0 <= x < field.p for x in got)
    assert eliminated >= 200


@pytest.mark.parametrize("field", CONTRACT_FIELDS, ids=CONTRACT_IDS)
def test_field_pivot_scaling_draws_and_units(field):
    rng = random.Random(45)
    for n in range(8):
        if field == QQ:
            pivots = [rng.choice((1, -1)) * rng.randint(1, 10**12) for _ in range(n)]
        else:
            pivots = [rng.randrange(1, field.p) for _ in range(n)]
        scale, factors = field.pivot_scaling(pivots)
        assert type(scale) is int and field.from_int(scale)
        assert all(type(f) is int for f in factors) and len(factors) == n
        for f, q in zip(factors, pivots):
            assert field.from_int(f) == field.mul(field.from_int(scale),
                                                  field.inv(field.from_int(q)))
    for _ in range(50):
        for c in (field.draw_coeff(rng), field.draw_unit(rng)):
            assert type(c) is int and field.from_int(c)
        u = field.draw_unit(rng)
        inverse = field.unit_inverse(u)
        assert type(inverse) is int
        assert field.mul(field.from_int(u), field.from_int(inverse)) == field.from_int(1)


@pytest.mark.parametrize("field", CONTRACT_FIELDS, ids=CONTRACT_IDS)
def test_field_parse_format_and_name(field):
    rng = random.Random(46)
    values = [field.from_int(0), field.from_int(1), field.from_int(-1)]
    values += [_random_scalar(field, rng) for _ in range(40)]
    if field == QQ:
        values += [_wide_scalar(rng) for _ in range(20)]
    for x in values:
        text = field.format(x)
        assert type(text) is str and field.parse(text) == x
    # a JSON integer entry too, over F_p reduced mod p
    assert field.parse(-1) == field.parse("-1") == field.from_int(-1)
    assert parse_field(str(field)) == field
    assert parse_field(field.to_json()) == field
    assert parse_field(json.loads(json.dumps(field.to_json()))) == field


# ---------------------------------------------------------------------------
# Matrix storage: a matrix stores integer rows over one denominator,
# whether it is built from them or from rows of field scalars, and builds
# its field-scalar rows from them on first read.  Either way it is the same
# map.

def _integer_form(field, rows, k):
    """(ints, den) of rows with den k times the lcm of the denominators;
    over F_p the rows themselves over 1."""
    if field != QQ:
        return [list(r) for r in rows], 1
    den = k * lcm(*{x.denominator for r in rows for x in r})
    return [[int(x * den) for x in r] for r in rows], den


@pytest.mark.parametrize("field", CONTRACT_FIELDS, ids=CONTRACT_IDS)
def test_matrix_from_rows_and_from_ints_agree(field):
    cases = [m for _, m in _parity_cases(field, 47)]
    if field == QQ:
        cases += [m for _, m in _wide_cases(48)]
    perturbed = 0
    for i, m in enumerate(cases):
        ints, den = _integer_form(field, m.rows, 1 + i % 3)
        a = Matrix(field, m.nrows, m.ncols, *field.integer_rows(m.rows))
        b = Matrix(field, m.nrows, m.ncols, ints, den)
        assert a == b and b == a
        assert b.rows == a.rows == m.rows
        assert (b.nrows, b.ncols) == (a.nrows, a.ncols) == (m.nrows, m.ncols)
        assert (b.ints, b.den) == (ints, den)
        # the integer form a matrix converts its rows to reads back as them
        assert all(type(x) is int for r in a.ints for x in r) and a.den
        assert field.divide(a.ints, a.den) == m.rows
        assert field == QQ or (a.den == 1 and all(0 <= x < field.p for r in a.ints for x in r))
        text = [[field.format(x) for x in r] for r in m.rows]
        assert a.to_json() == b.to_json() == text
        assert rank(a) == rank(b) and a.is_zero() == b.is_zero()
        if m.nrows and m.ncols:
            # one entry moved by one: a different map
            other = [list(r) for r in ints]
            other[0][0] = field.reduce_rows([[other[0][0] + den]])[0][0]
            assert Matrix(field, m.nrows, m.ncols, other, den) != a
            perturbed += 1
    assert perturbed >= 10


@pytest.mark.parametrize("field", [QQ, F5, PrimeField(2**61 - 1)], ids=["Q", "F5", "F2^61-1"])
def test_matrix_integer_rows_over_a_denominator(field):
    # over F_2 the denominator 2 is 0, so F_2 is left out
    m = Matrix(field, 1, 2, [[2, 4]], 2)
    assert m == mat([[1, 2]], field) and mat([[1, 2]], field) == m
    assert m.rows == [[field.from_int(1), field.from_int(2)]]
    assert m.to_json() == [["1", "2"]]
    assert m != mat([[2, 4]], field)


def test_q_matrix_integer_rows_spell_lowest_terms():
    m = Matrix(QQ, 2, 3, [[-6, 7, 0], [70, 14, -28]], 14)
    assert m.rows == [[Fraction(-3, 7), Fraction(1, 2), 0], [5, 1, -2]]
    assert m.to_json() == [["-3/7", "1/2", "0"], ["5", "1", "-2"]]
    assert m == Matrix.from_rows(QQ, [[Fraction(-3, 7), Fraction(1, 2), 0], [5, 1, -2]])


@pytest.mark.parametrize("field", CONTRACT_FIELDS, ids=CONTRACT_IDS)
def test_matrix_empty_shapes(field):
    for nrows, ncols in [(0, 0), (0, 4), (3, 0)]:
        a = Matrix(field, nrows, ncols, *field.integer_rows([[] for _ in range(nrows)]))
        b = Matrix(field, nrows, ncols, [[] for _ in range(nrows)])
        assert a == b and a == Matrix.zero(field, nrows, ncols)
        assert a.rows == b.rows == [[] for _ in range(nrows)]
        assert (a.nrows, a.ncols) == (b.nrows, b.ncols) == (nrows, ncols)
        assert (a.ints, a.den) == ([[] for _ in range(nrows)], 1)
        assert a.to_json() == b.to_json() == [[] for _ in range(nrows)]
        assert rank(a) == rank(b) == 0 and a.is_zero() and b.is_zero()
    out = Matrix(field, 2, 0, [[], []]).matmul(Matrix(field, 0, 3, []))
    assert out == Matrix.zero(field, 2, 3)
    with pytest.raises(ValueError):
        Matrix(field, 2, 0, [[], [1]])
    with pytest.raises(ValueError):
        Matrix(field, 0, 0, [[]])


def _random_from_ints(field, rng, nrows, ncols):
    """A matrix built from sparse random integer rows over a random
    denominator."""
    ints = [[rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(ncols)]
            for _ in range(nrows)]
    return Matrix(field, nrows, ncols, field.reduce_rows(ints), rng.choice((1, 2, 3)))


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_matrix_algebra_reads_no_field_rows(field, monkeypatch):
    # every operation reads and builds the integer form; the field-scalar
    # rows are a view for callers at the API edge and stay unbuilt
    rng = random.Random(51)
    cases = []
    for _ in range(20):
        n, k = rng.randint(0, 5), rng.randint(0, 5)
        g = random_invertible(field, n, rng)
        g = Matrix(field, n, n, g.ints, g.den)
        cases.append((_random_from_ints(field, rng, n, k), _random_from_ints(field, rng, k, 3), g))
    o = orientation_from_json({"criticals": [{"pos": "0", "kind": "sink"},
                                             {"pos": "1", "kind": "source"}],
                               "empty_direction": "descending"})
    counted = []
    count_rows_reads(monkeypatch, counted)
    kernels = 0
    for a, b, g in cases:
        ab = a.matmul(b)
        twice = field.reduce_rows([[2 * x for x in row] for row in ab.ints])
        assert ab == Matrix(field, ab.nrows, ab.ncols, twice, 2 * ab.den)
        assert ab == ab.transpose().transpose() and ab.is_zero() == (rank(ab) == 0)
        k = kernel_basis(a)
        assert a.matmul(k).is_zero() and k.ncols == a.ncols - rank(a)
        x = solve_matrix(a, ab)
        assert x is not None and a.matmul(x) == ab
        basis, inverse = column_space_basis(a), invert(g)
        assert rank(basis) == rank(a)
        assert g.matmul(inverse) == Matrix.identity(field, g.nrows)
        assert len(a.to_json()) == a.nrows
        # every result is stored as a matrix must be: over F_p in range(p)
        for m in (ab, ab.transpose(), a.add(a), k, x, basis, inverse):
            assert all(type(v) is int for row in m.ints for v in row) and m.den
            assert field == QQ or all(0 <= v < field.p for row in m.ints for v in row)
        kernels += k.ncols
    seq = ar_ending_at(o, parse_interval("(1/4,1/2]"), field).sequence
    assert verify_almost_split(seq, standard_probes(o, seq))
    assert proj_presentation(o, parse_interval("[0,2)"), field).p1
    assert counted == []
    assert kernels >= 10


@pytest.mark.parametrize("field", CONTRACT_FIELDS, ids=CONTRACT_IDS)
def test_change_basis_keeps_the_integer_form(field):
    # P M Q^-1 on the integer form, over the same den and, over F_p, in
    # range(p), against the product of the matrices the same draws form
    cases = [m for _, m in _parity_cases(field, 49)]
    if field == QQ:
        cases += [m for _, m in _wide_cases(50)]
    for seed, m in enumerate(cases):
        den = m.den
        rng = random.Random(seed)
        ops = random_elementary_ops(field, m.nrows, rng), random_elementary_ops(field, m.ncols, rng)
        ints, got_den = change_basis(field, m.ints, den, *ops)
        assert got_den == den and all(type(x) is int for r in ints for x in r)
        assert field == QQ or all(0 <= x < field.p for r in ints for x in r)
        got = Matrix(field, m.nrows, m.ncols, ints, den)
        rng = random.Random(seed)
        p, q = random_invertible(field, m.nrows, rng), random_invertible(field, m.ncols, rng)
        want = p.matmul(m).matmul(invert(q))
        assert got == want and rank(got) == rank(m)


def _two_point_tame(m1, m2):
    """A tame object on the grid 0, 1/2, two-dimensional on [0, 1/2]."""
    return {"grid": ["0", "1/2"], "dims": [0, 2, 2, 2, 0],
            "maps": [{"dir": "down", "entries": []}, {"dir": "down", "entries": m1},
                     {"dir": "down", "entries": m2}, {"dir": "down", "entries": [[], []]}]}


# tame_to_json of the parsed document and of its scramble with seed 3, as
# printed before matrices kept their integer form
_DESCENDING = {"criticals": [], "empty_direction": "descending"}
_PINNED_TAME = [
    (QQ, _two_point_tame([["-3/7", "1/2"], ["0", 5]], [["2/4", "0.25"], ["6/3", -1]]),
     '{"grid": ["0", "1/2"], "dims": [0, 2, 2, 2, 0], "maps": [{"dir": "down", "entries": []}, '
     '{"dir": "down", "entries": [["-3/7", "1/2"], ["0", "5"]]}, '
     '{"dir": "down", "entries": [["1/2", "1/4"], ["2", "-1"]]}, {"dir": "down", "entries": [[], []]}]}',
     '{"grid": ["0", "1/2"], "dims": [0, 2, 2, 2, 0], "maps": [{"dir": "down", "entries": []}, '
     '{"dir": "down", "entries": [["-41/2", "3/7"], ["-5", "0"]]}, '
     '{"dir": "down", "entries": [["-5", "-2"], ["-3/4", "-1/2"]]}, {"dir": "down", "entries": [[], []]}]}'),
    (F5, _two_point_tame([["7", "-1"], ["0", 5]], [["3", 2], ["-6", "1"]]),
     '{"grid": ["0", "1/2"], "dims": [0, 2, 2, 2, 0], "maps": [{"dir": "down", "entries": []}, '
     '{"dir": "down", "entries": [["2", "4"], ["0", "0"]]}, '
     '{"dir": "down", "entries": [["3", "2"], ["4", "1"]]}, {"dir": "down", "entries": [[], []]}]}',
     '{"grid": ["0", "1/2"], "dims": [0, 2, 2, 2, 0], "maps": [{"dir": "down", "entries": []}, '
     '{"dir": "down", "entries": [["1", "3"], ["0", "0"]]}, '
     '{"dir": "down", "entries": [["0", "2"], ["0", "4"]]}, {"dir": "down", "entries": [[], []]}]}'),
]


@pytest.mark.parametrize("field, tame, parsed, scrambled", _PINNED_TAME, ids=["Q", "F5"])
def test_tame_document_round_trips_to_pinned_bytes(field, tame, parsed, scrambled):
    v = tame_from_json(orientation_from_json(_DESCENDING), tame, field)
    assert json.dumps(tame_to_json(v)) == parsed
    assert json.dumps(tame_to_json(scramble(v, 3))) == scrambled
    again = tame_from_json(orientation_from_json(_DESCENDING), json.loads(parsed), field)
    assert again == v and json.dumps(tame_to_json(again)) == parsed
    # each map is parsed to integer rows over the lcm of its denominators
    if field == QQ:
        assert [(m.ints, m.den) for m in v.maps[1:3]] == [([[-6, 7], [0, 70]], 14),
                                                          ([[2, 1], [8, -4]], 4)]
    else:
        assert [(m.ints, m.den) for m in v.maps[1:3]] == [([[2, 4], [0, 0]], 1),
                                                          ([[3, 2], [4, 1]], 1)]

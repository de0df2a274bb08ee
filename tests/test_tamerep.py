import itertools
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from conftest import (POSITIONS, cell_representative, dual_cokernel, random_bars,
                      random_interval, random_invertible, random_orientation)
from oracle import increasing_beside
from aquiver import tamerep
from aquiver.decompose import decompose, iso
from aquiver.intervals import BarMultiset, Interval, NEG_INF, POS_INF, is_finite
from aquiver.linalg import Matrix, PrimeField, QQ, random_elementary_ops
from aquiver.orientation import Orientation
from aquiver.tamerep import (DOWN, UP, RepMorphism, TameRep, cell_of_point,
                             cells_to_interval, conjugate, direct_sum, dual,
                             from_bars, image_rep, interval_to_cells, junction_cells,
                             junction_dirs, kernel_rep, refine, reps_on_common_grid, restrict,
                             scramble, zero_rep)

SRC = Path(__file__).resolve().parent.parent / "src"
EMPTY_DESC = Orientation.make([], "descending")
ZIGZAG = Orientation.make([(0, "sink"), (1, "source")])


def bars(*specs):
    return BarMultiset((iv, m) for iv, m in specs)


def test_from_bars_single_closed_bar():
    v = from_bars(EMPTY_DESC, bars((Interval.make(0, 1, True, True), 1)))
    assert v.grid == (0, 1)
    assert v.dims == (0, 1, 1, 1, 0)
    assert v.dirs == ("down",) * 4
    inner = [m for m in v.maps if m.nrows == 1 and m.ncols == 1]
    assert all(m.rows[0][0] == 1 for m in inner)


def test_reps_on_common_grid_spans_every_group():
    # The critical points 0 and 1 lie below every finite endpoint.  Only the
    # first group reaches -inf, yet both groups must get them: the grid is
    # closed under the criticals inside the hull of the whole family.
    reach = Interval.make(NEG_INF, 2, False, True)
    bounded = Interval.make(3, 4, True, False)
    (a, a_slots), (b, b_slots), (z, z_slots) = reps_on_common_grid(ZIGZAG, [[reach], [bounded], []])
    assert a.grid == b.grid == z.grid == (0, 1, 2, 3, 4)
    assert a.dirs == b.dirs == z.dirs == tuple(junction_dirs(ZIGZAG, a.grid))
    assert decompose(a) == bars((reach, 1)) and decompose(b) == bars((bounded, 1))
    assert a_slots == [[0]] * 6 + [[]] * 5 and b_slots == [[]] * 7 + [[0]] * 2 + [[]] * 2
    assert z.is_zero() and z_slots == [[]] * 11
    assert reps_on_common_grid(ZIGZAG, []) == []


def _random_family(rng):
    """1-3 groups of random intervals, with repeated bars, and one group
    left empty in about half of the families with two or more."""
    groups = []
    for _ in range(rng.randint(1, 3)):
        group = [random_interval(rng) for _ in range(rng.randint(1, 5))]
        group += [rng.choice(group) for _ in range(rng.randint(0, 3))]
        rng.shuffle(group)
        groups.append(group)
    if len(groups) > 1 and rng.random() < 0.5:
        groups[rng.randrange(len(groups))] = []
    return groups


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_reps_on_common_grid_matches_per_cell_definition(field):
    # the grid holds every finite end and each critical point that some
    # interval reaches down to and some interval reaches up to; a group's
    # cell holds the intervals containing a point of it, in group order,
    # and a junction map has a 1 exactly where a slot's interval continues
    # across the junction
    rng = random.Random(2020)
    seen = set()
    for _ in range(150):
        o = random_orientation(rng)
        groups = _random_family(rng)
        family = [iv for group in groups for iv in group]
        ends = {e for iv in family for e in (iv.lo, iv.hi) if is_finite(e)}
        reached = {p for p in o.positions
                   if any(iv.lo <= p for iv in family) and any(p <= iv.hi for iv in family)}
        grid = tuple(sorted(ends | reached))
        packs = reps_on_common_grid(o, groups, field)
        assert len(packs) == len(groups)
        for group, (rep, slots) in zip(groups, packs):
            assert rep.grid == grid and rep.field == field
            ranges = [interval_to_cells(grid, iv) for iv in group]
            for c in range(2 * len(grid) + 1):
                x = cell_representative(grid, c)
                assert slots[c] == [i for i, iv in enumerate(group) if iv.contains(x)]
                assert slots[c] == [i for i, (a, b) in enumerate(ranges) if a <= c <= b]
            assert rep.dims == tuple(len(s) for s in slots)
            for j, (m, d) in enumerate(zip(rep.maps, rep.dirs)):
                src, tgt = junction_cells(d, j)
                assert m.rows == [[field.one() if i == k else field.zero() for i in slots[src]]
                                  for k in slots[tgt]]
            seen.update(("empty",) if not group else ())
            seen.update("infinite" for iv in group if not (is_finite(iv.lo) and is_finite(iv.hi)))
            seen.update("point" for iv in group if iv.is_point())
            seen.update("half-open" for iv in group if iv.lo_closed != iv.hi_closed)
            seen.update("repeated" for iv in group if group.count(iv) > 1)
    assert seen == {"empty", "infinite", "point", "half-open", "repeated"}


def test_from_bars_empty():
    v = from_bars(EMPTY_DESC, BarMultiset())
    assert v.grid == () and v.dims == (0,)
    assert v.is_zero()


def test_from_bars_overlap_count():
    v = from_bars(EMPTY_DESC, bars((Interval.make(0, 2, True, False), 1),
                                   (Interval.make(1, 3, True, False), 1)))
    assert v.dim_at(Fraction(3, 2)) == 2
    assert v.dim_at(Fraction(1, 2)) == 1
    assert v.dim_at(3) == 0


def test_grid_includes_criticals_in_hull():
    v = from_bars(ZIGZAG, bars((Interval.make(-1, 2, True, True), 1)))
    assert Fraction(0) in v.grid and Fraction(1) in v.grid


def test_validation_rejects_missing_critical():
    with pytest.raises(ValueError, match="missing from the grid"):
        TameRep(ZIGZAG, QQ, [Fraction(-1), Fraction(2)], [0, 1, 1, 1, 0],
                [Matrix.zero(QQ, 0, 1), Matrix.zero(QQ, 1, 1),
                 Matrix.zero(QQ, 1, 1), Matrix.zero(QQ, 0, 1)])


def test_dim_at_zero_rep():
    z = zero_rep(EMPTY_DESC)
    for x in (-3, 0, 10):
        assert z.dim_at(x) == 0


def test_refine_preserves_decomposition():
    b = bars((Interval.make(0, 2, True, False), 2), (Interval.point(1), 1))
    v = from_bars(EMPTY_DESC, b)
    w = refine(v, [Fraction(1, 2), Fraction(5)])
    assert Fraction(1, 2) in w.grid and Fraction(5) in w.grid
    assert decompose(w) == b


def test_restrict_examples():
    b = bars((Interval.make(0, 2, True, False), 1))
    v = from_bars(EMPTY_DESC, b)
    assert decompose(restrict(v, Interval(NEG_INF, POS_INF, False, False))) == b
    r = restrict(v, Interval.make(1, 3, True, False))
    assert decompose(r) == bars((Interval.make(1, 2, True, False), 1))
    far = restrict(v, Interval.make(10, 11, True, True))
    assert far.is_zero()


def test_restrict_respects_openness():
    v = from_bars(EMPTY_DESC, bars((Interval.make(0, 2, True, True), 1)))
    r = restrict(v, Interval.make(0, 1, False, False))
    assert decompose(r) == bars((Interval.make(0, 1, False, False), 1))


def test_restrict_matches_per_cell_definition():
    # restrict keeps a cell of the refined grid when it lies in the
    # interval: a point cell when the interval contains its point, an open
    # cell when its two ends lie inside the interval's hull
    rng = random.Random(4242)
    ends = [NEG_INF, POS_INF] + POSITIONS + [Fraction(7, 3), Fraction(-9, 4)]
    for i in range(200):
        o = random_orientation(rng)
        v = scramble(from_bars(o, random_bars(rng)), 900 + i)
        lo, hi = sorted(rng.sample(ends, 2))
        if rng.random() < 0.2 and is_finite(lo):
            j_iv = Interval.point(lo)
        else:
            j_iv = Interval.make(lo, hi, is_finite(lo) and rng.random() < 0.5,
                                 is_finite(hi) and rng.random() < 0.5)
        r = restrict(v, j_iv)
        w = refine(v, [e for e in (j_iv.lo, j_iv.hi) if is_finite(e)])
        keep = []
        for c in range(w.ncells):
            ext = cells_to_interval(w.grid, c, c)
            keep.append(j_iv.contains(ext.lo) if ext.is_point()
                        else j_iv.lo <= ext.lo and ext.hi <= j_iv.hi)
        assert r.grid == w.grid
        assert r.dims == tuple(d if k else 0 for d, k in zip(w.dims, keep))
        for j, (m, d) in enumerate(zip(r.maps, w.dirs)):
            src, tgt = junction_cells(d, j)
            assert m == (w.maps[j] if keep[src] and keep[tgt]
                         else Matrix.zero(w.field, r.dims[tgt], r.dims[src]))


def test_direct_sum():
    b1 = bars((Interval.make(0, 1, True, True), 1))
    b2 = bars((Interval.make(Fraction(1, 2), 2, True, False), 2))
    v1, v2 = from_bars(EMPTY_DESC, b1), from_bars(EMPTY_DESC, b2)
    s = direct_sum(v1, v2)
    for x in (0, Fraction(1, 2), 1, Fraction(3, 2)):
        assert s.dim_at(x) == v1.dim_at(x) + v2.dim_at(x)
    assert decompose(s) == b1.union(b2)
    z = zero_rep(EMPTY_DESC)
    assert decompose(direct_sum(v1, z)) == b1


def test_direct_sum_orientation_mismatch():
    with pytest.raises(ValueError, match="orientation"):
        direct_sum(zero_rep(EMPTY_DESC), zero_rep(ZIGZAG))


def test_dual_involution_and_supports():
    rng = random.Random(31)
    for _ in range(25):
        o = random_orientation(rng)
        b = random_bars(rng, max_bars=5)
        v = from_bars(o, b)
        d = dual(v)
        assert d.orientation != v.orientation or not o.criticals or True
        assert decompose(d) == b
        dd = dual(d)
        assert dd == v
        assert iso(dd, v)
    assert dual(zero_rep(EMPTY_DESC)).is_zero()


def test_dual_preserves_dims():
    v = from_bars(ZIGZAG, bars((Interval.make(-1, 2, True, False), 3)))
    d = dual(v)
    for x in (-1, 0, Fraction(1, 2), 1, Fraction(3, 2), 2):
        assert d.dim_at(x) == v.dim_at(x)


def test_conjugate_identity_fixes_rep():
    v = from_bars(EMPTY_DESC, bars((Interval.make(0, 2, True, False), 2)))
    mats = [Matrix.identity(QQ, d) for d in v.dims]
    assert conjugate(v, mats) == v


def test_scramble_deterministic_and_isomorphic():
    b = bars((Interval.make(0, 2, True, False), 2), (Interval.point(1), 1))
    v = from_bars(EMPTY_DESC, b)
    s1 = scramble(v, 99)
    s2 = scramble(v, 99)
    assert s1 == s2
    assert s1.dims == v.dims
    assert decompose(s1) == b
    assert scramble(zero_rep(EMPTY_DESC), 1).is_zero()


def test_scramble_over_prime_field():
    F5 = PrimeField(5)
    b = bars((Interval.make(0, 1, True, True), 2))
    v = from_bars(EMPTY_DESC, b, F5)
    assert decompose(scramble(v, 3)) == b


def _random_entry(rng, field):
    if field == QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return rng.randrange(field.p)


def _filled_rep(o, field, grid, dims, entry):
    """The representation with these cells whose maps hold entry(), drawn
    map by map, row by row."""
    maps = []
    for j, d in enumerate(junction_dirs(o, grid)):
        src, tgt = junction_cells(d, j)
        rows = [[entry() for _ in range(dims[src])] for _ in range(dims[tgt])]
        maps.append(Matrix(field, dims[tgt], dims[src], rows))
    return TameRep(o, field, grid, dims, maps)


def _random_maps_rep(rng, field):
    """Cells of dimension 0 to 3 on a random orientation, with random maps;
    over Q most entries are not integers."""
    o = random_orientation(rng)
    grid = sorted(set(o.positions) | set(rng.sample(POSITIONS, rng.randint(0, 3))))
    dims = [rng.randint(0, 3) for _ in range(2 * len(grid) + 1)]
    return _filled_rep(o, field, grid, dims, lambda: _random_entry(rng, field))


def _parity_reps(field, rng):
    """Edge cases, then random reps: maps of shape 0 x n and n x 0 and, over
    Q, 3 x 3 maps whose denominators have an lcm above 2**64."""
    reps = [zero_rep(EMPTY_DESC, field), TameRep(EMPTY_DESC, field, [], [2], []),
            _filled_rep(EMPTY_DESC, field, [0, 1], [0, 3, 0, 2, 1],
                        lambda: _random_entry(rng, field)),
            scramble(scramble(from_bars(ZIGZAG, bars((Interval.make(-1, 2, True, False), 2),
                                                     (Interval.point(1), 1)), field), 4), 5)]
    if field == QQ:
        dens = itertools.cycle([2**61 - 1, 3**41, 5**28, 1, 7])
        reps.append(_filled_rep(EMPTY_DESC, field, [0], [3, 3, 3],
                                lambda: Fraction(rng.choice([-3, -1, 1, 2]), next(dens))))
    return reps + [_random_maps_rep(rng, field) for _ in range(40)]


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)], ids=["Q", "F2", "F5"])
def test_scramble_equals_conjugate_by_random_invertible(field):
    # scramble applies each cell's elementary operations without forming P;
    # the result must be conjugation by the P that random_invertible forms
    # from the same draw of the same rng
    # (an int entry would compare equal to the Fraction, so over Q the type
    # of every scrambled entry is checked too)
    reps = _parity_reps(field, random.Random(4242))
    seen_dims, shapes = set(), set()
    for seed, v in enumerate(reps):
        rng = random.Random(seed)
        want = conjugate(v, [random_invertible(field, d, rng) for d in v.dims])
        got = scramble(v, seed)
        assert got == want
        if field == QQ:
            assert all(type(x) is Fraction for m in got.maps for r in m.rows for x in r)
        seen_dims.update(v.dims)
        shapes.update((m.nrows, m.ncols) for m in v.maps)
    assert {0, 1, 2, 3} <= seen_dims
    assert (0, 3) in shapes and (3, 0) in shapes
    if field == QQ:
        assert max(lcm(*(x.denominator for r in m.rows for x in r))
                   for v in reps for m in v.maps) > 2**64


def test_scramble_forms_no_product_or_inverse(monkeypatch):
    reps = _parity_reps(QQ, random.Random(7)) + _parity_reps(PrimeField(5), random.Random(8))
    want = [scramble(v, 3) for v in reps]

    def refuse(*args):
        raise AssertionError("scramble formed a matrix product or an inverse")

    monkeypatch.setattr(tamerep, "invert", refuse)
    monkeypatch.setattr(Matrix, "matmul", refuse)
    assert [scramble(v, 3) for v in reps] == want


def _listed_unit_ops(field, n, rng):
    """random_elementary_ops over F_p as first written: both scalars drawn
    by rng.choice over the list of all p - 1 units."""
    units = [field.from_int(c) for c in range(1, field.p)]
    ops = []
    for _ in range(2 * n + 2 if n else 0):
        op, i, k = rng.randrange(3), rng.randrange(n), rng.randrange(n)
        if op == 0 and i != k:
            ops.append((0, i, k, rng.choice(units)))
        elif op == 1 and i != k:
            ops.append((1, i, k, None))
        else:
            ops.append((2, i, i, rng.choice(units)))
    return ops


@pytest.mark.parametrize("p", [2, 7, 1009])
def test_unit_draw_consumes_the_rng_as_a_choice_over_all_units(p):
    field = PrimeField(p)
    for seed in range(20):
        n = seed % 6
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        assert (random_elementary_ops(field, n, got_rng)
                == _listed_unit_ops(field, n, want_rng))
        assert got_rng.random() == want_rng.random()


def test_scramble_over_a_large_prime_builds_no_list_of_units():
    # over F_(2^61 - 1) a list of all units would need exabytes; the child
    # runs under an address-space limit set on it alone
    code = (
        "from aquiver.decompose import decompose\n"
        "from aquiver.intervals import BarMultiset, Interval\n"
        "from aquiver.linalg import PrimeField\n"
        "from aquiver.orientation import Orientation\n"
        "from aquiver.tamerep import from_bars, scramble\n"
        "b = BarMultiset([(Interval.make(0, 2, True, False), 3), (Interval.point(1), 2)])\n"
        "v = scramble(from_bars(Orientation.make([(1, 'sink')]), b, PrimeField(2**61 - 1)), 11)\n"
        "assert any(x > 1 for m in v.maps for row in m.rows for x in row)\n"
        "print(decompose(v) == b)\n")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", code], env=env, preexec_fn=limit_memory,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr[-2000:]
    assert res.stdout == "True\n"


def test_morphism_validation():
    v = from_bars(EMPTY_DESC, bars((Interval.make(0, 1, True, True), 1)))
    good = RepMorphism(v, v, [Matrix.identity(QQ, d) for d in v.dims])
    assert good.commutes()
    mats = [Matrix.identity(QQ, d) for d in v.dims]
    c = cell_of_point(v.grid, Fraction(1, 2))
    mats[c] = Matrix.zero(QQ, 1, 1)
    with pytest.raises(ValueError, match="non-commuting"):
        RepMorphism(v, v, mats)


def _overlap_map(v, w):
    """Identity-on-overlap morphism between single-bar representations,
    assuming the overlap sits on the order-correct side."""
    v2 = refine(v, w.grid)
    w2 = refine(w, v.grid)
    mats = []
    for c in range(v2.ncells):
        if w2.dims[c] and v2.dims[c]:
            mats.append(Matrix.identity(QQ, 1))
        else:
            mats.append(Matrix.zero(QQ, w2.dims[c], v2.dims[c]))
    return RepMorphism(v2, w2, mats)


def test_kernel_image_cokernel():
    # over the descending line the maps run downward, so the long bar
    # surjects onto its lower-closed tail [1,2]
    v = from_bars(EMPTY_DESC, bars((Interval.make(0, 2, True, True), 1)))
    w = from_bars(EMPTY_DESC, bars((Interval.make(1, 2, True, True), 1)))
    f = _overlap_map(v, w)
    k, _ = kernel_rep(f)
    assert decompose(k) == bars((Interval.make(0, 1, True, False), 1))
    im, _ = image_rep(f)
    assert decompose(im) == bars((Interval.make(1, 2, True, True), 1))
    coker = dual_cokernel(f)
    assert coker.is_zero()


def test_cokernel_of_inclusion():
    # [0,1] is downward closed inside [0,2], so inclusion is a morphism
    v = from_bars(EMPTY_DESC, bars((Interval.make(0, 1, True, True), 1)))
    w = from_bars(EMPTY_DESC, bars((Interval.make(0, 2, True, True), 1)))
    f = _overlap_map(v, w)
    coker = dual_cokernel(f)
    assert decompose(coker) == bars((Interval.make(1, 2, False, True), 1))


def test_json_roundtrip_tame():
    from aquiver.jsonio import tame_from_json, tame_to_json
    b = bars((Interval.make(0, 2, True, False), 2), (Interval.point(1), 1))
    v = scramble(from_bars(EMPTY_DESC, b), 5)
    j = tame_to_json(v)
    v2 = tame_from_json(EMPTY_DESC, j, QQ)
    assert v2 == v


# ---------------------------------------------------------------------------
# grid geometry against per-junction and per-cell references

def _reference_dirs(o, grid):
    """One oracle direction lookup per junction."""
    return [DOWN if increasing_beside(o, grid[j // 2], "left" if j % 2 == 0 else "right") else UP
            for j in range(2 * len(grid))]


# critical positions, the points between them, and points past both ends
GRID_POOL = POSITIONS + [Fraction(s) for s in ("-5", "-7/4", "1/4", "11/4", "4", "9")]


def test_junction_dirs_matches_per_junction_reference():
    rng = random.Random(4104)
    seen = set()
    orientations = [Orientation.make([], "descending"), Orientation.make([], "ascending")]
    orientations += [random_orientation(rng) for _ in range(300)]
    for o in orientations:
        grids = [[], sorted(rng.sample(GRID_POOL, rng.randint(1, 9))),
                 sorted(set(o.positions) | set(rng.sample(GRID_POOL, 3)))]
        for grid in grids:
            assert junction_dirs(o, grid) == _reference_dirs(o, grid), (o, grid)
        seen.add((len(o.criticals), o.empty_direction))
    assert {k for k, _ in seen} == {0, 1, 2, 3, 4}
    assert (0, "ascending") in seen and (0, "descending") in seen


def _reference_refine(v, points):
    """refine by locating a representative of every new cell in the old grid."""
    grid = sorted(set(v.grid) | {Fraction(p) for p in points})
    if grid:
        grid = sorted(set(grid) | {p for p, _ in v.orientation.criticals
                                   if grid[0] <= p <= grid[-1]})
    dims = [v.dims[cell_of_point(v.grid, cell_representative(grid, c))]
            for c in range(2 * len(grid) + 1)]
    maps = []
    for j in range(2 * len(grid)):
        p = grid[j // 2]
        if p in v.grid:
            maps.append(v.maps[2 * v.grid.index(p) + j % 2])
        else:
            maps.append(Matrix.identity(v.field, v.dims[cell_of_point(v.grid, p)]))
    return tuple(grid), tuple(dims), tuple(maps), tuple(_reference_dirs(v.orientation, grid))


def _insertions(rng, v):
    """Points already on the grid, outside its hull, inside it, and points
    just past a critical point, which pull that critical point in."""
    pts = rng.sample(v.grid, min(len(v.grid), rng.randint(0, 2)))
    pts += rng.sample(GRID_POOL, rng.randint(0, 3))
    if v.grid and rng.random() < 0.5:
        pts.append(v.grid[0] - rng.randint(1, 3))
        pts.append(v.grid[-1] + Fraction(rng.randint(1, 7), 2))
    for p in v.orientation.positions:
        if rng.random() < 0.4:
            pts.append(p + rng.choice((-1, 1)) * Fraction(1, 3))
    return pts


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_refine_and_refine_morphism_match_cell_reference(field):
    rng = random.Random(777 if field == QQ else 778)
    pulled_in = outside = 0
    for trial in range(150):
        o = random_orientation(rng)
        if trial % 25 == 0:
            v = zero_rep(o, field)
        else:
            v = scramble(from_bars(o, random_bars(rng, max_bars=4, max_mult=2), field), trial)
        pts = _insertions(rng, v)
        w = refine(v, pts)
        grid, dims, maps, dirs = _reference_refine(v, pts)
        assert (w.grid, w.dims, w.maps, w.dirs) == (grid, dims, maps, dirs)
        if v.grid and any(not v.grid[0] <= p <= v.grid[-1] for p in pts):
            outside += 1
        if set(w.grid) - set(v.grid) - {Fraction(p) for p in pts}:
            pulled_in += 1
    assert outside > 20 and pulled_in > 5

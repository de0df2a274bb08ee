"""The interval-level rules that compare ends on Python ints
(intervals.compare, orientation.locate, down_set, hom_dim and
standard_probes) against their Fraction-compared references, on the
conftest orientations and intervals and on cases chosen for exactness:
positions whose denominators have an lcm above 2**64, ends 1/10**30 away
from a critical point, point intervals at critical points, infinite ends
and both empty orientations.  The last tests count the Fraction
comparisons these rules and tamerep.junction_dirs make, and the Fraction
comparisons and hashes of the grid layer (from_bars, reps_on_common_grid,
check_grid_and_dims, refine, common_grid and refined_cells), which are
none."""

from fractions import Fraction
from math import lcm

from conftest import all_intervals, all_orientations, cell_representative
from interval_reference import (reference_common_grid, reference_criticals_off_grid,
                                reference_down_set, reference_hom_dim, reference_locate,
                                reference_standard_probes)
from random_inputs import ENDPOINTS
from test_tamerep import _reference_refine
from aquiver.ar import EXISTS, ARSequence, ar_ending_at, standard_probes
from aquiver.homological import hom_dim
from aquiver.intervals import BarMultiset, Interval, NEG_INF, POS_INF, compare, is_finite
from aquiver.orientation import Orientation, down_set, locate, segment_index
from aquiver.tamerep import (cell_of_point, check_grid_and_dims, common_grid, from_bars,
                             junction_dirs, refine, refined_cells, reps_on_common_grid)

TINY = Fraction(1, 10 ** 30)
# three denominators with an lcm above 2**64
BIG_LCM = Orientation.make([(Fraction(-7, 2 ** 61 - 1), "sink"),
                            (Fraction(1, 10 ** 20 + 39), "source"),
                            (Fraction(5, 3), "sink")])
EXACT_ORIENTATIONS = [
    BIG_LCM,
    Orientation.make([(0, "source"), (TINY, "sink"), (1, "source")]),
    Orientation.make([], "descending"),
    Orientation.make([], "ascending"),
]


def _points(o: Orientation) -> list[Fraction]:
    """Each critical point, 1/10**30 either side of it, halfway between
    neighbours, and one unit beyond the outer ones."""
    pos = o.positions or (Fraction(0),)
    pts = {pos[0] - 1, pos[-1] + 1}
    for p in pos:
        pts |= {p, p - TINY, p + TINY}
    pts |= {(a + b) / 2 for a, b in zip(pos, pos[1:])}
    return sorted(pts)


def _intervals(points: list[Fraction]) -> list[Interval]:
    """Every interval with ends among points or at infinity, with every
    closedness of its finite ends (point intervals included)."""
    ends = [NEG_INF] + points + [POS_INF]
    out = []
    for n, lo in enumerate(ends):
        for hi in ends[n:]:
            if lo == hi:
                if is_finite(lo):
                    out.append(Interval.point(lo))
                continue
            for lo_c in (False, True) if is_finite(lo) else (False,):
                for hi_c in (False, True) if is_finite(hi) else (False,):
                    out.append(Interval(lo, hi, lo_c, hi_c))
    return out


def test_big_lcm_orientation_is_above_2_64():
    assert lcm(*(p.denominator for p in BIG_LCM.positions)) > 2 ** 64


def test_compare_is_the_order_of_extended_reals():
    values = sorted({v for o in EXACT_ORIENTATIONS for v in _points(o)}
                    | {Fraction(-1, 2 ** 61 - 1) * TINY, Fraction(10 ** 40, 3)})
    values = [NEG_INF] + values + [POS_INF]
    for x in values:
        for y in values:
            assert compare(x, y) == (x > y) - (x < y), (x, y)
    # integer ends compare with rational ones
    assert compare(1, Fraction(1)) == 0 and compare(Fraction(1, 2), 1) == -1
    assert compare(2, NEG_INF) == 1 and compare(POS_INF, -3) == 1


def test_locate_and_segment_lookups_match_bisection():
    quarters = [Fraction(k, 4) for k in range(4 * int(ENDPOINTS[0] - 1), 4 * int(ENDPOINTS[-1] + 1) + 1)]
    for o in all_orientations() + EXACT_ORIENTATIONS:
        for a in quarters + _points(o):
            i, critical = reference_locate(o, a)
            assert locate(o, a) == (i, critical), (o, a)
            assert o.is_critical(a) == (a in o.positions), (o, a)
            assert segment_index(o, a) == o.segments[i], (o, a)


def test_down_set_matches_reference_on_exact_cases():
    for o in EXACT_ORIENTATIONS:
        for a in _points(o):
            assert down_set(o, a) == reference_down_set(o, a), (o, a)


def test_hom_dim_matches_reference_on_conftest_cases():
    # every conftest interval against a tenth of them, in both orders, a
    # different tenth per orientation
    ivs = all_intervals()
    for n, o in enumerate(all_orientations()):
        for i_iv in ivs:
            for j_iv in ivs[n % 10::10]:
                assert hom_dim(o, i_iv, j_iv) == reference_hom_dim(o, i_iv, j_iv), (o, i_iv, j_iv)
                assert hom_dim(o, j_iv, i_iv) == reference_hom_dim(o, j_iv, i_iv), (o, j_iv, i_iv)


def test_hom_dim_matches_reference_on_exact_cases():
    for o in EXACT_ORIENTATIONS:
        ivs = _intervals(_points(o))
        crit_points = [Interval.point(p) for p in o.positions]
        assert set(crit_points) <= set(ivs)
        for n, i_iv in enumerate(ivs):
            for j_iv in ivs[n % 6::6] + crit_points:
                assert hom_dim(o, i_iv, j_iv) == reference_hom_dim(o, i_iv, j_iv), (o, i_iv, j_iv)
                assert hom_dim(o, j_iv, i_iv) == reference_hom_dim(o, j_iv, i_iv), (o, j_iv, i_iv)


def _probe_sequences():
    """Sequences ar_ending_at builds, and hand-built ones whose right term
    touches its segment's end, sits on a critical point at either end, or
    leaves its segment."""
    seqs = []
    for o in all_orientations() + EXACT_ORIENTATIONS[:2]:
        pos = o.positions
        for a, b in zip(pos, pos[1:]):
            for lo, hi in (((3 * a + b) / 4, (a + 3 * b) / 4), (a + (b - a) * TINY, b - (b - a) * TINY)):
                for lc, hc in ((False, True), (True, False)):
                    ans = ar_ending_at(o, Interval(lo, hi, lc, hc))
                    if ans.status == EXISTS:
                        seqs.append((o, ans.sequence))
            for right in (Interval(a, b, True, True), Interval((a + b) / 2, b, False, True),
                          Interval(a, (a + b) / 2, True, False), Interval.point(a)):
                seqs.append((o, ARSequence(right, [], right, None, None)))
        if len(pos) >= 2:
            right = Interval((pos[0] + pos[1]) / 2, pos[-1] + 1, True, True)
            seqs.append((o, ARSequence(right, [], right, None, None)))
    return seqs


def test_standard_probes_match_reference():
    seqs = _probe_sequences()
    assert sum(seq.f is not None for _, seq in seqs) > 100
    for o, seq in seqs:
        # the reference slices one list, so one call serves every count
        full = reference_standard_probes(o, seq, 10 ** 6)
        for count in (0, 1, 20, len(full), len(full) + 30, -5):
            assert standard_probes(o, seq, count) == full[:count], (o, seq.right, count)


COMPARISONS = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")


def _count_fraction_protocol(monkeypatch, names) -> list:
    """Wrap the named Fraction methods to record each call by name."""
    calls = []
    for name in names:
        method = getattr(Fraction, name)

        def counted(self, *args, _method=method, _name=name):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(Fraction, name, counted)
    return calls


def test_interval_rules_make_no_fraction_comparison(monkeypatch):
    o = Orientation.make([(Fraction(-1), "sink"), (Fraction(1, 3), "source"), (Fraction(2), "sink")])
    pts = _points(o)
    ivs = [iv for iv in _intervals(pts) if iv.lo in (NEG_INF, pts[2], pts[5])]
    assert any(not is_finite(iv.lo) for iv in ivs) and any(not is_finite(iv.hi) for iv in ivs)
    real = ar_ending_at(o, Interval(Fraction(-1, 2), Fraction(0), False, True)).sequence
    touching = Interval(Fraction(0), Fraction(1, 3), False, True)
    calls = _count_fraction_protocol(monkeypatch, COMPARISONS)
    for i_iv in ivs:
        for j_iv in ivs:
            hom_dim(o, i_iv, j_iv)
    for a in pts:
        locate(o, a)
        down_set(o, a)
    junction_dirs(o, pts)
    for seq in (real, ARSequence(touching, [], touching, None, None)):
        standard_probes(o, seq, 100)
    assert calls == []
    assert Fraction(1) < Fraction(2)
    assert calls == ["__lt__"]  # the counters are live


def test_grid_layer_makes_no_fraction_comparison_or_hash(monkeypatch):
    # the grids of from_bars and reps_on_common_grid, the order and
    # missing-critical checks of check_grid_and_dims, and refine,
    # common_grid and refined_cells, on the exact orientations: ends at
    # +-inf, point intervals at and beside critical points, and
    # denominators whose lcm is above 2**64
    whole = Interval(NEG_INF, POS_INF, False, False)
    cases = []
    for o in EXACT_ORIENTATIONS:
        pts = _points(o)
        ivs = _intervals(pts)
        at_critical = [Interval.point(p) for p in o.positions[:1]]
        families = [[ivs[::29], ivs[7::31] + [whole, Interval.point(pts[1])], [], ivs[13::37]],
                    [[whole]], [[Interval.point(pts[1])] + at_critical], [ivs[-40::9]],
                    [[Interval(pts[2], pts[3], False, False)],
                     [Interval(NEG_INF, pts[0], False, True)]],
                    [[Interval(NEG_INF, pts[-2], False, True)]],
                    [[Interval(pts[1], POS_INF, True, False)]]]
        bars = BarMultiset.from_intervals(ivs[3::17] + ivs[3::34])
        grids = [tuple(pts), tuple(pts[::2]), tuple(pts[1::3]), tuple(o.positions),
                 tuple(p for p in pts if p not in o.positions), ()]
        unordered = [tuple(pts[:2][::-1] + pts[2:]), tuple(pts[:1] + pts)]
        # a two-point grid below the first critical point, and points
        # inside its hull, outside it, and just past each critical point
        beside = BarMultiset.from_intervals([Interval(pts[0], pts[1], False, True)] * 2)
        insertions = [[], [(pts[0] + pts[1]) / 2], [pts[0] - 1, 2 * pts[-1] + 3],
                      [p + TINY / 2 for p in o.positions], [pts[1], pts[-1], 4]]
        cases.append((o, families, bars, grids, unordered, beside, insertions))
    family_ivs = [(o, iv) for o, families, *_ in cases for f in families for g in f for iv in g]
    assert any(not is_finite(iv.lo) for _, iv in family_ivs)
    assert any(not is_finite(iv.hi) for _, iv in family_ivs)
    assert any(iv.is_point() and iv.lo in o.positions for o, iv in family_ivs)
    reps = [(from_bars(o, bars), from_bars(o, beside)) for o, _, bars, _, _, beside, _ in cases]

    calls = _count_fraction_protocol(monkeypatch, COMPARISONS + ("__hash__",))
    got = []
    for (o, families, bars, grids, unordered, _, insertions), (v, u) in zip(cases, reps):
        packs = [reps_on_common_grid(o, groups) for groups in families]
        checked = []
        for grid in grids + unordered:
            try:
                checked.append(check_grid_and_dims(o, grid, [0] * (2 * len(grid) + 1)))
            except ValueError as e:
                checked.append(str(e))
        refined = [refine(w, pts) for w in (v, u) for pts in insertions]
        cells = [refined_cells(w.grid, r.grid) for w, r in zip([v] * 5 + [u] * 5, refined)]
        got.append((from_bars(o, bars).grid, packs, checked, refined, cells, common_grid(v, u)))
    assert calls == []
    assert Fraction(1) < Fraction(2) and hash(Fraction(1, 3))
    assert calls == ["__lt__", "__hash__"]  # the counters are live
    monkeypatch.undo()

    pulled_in = 0
    for (o, families, bars, grids, unordered, _, insertions), (v, u), found in zip(cases, reps, got):
        bars_grid, packs, checked, refined, cells, (a, b) = found
        assert bars_grid == reference_common_grid(o, bars.intervals())
        for groups, rep_packs in zip(families, packs):
            grid = reference_common_grid(o, [iv for g in groups for iv in g])
            assert all(rep.grid == grid and all(type(g) is Fraction for g in rep.grid)
                       for rep, _ in rep_packs), (o, groups)
        for grid, result in zip(grids, checked):
            missing = reference_criticals_off_grid(o, grid)
            want = (f"critical point {missing[0]} inside the hull is missing from the grid"
                    if missing else tuple(junction_dirs(o, grid)))
            assert result == want, (o, grid)
        assert checked[len(grids):] == ["grid must be strictly increasing"] * len(unordered)
        for w, pts, r, c in zip([v] * 5 + [u] * 5, insertions * 2, refined, cells):
            assert (r.grid, r.dims, r.maps, r.dirs) == _reference_refine(w, pts), (o, w.grid, pts)
            assert c == [cell_of_point(w.grid, cell_representative(r.grid, k))
                         for k in range(2 * len(r.grid) + 1)], (o, w.grid, pts)
            pulled_in += bool(set(r.grid) - set(w.grid) - set(pts))
        assert (a.grid, a.dims, a.maps, a.dirs) == _reference_refine(v, u.grid), o
        assert (b.grid, b.dims, b.maps, b.dirs) == _reference_refine(u, v.grid), o
    # some grids miss critical points and some do not, and refine pulls
    # critical points in
    assert {bool(reference_criticals_off_grid(o, grid)) for o, _, _, grids, *_ in cases
            for grid in grids} == {False, True}
    assert pulled_in > 3

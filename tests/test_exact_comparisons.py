"""The interval-level rules that compare ends on Python ints
(intervals.compare, orientation.locate, down_set, hom_dim and
standard_probes) against their Fraction-compared references, on the
conftest orientations and intervals and on cases chosen for exactness:
positions whose denominators have an lcm above 2**64, ends 1/10**30 away
from a critical point, point intervals at critical points, infinite ends
and both empty orientations.  The last test counts the Fraction
comparisons these rules make, which is none."""

from fractions import Fraction
from math import lcm

from conftest import ENDPOINTS, all_intervals, all_orientations
from interval_reference import (reference_down_set, reference_hom_dim, reference_locate,
                                reference_standard_probes)
from aquiver.ar import EXISTS, ARSequence, ar_ending_at, standard_probes
from aquiver.homological import hom_dim
from aquiver.intervals import Interval, NEG_INF, POS_INF, compare, is_finite
from aquiver.orientation import (Orientation, down_set, locate, segment_index,
                                 segments_touching)

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
            touching = list(o.segments[i - 1:i + 1]) if critical else [o.segments[i]]
            assert segments_touching(o, a) == touching, (o, a)


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


def test_interval_rules_make_no_fraction_comparison(monkeypatch):
    o = Orientation.make([(Fraction(-1), "sink"), (Fraction(1, 3), "source"), (Fraction(2), "sink")])
    pts = _points(o)
    ivs = [iv for iv in _intervals(pts) if iv.lo in (NEG_INF, pts[2], pts[5])]
    assert any(not is_finite(iv.lo) for iv in ivs) and any(not is_finite(iv.hi) for iv in ivs)
    real = ar_ending_at(o, Interval(Fraction(-1, 2), Fraction(0), False, True)).sequence
    touching = Interval(Fraction(0), Fraction(1, 3), False, True)
    calls = []
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        method = getattr(Fraction, name)

        def counted(self, other, _method=method, _name=name):
            calls.append(_name)
            return _method(self, other)

        monkeypatch.setattr(Fraction, name, counted)
    for i_iv in ivs:
        for j_iv in ivs:
            hom_dim(o, i_iv, j_iv)
    for a in pts:
        locate(o, a)
        down_set(o, a)
    for seq in (real, ARSequence(touching, [], touching, None, None)):
        standard_probes(o, seq, 100)
    assert calls == []
    assert Fraction(1) < Fraction(2)
    assert calls == ["__lt__"]  # the counters are live

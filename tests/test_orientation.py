import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ENDPOINTS, all_intervals, all_orientations
from interval_reference import (reference_classify_injective, reference_down_set,
                                reference_leq, reference_realize_injective,
                                reference_up_set)
from oracle import increasing_beside
from aquiver.homological import (OPEN_LEFT, OPEN_RIGHT, POINT, InjectiveLabel,
                                 classify_injective, projectives_table,
                                 realize_injective)
from aquiver.intervals import Interval, NEG_INF, POS_INF, format_extreal, is_finite
from aquiver.orientation import (Orientation, Segment, down_set, down_set_limit,
                                 leq, reparameterize, reverse, segment_index,
                                 segments_touching, up_set)
from aquiver.tamerep import DOWN, UP, junction_dirs

ZIGZAG = Orientation.make([(0, "sink"), (1, "source")])
EMPTY_DESC = Orientation.make([], "descending")


def test_empty_descending_is_leq():
    assert leq(EMPTY_DESC, 1, 2)
    assert not leq(EMPTY_DESC, 2, 1)


def test_reflexivity():
    for o in (ZIGZAG, EMPTY_DESC):
        for x in (-5, 0, Fraction(1, 3), 7):
            assert leq(o, x, x)


def test_order_reverses_left_of_sink():
    assert not leq(ZIGZAG, -1, Fraction(-1, 2))
    assert leq(ZIGZAG, Fraction(-1, 2), -1)


def test_not_comparable_across_criticals():
    assert not leq(ZIGZAG, Fraction(-1, 2), Fraction(1, 2))
    assert not leq(ZIGZAG, Fraction(1, 2), Fraction(-1, 2))


def test_segment_index_examples():
    seg = segment_index(ZIGZAG, Fraction(1, 2))
    assert (seg.lo, seg.hi, seg.increasing) == (0, 1, True)
    seg = segment_index(ZIGZAG, -5)
    assert (seg.lo, seg.hi, seg.increasing) == (NEG_INF, 0, False)
    seg = segment_index(EMPTY_DESC, 7)
    assert (seg.lo, seg.hi, seg.increasing) == (NEG_INF, POS_INF, True)


def test_segment_boundary_reports_right_segment():
    seg = segment_index(ZIGZAG, 0)
    assert (seg.lo, seg.hi) == (0, 1)
    both = segments_touching(ZIGZAG, 0)
    assert [(s.lo, s.hi) for s in both] == [(NEG_INF, 0), (0, 1)]


def test_down_set_examples():
    assert down_set(ZIGZAG, 1) == Interval(Fraction(0), POS_INF, True, False)
    assert down_set(ZIGZAG, -1) == Interval(Fraction(-1), Fraction(0), True, True)
    assert down_set(ZIGZAG, 0) == Interval.point(0)


def test_up_set_examples():
    assert up_set(EMPTY_DESC, 0) == Interval(Fraction(0), POS_INF, True, False)
    assert up_set(ZIGZAG, 0) == Interval(NEG_INF, Fraction(1), False, True)


def test_up_set_contains_its_point():
    rng = random.Random(5)
    for _ in range(50):
        o = _random_orientation(rng)
        a = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        assert up_set(o, a).contains(a)
        assert down_set(o, a).contains(a)


def test_down_up_duality():
    rng = random.Random(6)
    for _ in range(50):
        o = _random_orientation(rng)
        a = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        assert down_set(o, a) == up_set(reverse(o), a)


def test_reverse_involution_and_examples():
    assert reverse(reverse(ZIGZAG)) == ZIGZAG
    assert reverse(EMPTY_DESC) == Orientation.make([], "ascending")
    assert reverse(ZIGZAG) == Orientation.make([(0, "source"), (1, "sink")])


def test_reverse_flips_leq():
    rng = random.Random(7)
    for _ in range(80):
        o = _random_orientation(rng)
        x = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
        y = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
        assert leq(o, x, y) == leq(reverse(o), y, x)


def test_down_set_limit():
    assert down_set_limit(ZIGZAG, NEG_INF) == Interval(NEG_INF, Fraction(0), False, True)
    assert down_set_limit(ZIGZAG, POS_INF) is None
    assert down_set_limit(EMPTY_DESC, POS_INF) == Interval(NEG_INF, POS_INF, False, False)
    assert down_set_limit(EMPTY_DESC, NEG_INF) is None


def test_reparameterize_examples():
    o1 = Orientation.make([(0, "sink"), (1, "source")])
    o2 = Orientation.make([(10, "sink"), (20, "source")])
    assert reparameterize(o1, o1, Fraction(1, 2)) == Fraction(1, 2)
    assert reparameterize(o1, o2, Fraction(1, 2)) == 15
    assert reparameterize(o1, o2, 0) == 10
    assert reparameterize(o1, o2, -3) == 7
    assert reparameterize(o1, o2, 2) == 21


def test_reparameterize_incompatible():
    o1 = Orientation.make([(0, "sink")])
    o2 = Orientation.make([(0, "source")])
    with pytest.raises(ValueError, match="incompatible"):
        reparameterize(o1, o2, 0)
    with pytest.raises(ValueError, match="incompatible"):
        reparameterize(o1, Orientation.make([]), 0)


def test_reparameterize_preserves_order_and_inverts():
    rng = random.Random(8)
    o1 = Orientation.make([(-1, "source"), (Fraction(1, 2), "sink"), (3, "source")])
    o2 = Orientation.make([(0, "source"), (1, "sink"), (2, "source")])
    for _ in range(80):
        x = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        y = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        fx, fy = reparameterize(o1, o2, x), reparameterize(o1, o2, y)
        assert leq(o1, x, y) == leq(o2, fx, fy)
        assert reparameterize(o2, o1, fx) == x


def _random_orientation(rng):
    k = rng.randint(0, 4)
    if k == 0:
        return Orientation.make([], rng.choice(["descending", "ascending"]))
    pos = sorted(rng.sample([Fraction(n, 2) for n in range(-6, 7)], k))
    first = rng.choice(["sink", "source"])
    other = "source" if first == "sink" else "sink"
    return Orientation.make([(p, first if i % 2 == 0 else other)
                             for i, p in enumerate(pos)])


_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=8)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10 ** 6), x=_rationals, y=_rationals, z=_rationals)
def test_partial_order_axioms(seed, x, y, z):
    o = _random_orientation(random.Random(seed))
    assert leq(o, x, x)
    if leq(o, x, y) and leq(o, y, x):
        assert x == y
    if leq(o, x, y) and leq(o, y, z):
        assert leq(o, x, z)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10 ** 6), x=_rationals, y=_rationals)
def test_no_relation_across_a_critical(seed, x, y):
    o = _random_orientation(random.Random(seed))
    lo, hi = min(x, y), max(x, y)
    if any(lo < p < hi for p, _ in o.criticals):
        assert not leq(o, x, y) and not leq(o, y, x)


def test_validation():
    with pytest.raises(ValueError):
        Orientation.make([(0, "sink"), (0, "source")])
    with pytest.raises(ValueError):
        Orientation.make([(0, "sink"), (1, "sink")])
    with pytest.raises(ValueError):
        Orientation.make([(0, "left")])
    with pytest.raises(ValueError):
        Orientation.make([], "sideways")


# ---------------------------------------------------------------------------
# Parity of every direction rule with the oracle's, which reads the raw
# critical points and no library orientation helper.

def _reference_table(o: Orientation) -> list[tuple[str, str]]:
    """(support, label) rows of the projectives table, from the raw rule:
    P at an infinite end is nonzero when the end stretch runs toward it,
    P at a sink is the point, P at a source spans both neighbouring
    stretches, and each stretch has a family at a generic point a."""
    crit = o.criticals
    pos = [p for p, _ in crit]
    los, his = [NEG_INF] + pos, pos + [POS_INF]
    rows = []
    if not increasing_beside(o, his[0] if pos else 0, "left"):
        rows.append((str(Interval(NEG_INF, his[0], False, is_finite(his[0]))), "P_-inf"))
    if increasing_beside(o, los[-1] if pos else 0, "right"):
        rows.append((str(Interval(los[-1], POS_INF, is_finite(los[-1]), False)), "P_+inf"))
    for i, (p, kind) in enumerate(crit):
        s = format_extreal(p)
        if kind == "sink":
            rows.append(("{%s}" % s, f"P_{s}"))
            continue
        lo, hi = los[i], his[i + 1]
        rows.append((str(Interval(lo, hi, is_finite(lo), is_finite(hi))), f"P_{s}"))
        rows.append((str(Interval(lo, p, is_finite(lo), False)), f"P_{s})"))
        rows.append((str(Interval(p, hi, False, is_finite(hi))), f"P_({s}"))
    for letter, lo, hi in zip("abcde", los, his):
        lo_s, hi_s = format_extreal(lo), format_extreal(hi)
        if increasing_beside(o, hi if is_finite(hi) else lo if is_finite(lo) else 0,
                             "left" if is_finite(hi) else "right"):
            lb = "[" if is_finite(lo) else "("
            rows += [(f"{lb}{lo_s}, {letter}]", f"P_{letter}"),
                     (f"{lb}{lo_s}, {letter})", f"P_{letter})")]
        else:
            rb = "]" if is_finite(hi) else ")"
            rows += [(f"[{letter}, {hi_s}{rb}", f"P_{letter}"),
                     (f"({letter}, {hi_s}{rb}", f"P_({letter}")]
    return sorted(rows)


def test_direction_rules_match_raw_critical_points():
    rng = random.Random(5150)
    orientations = [Orientation.make([], "descending"), Orientation.make([], "ascending")]
    orientations += [_random_orientation(rng) for _ in range(300)]
    assert {len(o.criticals) for o in orientations} == {0, 1, 2, 3, 4}
    q = Fraction(1, 4)
    for o in orientations:
        pos = list(o.positions)
        # on, just beside and between the critical points, and beyond both ends
        points = sorted({Fraction(0)} | set(pos) | {p + d for p in pos for d in (-q, q)}
                        | {(a + b) / 2 for a, b in zip(pos, pos[1:])}
                        | {min(pos, default=0) - 3, max(pos, default=0) + 3})
        for x in points:
            left, right = increasing_beside(o, x, "left"), increasing_beside(o, x, "right")
            lo = max((p for p in pos if p <= x), default=NEG_INF)
            hi = min((p for p in pos if p > x), default=POS_INF)
            assert segment_index(o, x) == Segment(lo, hi, right), (o, x)
            if x in pos:
                left_lo = max((p for p in pos if p < x), default=NEG_INF)
                want = [Segment(left_lo, x, left), Segment(x, hi, right)]
            else:
                assert left == right
                want = [Segment(lo, hi, right)]
            assert segments_touching(o, x) == want, (o, x)
            for y in points:
                a, b = min(x, y), max(x, y)
                inc = increasing_beside(o, a, "right")
                want = x == y or (not any(a < p < b for p in pos) and inc == (x < y))
                assert leq(o, x, y) == want, (o, x, y)
        first = increasing_beside(o, pos[0] if pos else 0, "left")
        last = increasing_beside(o, pos[-1] if pos else 0, "right")
        head = pos[0] if pos else POS_INF
        tail = pos[-1] if pos else NEG_INF
        assert down_set_limit(o, NEG_INF) == (
            None if first else Interval(NEG_INF, head, False, is_finite(head)))
        assert down_set_limit(o, POS_INF) == (
            Interval(tail, POS_INF, is_finite(tail), False) if last else None)
        assert junction_dirs(o, points) == [
            DOWN if increasing_beside(o, points[j // 2], "left" if j % 2 == 0 else "right")
            else UP for j in range(2 * len(points))]
        assert sorted(r[:2] for r in projectives_table(o)) == _reference_table(o), o


# Quarter-integer points land on, beside and between the critical points of
# all_orientations() (all in ENDPOINTS, -2 to 3) and one unit beyond.
QUARTER_POINTS = [Fraction(k, 4) for k in
                  range(4 * int(ENDPOINTS[0] - 1), 4 * int(ENDPOINTS[-1] + 1) + 1)]


def test_leq_matches_reference_bisection():
    # leq reads the order off down_set; the reference bisects the critical
    # points
    for o in all_orientations():
        for x in QUARTER_POINTS:
            for y in QUARTER_POINTS:
                assert leq(o, x, y) == reference_leq(o, x, y), (o, x, y)


def test_down_and_up_sets_match_reference():
    # down_set takes one locate on the positions scaled to ints; the
    # reference bisects the Fraction positions, and reverses the
    # orientation afresh
    for o in all_orientations():
        for a in QUARTER_POINTS:
            assert down_set(o, a) == reference_down_set(o, a), (o, a)
            assert up_set(o, a) == reference_up_set(o, a), (o, a)
        assert down_set(o, 1) == down_set(o, Fraction(1)), o


def test_reverse_is_cached_and_involutive():
    for o in all_orientations():
        fresh = Orientation.make(o.criticals, o.empty_direction)
        before = (hash(fresh), str(fresh), repr(fresh))
        r = reverse(fresh)
        assert r is reverse(fresh)
        assert reverse(r) == fresh
        assert (hash(fresh), str(fresh), repr(fresh)) == before
        assert fresh == Orientation.make(o.criticals, o.empty_direction)
        assert len({fresh, Orientation.make(o.criticals, o.empty_direction)}) == 1


def test_injective_forms_match_reference():
    # realize_injective and classify_injective read the cached reverse; the
    # references build it afresh and realize through reference_down_set
    ivs = all_intervals()
    for o in all_orientations():
        for a in [NEG_INF, POS_INF] + QUARTER_POINTS:
            for form in (POINT, OPEN_RIGHT, OPEN_LEFT) if is_finite(a) else (POINT,):
                label = InjectiveLabel(form, a)
                assert realize_injective(o, label) == reference_realize_injective(o, label), (o, label)
        for iv in ivs:
            assert classify_injective(o, iv) == reference_classify_injective(o, iv), (o, iv)

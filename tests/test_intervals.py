from fractions import Fraction

import pytest

from conftest import all_intervals
from interval_reference import reference_intersect
from aquiver.intervals import (BarMultiset, Interval, NEG_INF, POS_INF,
                               format_extreal, intersect, parse_extreal)


def test_contains():
    i = Interval.make(0, 1, True, False)
    assert i.contains(0)
    assert not i.contains(1)
    assert i.contains(Fraction(1, 2))
    j = Interval(NEG_INF, Fraction(1), False, True)
    assert j.contains(-10 ** 9)


def test_intersect_examples():
    a = Interval.make(0, 2, True, False)
    b = Interval.make(1, 3, True, False)
    assert intersect(a, b) == Interval.make(1, 2, True, False)
    assert intersect(Interval.make(0, 1, True, False), Interval.make(1, 2, True, False)) is None
    assert intersect(a, a) == a


def test_intersect_commutative_and_openness():
    a = Interval.make(0, 2, False, True)
    b = Interval.make(0, 2, True, False)
    both = intersect(a, b)
    assert both == intersect(b, a) == Interval.make(0, 2, False, False)
    assert intersect(Interval.point(1), a) == Interval.point(1)


def test_intersect_matches_reference_exhaustively():
    # intersect compares each pair of ends at most twice; the reference
    # uses up to five comparisons per end.  all_intervals() has every
    # closedness at shared integer ends, and infinite ends; the extra pairs
    # touch at a non-integer end and meet the whole line.
    ivs = all_intervals()
    half = Fraction(1, 2)
    line = Interval(NEG_INF, POS_INF, False, False)
    extra = [Interval(NEG_INF, half, False, lc) for lc in (True, False)]
    extra += [Interval(half, POS_INF, hc, False) for hc in (True, False)]
    extra += [Interval.point(half), line]
    pairs = [(a, b) for a in ivs for b in ivs]
    pairs += [(a, b) for x in extra for y in extra + ivs[::7] for a, b in ((x, y), (y, x))]
    for a, b in pairs:
        assert intersect(a, b) == reference_intersect(a, b), (a, b)


def test_same_support_iso():
    # interval modules are isomorphic exactly when their supports are
    # equal as point sets, which is Interval equality
    assert Interval.make(0, 1, True, False) == Interval.make(0, 1, True, False)
    assert Interval.make(0, 1, True, False) != Interval.make(0, 1, True, True)
    assert Interval.point(0) == Interval.point(0)


def test_point_intervals():
    p = Interval.point(Fraction(1, 3))
    assert p.is_point() and p.contains(Fraction(1, 3))
    with pytest.raises(ValueError):
        Interval(Fraction(0), Fraction(0), True, False)
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0), True, True)
    with pytest.raises(ValueError):
        Interval(NEG_INF, Fraction(0), True, True)


def test_canonical_sort_order():
    ivs = [
        Interval.make(0, 1, False, True),
        Interval.make(0, 1, True, False),
        Interval.make(0, 1, True, True),
        Interval.make(0, 2, True, False),
        Interval(NEG_INF, Fraction(0), False, True),
    ]
    b = BarMultiset((iv, 1) for iv in ivs)
    got = [iv for iv, _ in b.items()]
    assert got == [
        Interval(NEG_INF, Fraction(0), False, True),
        Interval.make(0, 1, True, False),
        Interval.make(0, 1, True, True),
        Interval.make(0, 2, True, False),
        Interval.make(0, 1, False, True),
    ]


def test_multiset_merges_duplicates():
    iv = Interval.make(0, 1, True, True)
    b = BarMultiset([(iv, 2), (iv, 1)])
    assert b.count(iv) == 3 and b.total() == 3 and len(b) == 1


def test_multiset_equality_and_union():
    iv1 = Interval.make(0, 1, True, True)
    iv2 = Interval.point(2)
    a = BarMultiset([(iv1, 1), (iv2, 2)])
    b = BarMultiset([(iv2, 2), (iv1, 1)])
    assert a == b
    assert a.union(b).count(iv2) == 4


def test_json_roundtrip():
    b = BarMultiset([
        (Interval.make(0, POS_INF, True, False), 2),
        (Interval.make(Fraction(-1, 2), 1, False, True), 1),
    ])
    j = b.to_json()
    assert j[0]["lo"] == "-1/2"
    assert BarMultiset.from_json(j) == b


def test_extreal_parse_format():
    assert parse_extreal("-inf") == NEG_INF
    assert parse_extreal("+inf") == POS_INF
    assert parse_extreal("3/4") == Fraction(3, 4)
    assert format_extreal(Fraction(6, 4)) == "3/2"
    assert format_extreal(NEG_INF) == "-inf"
    assert format_extreal(POS_INF) == "+inf"


def _random_iv(rng):
    from conftest import random_interval
    return random_interval(rng)


def test_intersect_is_commutative_associative_idempotent():
    import random
    rng = random.Random(2024)
    for _ in range(200):
        a, b, c = _random_iv(rng), _random_iv(rng), _random_iv(rng)
        assert intersect(a, b) == intersect(b, a)
        assert intersect(a, a) == a
        ab = intersect(a, b)
        bc = intersect(b, c)
        left = intersect(ab, c) if ab else None
        right = intersect(a, bc) if bc else None
        assert left == right
        if ab is not None:
            for probe in (a.lo, a.hi, b.lo, b.hi):
                from aquiver.intervals import is_finite
                if is_finite(probe):
                    assert ab.contains(probe) == (a.contains(probe) and b.contains(probe))

import random
from fractions import Fraction

import pytest

from conftest import interval_in_segment, random_bars, random_interval, random_orientation
from aquiver.ar import (ARAnswer, EXISTS, OUT_OF_PAPER_SCOPE,
                        PROVEN_NONEXISTENT, _exists_colift, _exists_lift,
                        _realize_sequence, ar_ending_at, ar_starting_at,
                        standard_probes, verify_almost_split)
from aquiver.homological import hom_basis
from aquiver.intervals import Interval, NEG_INF, POS_INF
from aquiver.linalg import Matrix, PrimeField, QQ
from aquiver.orientation import Orientation, segment_index
from aquiver.tamerep import (RepMorphism, from_bars, identity_morphism, refine,
                             scramble)

ZIGZAG = Orientation.make([(0, "sink"), (1, "source")])
EMPTY_DESC = Orientation.make([], "descending")


def test_sink_side_sequence():
    w = Interval.make(Fraction(1, 4), Fraction(1, 2), False, True)
    ans = ar_ending_at(ZIGZAG, w)
    assert ans.status == EXISTS
    seq = ans.sequence
    assert seq.left == Interval.make(Fraction(1, 4), Fraction(1, 2), True, False)
    assert seq.middle == [Interval.make(Fraction(1, 4), Fraction(1, 2), True, True),
                          Interval.make(Fraction(1, 4), Fraction(1, 2), False, False)]
    assert seq.right == w


def test_source_side_sequence():
    # (1, +inf) is a decreasing segment for this orientation
    w = Interval.make(2, 3, True, False)
    ans = ar_ending_at(ZIGZAG, w)
    assert ans.status == EXISTS
    assert ans.sequence.left == Interval.make(2, 3, False, True)


def test_point_module_nonexistence():
    assert ar_ending_at(ZIGZAG, Interval.point(Fraction(1, 3))).status == PROVEN_NONEXISTENT
    assert ar_starting_at(ZIGZAG, Interval.point(Fraction(1, 3))).status == PROVEN_NONEXISTENT


def test_point_at_critical_is_out_of_scope():
    assert ar_ending_at(ZIGZAG, Interval.point(0)).status == OUT_OF_PAPER_SCOPE


def test_out_of_scope_shapes():
    assert ar_ending_at(ZIGZAG, Interval.make(Fraction(1, 4), Fraction(1, 2), True, True)).status \
        == OUT_OF_PAPER_SCOPE
    assert ar_starting_at(ZIGZAG, Interval.make(Fraction(1, 4), Fraction(1, 2), False, False)).status \
        == OUT_OF_PAPER_SCOPE
    # crossing a critical point
    assert ar_ending_at(ZIGZAG, Interval.make(Fraction(-1), Fraction(1, 2), False, True)).status \
        == OUT_OF_PAPER_SCOPE
    # unbounded
    assert ar_ending_at(ZIGZAG, Interval(Fraction(2), POS_INF, False, False)).status \
        == OUT_OF_PAPER_SCOPE


def test_starting_matches_ending():
    u = Interval.make(Fraction(1, 4), Fraction(1, 2), True, False)
    ans = ar_starting_at(ZIGZAG, u)
    assert ans.status == EXISTS
    assert ans.sequence.right == Interval.make(Fraction(1, 4), Fraction(1, 2), False, True)
    assert ans.sequence.left == u
    back = ar_ending_at(ZIGZAG, ans.sequence.right)
    assert back.sequence.left == u


def _ends(seq):
    return seq.left, seq.middle, seq.right


def test_starting_at_the_left_end_finds_the_same_sequence():
    rng = random.Random(3131)
    found = 0
    for _ in range(60):
        o = random_orientation(rng, max_criticals=3)
        for _ in range(5):
            for iv in (random_interval(rng), interval_in_segment(rng, o)):
                ending, starting = ar_ending_at(o, iv), ar_starting_at(o, iv)
                if ending.status == EXISTS:
                    found += 1
                    again = ar_starting_at(o, ending.sequence.left)
                    assert again.status == EXISTS
                    assert _ends(again.sequence) == _ends(ending.sequence), (o, iv)
                if starting.status == EXISTS:
                    assert starting.sequence.left == iv
                    back = ar_ending_at(o, starting.sequence.right)
                    assert _ends(back.sequence) == _ends(starting.sequence), (o, iv)
    assert found >= 50


def test_composition_is_zero_and_exact():
    ans = ar_ending_at(ZIGZAG, Interval.make(Fraction(1, 4), Fraction(1, 2), False, True))
    seq = ans.sequence
    assert seq.g.compose(seq.f).is_zero()
    assert verify_almost_split(seq, [])


def test_verification_with_probe_family():
    ans = ar_ending_at(ZIGZAG, Interval.make(Fraction(1, 4), Fraction(1, 2), False, True))
    probes = standard_probes(ZIGZAG, ans.sequence, 50)
    assert len(probes) == 50
    assert verify_almost_split(ans.sequence, probes)


def test_split_sequence_rejected():
    # split exact 0 -> A -> A + B -> B -> 0 must fail the section check
    fake = _realize_sequence(
        EMPTY_DESC,
        Interval.make(0, 1, True, True),
        [Interval.make(0, 1, True, True), Interval.make(2, 3, True, True)],
        Interval.make(2, 3, True, True), QQ)
    assert not verify_almost_split(fake, [])


def test_random_orientations_existence(rng):
    for _ in range(15):
        o = random_orientation(rng, max_criticals=3)
        pos = o.positions
        # pick a segment and a strict sub-interval
        segs = []
        if pos:
            segs.append((pos[0] - 2, pos[0]))
            segs.extend(zip(pos, pos[1:]))
            segs.append((pos[-1], pos[-1] + 2))
        else:
            segs.append((Fraction(-1), Fraction(1)))
        lo, hi = segs[rng.randrange(len(segs))]
        a = Fraction(lo) + Fraction(hi - lo) / 4
        b = Fraction(hi) - Fraction(hi - lo) / 4
        inc = segment_index(o, a).increasing
        w = Interval(a, b, False, True) if inc else Interval(a, b, True, False)
        ans = ar_ending_at(o, w)
        assert ans.status == EXISTS
        assert verify_almost_split(ans.sequence, standard_probes(o, ans.sequence, 12))


# ---------------------------------------------------------------------------
# lift / colift existence

def _three_reps(rng, o, field):
    """Three scrambled representations refined onto one grid."""
    reps = [scramble(from_bars(o, random_bars(rng, max_bars=3, max_mult=2), field), s)
            for s in range(3)]
    pts = set().union(*(r.grid for r in reps))
    return [refine(r, pts) for r in reps]


def _random_morphism(rng, v, w):
    """A random combination of the hom_basis of v -> w."""
    field = v.field
    mats = [Matrix.zero(field, w.dims[c], v.dims[c]) for c in range(v.ncells)]
    for phi in hom_basis(v, w):
        k = field.from_int(rng.randint(-2, 2))
        mats = [m.add(p.scale(k)) for m, p in zip(mats, phi.mats)]
    return RepMorphism(v, w, mats)


def _zero_morphism(v, w):
    return RepMorphism(v, w, [Matrix.zero(v.field, w.dims[c], v.dims[c])
                              for c in range(v.ncells)])


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_composites_lift_and_colift(rng, field):
    nonzero = 0
    for _ in range(12):
        x, m, y = _three_reps(rng, random_orientation(rng, max_criticals=2), field)
        g = _random_morphism(rng, m, y)
        h = _random_morphism(rng, x, m)
        phi = g.compose(h)
        assert _exists_lift(g, phi)
        f = _random_morphism(rng, x, m)
        k = _random_morphism(rng, m, y)
        psi = k.compose(f)
        assert _exists_colift(f, psi)
        nonzero += (not phi.is_zero()) + (not psi.is_zero())
    assert nonzero > 0


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_nonzero_map_does_not_factor_through_zero(rng, field):
    checked = 0
    for _ in range(12):
        x, m, y = _three_reps(rng, random_orientation(rng, max_criticals=2), field)
        if not y.is_zero():
            assert not _exists_lift(_zero_morphism(m, y), identity_morphism(y))
            checked += 1
        if not x.is_zero():
            assert not _exists_colift(_zero_morphism(x, m), identity_morphism(x))
            checked += 1
    assert checked > 0

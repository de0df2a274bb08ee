import random
from fractions import Fraction

import pytest

from conftest import interval_in_segment, random_interval, random_orientation
from oracle import hom_basis
from aquiver.ar import (EXISTS, OUT_OF_PAPER_SCOPE, PROVEN_NONEXISTENT, _realize_sequence,
                        ar_ending_at, ar_starting_at, standard_probes, verify_almost_split)
from aquiver.decompose import decompose
from aquiver.homological import hom_dim
from aquiver.intervals import BarMultiset, Interval, POS_INF
from aquiver.linalg import Matrix, PrimeField, QQ, rank
from aquiver.orientation import Orientation, segment_index
from aquiver.tamerep import RepMorphism, from_bars, refine, refined_cells

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


def test_exact_non_split_sequence_fails_at_its_probes():
    # 0 -> {0} -> [0,1] -> (0,1] -> 0 on the descending line is exact and
    # does not split, but a map (0,1) -> (0,1] does not lift through g and
    # a map {0} -> [0,1) does not extend over f
    seq = _realize_sequence(EMPTY_DESC, Interval.point(0), [Interval.make(0, 1, True, True)],
                            Interval.make(0, 1, False, True), QQ)
    assert verify_almost_split(seq, [])
    assert not verify_almost_split(seq, [Interval.make(0, 1, True, False)])
    assert not verify_almost_split(seq, [Interval.make(0, 1, False, False)])


# ---------------------------------------------------------------------------
# the dimension count behind verify_almost_split

def _on_grid(h, grid):
    """The morphism h refined onto the given grid."""
    dom, cod = refine(h.dom, grid), refine(h.cod, grid)
    return RepMorphism(dom, cod, [h.mats[c] for c in refined_cells(h.dom.grid, dom.grid)],
                       validate=False)


def _image_dim(field, maps):
    """Dimension of the span of the given morphisms."""
    rows = [[x for m in h.mats for row in m.rows for x in row] for h in maps]
    return rank(Matrix.from_rows(field, rows)) if rows else 0


def _exact(seq):
    f, g = seq.f, seq.g
    return g.compose(f).is_zero() and all(
        rank(fm) == ld and rank(gm) == rd == md - ld
        for fm, gm, ld, md, rd in zip(f.mats, g.mats, f.dom.dims, f.cod.dims, g.cod.dims))


def _candidate(rng, o, field):
    """A realized 0 -> L -> M -> R -> 0 on sub-intervals of one interval,
    or None when the maps do not commute."""
    p, q, r = sorted(rng.sample([Fraction(x, 4) for x in range(-12, 16)], 3))
    flags = lambda: rng.random() < 0.5
    pc, qc, rc = flags(), flags(), flags()
    whole = Interval(p, r, pc, rc)
    left, right = Interval(p, q, pc, qc), Interval(q, r, not qc, rc)
    if rng.random() < 0.5:
        left, right = right, left
    middle = [whole]
    if rng.random() < 0.3:
        middle = [Interval(p, r, flags(), flags()), Interval(p, r, flags(), flags())]
        left, right = Interval(p, r, flags(), flags()), Interval(p, r, flags(), flags())
    try:
        return _realize_sequence(o, left, middle, right, field)
    except ValueError:
        return None


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_count_matches_rank_of_induced_hom_maps(field):
    # on an exact sequence, rank g_* = hom(X, M) - hom(X, L) and
    # rank f^* = hom(M, X) - hom(R, X), each hom summed over the barcodes
    rng = random.Random(2424 if field == QQ else 2425)
    checked = not_onto = 0
    while checked < 60:
        o = random_orientation(rng, max_criticals=3)
        seq = _candidate(rng, o, field)
        if seq is None or not _exact(seq):
            continue
        lrep, mrep, rrep = seq.f.dom, seq.f.cod, seq.g.cod
        terms = [decompose(t) for t in (lrep, mrep, rrep)]
        p, r = seq.middle[0].lo, seq.middle[0].hi
        for _ in range(4):
            lo, hi = sorted(rng.sample([p - 1, p, (p + r) / 2, r, r + 1], 2))
            x_iv = Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5)
            into = [sum(m * hom_dim(o, x_iv, iv) for iv, m in t) for t in terms]
            out = [sum(m * hom_dim(o, iv, x_iv) for iv, m in t) for t in terms]
            xrep = from_bars(o, BarMultiset([(x_iv, 1)]), field)
            g_star = [_on_grid(seq.g, phi.dom.grid).compose(phi) for phi in hom_basis(xrep, mrep)]
            f_star = [psi.compose(_on_grid(seq.f, psi.dom.grid)) for psi in hom_basis(mrep, xrep)]
            assert _image_dim(field, g_star) == into[1] - into[0], (o, seq.middle, x_iv)
            assert _image_dim(field, f_star) == out[1] - out[2], (o, seq.middle, x_iv)
            not_onto += (into[1] - into[0] != into[2]) + (out[1] - out[2] != out[0])
        checked += 1
    assert not_onto >= 20

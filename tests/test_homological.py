import itertools
import random
import re
import time
from fractions import Fraction

import pytest

from conftest import all_intervals, all_orientations, dense_hom_space_dim, dual_cokernel
from interval_reference import (reference_classify_projective, reference_ext_dims,
                                reference_ext_dims_by_supports, reference_presentation_labels)
from oracle import hom_basis
from random_inputs import interval_in_segment, random_bars, random_interval, random_orientation
from aquiver.decompose import decompose
from aquiver.homological import (OPEN_LEFT, OPEN_RIGHT, POINT, ProjectiveLabel,
                                 _presentation_labels, classify_projective, ext_dim,
                                 hom_dim, hom_space_dim,
                                 injective_composites_criterion, is_projective_rep,
                                 kernel_of_projective_map, proj_presentation,
                                 projectives_table, realize_projective)
from aquiver.ar import EXISTS, ar_ending_at
from aquiver.intervals import BarMultiset, Interval, NEG_INF, POS_INF
from aquiver.linalg import QQ, Matrix, PrimeField, rank
from aquiver.orientation import Orientation, down_set, leq, reverse, segment_index
from aquiver.tamerep import RepMorphism, from_bars, refine, scramble

EMPTY_DESC = Orientation.make([], "descending")
ZIGZAG = Orientation.make([(0, "sink"), (1, "source")])


def bars(*specs):
    return BarMultiset(specs)


def one_bar(o, iv, field=QQ):
    return from_bars(o, bars((iv, 1)), field)


# ---------------------------------------------------------------------------
# hom

def test_hom_examples_straight_line():
    a = Interval.make(0, 2, True, False)
    b = Interval.make(1, 3, True, False)
    assert hom_dim(EMPTY_DESC, a, b) == 1
    assert hom_dim(EMPTY_DESC, b, a) == 0
    assert hom_dim(EMPTY_DESC, a, a) == 1


def test_hom_disjoint_supports():
    a = Interval.make(0, 1, True, True)
    b = Interval.make(2, 3, True, True)
    assert hom_dim(EMPTY_DESC, a, b) == 0
    assert hom_dim(ZIGZAG, a, b) == 0


def test_hom_self_is_one(rng):
    for _ in range(30):
        o = random_orientation(rng)
        iv = random_interval(rng)
        assert hom_dim(o, iv, iv) == 1


def _random_pair(rng, o):
    """Two intervals: random ones (points, infinite ends, ends on critical
    points), ones inside one segment, and I = J."""
    i_iv = random_interval(rng) if rng.random() < 0.7 else interval_in_segment(rng, o)
    if rng.random() < 0.1:
        return i_iv, i_iv
    return i_iv, random_interval(rng) if rng.random() < 0.7 else interval_in_segment(rng, o)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_hom_dim_matches_dense_commuting_squares(field):
    # the closed form against the dense commuting-square system
    rng = random.Random(4141 if field == QQ else 4142)
    seen = {"ascending": 0, "descending": 0, "point": 0, "infinite": 0,
            "end_on_critical": 0, "equal": 0, 0: 0, 1: 0}
    for _ in range(2500):
        o = random_orientation(rng)
        i_iv, j_iv = _random_pair(rng, o)
        d = dense_hom_space_dim(one_bar(o, i_iv, field), one_bar(o, j_iv, field))
        assert d <= 1
        assert hom_dim(o, i_iv, j_iv, field) == d, (o, i_iv, j_iv)
        ends = [e for iv in (i_iv, j_iv) for e in (iv.lo, iv.hi)]
        seen[d] += 1
        if not o.criticals:
            seen[o.empty_direction] += 1
        seen["point"] += i_iv.is_point() or j_iv.is_point()
        seen["infinite"] += NEG_INF in ends or POS_INF in ends
        seen["end_on_critical"] += any(o.is_critical(e) for e in ends if e not in (NEG_INF, POS_INF))
        seen["equal"] += i_iv == j_iv
    assert min(seen.values()) >= 100, seen


def test_hom_and_ext_duality(rng):
    # reversing the orientation swaps the arguments of Hom and Ext
    ext_one = 0
    for _ in range(2000):
        o = random_orientation(rng)
        v_iv, w_iv = _random_pair(rng, o)
        assert hom_dim(o, v_iv, w_iv) == hom_dim(reverse(o), w_iv, v_iv)
        e = ext_dim(o, v_iv, w_iv)
        assert e == ext_dim(reverse(o), w_iv, v_iv), (o, v_iv, w_iv)
        ext_one += e
    assert ext_one >= 100


def test_ext_into_injective_vanishes(rng):
    injectives = 0
    for _ in range(3000):
        o = random_orientation(rng)
        v_iv, w_iv = _random_pair(rng, o)
        if classify_projective(reverse(o), w_iv) is not None:
            assert ext_dim(o, v_iv, w_iv) == 0, (o, v_iv, w_iv)
            injectives += 1
    assert injectives >= 200


def test_almost_split_sequences_do_not_split(rng):
    # an almost-split sequence 0 -> L -> M -> R -> 0 is a nonzero class
    # in Ext^1(R, L)
    found = 0
    for _ in range(400):
        o = random_orientation(rng, max_criticals=3)
        ans = ar_ending_at(o, interval_in_segment(rng, o))
        if ans.status == EXISTS:
            assert ext_dim(o, ans.sequence.right, ans.sequence.left) == 1
            found += 1
    assert found >= 50


def test_hom_space_dim_additivity(rng):
    for _ in range(8):
        o = random_orientation(rng)
        b1 = random_bars(rng, max_bars=3, max_mult=2)
        b2 = random_bars(rng, max_bars=3, max_mult=2)
        v = scramble(from_bars(o, b1), 1)
        w = scramble(from_bars(o, b2), 2)
        expect = sum(m1 * m2 * hom_dim(o, i1, i2)
                     for i1, m1 in b1 for i2, m2 in b2)
        assert dense_hom_space_dim(v, w) == expect


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_hom_space_dim_matches_oracle_end_basis(rng, field):
    for seed in range(8):
        o = random_orientation(rng)
        v = scramble(from_bars(o, random_bars(rng, max_bars=3, max_mult=2), field), seed)
        assert hom_space_dim(v, v) == len(hom_basis(v, v))


F2, F5 = PrimeField(2), PrimeField(5)
LINE = Orientation.make([(1, "sink"), (5, "source"), (9, "sink"),
                         (13, "source"), (17, "sink")])
HALVES = [Fraction(k, 2) for k in range(-4, 7)]


def _scrambled(rng, o, field, seed):
    """A scrambled multi-bar representation, or now and then a zero one
    (on the empty grid or on a grid of its own)."""
    r = rng.random()
    if r < 0.06:
        return from_bars(o, BarMultiset(), field)
    if r < 0.12:
        return refine(from_bars(o, BarMultiset(), field), rng.sample(HALVES, 2))
    return scramble(from_bars(o, random_bars(rng, max_bars=4, max_mult=2), field), seed)


@pytest.mark.parametrize("field", [QQ, F5, F2], ids=["Q", "F5", "F2"])
def test_hom_space_dim_matches_dense_system(field):
    # the barcode route against the nullity of the commuting-square system
    rng = random.Random({QQ: 7101, F5: 7102, F2: 7103}[field])
    seen = {"zero": 0, "same": 0, 0: 0, 1: 0, 2: 0, 3: 0, 4: 0, "hom>1": 0}
    for i in range(110):
        o = random_orientation(rng)
        v = _scrambled(rng, o, field, 2 * i)
        w = v if rng.random() < 0.15 else _scrambled(rng, o, field, 2 * i + 1)
        d = hom_space_dim(v, w)
        assert d == dense_hom_space_dim(v, w), (o, v.grid, w.grid)
        seen[len(o.criticals)] += 1
        seen["zero"] += not any(v.dims) or not any(w.dims)
        seen["same"] += w is v
        seen["hom>1"] += d > 1
    assert min(seen.values()) >= 10, seen


def test_hom_space_dim_thirty_bars_each_side():
    # a size the dense system cannot reach in a test run: 30 + 30 bars
    rng = random.Random(3030)

    def bars30():
        out = []
        for _ in range(30):
            lo, hi = sorted(rng.sample(range(20), 2))
            out.append((Interval.make(lo, hi, rng.random() < 0.5, rng.random() < 0.5), 1))
        return BarMultiset(out)

    b1, b2 = bars30(), bars30()
    v = scramble(from_bars(LINE, b1, F5), 1)
    w = scramble(from_bars(LINE, b2, F5), 2)
    expect = sum(m1 * m2 * hom_dim(LINE, i1, i2)
                 for i1, m1 in b1 for i2, m2 in b2)
    assert expect > 0
    assert hom_space_dim(v, w) == expect


def test_hom_field_mismatch():
    iv = Interval.make(0, 1, True, True)
    with pytest.raises(ValueError, match="field mismatch"):
        hom_space_dim(one_bar(EMPTY_DESC, iv, QQ), one_bar(EMPTY_DESC, iv, F5))


def test_hom_against_zero():
    v = one_bar(EMPTY_DESC, Interval.make(0, 1, True, True))
    zero = from_bars(EMPTY_DESC, BarMultiset())
    assert hom_space_dim(v, zero) == 0
    assert hom_space_dim(zero, v) == 0


def test_hom_orientation_mismatch():
    v = one_bar(EMPTY_DESC, Interval.make(0, 1, True, True))
    w = one_bar(ZIGZAG, Interval.make(0, 1, True, True))
    with pytest.raises(ValueError, match="orientation"):
        hom_space_dim(v, w)


# ---------------------------------------------------------------------------
# projective classification

def test_classify_projective_table_entries():
    o = ZIGZAG
    assert classify_projective(o, Interval.make(0, POS_INF, True, False)) == \
        ProjectiveLabel(POINT, Fraction(1))
    assert classify_projective(o, Interval.make(0, 1, True, False)) == \
        ProjectiveLabel(OPEN_RIGHT, Fraction(1))
    assert classify_projective(o, Interval.make(0, Fraction(1, 2), False, True)) is None
    assert classify_projective(o, Interval(NEG_INF, Fraction(0), False, True)) == \
        ProjectiveLabel(POINT, NEG_INF)
    assert classify_projective(o, Interval.point(0)) == ProjectiveLabel(POINT, Fraction(0))
    assert classify_projective(o, Interval.make(-1, 0, True, True)) == \
        ProjectiveLabel(POINT, Fraction(-1))
    assert classify_projective(o, Interval.make(-1, 0, False, True)) == \
        ProjectiveLabel(OPEN_LEFT, Fraction(-1))


def test_classify_injective_examples():
    # the injectives are the projectives over the reversed orientation
    assert classify_projective(reverse(EMPTY_DESC), Interval.make(0, POS_INF, True, False)) == \
        ProjectiveLabel(POINT, Fraction(0))
    assert classify_projective(reverse(EMPTY_DESC), Interval(NEG_INF, Fraction(0), False, True)) \
        is None


def test_realize_rejects_zero_forms():
    # at a sink both half-open forms realize to nothing
    assert realize_projective(ZIGZAG, ProjectiveLabel(OPEN_RIGHT, Fraction(0))) is None
    assert realize_projective(ZIGZAG, ProjectiveLabel(OPEN_LEFT, Fraction(0))) is None


def test_projectives_table_11_forms():
    rows = projectives_table(ZIGZAG)
    assert len(rows) == 11
    supports = [s for s, _, _ in rows]
    labels = [l for _, l, _ in rows]
    assert "{0}" in supports and "P_0" in labels
    assert "(-inf, 0]" in supports and "P_-inf" in labels
    assert "[0, 1)" in supports and "P_1)" in labels
    assert "[0, +inf)" in supports and "P_1" in labels
    assert "(1, +inf)" in supports and "P_(1" in labels
    assert "(a, 0]" in supports and "[a, 0]" in supports
    assert "[0, b)" in supports and "[0, b]" in supports
    assert "(c, +inf)" in supports and "[c, +inf)" in supports


def test_projectives_table_names_every_segment_apart():
    # 27 critical points cut the line into 28 segments; past z the family
    # names go on a1, b1, so no two segments share a label
    o = Orientation.make([(k, "sink" if k % 2 == 0 else "source") for k in range(27)])
    labels = [l for _, l, _ in projectives_table(o)]
    assert len(labels) == len(set(labels))
    names = {l[2:] for l in labels if re.fullmatch(r"P_[a-z]\d*", l)}
    assert names == set("abcdefghijklmnopqrstuvwxyz") | {"a1", "b1"}


def test_projectives_table_empty_descending():
    rows = projectives_table(EMPTY_DESC)
    labels = [l for _, l, _ in rows]
    assert "P_a" in labels and "P_a)" in labels
    assert all(not l.startswith("P_(") for l in labels)
    assert "P_+inf" in labels  # the full-line projective
    supports = [s for s, _, _ in rows]
    assert "(-inf, a]" in supports and "(-inf, a)" in supports


def test_classify_matches_reference_exhaustively():
    # classify_projective reads projectivity off the minimal presentation;
    # the reference tries seven kinds of candidate label
    ivs = all_intervals()
    for o in all_orientations():
        for iv in ivs:
            assert classify_projective(o, iv) == reference_classify_projective(o, iv), (o, iv)


# ---------------------------------------------------------------------------
# projectivity of representations

def test_is_projective_rep_examples():
    v = one_bar(ZIGZAG, down_set(ZIGZAG, Fraction(1, 2)))
    assert is_projective_rep(v)
    w = one_bar(ZIGZAG, Interval.make(0, Fraction(1, 2), False, True))
    assert not is_projective_rep(w)
    assert is_projective_rep(from_bars(ZIGZAG, BarMultiset()))


def test_criterion_agreement_on_single_segment(rng):
    agree = 0
    for i in range(100):
        o = random_orientation(rng)
        iv = interval_in_segment(rng, o)
        seg = segment_index(o, (Fraction(iv.lo) + Fraction(iv.hi)) / 2)
        # build a random rep supported inside this one segment
        pieces = []
        for _ in range(rng.randint(1, 3)):
            lo = Fraction(iv.lo) + (Fraction(iv.hi) - Fraction(iv.lo)) * Fraction(rng.randint(0, 3), 8)
            hi = Fraction(iv.hi) - (Fraction(iv.hi) - Fraction(iv.lo)) * Fraction(rng.randint(0, 3), 8)
            if lo > hi:
                lo, hi = hi, lo
            if lo == hi:
                pieces.append((Interval.point(lo), 1))
            else:
                pieces.append((Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5),
                               rng.randint(1, 2)))
        v = scramble(from_bars(o, BarMultiset(pieces)), 900 + i)
        assert injective_composites_criterion(v) == is_projective_rep(v)
        agree += 1
    assert agree == 100


def test_criterion_at_a_critical_point_and_across_one():
    # a point hull at a critical point lies in the segments on both sides
    # of it: a point at a sink is projective, one at a source is not
    for i, o in enumerate(all_orientations(2)):
        for p, kind in o.criticals:
            v = scramble(from_bars(o, bars((Interval.point(p), 2))), 300 + i)
            assert injective_composites_criterion(v) == is_projective_rep(v) == (kind == "sink"), \
                (o, p)
    # a hull with an end at a critical point lies in one segment
    half = Fraction(1, 2)
    for iv, projective in ((Interval.make(0, half, True, True), True),
                           (Interval.make(half, 1, False, False), False),
                           (Interval.make(0, 1, True, False), True),
                           (Interval(1, POS_INF, False, False), True)):
        v = one_bar(ZIGZAG, iv)
        assert injective_composites_criterion(v) == is_projective_rep(v) == projective, iv
    for iv in (Interval.make(-1, Fraction(1, 2), True, False),
               Interval(NEG_INF, Fraction(1, 2), False, True)):
        with pytest.raises(ValueError, match="more than one segment"):
            injective_composites_criterion(one_bar(ZIGZAG, iv))


def test_criterion_matches_projectivity_on_every_single_bar_support():
    # every single bar the criterion accepts over the orientations with at
    # most two critical points, with ends at the critical points and at the
    # halves in [-3/2, 5/2], open and closed: a closed end at a source is
    # where the composites alone would answer True for a non-projective
    halves = [Fraction(k, 2) for k in range(-3, 6)]
    cases = closed_at_source = 0
    for o in all_orientations(2):
        ends = sorted(set(halves) | set(o.positions))
        sources = {p for p, kind in o.criticals if kind == "source"}
        ivs = [Interval.point(p) for p in ends]
        for lo, hi in itertools.combinations([NEG_INF] + ends + [POS_INF], 2):
            for lo_c in (False, True) if lo in ends else (False,):
                for hi_c in (False, True) if hi in ends else (False,):
                    ivs.append(Interval(lo, hi, lo_c, hi_c))
        for iv in ivs:
            v = one_bar(o, iv)
            try:
                criterion = injective_composites_criterion(v)
            except ValueError:
                continue
            assert criterion == is_projective_rep(v), (o, iv)
            cases += 1
            closed_at_source += (iv.lo_closed and iv.lo in sources) or (
                iv.hi_closed and iv.hi in sources)
    assert cases == 6150 and closed_at_source > 0
    for iv in (Interval.make(0, 1, True, True), Interval(Fraction(1), POS_INF, True, False)):
        assert injective_composites_criterion(one_bar(ZIGZAG, iv)) is False


# ---------------------------------------------------------------------------
# presentations

def test_presentation_of_projective():
    iv = down_set(ZIGZAG, Fraction(1, 2))
    pres = proj_presentation(ZIGZAG, iv)
    assert pres.p1 == []
    assert pres.p0 == [ProjectiveLabel(POINT, Fraction(1, 2))]


def test_presentation_half_open_over_line():
    a, b = Fraction(1, 3), Fraction(2)
    pres = proj_presentation(EMPTY_DESC, Interval(a, b, True, False))
    assert pres.p0 == [ProjectiveLabel(OPEN_RIGHT, b)]
    assert pres.p1 == [ProjectiveLabel(OPEN_RIGHT, a)]


def test_presentation_zigzag_crossing():
    pres = proj_presentation(ZIGZAG, Interval.make(-1, Fraction(3, 2), True, False))
    assert set(map(str, pres.p0)) == {"P_-1", "P_1"}
    assert set(map(str, pres.p1)) == {"P_0", "P_3/2"}


def test_presentation_point_module():
    pres = proj_presentation(ZIGZAG, Interval.point(Fraction(1, 2)))
    assert [str(l) for l in pres.p0] == ["P_1/2"]
    assert [str(l) for l in pres.p1] == ["P_1/2)"]
    pres_src = proj_presentation(ZIGZAG, Interval.point(1))
    assert [str(l) for l in pres_src.p0] == ["P_1"]
    assert sorted(map(str, pres_src.p1)) == ["P_(1", "P_1)"]


def _check_presentation(o, iv, rng):
    pres = proj_presentation(o, iv)
    f = pres.realized
    # injective cellwise
    for c in range(f.dom.ncells):
        assert rank(f.mats[c]) == f.dom.dims[c]
    # dimension count at probe points
    grid = f.dom.grid
    probes = set()
    lo = Fraction(grid[0]) - 2 if grid else Fraction(-2)
    hi = Fraction(grid[-1]) + 2 if grid else Fraction(2)
    for _ in range(20):
        den = rng.randint(1, 5)
        probes.add(Fraction(rng.randint(int(lo * den), int(hi * den)), den))
    miv = from_bars(o, bars((iv, 1)))
    for x in probes:
        assert f.cod.dim_at(x) - f.dom.dim_at(x) == miv.dim_at(x)
    # cokernel is the module itself
    coker = dual_cokernel(f)
    assert decompose(coker) == bars((iv, 1))
    # minimal: generators and relations never share a position
    pos0 = {(l.a, l.form) for l in pres.p0}
    pos1 = {(l.a, l.form) for l in pres.p1}
    assert not (pos0 & pos1)


def test_presentation_labels_match_reference_exhaustively():
    # _presentation_labels reads every label off one locate per end; the
    # reference tests each form against a down-set and each open end's
    # up-set against the interval
    ivs = all_intervals()
    for o in all_orientations():
        for iv in ivs:
            assert _presentation_labels(o, iv) == reference_presentation_labels(o, iv), (o, iv)


def test_presentation_random(rng):
    for _ in range(25):
        o = random_orientation(rng)
        iv = random_interval(rng)
        _check_presentation(o, iv, rng)


# ---------------------------------------------------------------------------
# ext

def test_ext_projective_vanishes(rng):
    for _ in range(10):
        o = random_orientation(rng)
        w = random_interval(rng)
        p = down_set(o, Fraction(rng.randint(-4, 4)))
        assert ext_dim(o, p, w) == 0


def _ext_cases():
    """(o, V, Ws) covering every (V, W) pair of all_intervals() on both empty
    orientations and on every orientation with one or two critical points.
    On the 40 with three, every V meets every 31st W, from an offset that
    moves with both, so each pair is met on one or two of them."""
    ivs = all_intervals()
    for k, o in enumerate(all_orientations()):
        for i, v in enumerate(ivs):
            yield o, v, ivs if len(o.criticals) < 3 else ivs[(i + k) % 31::31]


def test_ext_matches_reference_yoneda():
    # ext_dim evaluates its presentation's terms at W's ends, with no label
    # realized.  One reference realizes the presentation with up- and
    # down-sets and reads each Hom(P, W) off W at the label's point with
    # Fraction comparisons, returning 0 for a projective V; the other is
    # the rule ext_dim replaced, hom_dim on each projective's support.
    # Budget: 9.7 s measured on a 2-vCPU host whose speed varies up to 2x.
    t0 = time.monotonic()
    for o, v, ws in _ext_cases():
        got = [ext_dim(o, v, w) for w in ws]
        assert got == reference_ext_dims(o, v, ws), (o, v)
        assert got == reference_ext_dims_by_supports(o, v, ws), (o, v)
    elapsed = time.monotonic() - t0
    assert elapsed < 40.0, f"took {elapsed:.1f}s (budget 40s)"


def test_ext_example_boundary():
    a, b = Fraction(0), Fraction(1)
    assert ext_dim(EMPTY_DESC, Interval(a, b, True, False),
                   Interval(NEG_INF, a, False, False)) == 1


def test_ext_far_supports_vanish():
    assert ext_dim(ZIGZAG, Interval.make(Fraction(5), Fraction(6), True, True),
                   Interval.make(Fraction(-5), Fraction(-4), True, True)) == 0


def test_euler_pairing(rng):
    for _ in range(15):
        o = random_orientation(rng)
        v_iv = random_interval(rng)
        w_iv = random_interval(rng)
        pres = proj_presentation(o, v_iv)
        wrep = one_bar(o, w_iv)
        h = hom_dim(o, v_iv, w_iv)
        e = ext_dim(o, v_iv, w_iv)
        h0 = dense_hom_space_dim(pres.realized.cod, wrep)
        h1 = dense_hom_space_dim(pres.realized.dom, wrep)
        assert h - e == h0 - h1


# ---------------------------------------------------------------------------
# hereditary property and morphisms between projectives

def _random_projective_labels(rng, o, n):
    out = []
    while len(out) < n:
        x = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
        form = rng.choice((POINT, OPEN_RIGHT, OPEN_LEFT))
        lab = ProjectiveLabel(form, x)
        if realize_projective(o, lab) is not None:
            out.append(lab)
    return out


def _random_map_between_projectives(rng, o, field=QQ):
    n_dom = rng.randint(1, 3)
    n_cod = rng.randint(1, 3)
    dom_ivs = [realize_projective(o, l) for l in _random_projective_labels(rng, o, n_dom)]
    cod_ivs = [realize_projective(o, l) for l in _random_projective_labels(rng, o, n_cod)]
    dom = from_bars(o, BarMultiset((iv, 1) for iv in dom_ivs), field)
    cod = from_bars(o, BarMultiset((iv, 1) for iv in cod_ivs), field)
    basis = hom_basis(dom, cod)
    if not basis:
        return None
    mats = [Matrix.zero(field, b.nrows, b.ncols) for b in basis[0].mats]
    for phi in basis:
        c = field.from_int(rng.choice((-1, 0, 1)))
        if c != field.zero():
            mats = [m.add(p.scale(c)) for m, p in zip(mats, phi.mats)]
    return RepMorphism(basis[0].dom, basis[0].cod, mats)


def test_morphisms_between_indecomposable_projectives_zero_or_mono(rng):
    for _ in range(40):
        o = random_orientation(rng)
        (p_lab,) = _random_projective_labels(rng, o, 1)
        (q_lab,) = _random_projective_labels(rng, o, 1)
        p = one_bar(o, realize_projective(o, p_lab))
        q = one_bar(o, realize_projective(o, q_lab))
        for phi in hom_basis(p, q):
            for c in range(phi.dom.ncells):
                assert rank(phi.mats[c]) == min(phi.dom.dims[c], 1) or \
                    all(m.is_zero() for m in phi.mats)


def test_hereditary_kernels(rng):
    done = 0
    while done < 30:
        o = random_orientation(rng)
        f = _random_map_between_projectives(rng, o)
        if f is None:
            continue
        k = kernel_of_projective_map(f)
        assert is_projective_rep(k)
        done += 1


def test_kernel_of_zero_and_identity():
    o = EMPTY_DESC
    iv = down_set(o, Fraction(0))
    v = one_bar(o, iv)
    zero = RepMorphism(v, v, [Matrix.zero(QQ, d, d) for d in v.dims], validate=False)
    k = kernel_of_projective_map(zero)
    assert decompose(k) == bars((iv, 1))
    ident = RepMorphism(v, v, [Matrix.identity(QQ, d) for d in v.dims], validate=False)
    assert kernel_of_projective_map(ident).is_zero()


def test_kernel_rejects_non_morphism():
    o = EMPTY_DESC
    v = one_bar(o, Interval.make(0, 1, True, True))
    w = one_bar(o, Interval.make(0, 1, True, True))
    mats = [Matrix.zero(QQ, w.dims[c], v.dims[c]) for c in range(v.ncells)]
    from aquiver.tamerep import cell_of_point
    mats[cell_of_point(v.grid, 0)] = Matrix.identity(QQ, 1)
    bad = RepMorphism(v, w, mats, validate=False)
    with pytest.raises(ValueError, match="non-commuting"):
        kernel_of_projective_map(bad)


def test_strict_chain_of_projectives(rng):
    # finite shadow of the failure of the descending chain condition
    for _ in range(20):
        o = random_orientation(rng)
        a = Fraction(rng.randint(-5, 5))
        if o.is_critical(a):
            continue
        seg = segment_index(o, a)
        lo = Fraction(seg.lo) if seg.lo != NEG_INF else a - 2
        hi = Fraction(seg.hi) if seg.hi != POS_INF else a + 2
        if seg.increasing:
            z1 = lo + (a - lo) / 3
            z2 = lo + 2 * (a - lo) / 3
        else:
            z1 = hi - (hi - a) / 3
            z2 = hi - 2 * (hi - a) / 3
        assert leq(o, z1, z2) and leq(o, z2, a)
        d1, d2, da = down_set(o, z1), down_set(o, z2), down_set(o, a)
        from aquiver.intervals import intersect
        assert intersect(d1, d2) == d1 and d1 != d2
        assert intersect(d2, da) == d2 and d2 != da

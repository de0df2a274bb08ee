"""Interval-level rules in their earlier, separate forms, kept as references
for the parity tests.  The library now reads each from one rule:
projectivity from the minimal presentation, Hom from a projective through
hom_dim on its support, the order from down_set, and down_set, hom_dim
and standard_probes from exact comparisons on Python ints
(intervals.compare, orientation.locate).

- ``reference_classify_projective`` tries seven kinds of candidate label
  and keeps the first whose support is the interval;
- ``reference_hom_from_projective`` is Yoneda spelled out: the dimension
  of M_W at the label's point, just left or right of it, or at an
  infinite end;
- ``reference_leq`` bisects the critical points between x and y and reads
  the direction of the segment they share;
- ``reference_locate`` and ``reference_down_set`` bisect the Fraction
  positions; ``reference_reverse`` builds a new orientation on every
  call, and the up-sets, realizations and injective classifications here
  go through these;
- ``reference_intersect`` picks each end of the intersection with up to
  five Fraction comparisons;
- ``reference_hom_dim`` builds K = I n J through ``reference_intersect``
  and bisects the Fraction positions for the junctions beside it;
- ``reference_standard_probes`` builds every probe, drops repeats through
  a set and sorts the rest by the interval sort key.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction

from aquiver.homological import (InjectiveLabel, OPEN_LEFT, OPEN_RIGHT, POINT,
                                 ProjectiveLabel, _presentation_labels, hom_dim)
from aquiver.intervals import Interval, NEG_INF, POS_INF, is_finite
from aquiver.orientation import Orientation, down_set_limit


def reference_classify_projective(o, iv):
    """The projective label whose support equals the interval, or None."""
    cands = []
    for p, kind in o.criticals:
        if kind == "source" and iv.contains(p):
            cands.append(ProjectiveLabel(POINT, p))
    if is_finite(iv.hi) and iv.hi_closed:
        cands.append(ProjectiveLabel(POINT, iv.hi))
    if is_finite(iv.lo) and iv.lo_closed:
        cands.append(ProjectiveLabel(POINT, iv.lo))
    if iv.lo == NEG_INF:
        cands.append(ProjectiveLabel(POINT, NEG_INF))
    if iv.hi == POS_INF:
        cands.append(ProjectiveLabel(POINT, POS_INF))
    if is_finite(iv.hi) and not iv.hi_closed:
        cands.append(ProjectiveLabel(OPEN_RIGHT, iv.hi))
    if is_finite(iv.lo) and not iv.lo_closed:
        cands.append(ProjectiveLabel(OPEN_LEFT, iv.lo))
    for label in cands:
        if reference_realize_projective(o, label) == iv:
            return label
    return None


def reference_classify_injective(o, iv):
    p = reference_classify_projective(reference_reverse(o), iv)
    return None if p is None else InjectiveLabel(p.form, p.a)


def reference_hom_from_projective(label, w):
    """dim Hom(P, M_W) for the nonzero projective P named by label."""
    a = label.a
    if a == NEG_INF:
        return int(w.lo == NEG_INF)
    if a == POS_INF:
        return int(w.hi == POS_INF)
    if label.form == POINT:
        return int(w.contains(a))
    if label.form == OPEN_RIGHT:
        return int(w.lo < a <= w.hi)
    return int(w.lo <= a < w.hi)


def reference_ext_dims(o, v, ws):
    """dim Ext^1(M_V, M_W) for each W of ws: 0 for a projective V, else the
    alternating sum hom(V, W) - hom(P0, W) + hom(P1, W) with the Yoneda
    rule above."""
    if reference_classify_projective(o, v) is not None:
        return [0] * len(ws)
    p1, p0 = _presentation_labels(o, v)
    return [hom_dim(o, v, w) - sum(reference_hom_from_projective(l, w) for l, _ in p0)
            + sum(reference_hom_from_projective(l, w) for l, _ in p1) for w in ws]


def reference_leq(o, x, y):
    """The induced partial order: x precedes y."""
    x, y = Fraction(x), Fraction(y)
    if x == y:
        return True
    a, b = (x, y) if x < y else (y, x)
    i = bisect_right(o.positions, a)
    if i < bisect_left(o.positions, b):
        return False  # a critical point lies strictly between
    inc = o.segments[i].increasing
    return inc if x < y else not inc


def reference_locate(o, a):
    """(bisect_right of a in the positions, whether a is critical)."""
    i = bisect_right(o.positions, a)
    return i, i > 0 and o.positions[i - 1] == a


def reference_down_set(o, a):
    """{x : x precedes a}, closed at finite ends."""
    a = Fraction(a)
    i, critical = reference_locate(o, a)
    segs = o.segments
    if critical:
        if o.criticals[i - 1][1] == "sink":
            return Interval.point(a)
        lo, hi = segs[i - 1].lo, segs[i].hi
        return Interval(lo, hi, is_finite(lo), is_finite(hi))
    seg = segs[i]
    if seg.increasing:
        return Interval(seg.lo, a, is_finite(seg.lo), True)
    return Interval(a, seg.hi, True, is_finite(seg.hi))


def reference_reverse(o):
    """A new orientation with sinks and sources swapped."""
    flipped = tuple((p, "source" if k == "sink" else "sink") for p, k in o.criticals)
    direction = "ascending" if o.empty_direction == "descending" else "descending"
    return Orientation(flipped, direction)


def reference_up_set(o, a):
    return reference_down_set(reference_reverse(o), a)


def reference_realize_projective(o, label):
    """Support of the labelled projective, or None for a zero form."""
    if not is_finite(label.a):
        return down_set_limit(o, label.a)
    ds = reference_down_set(o, label.a)
    if label.form == POINT:
        return ds
    if label.form == OPEN_RIGHT:
        if ds.lo < label.a:
            return Interval(ds.lo, Fraction(label.a), ds.lo_closed, False)
        return None
    if ds.hi > label.a:
        return Interval(Fraction(label.a), ds.hi, False, ds.hi_closed)
    return None


def reference_realize_injective(o, label):
    return reference_realize_projective(reference_reverse(o),
                                        ProjectiveLabel(label.form, label.a))


def reference_intersect(a, b):
    """Set intersection; None when empty."""
    if a.lo > b.lo or (a.lo == b.lo and (b.lo_closed or not a.lo_closed)):
        lo, lo_closed = a.lo, a.lo_closed
        if a.lo == b.lo:
            lo_closed = a.lo_closed and b.lo_closed
    else:
        lo, lo_closed = b.lo, b.lo_closed
    if a.hi < b.hi or (a.hi == b.hi and (b.hi_closed or not a.hi_closed)):
        hi, hi_closed = a.hi, a.hi_closed
        if a.hi == b.hi:
            hi_closed = a.hi_closed and b.hi_closed
    else:
        hi, hi_closed = b.hi, b.hi_closed
    if lo > hi:
        return None
    if lo == hi and not (lo_closed and hi_closed):
        return None
    return Interval(lo, hi, lo_closed, hi_closed)


def reference_hom_dim(o, i_iv, j_iv):
    """dim Hom(M_I, M_J): 0 when K = I n J is empty, else 0 when the
    junction beside a finite end of K runs from I outside K into K or from
    K into J outside K, else 1."""
    k = reference_intersect(i_iv, j_iv)
    if k is None:
        return 0
    pos, segs = o.positions, o.segments
    if is_finite(k.lo):
        below = segs[(bisect_left if k.lo_closed else bisect_right)(pos, k.lo)]
        out = j_iv if below.increasing else i_iv
        if (out.lo, out.lo_closed) != (k.lo, k.lo_closed):
            return 0
    if is_finite(k.hi):
        above = segs[(bisect_right if k.hi_closed else bisect_left)(pos, k.hi)]
        out = i_iv if above.increasing else j_iv
        if (out.hi, out.hi_closed) != (k.hi, k.hi_closed):
            return 0
    return 1


def reference_standard_probes(o, seq, count=50):
    """Every interval on six points around the sequence's right term, each
    once, in the canonical order, cut at count."""
    a, b = Fraction(seq.right.lo), Fraction(seq.right.hi)
    seg = o.segments[bisect_right(o.positions, a)]
    lo_out = (Fraction(seg.lo) + a) / 2 if is_finite(seg.lo) else a - 1
    hi_out = (b + Fraction(seg.hi)) / 2 if is_finite(seg.hi) else b + 1
    mid = (a + b) / 2
    points = [lo_out, a, (3 * a + b) / 4, mid, b, hi_out]
    out = []
    for lo in points:
        for hi in points:
            if lo > hi:
                continue
            if lo == hi:
                out.append(Interval.point(lo))
                continue
            for lc in (True, False):
                for hc in (True, False):
                    out.append(Interval(lo, hi, lc, hc))
    seen = set()
    uniq = []
    for iv in out:
        if iv not in seen:
            seen.add(iv)
            uniq.append(iv)
    uniq.sort(key=lambda iv: iv.sort_key())
    return uniq[:count]

"""Interval-level rules in their earlier, separate forms, kept as references
for the parity tests.  The library now reads each from one rule:
projectivity from the minimal presentation, Hom from a projective through
hom_dim on its support, the order from down_set, and down_set itself from
one bisect on the critical positions.

- ``reference_classify_projective`` tries seven kinds of candidate label
  and keeps the first whose support is the interval;
- ``reference_hom_from_projective`` is Yoneda spelled out: the dimension
  of M_W at the label's point, just left or right of it, or at an
  infinite end;
- ``reference_leq`` bisects the critical points between x and y and reads
  the direction of the segment they share;
- ``reference_down_set`` looks the point up in ``kind_at`` and then in
  ``segments_touching`` or ``segment_index``; ``reference_reverse`` builds
  a new orientation on every call, and the up-sets, realizations and
  injective classifications here go through these two;
- ``reference_intersect`` picks each end of the intersection with up to
  five comparisons.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction

from aquiver.homological import (InjectiveLabel, OPEN_LEFT, OPEN_RIGHT, POINT,
                                 ProjectiveLabel, _presentation_labels, hom_dim)
from aquiver.intervals import Interval, NEG_INF, POS_INF, is_finite
from aquiver.orientation import (Orientation, down_set_limit, segment_index,
                                 segments_touching)


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


def reference_down_set(o, a):
    """{x : x precedes a}, closed at finite ends."""
    a = Fraction(a)
    k = o.kind_at(a)
    if k == "sink":
        return Interval.point(a)
    if k == "source":
        segs = segments_touching(o, a)
        lo, hi = segs[0].lo, segs[1].hi
        return Interval(lo, hi, is_finite(lo), is_finite(hi))
    seg = segment_index(o, a)
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

"""Interval-level rules in their earlier, separate forms, kept as references
for the parity tests.  The library now reads each from one rule:
projectivity from the minimal presentation, Hom from a projective through
hom_dim on its support, and the order from down_set.

- ``reference_classify_projective`` tries seven kinds of candidate label
  and keeps the first whose support is the interval;
- ``reference_hom_from_projective`` is Yoneda spelled out: the dimension
  of M_W at the label's point, just left or right of it, or at an
  infinite end;
- ``reference_leq`` bisects the critical points between x and y and reads
  the direction of the segment they share.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction

from aquiver.homological import (InjectiveLabel, OPEN_LEFT, OPEN_RIGHT, POINT,
                                 ProjectiveLabel, _presentation_labels, hom_dim,
                                 realize_projective)
from aquiver.intervals import NEG_INF, POS_INF, is_finite
from aquiver.orientation import reverse


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
        if realize_projective(o, label) == iv:
            return label
    return None


def reference_classify_injective(o, iv):
    p = reference_classify_projective(reverse(o), iv)
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
    return [hom_dim(o, v, w) - sum(reference_hom_from_projective(l, w) for l in p0)
            + sum(reference_hom_from_projective(l, w) for l in p1) for w in ws]


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

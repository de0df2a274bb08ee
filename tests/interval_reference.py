"""Interval-level rules in their earlier, separate forms, kept as references
for the parity tests.  The library now reads each from one rule:
projectivity from the minimal presentation, the presentation and Ext from
one per-end recipe read off a locate of each end, the order from
down_set, and down_set, hom_dim and standard_probes from exact
comparisons on Python ints (intervals.compare, orientation.locate).

- ``reference_classify_projective`` tries seven kinds of candidate label
  and keeps the first whose support is the interval;
- ``reference_hom_from_projective`` is Yoneda spelled out: the dimension
  of M_W at the label's point, just left or right of it, or at an
  infinite end;
- ``reference_presentation_labels`` realizes the minimal presentation
  with a down-set at each end, an up-set intersected with the interval
  at each open end, and a down-set per interior critical point, and
  ``reference_ext_dims_by_supports`` reads each Hom(P, W) off it as
  hom_dim on the projective's support;
- ``reference_leq`` bisects the critical points between x and y and reads
  the direction of the segment they share;
- ``reference_locate`` and ``reference_down_set`` bisect the Fraction
  positions; ``reference_reverse`` builds a new orientation on every
  call, and the up-sets and realizations here go through these;
- ``reference_intersect`` picks each end of the intersection with up to
  five Fraction comparisons;
- ``reference_hom_dim`` builds K = I n J through ``reference_intersect``
  and bisects the Fraction positions for the junctions beside it;
- ``reference_standard_probes`` builds every probe, drops repeats through
  a set and sorts the rest by the interval sort key;
- ``reference_verify_almost_split`` computes all six Hom counts of every
  probe, summed over each decomposed term, before it compares them;
- ``reference_common_grid`` collects the family's finite ends as a set of
  Fractions, adds each critical point inside the hull by Fraction
  comparisons, and sorts the set; ``reference_criticals_off_grid`` tests
  each critical point against the grid's ends and a set of its points.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction

from aquiver.decompose import decompose
from aquiver.homological import (OPEN_LEFT, OPEN_RIGHT, POINT, ProjectiveLabel,
                                 _form_support, hom_dim)
from aquiver.intervals import Interval, NEG_INF, POS_INF, intersect, is_finite
from aquiver.orientation import Orientation, down_set, down_set_limit, locate, up_set
from aquiver.tamerep import is_short_exact


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
    p1, p0 = reference_presentation_labels(o, v)
    return [hom_dim(o, v, w) - sum(reference_hom_from_projective(l, w) for l, _ in p0)
            + sum(reference_hom_from_projective(l, w) for l, _ in p1) for w in ws]


def reference_presentation_labels(o, iv):
    """Relation (P1) and generator (P0) labels of the minimal presentation
    of the interval summand on iv, each with its projective's support."""
    p0, p1 = [], []
    if iv.is_point():
        a = Fraction(iv.lo)
        ds = down_set(o, a)
        p0.append((ProjectiveLabel(POINT, a), ds))
        for form in (OPEN_RIGHT, OPEN_LEFT):
            sup = _form_support(ds, form, a)
            if sup is not None:
                p1.append((ProjectiveLabel(form, a), sup))
        return p1, p0
    # the critical points strictly inside iv
    first = locate(o, iv.lo)[0] if is_finite(iv.lo) else 0
    last = len(o.criticals)
    if is_finite(iv.hi):
        last, critical = locate(o, iv.hi)
        last -= critical
    for p, kind in o.criticals[first:last]:
        (p0 if kind == "source" else p1).append((ProjectiveLabel(POINT, p), down_set(o, p)))
    # each end with the half-open forms pointing into and out of iv there
    for end, closed, inward, outward in ((iv.lo, iv.lo_closed, OPEN_LEFT, OPEN_RIGHT),
                                         (iv.hi, iv.hi_closed, OPEN_RIGHT, OPEN_LEFT)):
        if not is_finite(end):
            sup = down_set_limit(o, end)
            if sup is not None:
                p0.append((ProjectiveLabel(POINT, end), sup))
            continue
        ds = down_set(o, end)
        into = _form_support(ds, inward, end)
        if not closed:
            if into is not None:
                p0.append((ProjectiveLabel(inward, end), into))
            if intersect(up_set(o, end), iv) is not None:
                p1.append((ProjectiveLabel(POINT, end), ds))
        else:
            if into is not None:
                p0.append((ProjectiveLabel(POINT, end), ds))
            out = _form_support(ds, outward, end)
            if out is not None:
                p1.append((ProjectiveLabel(outward, end), out))
    return p1, p0


def reference_ext_dims_by_supports(o, v, ws):
    """dim Ext^1(M_V, M_W) for each W of ws: the alternating sum
    hom(V, W) - hom(P0, W) + hom(P1, W), each Hom(P, W) read as hom_dim
    from the projective's support in reference_presentation_labels."""
    p1, p0 = reference_presentation_labels(o, v)
    return [hom_dim(o, v, w) - sum(hom_dim(o, sup, w) for _, sup in p0)
            + sum(hom_dim(o, sup, w) for _, sup in p1) for w in ws]


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


def reference_common_grid(o, family):
    """The grid reps_on_common_grid builds for the family of intervals."""
    pts = {Fraction(e) for iv in family for e in (iv.lo, iv.hi) if is_finite(e)}
    if family:
        lo_h, hi_h = min(iv.lo for iv in family), max(iv.hi for iv in family)
        pts.update(p for p in o.positions if lo_h <= p <= hi_h)
    return tuple(sorted(pts))


def reference_criticals_off_grid(o, grid):
    """The critical points inside the sorted grid's hull but off it, in order."""
    if not grid:
        return []
    on_grid = set(grid)
    return [p for p in o.positions if grid[0] <= p <= grid[-1] and p not in on_grid]


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


def reference_verify_almost_split(seq, probes=()):
    """Exactness, indecomposable ends, non-splitness, and every probe's
    lift and extension read off hom(X, M) - hom(X, L) == hom(X, R) and
    hom(M, X) - hom(R, X) == hom(L, X), all six counts computed."""
    f, g = seq.f, seq.g
    if not is_short_exact(f, g):
        return False
    terms = [decompose(r) for r in (f.dom, f.cod, g.cod)]
    if terms[0].total() != 1 or terms[2].total() != 1:
        return False
    o = f.dom.orientation
    bars = [t.items() for t in terms]

    def lifts(x_iv):
        hl, hm, hr = (sum(m * hom_dim(o, x_iv, iv) for iv, m in t) for t in bars)
        return hm - hl == hr

    def colifts(x_iv):
        hl, hm, hr = (sum(m * hom_dim(o, iv, x_iv) for iv, m in t) for t in bars)
        return hm - hr == hl

    if lifts(seq.right):
        return False
    return all((lifts(x_iv) or x_iv == seq.right) and (colifts(x_iv) or x_iv == seq.left)
               for x_iv in probes)

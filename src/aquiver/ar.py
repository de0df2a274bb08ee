"""Almost-split sequences between interval summands.

Only the families proved to exist are constructed: for a<b strictly inside
one segment, 0 -> M[a,b) -> M[a,b] + M(a,b) -> M(a,b] -> 0 when the
segment order increases, and its mirror image when it decreases.  Point
summands at non-critical points provably admit no almost-split sequence
on either side; every other shape is reported as out of scope rather than
guessed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from typing import Optional, Sequence

from .decompose import decompose
from .homological import hom_dim
from .intervals import Interval, compare, is_finite
from .linalg import QQ
from .orientation import Orientation, locate, segment_index
from .record import record
from .tamerep import RepMorphism, is_short_exact, overlap_morphism, reps_on_common_grid

EXISTS = "exists"
PROVEN_NONEXISTENT = "proven_nonexistent"
OUT_OF_PAPER_SCOPE = "out_of_scope"


@record
class ARSequence:
    left: Interval
    middle: list[Interval]
    right: Interval
    f: RepMorphism  # left -> middle sum, the [1;1] column
    g: RepMorphism  # middle sum -> right, the [1 -1] row


@record
class ARAnswer:
    status: str
    sequence: Optional[ARSequence] = None


def _strictly_inside_segment(o: Orientation, a: Fraction, b: Fraction) -> Optional[bool]:
    """None unless [a,b] sits strictly inside one segment; else whether the
    order increases there: a is not critical and no critical point is
    <= b that is not already <= a."""
    i, critical = locate(o, a)
    if critical or locate(o, b)[0] != i:
        return None
    return o.segments[i].increasing


def _realize_sequence(o: Orientation, left: Interval, middle: list[Interval],
                      right: Interval, field) -> ARSequence:
    lpack, mpack, rpack = reps_on_common_grid(o, [[left], middle, [right]], field)
    f = overlap_morphism(lpack, mpack, {(0, 0): 1, (0, 1): 1})
    g = overlap_morphism(mpack, rpack, {(0, 0): 1, (1, 0): -1})
    return ARSequence(left, middle, right, f, g)


def ar_ending_at(o: Orientation, w: Interval, field=QQ) -> ARAnswer:
    """The almost-split sequence with right end the summand on w, when the
    established patterns apply."""
    if w.is_point():
        a = Fraction(w.lo)
        if o.is_critical(a):
            return ARAnswer(OUT_OF_PAPER_SCOPE)
        return ARAnswer(PROVEN_NONEXISTENT)
    if not (is_finite(w.lo) and is_finite(w.hi)):
        return ARAnswer(OUT_OF_PAPER_SCOPE)
    a, b = Fraction(w.lo), Fraction(w.hi)
    inc = _strictly_inside_segment(o, a, b)
    if inc is None:
        return ARAnswer(OUT_OF_PAPER_SCOPE)
    closed = Interval(a, b, True, True)
    open_ = Interval(a, b, False, False)
    if inc and not w.lo_closed and w.hi_closed:
        left = Interval(a, b, True, False)
        seq = _realize_sequence(o, left, [closed, open_], w, field)
        return ARAnswer(EXISTS, seq)
    if not inc and w.lo_closed and not w.hi_closed:
        left = Interval(a, b, False, True)
        seq = _realize_sequence(o, left, [open_, closed], w, field)
        return ARAnswer(EXISTS, seq)
    return ARAnswer(OUT_OF_PAPER_SCOPE)


def ar_starting_at(o: Orientation, u: Interval, field=QQ) -> ARAnswer:
    """The almost-split sequence with left end the summand on u.  Both
    families have ends on the same a < b with both closedness flags
    flipped, so this is ar_ending_at at the flipped interval; a point or an
    unbounded interval gets the same answer at either end."""
    if u.is_point() or not (is_finite(u.lo) and is_finite(u.hi)):
        return ar_ending_at(o, u, field)
    return ar_ending_at(o, Interval(u.lo, u.hi, not u.lo_closed, not u.hi_closed), field)


# ---------------------------------------------------------------------------
# verification

def verify_almost_split(seq: ARSequence, probes: Sequence[Interval] = ()) -> bool:
    """Exactness, non-splitness, indecomposable ends, and (for every probe
    X with a nonzero map to the right end or from the left end) a
    factorization through the middle.

    Exactness makes Hom(X, -) and Hom(-, X) left exact, so the image of
    g_*: Hom(X, M) -> Hom(X, R) has dimension hom(X, M) - hom(X, L), and
    that of f^*: Hom(M, X) -> Hom(L, X) has dimension hom(M, X) - hom(R, X).
    Every probe map factors exactly when these maps are onto, and each
    hom is a sum of interval homs over the decomposed terms.  The image
    of g_* lies in Hom(X, R), so hom(X, M) - hom(X, L) <= hom(X, R), and a
    probe with hom(X, R) = 0 lifts whatever the other two counts are;
    dually, one with hom(L, X) = 0 extends.  So hom(X, R) and hom(L, X)
    are computed first, and the other counts only when they are nonzero.
    The sequence splits exactly when the identity of R lifts through g."""
    f, g = seq.f, seq.g
    if not is_short_exact(f, g):
        return False
    lrep, mrep, rrep = f.dom, f.cod, g.cod
    # indecomposable ends
    terms = [decompose(r) for r in (lrep, mrep, rrep)]
    if terms[0].total() != 1 or terms[2].total() != 1:
        return False
    o = lrep.orientation
    (left,), (right,) = terms[0].intervals(), terms[2].intervals()
    middle = terms[1].items()  # listed once, not once per probe

    def lifts(x_iv: Interval) -> bool:
        hr = hom_dim(o, x_iv, right)
        return not hr or (sum(m * hom_dim(o, x_iv, iv) for iv, m in middle)
                          - hom_dim(o, x_iv, left) == hr)

    def colifts(x_iv: Interval) -> bool:
        hl = hom_dim(o, left, x_iv)
        return not hl or (sum(m * hom_dim(o, iv, x_iv) for iv, m in middle)
                          - hom_dim(o, right, x_iv) == hl)

    if lifts(seq.right):
        return False  # split
    return all((lifts(x_iv) or x_iv == seq.right) and (colifts(x_iv) or x_iv == seq.left)
               for x_iv in probes)


def standard_probes(o: Orientation, seq: ARSequence, count: int = 50) -> list[Interval]:
    """A deterministic family of intervals around the sequence's segment,
    in the canonical bar order, cut at count.  Its points are a and b, the
    right term's ends, a quarter and halfway from a to b, and halfway out
    to the ends of a's segment (a - 1 or b + 1 at an infinite end), in
    order and each once: an end of the right term on an end of the segment
    gives one point, not two.  Every pair of points lo <= hi gives the
    point {lo} or the four intervals with those ends.  Ascending lo, then
    closed before open at lo, ascending hi, and open before closed at hi is
    the canonical order, so the family is emitted in it and never sorted;
    it is cut as a list slice [:count] cuts, before any Interval is
    built."""
    a, b = Fraction(seq.right.lo), Fraction(seq.right.hi)
    seg = segment_index(o, a)
    lo_out = (Fraction(seg.lo) + a) / 2 if is_finite(seg.lo) else a - 1
    hi_out = (b + Fraction(seg.hi)) / 2 if is_finite(seg.hi) else b + 1
    # hi_out is out of order only when the right term leaves a's segment
    points = sorted([lo_out, a, (3 * a + b) / 4, (a + b) / 2, b, hi_out],
                    key=cmp_to_key(compare))
    points = [p for n, p in enumerate(points) if n == 0 or compare(points[n - 1], p)]

    def family():
        for n, lo in enumerate(points):
            yield lo, lo, True, True
            for lo_closed in (True, False):
                for hi in points[n + 1:]:
                    yield lo, hi, lo_closed, False
                    yield lo, hi, lo_closed, True

    return [Interval(*ends) for ends in list(family())[:count]]

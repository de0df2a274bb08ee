"""Hom and Ext spaces, projective classification and minimal projective
presentations.  Injectives are the projectives over the reversed
orientation.

Between interval summands neither a system nor a grid is needed: a
morphism M_I -> M_J is one scalar on K = I n J, and only the junction
just outside each end of K can force it to vanish, depending on which way
the orientation runs there (hom_dim).  K is never built: its ends are read
off I's and J's with intervals.compare, on Python ints, and each junction
is found with orientation.locate.  Hom between representations is
bilinear over their barcodes (hom_space_dim).

Presentations follow the generator/relation recipe for interval
summands: generators sit at interior sources and at the ends of the
interval, relations at interior sinks and at the overshoots of the
generators.  _presentation_terms states that recipe once, read off one
locate of each finite end (orientation.reach says which half-open forms
are nonzero there, and whether the up-set there meets the interval), and
builds no label, down-set or Interval.  _presentation_labels realizes
each of its terms through realize_projective, the one path from a label
to its support, and proj_presentation joins them with a fixed
alternating +-1 scheme that is checked, not trusted: with
the map from P0 onto M_V, 0 -> P1 -> P0 -> M_V -> 0 must be exact
(tamerep.is_short_exact, the check ar.verify_almost_split also makes).
Projectivity is read off the same presentation: an interval is projective
exactly when it has one generator and no relation (classify_projective).

Ext reads the same terms, so the two cannot drift apart.  The category is
hereditary, so Ext^1(M_V, M_W) is the alternating sum
hom(V, W) - hom(P0, W) + hom(P1, W), and by Yoneda each Hom(P, M_W) is
W's dimension at P's label point, decided by intervals.compare on W's
ends (_yoneda); the interior critical points of V that lie in W form one
alternating run, of which only its parity and first kind count
(ext_dim).  An earlier Yoneda rule, _hom_from_projective, was removed
because it was a second path beside hom_dim on the projective's support.
_yoneda now takes that support evaluation's place inside ext_dim, so Ext
still has one path, and it realizes nothing per (V, W) pair.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .decompose import InternalInvariantError, decompose
from .intervals import (ExtReal, Interval, NEG_INF, POS_INF, compare,
                        format_extreal, is_finite)
from .linalg import Matrix, QQ, rank
from .orientation import SINK, Orientation, down_set, down_set_limit, locate, reach
from .record import record
from .tamerep import (DOWN, RepMorphism, TameRep, cell_of_point,
                      cells_to_interval, is_short_exact, kernel_rep,
                      overlap_morphism, reps_on_common_grid)

POINT = "point"
OPEN_RIGHT = "open_right"   # the "x < a" half of the down-set at a
OPEN_LEFT = "open_left"     # the "x > a" half


@record
class ProjectiveLabel:
    form: str
    a: ExtReal

    def __post_init__(self):
        if self.form not in (POINT, OPEN_RIGHT, OPEN_LEFT):
            raise ValueError(f"bad form {self.form!r}")
        if not is_finite(self.a) and self.form != POINT:
            raise ValueError("half-open forms need a finite point")

    def __str__(self):
        return _format_label(self.form, format_extreal(self.a))


def _format_label(form: str, s: str) -> str:
    """Label text of the projective of the point, open-right or open-left
    form at s."""
    if form == POINT:
        return f"P_{s}"
    if form == OPEN_RIGHT:
        return f"P_{s})"
    return f"P_({s}"


def realize_projective(o: Orientation, label: ProjectiveLabel) -> Optional[Interval]:
    """Support of the labelled projective; None when the label denotes the
    zero representation (e.g. a half-open form at a sink)."""
    if not is_finite(label.a):
        return down_set_limit(o, label.a)
    a = Fraction(label.a)
    return _form_support(down_set(o, a), label.form, a)


def _form_support(ds: Interval, form: str, a: Fraction) -> Optional[Interval]:
    """Support of the form at the finite point a, read off the down-set ds
    at a: ds itself, or its part left or right of a (None when empty)."""
    if form == POINT:
        return ds
    if form == OPEN_RIGHT:
        return Interval(ds.lo, a, ds.lo_closed, False) if compare(ds.lo, a) < 0 else None
    return Interval(a, ds.hi, False, ds.hi_closed) if compare(ds.hi, a) > 0 else None


def classify_projective(o: Orientation, iv: Interval) -> Optional[ProjectiveLabel]:
    """The projective label whose support equals the interval, or None: the
    interval is projective exactly when its minimal presentation has one
    generator and no relation."""
    p1, p0 = _presentation_labels(o, iv)
    return p0[0][0] if not p1 and len(p0) == 1 else None


# ---------------------------------------------------------------------------
# Hom spaces

def hom_space_dim(v: TameRep, w: TameRep) -> int:
    """dim Hom(v, w).  Hom is bilinear over direct sums, so with
    v = sum m_I M_I and w = sum n_J M_J it is sum m_I n_J hom(I, J) over
    the two barcodes.  The answer therefore rests on decompose: each side
    is decomposed once, on its own grid, and each distinct pair of bars
    costs one hom_dim."""
    if v.orientation != w.orientation:
        raise ValueError("orientation mismatch")
    if v.field != w.field:
        raise ValueError("field mismatch")
    o, field = v.orientation, v.field
    w_bars = decompose(w).items()
    return sum(m * n * hom_dim(o, i_iv, j_iv, field)
               for i_iv, m in decompose(v).items() for j_iv, n in w_bars)


def hom_dim(o: Orientation, i_iv: Interval, j_iv: Interval, field=QQ) -> int:
    """dim Hom(M_I, M_J), 0 or 1 over every field, so field is accepted
    but unused; the benchmark passes it positionally.
    A morphism is one scalar on K = I n J.  The junction just outside a
    finite end of K forces it to 0 when its map runs from I outside K into
    K, or from K into J outside K.  Below K that junction lies in the
    stretch just left of K.lo if K contains K.lo, else just right of it;
    an increasing stretch runs maps toward smaller reals, out of K, so then
    J must not reach below K, and otherwise I must not.  Above K mirrors
    this.

    K is not built as an Interval.  One compare per pair of ends says
    whether I or J reaches past the other there (a closed end reaches past
    an open one at the same point); the other gives K that end.  One more
    compare says whether K is empty, and one locate per finite end of K
    finds the junction beside it."""
    c = compare(i_iv.lo, j_iv.lo)
    i_below = c < 0 or (c == 0 and i_iv.lo_closed and not j_iv.lo_closed)
    j_below = c > 0 or (c == 0 and j_iv.lo_closed and not i_iv.lo_closed)
    lo, lo_closed = (j_iv.lo, j_iv.lo_closed) if i_below else (i_iv.lo, i_iv.lo_closed)
    c = compare(i_iv.hi, j_iv.hi)
    i_above = c > 0 or (c == 0 and i_iv.hi_closed and not j_iv.hi_closed)
    j_above = c < 0 or (c == 0 and j_iv.hi_closed and not i_iv.hi_closed)
    hi, hi_closed = (j_iv.hi, j_iv.hi_closed) if i_above else (i_iv.hi, i_iv.hi_closed)
    c = compare(lo, hi)
    if c > 0 or (c == 0 and not (lo_closed and hi_closed)):
        return 0
    segs = o.segments
    if is_finite(lo):
        i, critical = locate(o, lo)
        below = segs[i - 1 if critical and lo_closed else i]
        if (j_below if below.increasing else i_below):
            return 0
    if is_finite(hi):
        i, critical = locate(o, hi)
        above = segs[i - 1 if critical and not hi_closed else i]
        if (i_above if above.increasing else j_above):
            return 0
    return 1


# ---------------------------------------------------------------------------
# projectivity of representations

def is_projective_rep(v: TameRep) -> bool:
    """Every interval summand classifies as a projective."""
    return all(classify_projective(v.orientation, iv) is not None
               for iv, _ in decompose(v))


def injective_composites_criterion(v: TameRep) -> bool:
    """Direct test for representations supported in a single segment.  One
    that is nonzero at a source is not projective: the down-set of a
    source reaches both sides of it, so every nonzero projective there
    spans two segments.  For any other, every composite map into the
    segment's sink end must be injective.  An infinite sink end is read off
    the unbounded grid cell, which carries the colimit of a tame
    representation."""
    nz = [i for i, d in enumerate(v.dims) if d > 0]
    if not nz:
        return True
    o = v.orientation
    hull = cells_to_interval(v.grid, nz[0], nz[-1])
    # i critical points lie at or below hull.lo and k below hull.hi, so
    # k - i lie strictly inside; a point hull at a critical point gets
    # k = i - 1, and segment k is the left one
    lo_at = locate(o, hull.lo) if is_finite(hull.lo) else (0, False)
    hi_at = locate(o, hull.hi) if is_finite(hull.hi) else (len(o.criticals), False)
    i, k = lo_at[0], hi_at[0] - hi_at[1]
    if k > i:
        raise ValueError("support spans more than one segment")
    # the support is nonzero at a critical end of its hull exactly when the
    # hull is closed there
    for closed, (at, critical) in ((hull.lo_closed, lo_at), (hull.hi_closed, hi_at)):
        if closed and critical and all(reach(o, at, critical)):
            return False
    seg = o.segments[k]
    if seg.increasing:  # sink end at the left
        target = cell_of_point(v.grid, seg.lo) if is_finite(seg.lo) else 0
        order = list(range(target, nz[-1] + 1))
    else:
        target = (cell_of_point(v.grid, seg.hi) if is_finite(seg.hi)
                  else v.ncells - 1)
        order = list(reversed(range(nz[0], target + 1)))
    return _composite_ranks(v, order) == [v.dims[c] for c in order]


def _composite_ranks(v: TameRep, order: list[int]) -> list[int]:
    """The rank of the composite map from each cell of order into order[0],
    for a walk over adjacent cells whose junction maps all point back
    toward order[0]."""
    comp = Matrix.identity(v.field, v.dims[order[0]])
    ranks = [v.dims[order[0]]]
    for prev, c in zip(order, order[1:]):
        j = min(c, prev)
        if (v.dirs[j] == DOWN) != (c > prev):
            raise ValueError("junction map points away from the sink end")
        comp = comp.matmul(v.maps[j])
        ranks.append(rank(comp))
    return ranks


# ---------------------------------------------------------------------------
# minimal projective presentations

@record
class ProjPresentation:
    p1: list[ProjectiveLabel]
    p0: list[ProjectiveLabel]
    realized: RepMorphism  # injective, cokernel is the presented summand


def _label_position(label: ProjectiveLabel):
    if label.a == NEG_INF:
        return (NEG_INF, 0)
    if label.a == POS_INF:
        return (POS_INF, 0)
    side = {OPEN_RIGHT: -1, POINT: 0, OPEN_LEFT: 1}[label.form]
    return (Fraction(label.a), side)


def _finite_end(closed: bool, inward_reach: bool, outward_reach: bool,
                inward: str, outward: str) -> tuple:
    """The (relation, form) terms at a finite end of a non-point interval.
    At an open end the inward form is a generator when nonzero; otherwise
    the up-set reaches into the interval and the point form is a relation.
    At a closed end the point form is a generator when the down-set
    reaches inward, and the nonzero outward form is a relation."""
    if not closed:
        return ((False, inward),) if inward_reach else ((True, POINT),)
    terms = ((False, POINT),) if inward_reach else ()
    return terms + ((True, outward),) if outward_reach else terms


def _presentation_terms(o: Orientation, iv: Interval) -> tuple[int, int, tuple]:
    """The minimal presentation of the interval summand on iv, unrealized,
    as (first, last, ends), from one locate per finite end.  The critical
    points o.criticals[first:last] lie strictly inside iv; each source is a
    generator (P0) and each sink a relation (P1).  ends holds (a, terms)
    for iv's ends, lo before hi (a point once), with the (relation, form)
    pairs of the labels at a.  A point generates with its point form and
    is related by each nonzero half-open form; an infinite end generates
    when the end segment's sink side lies there (down_set_limit)."""
    segs = o.segments
    lo, hi = iv.lo, iv.hi
    if is_finite(lo):
        first, critical = locate(o, lo)
        left, right = reach(o, first, critical)
        if compare(lo, hi) == 0:
            terms = ((False, POINT),) + ((True, OPEN_RIGHT),) * left + ((True, OPEN_LEFT),) * right
            return 0, 0, ((lo, terms),)
        lo_terms = _finite_end(iv.lo_closed, right, left, OPEN_LEFT, OPEN_RIGHT)
    else:
        first = 0
        lo_terms = () if segs[0].increasing else ((False, POINT),)
    if is_finite(hi):
        last, critical = locate(o, hi)
        left, right = reach(o, last, critical)
        last -= critical
        hi_terms = _finite_end(iv.hi_closed, left, right, OPEN_RIGHT, OPEN_LEFT)
    else:
        last = len(o.criticals)
        hi_terms = ((False, POINT),) if segs[-1].increasing else ()
    return first, last, ((lo, lo_terms), (hi, hi_terms))


def _presentation_labels(o: Orientation, iv: Interval) -> tuple[list, list]:
    """Relation (P1) and generator (P0) labels of the minimal presentation
    of the interval summand on iv, each paired with its projective's
    support, as _presentation_terms lists them: the interior critical
    points, then the ends.  Every interval gets one: a projective interval
    gets P1 = [] and P0 = [its own label].  Each label is realized once,
    by realize_projective."""
    first, last, ends = _presentation_terms(o, iv)
    terms = [(kind == SINK, POINT, p) for p, kind in o.criticals[first:last]]
    terms += [(relation, form, a) for a, end in ends for relation, form in end]
    p0, p1 = [], []
    for relation, form, a in terms:
        label = ProjectiveLabel(form, a)
        (p1 if relation else p0).append((label, realize_projective(o, label)))
    return p1, p0


def proj_presentation(o: Orientation, iv: Interval, field=QQ) -> ProjPresentation:
    """Minimal projective presentation of the interval summand supported on
    iv: an injective map P1 -> P0 between sums of projectives whose
    cokernel is it.  The labels sorted by position alternate between
    generators and relations, and each relation maps with +1 to the
    generator before it and -1 to the one after it, where there is one.
    The map is checked,
    not trusted: with e: P0 -> M_iv sending every generator to 1,
    0 -> P1 -> P0 -> M_iv -> 0 must be exact (is_short_exact), so its
    cokernel is M_iv."""
    p1, p0 = _presentation_labels(o, iv)
    dom_pack, cod_pack, iv_pack = reps_on_common_grid(
        o, [[sup for _, sup in p1], [sup for _, sup in p0], [iv]], field)
    chain = sorted([(_label_position(lab), True, i) for i, (lab, _) in enumerate(p1)]
                   + [(_label_position(lab), False, k) for k, (lab, _) in enumerate(p0)],
                   key=lambda t: t[0])
    one = field.one()
    pairs = {}
    for pos, (_, relation, i) in enumerate(chain):
        if relation:
            if pos:
                pairs[(i, chain[pos - 1][2])] = one
            if pos + 1 < len(chain):
                pairs[(i, chain[pos + 1][2])] = field.neg(one)
    try:
        realized = overlap_morphism(dom_pack, cod_pack, pairs)
        onto = overlap_morphism(cod_pack, iv_pack, {(k, 0): one for k in range(len(p0))})
    except ValueError as e:  # a square does not commute
        raise InternalInvariantError(f"presentation: {e}")
    if not is_short_exact(realized, onto):
        raise InternalInvariantError("0 -> P1 -> P0 -> M_V -> 0 is not exact")
    return ProjPresentation([lab for lab, _ in p1], [lab for lab, _ in p0], realized)


def ext_dim(o: Orientation, v_iv: Interval, w_iv: Interval) -> int:
    """dim Ext^1(M_V, M_W), 0 or 1 over every field.  V has the minimal
    presentation 0 -> P1 -> P0 -> M_V -> 0 and the category is hereditary,
    so 0 -> Hom(V, W) -> Hom(P0, W) -> Hom(P1, W) -> Ext^1(V, W) -> 0
    is exact and Ext^1 is its alternating sum of dimensions.  Each
    Hom(P, M_W) is W's dimension at P's label point (_yoneda), for the
    terms of _presentation_terms, which nothing realizes.  The interior
    critical points of V that lie in W are one run of alternating sinks
    (relations) and sources (generators), its ends read off a locate of
    each finite end of W: an even run adds 0, an odd one +1 when it
    starts at a sink and -1 at a source."""
    first, last, ends = _presentation_terms(o, v_iv)
    ext = hom_dim(o, v_iv, w_iv)
    for a, terms in ends:
        for relation, form in terms:
            if _yoneda(form, a, w_iv):
                ext += 1 if relation else -1
    if first < last:
        if is_finite(w_iv.lo):
            i, critical = locate(o, w_iv.lo)
            first = max(first, i - (critical and w_iv.lo_closed))
        if is_finite(w_iv.hi):
            i, critical = locate(o, w_iv.hi)
            last = min(last, i - (critical and not w_iv.hi_closed))
        if first < last and (last - first) % 2:
            ext += 1 if o.criticals[first][1] == SINK else -1
    if ext not in (0, 1):
        raise InternalInvariantError(f"Ext dimension {ext} outside {{0,1}}")
    return ext


def _yoneda(form: str, a: ExtReal, w_iv: Interval) -> bool:
    """dim Hom(P, M_W) for the nonzero projective P of the form at a: W's
    dimension at a (the point form), just left of a (open-right), just
    right of a (open-left), or at the infinite end a."""
    if not is_finite(a):
        return not is_finite(w_iv.lo if a == NEG_INF else w_iv.hi)
    lo = compare(w_iv.lo, a)
    hi = compare(a, w_iv.hi)
    if form == POINT:
        return (lo < 0 or (lo == 0 and w_iv.lo_closed)) and (hi < 0 or (hi == 0 and w_iv.hi_closed))
    if form == OPEN_RIGHT:
        return lo < 0 and hi <= 0
    return lo <= 0 and hi < 0


def kernel_of_projective_map(f: RepMorphism) -> TameRep:
    """Kernel of a morphism between sums of projectives; the category is
    hereditary, so the kernel must classify projective again."""
    if not f.commutes():
        raise ValueError("non-commuting squares: not a morphism")
    k, _ = kernel_rep(f)
    if not is_projective_rep(k):
        raise InternalInvariantError("kernel of a map between projectives "
                                     "failed to classify projective")
    return k


# ---------------------------------------------------------------------------
# the projectives table

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _symbolic_interval(iv: Interval, a: ExtReal, name: str) -> str:
    """iv as text, with an end at a spelled name."""
    lo_s = name if iv.lo == a else format_extreal(iv.lo)
    hi_s = name if iv.hi == a else format_extreal(iv.hi)
    if iv.is_point():
        return "{%s}" % lo_s
    lb = "[" if iv.lo_closed else "("
    rb = "]" if iv.hi_closed else ")"
    return f"{lb}{lo_s}, {hi_s}{rb}"


def projectives_table(o: Orientation, window: Optional[tuple] = None) -> list[tuple[str, str, object]]:
    """All indecomposable projective forms: one row per label at an infinite
    end or a critical point and one symbolic row per family over each open
    segment.  Returns (support string, label string, sort proxy interval)
    rows, sorted by the canonical interval order.  Each point is named
    once, an infinite end or a critical point by its value and a family's
    point t0 by its segment's letter, and one loop spells every row with
    that name.  A window (lo, hi) keeps the rows of the critical points in
    [lo, hi] and the family rows of the open segments that meet it; the
    rows at -inf and +inf are in every window."""
    w_lo, w_hi = (NEG_INF, POS_INF) if window is None else window
    named = [(p, format_extreal(p)) for p in (NEG_INF, POS_INF) + o.positions
             if not is_finite(p) or (compare(p, w_lo) >= 0 and compare(p, w_hi) <= 0)]
    for si, seg in enumerate(o.segments):
        lo, hi = seg.lo, seg.hi
        if compare(lo, w_hi) >= 0 or compare(hi, w_lo) <= 0:
            continue
        q, r = divmod(si, len(_LETTERS))
        letter = _LETTERS[r] + (str(q) if q else "")  # a, ..., z, a1, ..., z1, a2, ...
        if is_finite(lo) and is_finite(hi):
            t0 = (Fraction(lo) + Fraction(hi)) / 2
        elif is_finite(lo):
            t0 = Fraction(lo) + 1
        elif is_finite(hi):
            t0 = Fraction(hi) - 1
        else:
            t0 = Fraction(0)
        named.append((t0, letter))
    rows = []
    for p, name in named:
        for form in (POINT, OPEN_RIGHT, OPEN_LEFT) if is_finite(p) else (POINT,):
            sup = realize_projective(o, ProjectiveLabel(form, p))
            if sup is not None:
                rows.append((_symbolic_interval(sup, p, name), _format_label(form, name), sup))
    rows.sort(key=lambda r: r[2].sort_key())
    return rows

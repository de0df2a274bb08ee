"""Hom and Ext spaces, projective classification and minimal projective
presentations.  Injectives are the projectives over the reversed
orientation.

Between interval summands neither a system nor a grid is needed: a
morphism M_I -> M_J is one scalar on K = I n J, and only the junction
just outside each end of K can force it to vanish, depending on which way
the orientation runs there (hom_dim).  K is never built: its ends are read
off I's and J's with intervals.compare, on Python ints, and each junction
is found with orientation.locate.  Hom between representations is
bilinear over their barcodes (hom_space_dim).  The category is
hereditary, so Ext^1 between interval summands follows from the minimal
presentation and Yoneda (ext_dim): Hom(P, M_W) from a projective P is
hom_dim from P's support.  Presentations follow the generator/relation
recipe for interval summands: generators sit at interior sources and at
the ends of the interval, relations at interior sinks and at the
overshoots of the generators, realized with a fixed alternating +-1
scheme.  Projectivity is read off the same presentation: an interval is
projective exactly when it has one generator and no relation
(classify_projective).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .decompose import InternalInvariantError, decompose
from .intervals import (ExtReal, Interval, NEG_INF, POS_INF, compare,
                        format_extreal, intersect, is_finite)
from .linalg import Matrix, QQ, rank
from .orientation import (Orientation, Segment, down_set, down_set_limit,
                          locate, up_set)
from .record import record
from .tamerep import (DOWN, RepMorphism, TameRep, cell_of_point,
                      cells_to_interval, interval_to_cells, kernel_rep,
                      overlap_morphism, reps_on_common_grid)

POINT = "point"
OPEN_RIGHT = "open_right"   # the "x < a" half of the down-set at a
OPEN_LEFT = "open_left"     # the "x > a" half


@record(frozen=True)
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
    but unused; callers, the benchmark among them, pass it positionally.
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
    """Direct test for representations supported in a single segment: every
    composite map into the segment's sink end must be injective.  An
    infinite sink end is read off the unbounded grid cell, which carries
    the colimit of a tame representation."""
    nz = [i for i, d in enumerate(v.dims) if d > 0]
    if not nz:
        return True
    hull = cells_to_interval(v.grid, nz[0], nz[-1])
    for p, _ in v.orientation.criticals:
        if hull.lo < p < hull.hi:
            raise ValueError("support spans more than one segment")
    seg = _segment_of_hull(v.orientation, hull)
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


def _segment_of_hull(o: Orientation, hull: Interval) -> Segment:
    """The first segment that contains the hull (the left one for a point
    hull at a critical point)."""
    return next(s for s in o.segments if s.lo <= hull.lo and hull.hi <= s.hi)


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


def _presentation_labels(o: Orientation, iv: Interval) -> tuple[list, list]:
    """Relation (P1) and generator (P0) labels of the minimal presentation
    of the interval summand on iv, each paired with its projective's
    support.  Every interval gets one: a projective interval gets P1 = []
    and P0 = [its own label].  Each label is realized once, and all forms
    at a finite point are read off the one down-set there."""
    p0: list[tuple[ProjectiveLabel, Interval]] = []
    p1: list[tuple[ProjectiveLabel, Interval]] = []

    if iv.is_point():
        a = Fraction(iv.lo)
        ds = down_set(o, a)
        p0.append((ProjectiveLabel(POINT, a), ds))
        for form in (OPEN_RIGHT, OPEN_LEFT):
            sup = _form_support(ds, form, a)
            if sup is not None:
                p1.append((ProjectiveLabel(form, a), sup))
        return p1, p0

    # the critical points strictly inside iv: those after the ones <= lo
    # and before the ones >= hi
    first = locate(o, iv.lo)[0] if is_finite(iv.lo) else 0
    last = len(o.criticals)
    if is_finite(iv.hi):
        last, critical = locate(o, iv.hi)
        last -= critical
    for p, kind in o.criticals[first:last]:
        (p0 if kind == "source" else p1).append((ProjectiveLabel(POINT, p), down_set(o, p)))

    # each end with its closedness and the half-open forms pointing into
    # and out of the interval there, lo before hi.  A form pointing into
    # the interval meets it whenever it is nonzero, and one pointing out
    # of a closed end never does.
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


def proj_presentation(o: Orientation, iv: Interval, field=QQ) -> ProjPresentation:
    """Minimal projective presentation of the interval summand supported on
    iv: an injective map between sums of projectives whose cokernel is it.
    Two checks guard the realized map: it is injective on every cell, and
    dim P0_c - dim P1_c is 1 on iv's cells and 0 elsewhere, the cokernel's
    dimension vector.  They are necessary but not sufficient: a map with
    the right ranks can still have a cokernel other than M_iv."""
    p1, p0 = _presentation_labels(o, iv)
    dom_pack, cod_pack = reps_on_common_grid(
        o, [[sup for _, sup in p1], [sup for _, sup in p0]], field)
    chain = sorted(
        [(lab, _label_position(lab), 1, i) for i, (lab, _) in enumerate(p1)]
        + [(lab, _label_position(lab), 0, i) for i, (lab, _) in enumerate(p0)],
        key=lambda t: t[1])
    pairs = {}
    one = field.one()
    for pos, (lab, _, which, i) in enumerate(chain):
        if which != 1:
            continue
        for left in range(pos - 1, -1, -1):
            if chain[left][2] == 0:
                pairs[(i, chain[left][3])] = one
                break
        for right in range(pos + 1, len(chain)):
            if chain[right][2] == 0:
                pairs[(i, chain[right][3])] = field.neg(one)
                break
    realized = overlap_morphism(dom_pack, cod_pack, pairs)
    p1_dims, p0_dims = realized.dom.dims, realized.cod.dims
    for c in range(realized.dom.ncells):
        if rank(realized.mats[c]) < p1_dims[c]:
            raise InternalInvariantError("presentation map is not injective cellwise")
    try:
        lo, hi = interval_to_cells(realized.dom.grid, iv)
    except ValueError:  # an end of iv is no grid point, so no union of cells is iv
        lo = hi = None
    if lo is None or any(d0 - d1 != (lo <= c <= hi)
                         for c, (d1, d0) in enumerate(zip(p1_dims, p0_dims))):
        raise InternalInvariantError("presentation's cokernel has the wrong dimension vector")
    return ProjPresentation([lab for lab, _ in p1], [lab for lab, _ in p0], realized)


def ext_dim(o: Orientation, v_iv: Interval, w_iv: Interval, field=QQ) -> int:
    """dim Ext^1(M_V, M_W), 0 or 1 over every field, so field is accepted
    but unused, as in hom_dim.  V has the minimal
    presentation 0 -> P1 -> P0 -> M_V -> 0 and the category is hereditary,
    so 0 -> Hom(V, W) -> Hom(P0, W) -> Hom(P1, W) -> Ext^1(V, W) -> 0
    is exact and Ext^1 is its alternating sum of dimensions; each
    Hom(P, W) is hom_dim from the projective's support, which
    _presentation_labels hands back with each label, so nothing is
    realized twice."""
    p1, p0 = _presentation_labels(o, v_iv)
    ext = hom_dim(o, v_iv, w_iv) + sum(
        sign * hom_dim(o, sup, w_iv)
        for sign, pairs in ((-1, p0), (1, p1)) for _, sup in pairs)
    if ext not in (0, 1):
        raise InternalInvariantError(f"Ext dimension {ext} outside {{0,1}}")
    return ext


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


def _symbolic_interval(iv: Interval, t0: Fraction, letter: str) -> str:
    lo_s = letter if iv.lo == t0 else format_extreal(iv.lo)
    hi_s = letter if iv.hi == t0 else format_extreal(iv.hi)
    if iv.is_point():
        return "{%s}" % lo_s
    lb = "[" if iv.lo_closed else "("
    rb = "]" if iv.hi_closed else ")"
    return f"{lb}{lo_s}, {hi_s}{rb}"


def projectives_table(o: Orientation, window: Optional[tuple] = None) -> list[tuple[str, str, object]]:
    """All indecomposable projective forms: one row per label at an infinite
    end or a critical point and one symbolic row per family over each open
    segment.  Returns (support string, label string, sort proxy interval)
    rows, sorted by the canonical interval order."""
    rows = []

    def in_window(x) -> bool:
        if window is None:
            return True
        lo, hi = window
        return lo <= x <= hi

    for p in (NEG_INF, POS_INF) + o.positions:
        finite = is_finite(p)
        if finite and not in_window(p):
            continue
        for form in (POINT, OPEN_RIGHT, OPEN_LEFT) if finite else (POINT,):
            lab = ProjectiveLabel(form, p)
            sup = realize_projective(o, lab)
            if sup is not None:
                rows.append((str(sup), str(lab), sup))
    for si, seg in enumerate(o.segments):
        lo, hi = seg.lo, seg.hi
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
        if not in_window(t0):
            continue
        for form in (POINT, OPEN_RIGHT, OPEN_LEFT):
            lab = ProjectiveLabel(form, t0)
            sup = realize_projective(o, lab)
            if sup is not None:
                rows.append((_symbolic_interval(sup, t0, letter),
                             _format_label(form, letter), sup))
    rows.sort(key=lambda r: r[2].sort_key())
    return rows

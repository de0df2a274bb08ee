"""The real line with an alternating set of sinks and sources.

An orientation is a finite, strictly increasing list of critical points,
each marked ``sink`` or ``source``, with kinds alternating.  It induces a
partial order on the rationals: two points are comparable exactly when no
critical point lies strictly between them, and within such a stretch the
order runs toward the nearest sink.  With no critical points at all the
line carries one of exactly two orders, picked by ``empty_direction``
("descending" makes the order coincide with the usual <=).

All positions are exact rationals; irrational critical points are not
representable by design.  Each orientation also keeps its positions as
Python ints, scaled by the lcm of their denominators, so that locate finds
a rational among them with one divmod and one int bisect, and no Fraction
comparison.  down_set, segment_index, is_critical, tamerep's junction
directions, and the junction and interior-critical lookups of homological
and ar all go through it.  Which sides of a point its down-set reaches is
decided once, by reach, for down_set and for homological's presentations.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Literal, Optional

from .intervals import (ExtReal, Interval, NEG_INF, POS_INF, format_extreal,
                        is_finite, parse_rational)
from .record import record

Kind = Literal["sink", "source"]

SINK: Kind = "sink"
SOURCE: Kind = "source"


@record
class Segment:
    """A maximal stretch between consecutive critical points (or infinity).

    ``increasing`` is True when x precedes y iff x <= y on the segment,
    i.e. when the sink end sits at ``lo``.
    """

    lo: ExtReal
    hi: ExtReal
    increasing: bool


@record
class Orientation:
    criticals: tuple[tuple[Fraction, Kind], ...]
    empty_direction: Literal["descending", "ascending"] = "descending"

    def __post_init__(self):
        pos = [p for p, _ in self.criticals]
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError("critical positions must be strictly increasing")
        kinds = [k for _, k in self.criticals]
        if any(k not in (SINK, SOURCE) for k in kinds):
            raise ValueError("kind must be 'sink' or 'source'")
        if any(a == b for a, b in zip(kinds, kinds[1:])):
            raise ValueError("sinks and sources must alternate")
        if self.empty_direction not in ("descending", "ascending"):
            raise ValueError("empty_direction must be 'descending' or 'ascending'")
        if self.criticals and self.empty_direction != "descending":
            # the field only means something without critical points;
            # normalize so equality is structural
            object.__setattr__(self, "empty_direction", "descending")

    @staticmethod
    def make(criticals, empty_direction="descending") -> "Orientation":
        return Orientation(tuple((Fraction(p), k) for p, k in criticals), empty_direction)

    @cached_property
    def positions(self) -> tuple[Fraction, ...]:
        return tuple(p for p, _ in self.criticals)

    @cached_property
    def _integer_positions(self) -> tuple[int, tuple[int, ...]]:
        """The lcm L of the positions' denominators and the positions times
        L, which are ints in the same order."""
        ratios = [p.as_integer_ratio() for p in self.positions]
        den = lcm(*(d for _, d in ratios))
        return den, tuple(n * (den // d) for n, d in ratios)

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        """The len(criticals) + 1 closed segments, left to right.  A segment
        increases when its left end is a sink or its right end a source."""
        if not self.criticals:
            return (Segment(NEG_INF, POS_INF, self.empty_direction == "descending"),)
        crit = self.criticals
        first = Segment(NEG_INF, crit[0][0], crit[0][1] == SOURCE)
        ends = self.positions[1:] + (POS_INF,)
        return (first,) + tuple(Segment(p, hi, k == SINK) for (p, k), hi in zip(crit, ends))

    @cached_property
    def _reversed(self) -> "Orientation":
        flipped = tuple((p, SOURCE if k == SINK else SINK) for p, k in self.criticals)
        direction = "ascending" if self.empty_direction == "descending" else "descending"
        return Orientation(flipped, direction)

    def is_critical(self, x) -> bool:
        return locate(self, Fraction(x))[1]

    def __str__(self):
        if not self.criticals:
            return f"A_R(empty, {self.empty_direction})"
        inner = ", ".join(f"{format_extreal(p)}:{k}" for p, k in self.criticals)
        return f"A_R({inner})"


def leq(o: Orientation, x, y) -> bool:
    """The induced partial order: x precedes y."""
    return down_set(o, y).contains(x)


def locate(o: Orientation, a) -> tuple[int, bool]:
    """(i, critical) for a finite rational a: i is bisect_right of a in
    o.positions, the number of critical points <= a, so a lies in segment i
    (the right one at a critical point), and critical says whether a is
    positions[i - 1].  a * L for the positions' lcm L is floored once; the
    floor sits among the scaled positions as a does among the positions,
    and a is critical only when nothing was left over."""
    n, d = a.as_integer_ratio()
    den, scaled = o._integer_positions
    q, r = divmod(n * den, d)
    i = bisect_right(scaled, q)
    return i, r == 0 and i > 0 and scaled[i - 1] == q


def segment_index(o: Orientation, x) -> Segment:
    """The closed segment containing x.  At a critical point the segment on
    the right is reported."""
    return o.segments[locate(o, Fraction(x))[0]]


def reach(o: Orientation, i: int, critical: bool) -> tuple[bool, bool]:
    """Whether the down-set at the point locate placed as (i, critical)
    reaches left and right of it: both at a source, neither at a sink,
    else the side of the segment's sink end.  The up-set reaches exactly
    the other sides."""
    if critical:
        both = o.criticals[i - 1][1] == SOURCE
        return both, both
    increasing = o.segments[i].increasing
    return increasing, not increasing


def down_set(o: Orientation, a) -> Interval:
    """{x : x precedes a} as an interval, closed at finite ends.  One
    locate places a; on each side where reach says the down-set reaches,
    it runs out to the end of the segment there, and otherwise it stops
    at a."""
    if type(a) is not Fraction:
        a = Fraction(a)
    i, critical = locate(o, a)
    left, right = reach(o, i, critical)
    lo = o.segments[i - critical].lo if left else a
    hi = o.segments[i].hi if right else a
    return Interval(lo, hi, is_finite(lo), is_finite(hi))


def up_set(o: Orientation, a) -> Interval:
    """{x : a precedes x}; the dual of down_set."""
    return down_set(reverse(o), a)


def down_set_limit(o: Orientation, end: ExtReal) -> Optional[Interval]:
    """Limit of down_set(a) as a runs to an infinite end; None when empty.

    Nonzero exactly when the end segment has its sink side at the infinite
    end, i.e. the down-sets grow without bound in that direction.
    """
    if end == NEG_INF:
        seg = o.segments[0]
        if seg.increasing:
            return None  # down_set shrinks to nothing toward -inf
        return Interval(NEG_INF, seg.hi, False, is_finite(seg.hi))
    if end == POS_INF:
        seg = o.segments[-1]
        if not seg.increasing:
            return None
        return Interval(seg.lo, POS_INF, is_finite(seg.lo), False)
    raise ValueError("end must be +inf or -inf")


def reverse(o: Orientation) -> Orientation:
    """The orientation with every sink and source swapped (and the other
    empty direction), whose order is the opposite one.  It is built once
    per instance and cached, like positions and segments."""
    return o._reversed


def orientation_to_json(o: Orientation) -> dict:
    return {
        "criticals": [{"pos": format_extreal(p), "kind": k} for p, k in o.criticals],
        "empty_direction": o.empty_direction,
    }


def orientation_from_json(obj: dict) -> Orientation:
    crit = [(parse_rational(c["pos"]), c["kind"]) for c in obj.get("criticals", [])]
    return Orientation.make(crit, obj.get("empty_direction", "descending"))

"""Extended-real intervals with endpoint openness, and multisets of them.

Endpoints are exact rationals or +/-infinity (represented by the float
infinities, which compare correctly against Fraction).  An interval is
nonempty by construction; a point interval has both endpoints equal, finite
and closed.  Infinite ends are always open.

Ends are ordered by compare, which decides an infinity by its type and
sign and two rationals on their integer ratios, without Fraction's generic
comparison protocol; validation, intersect and the interval-level rules of
homological read ends through it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Iterable, Iterator, Union

ExtReal = Union[Fraction, float]

NEG_INF: ExtReal = -inf
POS_INF: ExtReal = inf


def is_finite(x: ExtReal) -> bool:
    # Only a float can be infinite; the type test spares a Fraction the
    # slow Fraction-against-float comparison.
    return type(x) is not float or (x != NEG_INF and x != POS_INF)


def compare(a: ExtReal, b: ExtReal) -> int:
    """-1, 0 or 1 as a <, == or > b, exactly.  A float is an infinity and is
    decided by its sign; two rationals compare by cross-multiplying their
    integer ratios (denominators are positive)."""
    if type(a) is float:
        if type(b) is float:
            return (a > b) - (a < b)
        return 1 if a > 0 else -1
    if type(b) is float:
        return -1 if b > 0 else 1
    p, q = a.as_integer_ratio()
    r, s = b.as_integer_ratio()
    x, y = p * s, r * q
    return (x > y) - (x < y)


_RATIO = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?").fullmatch
_DECIMAL = re.compile(r"[+-]?([0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE]([+-]?[0-9]+))?").fullmatch
# CPython's default limit on the digits of an int read from or written to
# a string; int() already enforces it on "p" and "p/q".
_MAX_DIGITS = 4300


def parse_rational(x) -> Fraction:
    """The exact rational an input value spells: a JSON integer (never a
    bool), or a string "p", "p/q" or a decimal such as "-0.25" or "1e-3"
    in ASCII digits.  Fraction() alone would also take floats (0.1 is a
    binary fraction), "1_0", surrounding spaces and other scripts' digits;
    those raise ValueError here, and so does a decimal whose digits and
    exponent add up to more than int() reads from a string (_MAX_DIGITS).
    The limit is on the input value only: arithmetic can still grow an
    accepted entry past what str() prints, and ``aquiver scramble`` then
    exits 2 (``cli.cmd_scramble``)."""
    if type(x) is int:
        return Fraction(x)
    if type(x) is str:
        m = _RATIO(x)
        if m:
            num, den = m.groups()
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        m = _DECIMAL(x)
        if m:
            mantissa, exp = m.groups()
            if len(mantissa) + abs(int(exp or 0)) > _MAX_DIGITS:
                raise ValueError(f"a decimal of more than {_MAX_DIGITS} digits")
            return Fraction(x)
    raise ValueError(f"{json.dumps(x)} is not a rational")


def parse_integer(x) -> int:
    """int(x), refusing booleans, the non-integral floats int() truncates,
    and strings other than ASCII digits with an optional sign (int() also
    reads "1_0" as 10, " 3 " as 3 and other scripts' digits)."""
    if (isinstance(x, bool) or (isinstance(x, float) and not x.is_integer())
            or (isinstance(x, str) and not re.fullmatch(r"[+-]?[0-9]+", x))):
        raise ValueError(f"{json.dumps(x)} is not an integer")
    return int(x)


def parse_extreal(s: str) -> ExtReal:
    if not isinstance(s, str):
        raise TypeError(f"expected a string such as \"1/2\" or \"-inf\", got {s!r}")
    if s in ("-inf", "-oo"):
        return NEG_INF
    if s in ("+inf", "inf", "+oo"):
        return POS_INF
    return parse_rational(s)


def format_extreal(x: ExtReal) -> str:
    if not is_finite(x):
        return "-inf" if x < 0 else "+inf"
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Interval:
    lo: ExtReal
    hi: ExtReal
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        c = compare(self.lo, self.hi)
        if c > 0:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if c == 0:
            if not is_finite(self.lo):
                raise ValueError("degenerate infinite interval")
            if not (self.lo_closed and self.hi_closed):
                raise ValueError("a point interval must be closed on both sides")
        # the type tests spare a Fraction end the comparison with a float
        if self.lo_closed and type(self.lo) is float and self.lo == NEG_INF:
            raise ValueError("-inf endpoint must be open")
        if self.hi_closed and type(self.hi) is float and self.hi == POS_INF:
            raise ValueError("+inf endpoint must be open")

    @staticmethod
    def point(x) -> "Interval":
        return Interval(Fraction(x), Fraction(x), True, True)

    @staticmethod
    def make(lo, hi, lo_closed: bool, hi_closed: bool) -> "Interval":
        lo = Fraction(lo) if is_finite(lo) else lo
        hi = Fraction(hi) if is_finite(hi) else hi
        return Interval(lo, hi, lo_closed, hi_closed)

    def is_point(self) -> bool:
        return compare(self.lo, self.hi) == 0

    def contains(self, x) -> bool:
        x = Fraction(x)
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    def sort_key(self):
        # lo ascending, closed-before-open at lo, hi ascending,
        # open-before-closed at hi: the canonical bar order.
        return (self.lo, not self.lo_closed, self.hi, self.hi_closed)

    def __str__(self):
        if self.is_point():
            return "{%s}" % format_extreal(self.lo)
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{format_extreal(self.lo)}, {format_extreal(self.hi)}{rb}"

    __repr__ = __str__

    def to_json(self) -> dict:
        return {
            "lo": format_extreal(self.lo),
            "lo_closed": self.lo_closed,
            "hi": format_extreal(self.hi),
            "hi_closed": self.hi_closed,
        }

    @staticmethod
    def from_json(obj: dict) -> "Interval":
        for key in ("lo", "hi", "lo_closed", "hi_closed"):
            if key not in obj:
                raise ValueError(f"missing key {key!r}")
        for key in ("lo_closed", "hi_closed"):
            if not isinstance(obj[key], bool):
                raise TypeError(f"{key} must be true or false")
        return Interval(parse_extreal(obj["lo"]), parse_extreal(obj["hi"]),
                        obj["lo_closed"], obj["hi_closed"])


def intersect(a: Interval, b: Interval) -> Interval | None:
    """Set intersection; None when empty.  Each pair of ends is compared
    once, with compare."""
    c = compare(a.lo, b.lo)
    if c == 0:
        lo, lo_closed = a.lo, a.lo_closed and b.lo_closed
    else:
        lo, lo_closed = (a.lo, a.lo_closed) if c > 0 else (b.lo, b.lo_closed)
    c = compare(a.hi, b.hi)
    if c == 0:
        hi, hi_closed = a.hi, a.hi_closed and b.hi_closed
    else:
        hi, hi_closed = (a.hi, a.hi_closed) if c < 0 else (b.hi, b.hi_closed)
    c = compare(lo, hi)
    if c > 0 or (c == 0 and not (lo_closed and hi_closed)):
        return None
    return Interval(lo, hi, lo_closed, hi_closed)


def same_support_iso(a: Interval, b: Interval) -> bool:
    """Equality as point sets; this is the isomorphism test for the
    one-dimensional indecomposables supported on them."""
    return a == b


class BarMultiset:
    """A finite multiset of intervals with positive multiplicities.

    Canonical order is the interval sort key, so equal multisets always
    serialize identically.
    """

    def __init__(self, bars: Iterable[tuple[Interval, int]] = ()):
        counts: dict[Interval, int] = {}
        for iv, mult in bars:
            if mult < 0:
                raise ValueError("negative multiplicity")
            if mult == 0:
                continue
            counts[iv] = counts.get(iv, 0) + mult
        self._counts = counts

    @staticmethod
    def from_intervals(intervals: Iterable[Interval]) -> "BarMultiset":
        return BarMultiset((iv, 1) for iv in intervals)

    def items(self) -> list[tuple[Interval, int]]:
        return sorted(self._counts.items(), key=lambda kv: kv[0].sort_key())

    def intervals(self) -> list[Interval]:
        out = []
        for iv, m in self.items():
            out.extend([iv] * m)
        return out

    def count(self, iv: Interval) -> int:
        return self._counts.get(iv, 0)

    def total(self) -> int:
        return sum(self._counts.values())

    def union(self, other: "BarMultiset") -> "BarMultiset":
        return BarMultiset(list(self._counts.items()) + list(other._counts.items()))

    def __eq__(self, other):
        return isinstance(other, BarMultiset) and self._counts == other._counts

    def __len__(self):
        return len(self._counts)

    def __iter__(self) -> Iterator[tuple[Interval, int]]:
        return iter(self.items())

    def __bool__(self):
        return bool(self._counts)

    def __str__(self):
        if not self._counts:
            return "(empty)"
        return ", ".join(f"{iv} x{m}" if m > 1 else str(iv) for iv, m in self.items())

    __repr__ = __str__

    def to_json(self) -> list[dict]:
        out = []
        for iv, m in self.items():
            d = iv.to_json()
            d["mult"] = m
            out.append(d)
        return out

    @staticmethod
    def from_json(arr: list[dict]) -> "BarMultiset":
        return BarMultiset((Interval.from_json(d), parse_integer(d.get("mult", 1))) for d in arr)

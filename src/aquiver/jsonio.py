"""Bit-exact JSON formats: rationals travel as "p/q" strings in lowest
terms, infinities as "-inf"/"+inf", so parsing and printing round-trip
byte for byte."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain
from math import lcm
from typing import Optional

from .intervals import (BarMultiset, Interval, format_extreal, parse_extreal,
                        parse_integer, parse_rational)
from .linalg import Matrix, PrimeField, QQ
from .orientation import (Orientation, orientation_from_json,
                          orientation_to_json)
from .tamerep import DOWN, TameRep, UP, check_grid_and_dims, junction_dirs


class SchemaError(ValueError):
    """Malformed input document."""


# What parsing numbers and nested JSON values raises on malformed input,
# besides KeyError/TypeError/ValueError: a zero denominator ("1/0") raises
# ZeroDivisionError, and the point interval "{-inf}" raises OverflowError
# from Fraction(-inf).
MALFORMED = (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError)


def _load(text: str):
    """json.loads, refusing true/false anywhere but an interval's closedness
    flags: elsewhere Python would read them as the numbers 1 and 0."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"line {e.lineno} column {e.colno}: {e.msg}")
    except ValueError as e:  # an integer of more than 4300 digits
        raise SchemaError(str(e))
    except RecursionError:
        raise SchemaError("JSON nested too deeply")
    if "true" not in text and "false" not in text:
        return obj  # json.loads makes a bool only from these literals
    todo = [(None, obj)]
    while todo:
        key, x = todo.pop()
        if isinstance(x, bool):
            if key not in ("lo_closed", "hi_closed"):
                raise SchemaError(f"{json.dumps(x)} where a number or string belongs"
                                  + (f" (in {key!r})" if key else ""))
        elif isinstance(x, dict):
            todo.extend(x.items())
        elif isinstance(x, list):
            todo.extend((key, y) for y in x)
    return obj


def parse_field(obj) -> object:
    if obj is None:
        return QQ
    if isinstance(obj, str):
        if obj == "Q":
            return QQ
        m = re.fullmatch(r"Fp:(\d+)", obj)
        if m:
            try:
                return PrimeField(int(m.group(1)))
            except ValueError as e:
                raise SchemaError(f"bad prime field: {e}")
        raise SchemaError(f"unknown field {obj!r} (use Q or Fp:<p>)")
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("field must be {\"kind\":\"Q\"} or {\"kind\":\"Fp\",\"p\":...}")
    if obj["kind"] == "Q":
        return QQ
    if obj["kind"] == "Fp":
        try:
            return PrimeField(parse_integer(obj["p"]))
        except MALFORMED as e:
            raise SchemaError(f"bad prime field: {e}")
    raise SchemaError(f"unknown field kind {obj['kind']!r}")


def tame_to_json(v: TameRep) -> dict:
    return {
        "grid": [format_extreal(g) for g in v.grid],
        "dims": list(v.dims),
        "maps": [{"dir": d, "entries": m.to_json()} for m, d in zip(v.maps, v.dirs)],
    }


def _array(obj, key: str) -> list:
    x = obj[key]
    if not isinstance(x, list):
        raise TypeError(f"{key} must be a JSON array")
    return x


def tame_from_json(o: Orientation, obj: dict, field) -> TameRep:
    try:
        grid = [parse_rational(s) for s in _array(obj, "grid")]
        dims = [parse_integer(d) for d in _array(obj, "dims")]
        maps_json = _array(obj, "maps")
    except MALFORMED as e:
        raise SchemaError(f"bad tame object: {e}")
    # The grid and dims are checked first, in TameRep's order (grid order,
    # dims count, signs, criticals on the grid), then the maps count, then
    # each map in turn: that it is an object, its "dir" against the
    # orientation, its shape (entries and rows are arrays), its entries.
    try:
        check_grid_and_dims(o, grid, dims)
    except ValueError as e:
        raise SchemaError(str(e))
    if len(maps_json) != 2 * len(grid):
        raise SchemaError(f"tame object needs {2 * len(grid)} maps")
    parse = field.parse
    # Each map is built as integer rows over the lcm of its entries'
    # denominators, read off one (numerator, denominator) pair per distinct
    # entry: the field parses the entry and ``as_integer_ratio`` splits the
    # scalar (a Fraction, or an int over F_p, where the lcm is 1).  Each
    # distinct string is parsed once, at its first occurrence in the
    # document, so errors still come in document order.  The memo lives for
    # this call only and is keyed by str alone.  A map holding anything but
    # strings has each entry parsed in turn: 1 and 1.0 are equal keys, and
    # the float must not pass as the int.
    memo = {}

    def ratio(x):
        if type(x) is not str:
            return parse(x).as_integer_ratio()
        y = memo.get(x)
        if y is None:
            y = memo[x] = parse(x).as_integer_ratio()
        return y

    maps = []
    for j, (mj, want) in enumerate(zip(maps_json, junction_dirs(o, grid))):
        if not isinstance(mj, dict):
            raise SchemaError(f"map {j} must be a JSON object")
        d = mj.get("dir")
        if d not in (DOWN, UP):
            raise SchemaError(f"map {j}: dir must be 'down' or 'up'")
        if d != want:
            raise SchemaError(f"junction {j} direction {d!r} contradicts the orientation ({want!r})")
        lo, hi = dims[j], dims[j + 1]
        nrows, ncols = (lo, hi) if d == DOWN else (hi, lo)
        entries = mj.get("entries", [])
        if (not isinstance(entries, list) or len(entries) != nrows
                or any(not isinstance(r, list) or len(r) != ncols for r in entries)):
            raise SchemaError(f"map {j}: entries must be {nrows}x{ncols}")
        flat = list(chain.from_iterable(entries))
        distinct = dict.fromkeys(flat) if {str}.issuperset(map(type, flat)) else flat
        try:
            ratios = {x: ratio(x) for x in distinct}
        except MALFORMED as e:
            raise SchemaError(f"map {j}: {e}")
        den = lcm(*{q for _, q in ratios.values()})
        scaled = {x: n * (den // q) for x, (n, q) in ratios.items()}
        maps.append(Matrix.from_ints(field, nrows, ncols,
                                     [[scaled[x] for x in r] for r in entries], den))
    try:
        return TameRep(o, field, grid, dims, maps)
    except ValueError as e:
        raise SchemaError(str(e))


@dataclass
class Document:
    orientation: Orientation
    field: object
    bars: Optional[BarMultiset] = None
    tame: Optional[TameRep] = None

    def rep(self) -> TameRep:
        if self.tame is not None:
            return self.tame
        from .tamerep import from_bars
        return from_bars(self.orientation, self.bars, self.field)


def parse_document(text: str) -> Document:
    obj = _load(text)
    if not isinstance(obj, dict):
        raise SchemaError("document must be a JSON object")
    if "orientation" not in obj:
        raise SchemaError("document needs an \"orientation\"")
    o = _parse_orientation(obj["orientation"])
    field = parse_field(obj.get("field"))
    has_bars = "bars" in obj
    has_tame = "tame" in obj
    if has_bars and has_tame:
        raise SchemaError("document must carry exactly one of \"bars\" or \"tame\"")
    doc = Document(o, field)
    if has_bars:
        try:
            doc.bars = BarMultiset.from_json(obj["bars"])
        except MALFORMED as e:
            raise SchemaError(f"bad bars: {e}")
    elif has_tame:
        doc.tame = tame_from_json(o, obj["tame"], field)
    else:
        raise SchemaError("document needs \"bars\" or \"tame\"")
    return doc


def parse_orientation_file(text: str) -> Orientation:
    """Accept either a bare orientation object or a document containing one."""
    obj = _load(text)
    if not isinstance(obj, dict):
        raise SchemaError("orientation file must be a JSON object")
    if "orientation" in obj:
        obj = obj["orientation"]
    return _parse_orientation(obj)


def _parse_orientation(obj) -> Orientation:
    if not isinstance(obj, dict):
        raise SchemaError("orientation must be a JSON object")
    try:
        return orientation_from_json(obj)
    except MALFORMED as e:
        raise SchemaError(f"bad orientation: {e}")


_INTERVAL_RE = re.compile(r"\s*([\[\(\{])\s*([^,\s\}]+)\s*(?:,\s*([^,\s\)\]]+)\s*)?([\]\)\}])\s*")


def parse_interval(text: str) -> Interval:
    """Interval literals: "[0,2)", "(-inf,1]", "{3/4}"."""
    m = _INTERVAL_RE.fullmatch(text)
    if not m:
        raise SchemaError(f"cannot parse interval {text!r}")
    lb, lo_s, hi_s, rb = m.groups()
    try:
        if lb == "{":
            if rb != "}" or hi_s is not None:
                raise SchemaError(f"bad point interval {text!r}")
            x = parse_extreal(lo_s)
            return Interval.point(x)
        if hi_s is None:
            raise SchemaError(f"interval {text!r} needs two endpoints")
        lo = parse_extreal(lo_s)
        hi = parse_extreal(hi_s)
        return Interval(lo, hi, lb == "[", rb == "]")
    except SchemaError:
        raise
    except MALFORMED as e:
        raise SchemaError(f"cannot parse interval {text!r}: {e}")


def document_to_json(doc: Document) -> dict:
    out = {"orientation": orientation_to_json(doc.orientation)}
    if doc.bars is not None:
        out["bars"] = doc.bars.to_json()
    if doc.tame is not None:
        out["tame"] = tame_to_json(doc.tame)
    out["field"] = doc.field.to_json()
    return out

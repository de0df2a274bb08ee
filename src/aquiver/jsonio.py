"""Documents: JSON text is loaded and assembled into a Document, and a
Document is written back.  Rationals travel as "p/q" strings in lowest
terms, infinities as "-inf"/"+inf", so the round trip is byte-exact.
Each type reads and writes its own JSON in its own module (Interval and
BarMultiset in intervals, Orientation in orientation, Matrix and field
scalars in linalg, TameRep in tamerep); this module reads a field's name
and turns errors into SchemaError."""

from __future__ import annotations

import json
import re
from typing import Optional

from .intervals import MALFORMED, BarMultiset, Interval, parse_extreal, parse_integer
from .linalg import PrimeField, QQ
from .orientation import (Orientation, orientation_from_json,
                          orientation_to_json)
from .record import record
from .tamerep import TameRep, from_bars, tame_from_json, tame_to_json


class SchemaError(ValueError):
    """Malformed input document."""


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
        m = re.fullmatch(r"Fp:([0-9]+)", obj)
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


@record
class Document:
    """A parsed document: an orientation, a field and exactly one of a
    barcode (bars) or a tame representation over that field (tame).  It is
    a value; a document read over another field is a new Document."""
    orientation: Orientation
    field: object
    bars: Optional[BarMultiset] = None
    tame: Optional[TameRep] = None

    def rep(self) -> TameRep:
        if self.tame is not None:
            return self.tame
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
    if has_bars:
        try:
            return Document(o, field, bars=BarMultiset.from_json(obj["bars"]))
        except MALFORMED as e:
            raise SchemaError(f"bad bars: {e}")
    if has_tame:
        try:
            return Document(o, field, tame=tame_from_json(o, obj["tame"], field))
        except ValueError as e:
            raise SchemaError(str(e))
    raise SchemaError("document needs \"bars\" or \"tame\"")


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
        if rb == "}":
            raise SchemaError(f"interval {text!r} closes with '}}' but does not open with '{{'")
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

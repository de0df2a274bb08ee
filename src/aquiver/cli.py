"""Command line front end.

All commands are deterministic: the same inputs and flags produce byte
identical output.  Exit codes: 0 success, 2 malformed input, 3 internal
invariant violation (a computed value contradicting a structural bound,
which is always a bug worth a report).
"""

from __future__ import annotations

import json
import sys
from itertools import islice

import click

from .ar import (EXISTS, PROVEN_NONEXISTENT, ar_ending_at, ar_starting_at,
                 standard_probes, verify_almost_split)
from .decompose import InternalInvariantError, decompose
from .homological import (ProjectiveLabel, ext_dim, hom_dim, proj_presentation,
                          projectives_table, realize_projective)
from .intervals import MALFORMED, format_extreal, parse_rational
from .jsonio import (SchemaError, Document, document_to_json,
                     parse_document, parse_field, parse_interval,
                     parse_orientation_file)
from .tamerep import reps_on_common_grid, scramble as scramble_rep

# The most work decompose and scramble take from one document: the sum over
# cells of the squared cell dimension, which bounds the entries of the maps
# they build.  A document of a few hundred bytes can ask for far more (a bar
# with "mult": 10**9).
MAX_SQUARED_DIMS = 10**7


def _echo_json(obj) -> None:
    """Write obj as indented JSON and a newline, a block of the encoder's
    chunks at a time: a large document is never held as one string, and
    the line-buffered stream is not flushed once per printed line."""
    out = click.get_text_stream("stdout")
    chunks = json.JSONEncoder(indent=2).iterencode(obj)
    while block := "".join(islice(chunks, 8192)):
        out.write(block)
    out.write("\n")
    out.flush()


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise SchemaError(str(e))


def _guard(fn):
    """Map error classes onto the documented exit codes."""
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SchemaError as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(2)
        except AssertionError as e:  # InternalInvariantError is one too
            click.echo(f"internal invariant violated: {e}", err=True)
            sys.exit(3)
    wrapped.__name__ = fn.__name__
    wrapped.__doc__ = fn.__doc__
    return wrapped


field_option = click.option("--field", "field_spec", default=None,
                            help="Coefficient field: Q or Fp:<p> [default: Q, or the document's field]. "
                                 "A tame document keeps the field its maps were read over: "
                                 "any other exits 2.")
json_option = click.option("--json", "as_json", is_flag=True,
                           help="Machine-readable JSON instead of the pretty listing.")


def _pick_field(field_spec, doc=None):
    if field_spec is not None:
        return parse_field(field_spec)
    if doc is not None:
        return doc.field
    return parse_field("Q")


def _squared_dims(doc) -> int:
    """The sum over cells of the squared dimension of the document's
    representation.  For a bars document it is read off one slot per
    distinct bar, weighted by its multiplicity, so no copy is expanded."""
    if doc.tame is not None:
        return sum(d * d for d in doc.tame.dims)
    bars = doc.bars.items()
    (_, slots), = reps_on_common_grid(doc.orientation, [[iv for iv, _ in bars]])
    return sum(sum(bars[i][1] for i in s) ** 2 for s in slots)


def _document_rep(doc, field_spec):
    """The document's representation over --field.  A bars document is built
    over it; a tame document was parsed over its own field, which --field
    may only repeat.  A representation past MAX_SQUARED_DIMS is refused
    before a bars document expands any copy of a bar."""
    field = _pick_field(field_spec, doc)
    if doc.tame is not None and field != doc.field:
        raise SchemaError(f"--field {field_spec} differs from the tame document's field {doc.field}")
    size = _squared_dims(doc)
    if size > MAX_SQUARED_DIMS:
        raise SchemaError(f"representation too large: its squared cell dimensions sum to "
                          f"{size}, above {MAX_SQUARED_DIMS}")
    doc.field = field
    return doc.rep()


@click.group()
def main():
    """Exact computations with representations of the oriented real line."""


@main.command("decompose")
@click.argument("file", type=click.Path())
@field_option
@json_option
@_guard
def cmd_decompose(file, field_spec, as_json):
    """Decompose the representation in FILE into its interval summands."""
    doc = parse_document(_read(file))
    bars = decompose(_document_rep(doc, field_spec))
    if as_json:
        _echo_json({"bars": bars.to_json()})
    else:
        if not bars:
            click.echo("(empty)")
        for iv, mult in bars.items():
            suffix = f"  x{mult}" if mult > 1 else ""
            click.echo(f"{iv}{suffix}")


@main.command("hom")
@click.argument("orientation_file", type=click.Path())
@click.argument("interval_i")
@click.argument("interval_j")
@field_option
@json_option
@_guard
def cmd_hom(orientation_file, interval_i, interval_j, field_spec, as_json):
    """Dimension of Hom between the interval summands on I and J."""
    o = parse_orientation_file(_read(orientation_file))
    field = _pick_field(field_spec)
    d = hom_dim(o, parse_interval(interval_i), parse_interval(interval_j), field)
    if as_json:
        _echo_json({"hom": d})
    else:
        click.echo(str(d))


@main.command("ext")
@click.argument("orientation_file", type=click.Path())
@click.argument("interval_v")
@click.argument("interval_w")
@field_option
@json_option
@_guard
def cmd_ext(orientation_file, interval_v, interval_w, field_spec, as_json):
    """Dimension of Ext^1 between the interval summands on V and W."""
    o = parse_orientation_file(_read(orientation_file))
    field = _pick_field(field_spec)
    d = ext_dim(o, parse_interval(interval_v), parse_interval(interval_w), field)
    if as_json:
        _echo_json({"ext": d})
    else:
        click.echo(str(d))


def _label_json(o, label: ProjectiveLabel) -> dict:
    sup = realize_projective(o, label)
    return {"form": label.form, "a": format_extreal(label.a),
            "support": sup.to_json() if sup else None}


@main.command("present")
@click.argument("orientation_file", type=click.Path())
@click.argument("interval_v")
@field_option
@json_option
@_guard
def cmd_present(orientation_file, interval_v, field_spec, as_json):
    """Minimal projective presentation of the interval summand on V."""
    o = parse_orientation_file(_read(orientation_file))
    field = _pick_field(field_spec)
    iv = parse_interval(interval_v)
    pres = proj_presentation(o, iv, field)
    if as_json:
        realized = pres.realized
        _echo_json({
            "p1": [_label_json(o, l) for l in pres.p1],
            "p0": [_label_json(o, l) for l in pres.p0],
            "realized": {
                "grid": [format_extreal(g) for g in realized.dom.grid],
                "p1_dims": list(realized.dom.dims),
                "p0_dims": list(realized.cod.dims),
                "cells": [m.to_json() for m in realized.mats],
            },
        })
    else:
        def side(labels):
            if not labels:
                return "0"
            return " + ".join(f"{l} = {realize_projective(o, l)}" for l in labels)
        click.echo(f"module : {iv}")
        click.echo(f"P1     : {side(pres.p1)}")
        click.echo(f"P0     : {side(pres.p0)}")


@main.command("projectives")
@click.argument("orientation_file", type=click.Path())
@click.option("--window", default=None,
              help="Restrict the table to labels in lo:hi (rationals).")
@json_option
@_guard
def cmd_projectives(orientation_file, window, as_json):
    """Table of all indecomposable projective forms, symbolic per segment."""
    o = parse_orientation_file(_read(orientation_file))
    win = None
    if window is not None:
        try:
            lo_s, hi_s = window.split(":")
            win = (parse_rational(lo_s), parse_rational(hi_s))
        except MALFORMED as e:
            raise SchemaError(f"bad window {window!r}: {e}")
        if win[0] > win[1]:
            raise SchemaError(f"bad window {window!r}: lo exceeds hi")
    rows = projectives_table(o, win)
    if as_json:
        _echo_json({"projectives": [{"support": s, "label": l} for s, l, _ in rows]})
    else:
        width = max((len(s) for s, _, _ in rows), default=0)
        for s, l, _ in rows:
            click.echo(f"{s.ljust(width)}  {l}")


@main.command("ar")
@click.argument("orientation_file", type=click.Path())
@click.argument("interval")
@click.option("--ending/--starting", "ending", default=True,
              help="Whether INTERVAL names the right or the left end.")
@field_option
@json_option
@_guard
def cmd_ar(orientation_file, interval, ending, field_spec, as_json):
    """Almost-split sequence ending (or starting) at the given summand.  A
    sequence is checked against the standard probes before it is printed."""
    o = parse_orientation_file(_read(orientation_file))
    field = _pick_field(field_spec)
    iv = parse_interval(interval)
    ans = (ar_ending_at if ending else ar_starting_at)(o, iv, field)
    if ans.status == EXISTS and not verify_almost_split(ans.sequence,
                                                       standard_probes(o, ans.sequence)):
        raise InternalInvariantError("the constructed sequence is not almost split")
    if as_json:
        out = {"status": ans.status}
        if ans.sequence is not None:
            seq = ans.sequence
            out["sequence"] = {
                "left": seq.left.to_json(),
                "middle": [m.to_json() for m in seq.middle],
                "right": seq.right.to_json(),
            }
        _echo_json(out)
    else:
        if ans.status == EXISTS:
            seq = ans.sequence
            mid = " + ".join(str(m) for m in seq.middle)
            click.echo(f"0 -> {seq.left} -> {mid} -> {seq.right} -> 0")
        elif ans.status == PROVEN_NONEXISTENT:
            click.echo("no almost-split sequence exists at this summand")
        else:
            click.echo("outside the established classification")


@main.command("scramble")
@click.argument("file", type=click.Path())
@click.option("--seed", type=int, required=True,
              help="Seed for the change of basis; required for reproducibility.")
@field_option
@_guard
def cmd_scramble(file, seed, field_spec):
    """Emit an isomorphic copy of FILE's representation under a seeded
    random change of basis, as a tame JSON document."""
    doc = parse_document(_read(file))
    v = scramble_rep(_document_rep(doc, field_spec), seed)
    try:
        out = document_to_json(Document(doc.orientation, v.field, tame=v))
    except ValueError:  # str() refuses an entry the change of basis grew too long
        raise SchemaError(f"a scrambled entry is longer than the "
                          f"{sys.get_int_max_str_digits()}-digit limit on printed integers")
    _echo_json(out)


if __name__ == "__main__":
    main()

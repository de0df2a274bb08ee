"""Command line front end.

All commands are deterministic: the same inputs and flags produce byte
identical output.  Exit codes: 0 success, 1 when the reader closes the
output pipe early or on an interrupt (with nothing on stderr for a closed
pipe), 2 malformed input or a malformed command line (one ``error:`` line
on stderr), 3 internal invariant violation (a computed value
contradicting a structural bound, which is always a bug worth a report).

The command line is read by one table, COMMANDS, with the standard
library alone: the CLI needs no package outside it.  Each command's
handler returns its answer, as a JSON object and as the lines of its
pretty form (None for scramble, which has no pretty form), and _run alone
prints it: the JSON with --json or without a pretty form, else the lines.
"""

from __future__ import annotations

import json
import sys
from itertools import islice

from .ar import (EXISTS, PROVEN_NONEXISTENT, ar_ending_at, ar_starting_at,
                 standard_probes, verify_almost_split)
from .decompose import InternalInvariantError, decompose
from .homological import (ext_dim, hom_dim, proj_presentation, projectives_table,
                          realize_projective)
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
    out = sys.stdout
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
    """The document's representation over --field, by default its own
    field.  A bars document is built over it; a tame document was parsed
    over its own field, which --field may only repeat.  A representation
    past MAX_SQUARED_DIMS is refused before a bars document expands any
    copy of a bar."""
    field = doc.field if field_spec is None else parse_field(field_spec)
    if doc.tame is not None and field != doc.field:
        raise SchemaError(f"--field {field_spec} differs from the tame document's field {doc.field}")
    size = _squared_dims(doc)
    if size > MAX_SQUARED_DIMS:
        raise SchemaError(f"representation too large: its squared cell dimensions sum to "
                          f"{size}, above {MAX_SQUARED_DIMS}")
    return Document(doc.orientation, field, doc.bars, doc.tame).rep()


def cmd_decompose(file, field_spec=None):
    """Decompose the representation in FILE into its interval summands."""
    doc = parse_document(_read(file))
    bars = decompose(_document_rep(doc, field_spec))
    lines = [f"{iv}  x{mult}" if mult > 1 else str(iv) for iv, mult in bars.items()]
    return {"bars": bars.to_json()}, lines or ["(empty)"]


def cmd_hom(orientation_file, interval_i, interval_j, field_spec=None):
    """Dimension of Hom between the interval summands on I and J."""
    o = parse_orientation_file(_read(orientation_file))
    parse_field(field_spec)  # checked, though the dimension is the same over every field
    d = hom_dim(o, parse_interval(interval_i), parse_interval(interval_j))
    return {"hom": d}, [str(d)]


def cmd_ext(orientation_file, interval_v, interval_w, field_spec=None):
    """Dimension of Ext^1 between the interval summands on V and W."""
    o = parse_orientation_file(_read(orientation_file))
    parse_field(field_spec)  # checked, though the dimension is the same over every field
    d = ext_dim(o, parse_interval(interval_v), parse_interval(interval_w))
    return {"ext": d}, [str(d)]


def cmd_present(orientation_file, interval_v, field_spec=None):
    """Minimal projective presentation of the interval summand on V."""
    o = parse_orientation_file(_read(orientation_file))
    field = parse_field(field_spec)
    iv = parse_interval(interval_v)
    pres = proj_presentation(o, iv, field)
    p1, p0 = ([(l, realize_projective(o, l)) for l in labels] for labels in (pres.p1, pres.p0))
    realized = pres.realized

    def label_json(label, sup):
        return {"form": label.form, "a": format_extreal(label.a),
                "support": sup.to_json() if sup else None}

    def side(pairs):
        return " + ".join(f"{l} = {sup}" for l, sup in pairs) or "0"

    return {
        "p1": [label_json(*pair) for pair in p1],
        "p0": [label_json(*pair) for pair in p0],
        "realized": {
            "grid": [format_extreal(g) for g in realized.dom.grid],
            "p1_dims": list(realized.dom.dims),
            "p0_dims": list(realized.cod.dims),
            "cells": [m.to_json() for m in realized.mats],
        },
    }, [f"module : {iv}", f"P1     : {side(p1)}", f"P0     : {side(p0)}"]


def cmd_projectives(orientation_file, window=None):
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
    width = max((len(s) for s, _, _ in rows), default=0)
    return ({"projectives": [{"support": s, "label": l} for s, l, _ in rows]},
            [f"{s.ljust(width)}  {l}" for s, l, _ in rows])


def cmd_ar(orientation_file, interval, ending=True, field_spec=None):
    """Almost-split sequence ending (or starting) at the given summand.  A
    sequence is checked against the standard probes before it is printed."""
    o = parse_orientation_file(_read(orientation_file))
    field = parse_field(field_spec)
    iv = parse_interval(interval)
    ans = (ar_ending_at if ending else ar_starting_at)(o, iv, field)
    seq = ans.sequence
    if ans.status == EXISTS and not verify_almost_split(seq, standard_probes(o, seq)):
        raise InternalInvariantError("the constructed sequence is not almost split")
    out = {"status": ans.status}
    if seq is not None:
        out["sequence"] = {
            "left": seq.left.to_json(),
            "middle": [m.to_json() for m in seq.middle],
            "right": seq.right.to_json(),
        }
    if ans.status == EXISTS:
        line = f"0 -> {seq.left} -> {' + '.join(map(str, seq.middle))} -> {seq.right} -> 0"
    elif ans.status == PROVEN_NONEXISTENT:
        line = "no almost-split sequence exists at this summand"
    else:
        line = "outside the established classification"
    return out, [line]


def cmd_scramble(file, seed=None, field_spec=None):
    """Emit an isomorphic copy of FILE's representation under a seeded
    random change of basis, as a tame JSON document."""
    if seed is None:
        raise SchemaError("missing option --seed")
    try:
        seed = int(seed)
    except ValueError:
        raise SchemaError(f"--seed {seed!r} is not an integer")
    doc = parse_document(_read(file))
    v = scramble_rep(_document_rep(doc, field_spec), seed)
    try:
        return document_to_json(Document(doc.orientation, v.field, tame=v)), None
    except ValueError:  # str() refuses an entry the change of basis grew too long
        raise SchemaError(f"a scrambled entry is longer than the "
                          f"{sys.get_int_max_str_digits()}-digit limit on printed integers")


FIELD = {"--field": "field_spec"}
JSON = {"--json": ("as_json", True)}

# Each command: its handler, the names of its positional arguments, its
# options that take a value (option -> parameter) and its flags (flag ->
# parameter and the value it sets).
COMMANDS = {
    "decompose": (cmd_decompose, ("file",), FIELD, JSON),
    "hom": (cmd_hom, ("orientation_file", "interval_i", "interval_j"), FIELD, JSON),
    "ext": (cmd_ext, ("orientation_file", "interval_v", "interval_w"), FIELD, JSON),
    "present": (cmd_present, ("orientation_file", "interval_v"), FIELD, JSON),
    "projectives": (cmd_projectives, ("orientation_file",), {"--window": "window"}, JSON),
    "ar": (cmd_ar, ("orientation_file", "interval"), FIELD,
           {**JSON, "--ending": ("ending", True), "--starting": ("ending", False)}),
    "scramble": (cmd_scramble, ("file",), {"--seed": "seed", **FIELD}, {}),
}

OPTION_HELP = {
    "--field": "Q|Fp:<p>  coefficient field [default: Q, or the document's field]",
    "--json": "machine-readable JSON instead of the pretty listing",
    "--window": ("LO:HI  keep the labels in [lo, hi] and the families on segments "
                 "meeting it (rationals); the rows at -inf and +inf are in every window"),
    "--ending": "INTERVAL names the right end [default]",
    "--starting": "INTERVAL names the left end",
    "--seed": "N  seed for the change of basis; required",
}


def _help(prog: str, name: str | None = None) -> str:
    """The usage text of prog, or of its command name."""
    if name is None:
        width = max(map(len, COMMANDS))
        lines = [f"usage: {prog} COMMAND ARGS... [OPTIONS]", "",
                 "Exact computations with representations of the oriented real line.", "",
                 "commands:"]
        lines += [f"  {n.ljust(width)}  {COMMANDS[n][0].__doc__.split('.')[0]}." for n in COMMANDS]
        lines.append(f"\nRun '{prog} COMMAND --help' for a command's arguments and options.")
        return "\n".join(lines)
    handler, positional, valued, flags = COMMANDS[name]
    options = [*valued, *flags]
    width = max(map(len, options))
    return "\n".join([f"usage: {prog} {name} {' '.join(p.upper() for p in positional)} [OPTIONS]",
                      "", " ".join(handler.__doc__.split()), "", "options:",
                      *(f"  {o.ljust(width)}  {OPTION_HELP[o]}" for o in options)])


def _parse(argv: list[str], prog: str):
    """The handler, positional arguments and keyword arguments argv asks
    for, or None once help is printed.  An option takes the next token as
    its value, even one that begins with "-" (--window -1:2), or the text
    after "=" (--window=-1:2); a repeated option keeps its last value; "--"
    ends the options.  A malformed command line raises SchemaError."""
    if argv[:1] == ["--help"]:
        print(_help(prog))
        return None
    if not argv or argv[0] not in COMMANDS:
        got = f"no command {argv[0]!r}" if argv else "a command is missing"
        raise SchemaError(f"{got}; commands: {', '.join(COMMANDS)} (see {prog} --help)")
    name = argv[0]
    handler, positional, valued, flags = COMMANDS[name]
    args, kwargs = [], {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            args += tokens
        elif token == "-" or not token.startswith("-"):
            args.append(token)
        else:
            option, eq, value = token.partition("=")
            if option == "--help":
                print(_help(prog, name))
                return None
            if option in valued:
                if not eq:
                    value = next(tokens, None)
                    if value is None:
                        raise SchemaError(f"option {option} needs a value")
                kwargs[valued[option]] = value
            elif option in flags:
                if eq:
                    raise SchemaError(f"option {option} takes no value")
                param, setting = flags[option]
                kwargs[param] = setting
            else:
                raise SchemaError(f"no option {token!r} for {name}; options: "
                                  f"{', '.join([*valued, *flags])}")
    if len(args) < len(positional):
        raise SchemaError(f"{name} needs {' '.join(p.upper() for p in positional)}; "
                          f"missing {positional[len(args)].upper()}")
    if len(args) > len(positional):
        raise SchemaError(f"unexpected extra argument {args[len(positional)]!r}")
    return handler, args, kwargs


def _run(argv: list[str], prog: str) -> int:
    """Parse argv, run its command and return the exit code."""
    try:
        parsed = _parse(argv, prog)
        if parsed is not None:
            handler, args, kwargs = parsed
            as_json = kwargs.pop("as_json", False)
            obj, lines = handler(*args, **kwargs)
            if as_json or lines is None:
                _echo_json(obj)
            else:
                for line in lines:
                    print(line)
        sys.stdout.flush()
    except SchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:  # InternalInvariantError is one too
        print(f"internal invariant violated: {e}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # the reader closed the pipe early, as `| head` does
        return 1
    except KeyboardInterrupt:
        print("aborted", file=sys.stderr)
        return 1
    return 0


def main(args=None, prog_name=None):
    """Run the command line args (default sys.argv[1:]) and exit with its
    code: sys.exit is called on every path.

    The benchmark drives main as it drove the click group this replaced:
    bench/cli_child.py reads the code from SystemExit, and the cli
    workload's set-up calls it through click.testing.CliRunner, which
    reads main.name and calls main.main(args=..., prog_name=...).  Those
    two attributes, set below, serve only that caller."""
    sys.exit(_run(sys.argv[1:] if args is None else list(args), prog_name or "aquiver"))


main.name = "aquiver"
main.main = main


if __name__ == "__main__":
    main()

"""The command-line corpus and the in-process runner, with no pytest.

``InProcessRunner`` runs ``aquiver.cli.main`` in this process and captures
what it writes.  The corpus is a seeded list of command lines; its digest
hashes each line's arguments (files by name), exit code, stdout and stderr,
and ``CORPUS_SHA256`` pins it.  ``tests/test_cli.py`` checks the digest,
and the same code runs as a script, so any interpreter can check the bytes
without pytest::

    PYTHONPATH=src python tests/cli_corpus.py

prints the digest and exits 1 when it differs from ``CORPUS_SHA256``.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from random_inputs import interval_in_segment, random_bars, random_interval, random_orientation
from aquiver.cli import main
from aquiver.jsonio import Document, document_to_json
from aquiver.linalg import PrimeField, QQ
from aquiver.orientation import orientation_to_json
from aquiver.tamerep import from_bars, scramble


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved as written
    exception: BaseException | None  # None after exit 0


class _Tee(io.StringIO):
    """A StringIO that also writes everything to a shared one."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, s):
        self.both.write(s)
        return super().write(s)


class InProcessRunner:
    """Runs a command line's main(args) in this process, with stdout and
    stderr captured, and reads the exit code off SystemExit.  Any other
    exception ends the run with code 1 and is kept."""

    @staticmethod
    def invoke(main, args) -> CliResult:
        both = io.StringIO()
        out, err = _Tee(both), _Tee(both)
        code, exception = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(list(args))
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
                exception = e if code else None
            except Exception as e:
                code, exception = 1, e
        return CliResult(code, out.getvalue(), err.getvalue(), both.getvalue(), exception)


# A seeded corpus of command lines, run in process, pins what every command
# writes: stdout, stderr and the exit code, pretty and --json, for documents
# over Q and F_5 (bars and tame), --field overrides, and malformed
# intervals, fields, seeds and files, some lines with two faults at once.
# Each file is hashed by its name, and no line names a missing file, so no
# hashed byte depends on where the files live.  --window is left to the
# projectives tests in tests/test_cli.py.
CORPUS_SHA256 = "d5cd694a110ea562d9b7a87268fbe9bfc42354edde9c77135f0ade22f906b036"
BAD_INTERVALS = ["[0,zz)", "[2,1]", "{1,2}", "(0", "[1/0,2)", "{+inf}", "", "[-inf,0)",
                 "[0,1/3/4)", "(1,1)", "[0,+inf]", "[0;1)"]
BAD_FIELDS = ["Fp:4", "R", "Fp:", "Fp:1"]
BAD_SEEDS = ["x", "1.5", "", "-", "0x10"]
F5 = {"kind": "Fp", "p": 5}
F5_FIELD = PrimeField(5)


def corpus_files(rng, k, o):
    """The files of the k-th orientation of the corpus, by name."""
    q_bars, f_bars = random_bars(rng, 5, 2), random_bars(rng, 5, 2)
    o_json = orientation_to_json(o)
    return {
        f"o{k}": o_json,
        f"q{k}": {"orientation": o_json, "bars": q_bars.to_json()},
        f"f{k}": {"orientation": o_json, "field": F5, "bars": f_bars.to_json()},
        f"e{k}": {"orientation": o_json, "bars": []},
        f"tq{k}": document_to_json(Document(o, QQ, tame=scramble(from_bars(o, q_bars, QQ), k))),
        f"tf{k}": document_to_json(Document(o, F5_FIELD,
                                            tame=scramble(from_bars(o, f_bars, F5_FIELD), k))),
    }


def corpus_lines(rng, k, orientation):
    """The command lines of the k-th orientation of the corpus; a file is
    named as in corpus_files."""
    o, q, f, e, tq, tf = (f"{x}{k}" for x in ("o", "q", "f", "e", "tq", "tf"))
    iv = lambda: str(random_interval(rng))  # noqa: E731
    lines = []
    for doc in (q, f, e, tq, tf):
        lines += [["decompose", doc], ["decompose", doc, "--json"]]
    lines += [["decompose", q, "--field", "Fp:5"], ["decompose", f, "--field", "Q", "--json"],
              ["decompose", tq, "--field", "Fp:5"], ["decompose", tf, "--field", "Q"],
              ["decompose", tf, "--field", "Fp:5"], ["decompose", o],
              ["decompose", q, "--field", rng.choice(BAD_FIELDS)]]
    lines += [["scramble", q, "--seed", str(k)], ["scramble", f, "--seed", str(k + 1)],
              ["scramble", q, "--seed", str(k), "--field", "Fp:5"],
              ["scramble", tf, "--seed", "7"], ["scramble", tq, "--seed", "7", "--field", "Fp:5"],
              ["scramble", q, "--seed", rng.choice(BAD_SEEDS)], ["scramble", q]]
    for command in ("hom", "ext"):
        for _ in range(3):
            lines.append([command, o, iv(), iv()] + rng.choice([[], ["--json"]])
                         + rng.choice([[], ["--field", "Fp:5"], ["--field", "Q"]]))
        lines += [[command, o, rng.choice(BAD_INTERVALS), iv()],
                  [command, o, iv(), rng.choice(BAD_INTERVALS), "--json"],
                  [command, o, rng.choice(BAD_INTERVALS), iv(), "--field",
                   rng.choice(BAD_FIELDS)],
                  [command, "bad", rng.choice(BAD_INTERVALS), iv()]]
    for _ in range(2):
        lines += [["present", o, iv()], ["present", o, iv(), "--json"],
                  ["present", o, iv(), "--field", "Fp:5", "--json"]]
    lines += [["present", o, rng.choice(BAD_INTERVALS)],
              ["present", o, rng.choice(BAD_INTERVALS), "--field", rng.choice(BAD_FIELDS)],
              ["projectives", o], ["projectives", o, "--json"], ["projectives", "bad"]]
    inside = lambda: str(interval_in_segment(rng, orientation))  # noqa: E731
    for end in ("--ending", "--starting"):
        lines += [["ar", o, iv(), end], ["ar", o, iv(), end, "--json", "--field", "Fp:5"],
                  ["ar", o, inside(), end], ["ar", o, inside(), end, "--json"]]
    lines += [["ar", o, rng.choice(BAD_INTERVALS)], ["ar", "bad", iv(), "--starting"]]
    return lines


def write_json(directory, name, obj) -> str:
    """obj as JSON in the file name under directory; its path."""
    path = Path(directory) / name
    path.write_text(json.dumps(obj))
    return str(path)


def corpus_digest(directory) -> str:
    """The corpus digest, with the corpus files written under directory.
    Every line exits 0 or 2."""
    rng = random.Random(20261020)
    paths = {"bad": write_json(directory, "bad.json", {"criticals": 3})}
    digest = hashlib.sha256()
    for k in range(50):
        o = random_orientation(rng)
        for name, obj in corpus_files(rng, k, o).items():
            paths[name] = write_json(directory, f"{name}.json", obj)
        for line in corpus_lines(rng, k, o):
            res = InProcessRunner.invoke(main, [paths.get(a, a) for a in line])
            if res.exit_code not in (0, 2):
                raise AssertionError(f"{line} exited {res.exit_code}: {res.output}")
            digest.update(json.dumps([line, res.exit_code, res.stdout, res.stderr]).encode())
    return digest.hexdigest()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        got = corpus_digest(directory)
    print(got)
    sys.exit(0 if got == CORPUS_SHA256 else 1)

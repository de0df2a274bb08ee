"""Traced stand-in for `python -m aquiver.cli ARGS...`.

Times the import of aquiver.cli and the command separately, records the
same layer spans as an in-process traced run, and prints the figures as
one JSON line on stderr after the command's own output.  Stdout is the
command's, byte for byte.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import aquiver.cli  # noqa: E402
t1 = perf_counter()

from tracing import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    t2 = perf_counter()
    try:
        aquiver.cli.main(sys.argv[1:], prog_name="aquiver")
        code = 0
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    t3 = perf_counter()
    tracer.end_op()
    tracer.uninstall()
    sys.stdout.flush()
    figures = tracer.per_op().get(0, {})
    figures["cli.import_ms"] = (t1 - t0) * 1e3
    figures["cli.compute_ms"] = (t3 - t2) * 1e3
    print(json.dumps(figures), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

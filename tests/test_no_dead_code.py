"""Every function and class defined in the library is used somewhere.

A name counts as used when it appears as a token in src/aquiver or tests
at least once more than it is defined.  Dunder methods are called by the
interpreter, and click commands are reached through the command group, so
both are exempt.  Every name a library module imports at top level is
read in that module, except in __init__.py, which re-exports.  Every name
the benchmark's tracer wraps exists.
"""

import ast
import importlib
import importlib.util
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "aquiver"


def _is_click_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group")
               for d in node.decorator_list)


def _definitions() -> Counter:
    defs = Counter()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if _is_click_command(node):
                    continue
                defs[name] += 1
    return defs


def _name_tokens() -> Counter:
    tokens = Counter()
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        src = path.read_text(encoding="utf-8")
        for tok in tokenize.generate_tokens(io.StringIO(src).readline):
            if tok.type == tokenize.NAME:
                tokens[tok.string] += 1
    return tokens


def test_every_library_function_and_class_has_a_use():
    tokens = _name_tokens()
    dead = sorted(name for name, n in _definitions().items() if tokens[name] <= n)
    assert not dead, f"defined in src/aquiver but never used: {', '.join(dead)}"


def _unused_imports(tree) -> list[str]:
    """Names bound by the module's top-level imports that no expression in
    the module reads; ``from __future__`` imports are directives."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_unused_module_level_imports():
    unused = [f"{path.name}: {name}"
              for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
              for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert not unused, f"imported but never used: {', '.join(unused)}"


def test_every_traced_name_resolves():
    # bench/tracing.py patches these names by module and attribute path;
    # a missing one would fail only a traced benchmark run
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for mod_name, attr, _ in tracing.TARGETS:
        obj = importlib.import_module(f"aquiver.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{mod_name}.{attr}")
    assert not missing, f"traced by bench/tracing.py but missing: {', '.join(missing)}"

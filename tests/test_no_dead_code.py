"""Every function and class defined in the library is used somewhere.

A name counts as used when it appears as a token in src/aquiver or tests
at least once more than it is defined.  Dunder methods are called by the
interpreter, and click commands are reached through the command group, so
both are exempt.  A name counts as used by the library when it appears so
in src/aquiver outside __init__.py; every defined name is, or is exported
in aquiver.__all__, or is one of the few that only tests call, each listed
with a test that needs it.  Every name a library module imports at top
level is read in that module, except in __init__.py, which re-exports.
Every name the benchmark's tracer wraps exists.
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


def _name_tokens(paths) -> Counter:
    tokens = Counter()
    for path in paths:
        src = path.read_text(encoding="utf-8")
        for tok in tokenize.generate_tokens(io.StringIO(src).readline):
            if tok.type == tokenize.NAME:
                tokens[tok.string] += 1
    return tokens


def test_every_library_function_and_class_has_a_use():
    tokens = _name_tokens(sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")))
    dead = sorted(name for name, n in _definitions().items() if tokens[name] <= n)
    assert not dead, f"defined in src/aquiver but never used: {', '.join(dead)}"


# Library names that no library code calls, with a test that needs each.
TEST_ONLY = {
    "cell_representative": "test_tamerep.py::test_refine_and_refine_morphism_match_cell_reference",
    "cokernel_rep": "test_homological.py::test_presentation_random",
    "dim_at": "test_tamerep.py::test_from_bars_overlap_count",
    "from_rows": "test_linalg.py::test_rank_examples",
    "hom_basis": "test_ar.py::test_count_matches_rank_of_induced_hom_maps",
    "image_rep": "test_acceptance.py::test_criterion_2_oracle_parity (through oracle.py)",
    "power": "test_acceptance.py::test_criterion_2_oracle_parity (through oracle.py)",
    "random_invertible": "test_tamerep.py::test_scramble_equals_conjugate_by_random_invertible",
    "scale": "test_acceptance.py::test_criterion_9_hereditary_kernels",
    "solve_linear_system": "test_linalg.py::test_solve_examples; bench/tracing.py wraps it",
    "sub": "test_linalg.py::test_row_echelon_matches_textbook (textbook_rref); "
           "test_acceptance.py::test_criterion_2_oracle_parity (through oracle.py)",
    "total_dim": "test_acceptance.py::test_criterion_2_oracle_parity (through oracle.py)",
}


def test_every_library_name_has_a_library_use():
    import aquiver
    lib = _name_tokens(p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py")
    defs = _definitions()
    test_only = sorted(name for name, n in defs.items()
                       if lib[name] <= n and name not in aquiver.__all__)
    assert test_only == sorted(TEST_ONLY), (
        f"only tests call: {', '.join(sorted(set(test_only) - set(TEST_ONLY)))}; "
        f"listed but used by the library or gone: {', '.join(sorted(set(TEST_ONLY) - set(test_only)))}")


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

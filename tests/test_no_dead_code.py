"""Every function and class defined in the library is used somewhere.

Uses are read from the syntax tree of src/aquiver and tests.  A method (a
function defined in a class body) counts as used only where it is read as
an attribute, ``x.name``; any other function or class counts where its
name is loaded, read as an attribute, or imported.  Parameters, keyword
arguments and the names locals are stored under are not uses, and
neither is a load of a name that an enclosing function binds as a
parameter or by assignment: that is the local, not the library
function.  Dunder methods are called by the interpreter, so they
are exempt; the CLI's command functions are read by its dispatch table.  A
name counts as used by the library when it is used so in src/aquiver
outside __init__.py; every defined name is, or is one of the few that
only tests call, each listed with a test that needs it and the reason it
is kept, and every test the list cites exists.  Being exported in
aquiver.__all__ is no reason by itself.  Every
name a library or test module imports at top level is read in that
module, except in __init__.py, which re-exports.  No library module imports an
underscore name from another, nor reads one as an attribute ``X._name`` of a
name X it imports from another.  tests/oracle.py imports nothing from the
code it checks.  No library module outside the two field classes asks
which field it holds.  No library module reads a matrix's field-scalar
view ``rows``, except linalg in the view itself, ``column``, ``scale``
and ``__repr__``.  Every name the benchmark's tracer wraps exists, and
importing aquiver.cli loads every module the benchmark reaches into, and
none of click, dataclasses and inspect.
"""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "aquiver"


METHOD, FUNCTION = "method", "function"


def _definitions() -> dict[str, set[str]]:
    """Each function and class name defined in the library, with the kinds
    it is defined as: METHOD in a class body, FUNCTION anywhere else."""
    defs: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_class = {id(b) for n in ast.walk(tree) if isinstance(n, ast.ClassDef) for b in n.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                defs.setdefault(name, set()).add(METHOD if id(node) in in_class else FUNCTION)
    return defs


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _local_names(fn) -> set[str]:
    """The names a function binds itself: its parameters and the names it
    stores, outside nested functions and classes, less the ones it declares
    global or nonlocal.  A def or an import is no such binding."""
    a = fn.args
    params = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x}
    stored, declared = set(), set()
    todo = [fn.body] if isinstance(fn, ast.Lambda) else list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            stored.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared |= set(node.names)
        if not isinstance(node, SCOPES + (ast.ClassDef,)):
            todo += ast.iter_child_nodes(node)
    return (params | stored) - declared


def _free_loads(tree) -> set[str]:
    """The names loaded where no enclosing function binds them
    (_local_names).  A function's defaults, annotations and decorators are
    read in the scope around it."""
    found = set()

    def visit(node, bound):
        if isinstance(node, SCOPES):
            outer = [node.args] + getattr(node, "decorator_list", []) + [getattr(node, "returns", None)]
            for part in filter(None, outer):
                visit(part, bound)
            inner = bound | _local_names(node)
            for part in [node.body] if isinstance(node, ast.Lambda) else node.body:
                visit(part, inner)
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
            found.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, frozenset())
    return found


def _unused(defs: dict[str, set[str]], paths) -> list[str]:
    """The defined names with a kind that no file of paths uses: a METHOD
    needs an attribute read, a FUNCTION an attribute read, an import or a
    loaded name that is not a local of an enclosing function."""
    attrs, names = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names |= _free_loads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return sorted(name for name, kinds in defs.items()
                  if name not in attrs and (METHOD in kinds or name not in names))


def test_every_library_function_and_class_has_a_use():
    dead = _unused(_definitions(), sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")))
    assert not dead, f"defined in src/aquiver but never used: {', '.join(dead)}"


# Library names that no library code calls, with a test that needs each
# and the reason the name is kept: a command, the README, the benchmark, an
# acceptance criterion or a test reference reaches it.
TEST_ONLY = {
    "add": "test_acceptance.py::test_criterion_9_hereditary_kernels (Matrix.add); "
           "test_acceptance.py::test_criterion_2_oracle_parity (through oracle.py)",
    "common_grid": "test_acceptance.py::test_criterion_2_oracle_parity (through oracle.py); "
                   "bench/tracing.py wraps it",
    "conjugate": "test_tamerep.py::test_scramble_equals_conjugate_by_random_invertible "
                 "(the reference scramble is checked against)",
    "count": "test_intervals.py::test_multiset_equality_and_union; "
             "test_decompose.py::test_multiplicity (a bar's multiplicity)",
    "dim_at": "test_tamerep.py::test_from_bars_overlap_count",
    "dual": "test_acceptance.py::test_criterion_7_duality",
    "from_int": "test_linalg.py::test_rank_examples (mat)",
    "from_intervals": "test_decompose.py::test_barcode_lists_bars_as_from_intervals_does "
                      "(the order decompose's listing is checked against); "
                      "bench/workloads.py calls it",
    "from_rows": "test_linalg.py::test_rank_examples",
    "hom_space_dim": "test_homological.py::test_hom_against_zero; bench/workloads.py calls it",
    "image_rep": "test_acceptance.py::test_criterion_2_oracle_parity (through oracle.py)",
    "injective_composites_criterion": "test_acceptance.py::test_criterion_6_projectivity_criterion",
    "interval_to_cells": "test_tamerep.py::test_reps_on_common_grid_matches_per_cell_definition; "
                         "bench/workloads.py calls it",
    "intersect": "test_homological.py::test_presentation_labels_match_reference_exhaustively "
                 "(reference_presentation_labels meets each open end's up-set with the interval); "
                 "test_intervals.py::test_intersect_examples",
    "iso": "test_acceptance.py::test_criterion_7_duality",
    "kernel_of_projective_map": "test_acceptance.py::test_criterion_9_hereditary_kernels",
    "leq": "test_orientation.py::test_leq_matches_reference_bisection (the paper's induced order)",
    "power": "test_acceptance.py::test_criterion_2_oracle_parity (through oracle.py)",
    "scale": "test_acceptance.py::test_criterion_9_hereditary_kernels",
    "solve_linear_system": "test_linalg.py::test_solve_examples; bench/tracing.py wraps it",
    "sub": "test_linalg.py::test_row_echelon_matches_textbook (textbook_rref); "
           "test_acceptance.py::test_criterion_2_oracle_parity (through oracle.py)",
    "up_set": "test_homological.py::test_presentation_labels_match_reference_exhaustively "
              "(reference_presentation_labels reads the up-set at each open end); "
              "test_orientation.py::test_up_set_examples",
    "total_dim": "test_acceptance.py::test_criterion_2_oracle_parity (through oracle.py)",
}


def test_every_library_name_has_a_library_use():
    lib = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    test_only = _unused(_definitions(), lib)
    assert test_only == sorted(TEST_ONLY), (
        f"only tests call: {', '.join(sorted(set(test_only) - set(TEST_ONLY)))}; "
        f"listed but used by the library or gone: {', '.join(sorted(set(TEST_ONLY) - set(test_only)))}")


def test_every_cited_test_exists():
    # a removal that renames or deletes a cited test must update the table
    tests = ROOT / "tests"
    defined = {path.name: {n.name for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                           if isinstance(n, ast.FunctionDef)}
               for path in tests.glob("test_*.py")}
    cited = [(name, file, test) for name, why in TEST_ONLY.items()
             for file, test in re.findall(r"(\w+\.py)::(\w+)", why)]
    assert {name for name, _, _ in cited} == set(TEST_ONLY), "an entry cites no test"
    missing = [f"{name}: {file}::{test}" for name, file, test in cited
               if test not in defined.get(file, ())]
    assert not missing, f"TEST_ONLY cites tests that do not exist: {', '.join(missing)}"


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
    # the library and its tests alike; the benchmark's own tests live
    # under bench/ and are not scanned
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unused = [f"{path.parent.name}/{path.name}: {name}" for path in paths
              for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert not unused, f"imported but never used: {', '.join(unused)}"


def _private_crossings(tree) -> list[str]:
    """The private names of other aquiver modules that a module reaches:
    each underscore name it imports from one, and each attribute read
    ``X._name`` (not a dunder) where X is a name it imports from one."""
    imported, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0]
                                                 == "aquiver"):
            imported |= {a.asname or a.name for a in node.names}
            found += [a.name for a in node.names if a.name.startswith("_")]
    found += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in imported and node.attr.startswith("_")
              and not (node.attr.startswith("__") and node.attr.endswith("__"))]
    return sorted(found)


def test_no_private_name_crosses_modules():
    # a name another module needs is public in the module that defines it
    private = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
               for name in _private_crossings(ast.parse(path.read_text(encoding="utf-8")))]
    assert not private, f"reaches a private name of another module: {', '.join(private)}"
    sample = ast.parse("from .tamerep import TameRep, _cell_range\n"
                       "from . import linalg\n"
                       "from json import _default_decoder\n"
                       "v = TameRep._on_checked_grid(o, f, g, d, s, m)\n"
                       "w = TameRep.__new__(TameRep)\n"
                       "x = self._x + linalg._below(rng, 3) + other._y + _default_decoder._z\n")
    assert _private_crossings(sample) == ["TameRep._on_checked_grid", "_cell_range",
                                          "linalg._below"]


FIELD_CLASSES = ("RationalField", "PrimeField")


def _field_branches(tree) -> list[int]:
    """Lines, outside the field classes, of tests that ask which field is
    at hand: a comparison with an attribute named kind, with QQ or with a
    field class, or an isinstance test against a field class."""
    inside = {id(n) for c in ast.walk(tree)
              if isinstance(c, ast.ClassDef) and c.name in FIELD_CLASSES for n in ast.walk(c)}

    def names_a_field(node):
        return ((isinstance(node, ast.Attribute) and node.attr in ("kind", "QQ", *FIELD_CLASSES))
                or (isinstance(node, ast.Name) and node.id in ("QQ", *FIELD_CLASSES)))

    lines = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance"):
            operands = [x for arg in node.args[1:] for x in ast.walk(arg)]
        else:
            continue
        if any(names_a_field(x) for x in operands):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_the_field_classes_tell_q_from_f_p():
    # how a field's scalars become ints and come back is decided once, in
    # linalg's RationalField and PrimeField; every other module calls their
    # methods and never asks which field it holds
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _field_branches(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, f"branches on the kind of field outside the field classes: {', '.join(found)}"
    sample = ast.parse("if field.kind == 'Q': pass\n"
                       "if f != QQ or linalg.QQ is f: pass\n"
                       "if isinstance(f, (int, PrimeField)): pass\n"
                       "if type(f) is linalg.RationalField: pass\n"
                       "if f == g and kind == 'Q': pass\n"
                       "class PrimeField:\n"
                       "    def __eq__(self, other):\n"
                       "        return isinstance(other, PrimeField) and other.kind == QQ\n")
    assert _field_branches(sample) == [1, 2, 2, 3, 4]


# the functions of linalg.py that may read Matrix.rows: the view itself
# and the edge methods that hand out field scalars
ROWS_READERS = ("rows", "column", "scale", "__repr__")


def _rows_reads(tree, allowed=()) -> list[int]:
    """Lines that read an attribute named rows, outside the functions
    named in allowed."""
    skip = {id(n) for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name in allowed for n in ast.walk(f)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if id(node) not in skip and isinstance(node, ast.Attribute)
                  and node.attr == "rows" and isinstance(node.ctx, ast.Load))


def test_only_the_matrix_edge_reads_field_rows():
    # a Matrix stores integer rows over one denominator, and every
    # operation reads those; the field-scalar rows are a view for callers
    # at the API edge
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _rows_reads(ast.parse(path.read_text(encoding="utf-8")),
                                     ROWS_READERS if path.name == "linalg.py" else ())]
    assert not found, f"reads Matrix.rows: {', '.join(found)}"
    sample = ast.parse("def column(self, j):\n    return self.rows[j]\n"
                       "def direct_sum(a):\n    return [list(r) for r in a.rows]\n"
                       "rows = 1\n")
    assert _rows_reads(sample, ROWS_READERS) == [4]
    assert _rows_reads(sample) == [2, 4]


def test_oracle_imports_nothing_it_checks():
    # tests/oracle.py is the reference both decompose and hom_space_dim are
    # checked against, so it must not reach the sweep, the interval-level
    # Hom rules or the AR code, nor the package root, which re-exports
    # decompose
    checked = {"aquiver", "aquiver.decompose", "aquiver.homological", "aquiver.ar"}
    tree = ast.parse((ROOT / "tests" / "oracle.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
            imported |= {f"{node.module}.{a.name}" for a in node.names}
    assert any(m.startswith("aquiver.") for m in imported), "no library import seen"
    assert not imported & checked, f"oracle.py imports {', '.join(sorted(imported & checked))}"


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


def test_cli_import_loads_what_the_benchmark_reads():
    # bench/cli_child.py installs the tracer right after `import aquiver.cli`,
    # and Tracer.install looks each traced module up in sys.modules;
    # bench/workloads.py calls aq.decompose(...), which a lazily imported
    # submodule of the same name would shadow.  A fresh interpreter shows
    # what the import alone loads.  It loads none of click, dataclasses and
    # inspect, which cost every command line process milliseconds.
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import aquiver, aquiver.cli\n"
            "mods = ('linalg', 'jsonio', 'tamerep', 'decompose', 'homological', 'ar')\n"
            "missing = [m for m in mods if 'aquiver.' + m not in sys.modules]\n"
            "assert not missing, f'not loaded by import aquiver.cli: {missing}'\n"
            "assert callable(aquiver.decompose), type(aquiver.decompose)\n"
            "heavy = sorted({'click', 'dataclasses', 'inspect'} & (set(sys.modules) - before))\n"
            "assert not heavy, f'loaded by import aquiver.cli: {heavy}'\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert res.returncode == 0, res.stderr


def test_scan_counts_attribute_reads_loads_and_imports_only(tmp_path):
    # a method needs an attribute read, so a local, a parameter or a
    # keyword argument of its name is no use of it; a parameter or a
    # keyword argument is no use of a function either.  Scopes are
    # resolved for functions: a loaded name that the function or one
    # around it binds as a parameter or by assignment is its local, not
    # the library function of that name, unless it is declared global.
    # Defaults and decorators are read outside the function.
    src = tmp_path / "sample.py"
    src.write_text("from m import imported\n"
                   "def f(scale, helper=None, fallback=default):\n"
                   "    local = scale * 2\n"
                   "    g(helper=local, other=loaded)\n"
                   "    inner = lambda: helper(closure)\n"
                   "    closure = 1\n"
                   "    return obj.attr\n"
                   "def h():\n"
                   "    global shared\n"
                   "    shared = 1\n"
                   "    return shared\n", encoding="utf-8")
    defs = {"scale": {METHOD}, "helper": {FUNCTION}, "local": {FUNCTION}, "attr": {METHOD},
            "loaded": {FUNCTION}, "imported": {FUNCTION}, "both": {METHOD, FUNCTION},
            "default": {FUNCTION}, "closure": {FUNCTION}, "shared": {FUNCTION}}
    assert _unused(defs, [src]) == ["both", "closure", "helper", "local", "scale"]

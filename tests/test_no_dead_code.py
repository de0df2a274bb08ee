"""Every function and class defined in the library is used somewhere.

Uses are read from the syntax tree of src/aquiver and tests.  A method (a
function defined in a class body) counts as used only where it is read as
an attribute, ``x.name``; any other function or class counts where its
name is loaded, read as an attribute, or imported.  Parameters, keyword
arguments and the names locals are stored under are not uses (a local
that is loaded still counts for a function of its name, since scopes are
not resolved).  Dunder methods are called by the interpreter, and click
commands are reached through the command group, so both are exempt.  A
name counts as used by the library when it is used so in src/aquiver
outside __init__.py; every defined name is, or is exported in
aquiver.__all__, or is one of the few that only tests call, each listed
with a test that needs it, and every test the list cites exists.  Every
name a library or test module imports at top level is read in that
module, except in __init__.py, which re-exports.  No library module imports an
underscore name from another.  tests/oracle.py imports nothing from the
code it checks.  No library module outside the two field classes asks
which field it holds.  Every name the benchmark's tracer wraps exists, and
importing aquiver.cli loads every module the benchmark reaches into.
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


def _is_click_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group")
               for d in node.decorator_list)


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
                if _is_click_command(node):
                    continue
                defs.setdefault(name, set()).add(METHOD if id(node) in in_class else FUNCTION)
    return defs


def _unused(defs: dict[str, set[str]], paths) -> list[str]:
    """The defined names with a kind that no file of paths uses: a METHOD
    needs an attribute read, a FUNCTION an attribute read, a loaded name or
    an import."""
    attrs, names = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return sorted(name for name, kinds in defs.items()
                  if name not in attrs and (METHOD in kinds or name not in names))


def test_every_library_function_and_class_has_a_use():
    dead = _unused(_definitions(), sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")))
    assert not dead, f"defined in src/aquiver but never used: {', '.join(dead)}"


# Library names that no library code calls, with a test that needs each.
TEST_ONLY = {
    "dim_at": "test_tamerep.py::test_from_bars_overlap_count",
    "from_int": "test_linalg.py::test_rank_examples (mat)",
    "from_rows": "test_linalg.py::test_rank_examples",
    "image_rep": "test_acceptance.py::test_criterion_2_oracle_parity (through oracle.py)",
    "power": "test_acceptance.py::test_criterion_2_oracle_parity (through oracle.py)",
    "scale": "test_acceptance.py::test_criterion_9_hereditary_kernels",
    "solve_linear_system": "test_linalg.py::test_solve_examples; bench/tracing.py wraps it",
    "sub": "test_linalg.py::test_row_echelon_matches_textbook (textbook_rref); "
           "test_acceptance.py::test_criterion_2_oracle_parity (through oracle.py)",
    "total_dim": "test_acceptance.py::test_criterion_2_oracle_parity (through oracle.py)",
}


def test_every_library_name_has_a_library_use():
    import aquiver
    lib = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    test_only = sorted(name for name in _unused(_definitions(), lib)
                       if name not in aquiver.__all__)
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


def test_no_private_name_crosses_modules():
    # a name another module needs is public in the module that defines it
    private = [f"{path.name}: {alias.name}"
               for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "aquiver")
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"imports a private name of another module: {', '.join(private)}"


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
    # what the import alone loads.
    code = ("import sys, aquiver, aquiver.cli\n"
            "mods = ('linalg', 'jsonio', 'tamerep', 'decompose', 'homological', 'ar')\n"
            "missing = [m for m in mods if 'aquiver.' + m not in sys.modules]\n"
            "assert not missing, f'not loaded by import aquiver.cli: {missing}'\n"
            "assert callable(aquiver.decompose), type(aquiver.decompose)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert res.returncode == 0, res.stderr


def test_scan_counts_attribute_reads_loads_and_imports_only(tmp_path):
    # a method needs an attribute read, so a local, a parameter or a
    # keyword argument of its name is no use of it; a parameter or a
    # keyword argument is no use of a function either.  Scopes are not
    # resolved: a loaded local counts for a function of the same name.
    src = tmp_path / "sample.py"
    src.write_text("from m import imported\n"
                   "def f(scale, helper=None):\n"
                   "    local = scale * 2\n"
                   "    g(helper=local, other=loaded)\n"
                   "    return obj.attr\n", encoding="utf-8")
    defs = {"scale": {METHOD}, "helper": {FUNCTION}, "local": {FUNCTION}, "attr": {METHOD},
            "loaded": {FUNCTION}, "imported": {FUNCTION}, "both": {METHOD, FUNCTION}}
    assert _unused(defs, [src]) == ["both", "helper", "scale"]

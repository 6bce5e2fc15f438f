"""The public surface: each module's __all__ lists exactly what it defines in
public, the package root is the union of the library modules' __all__, the
import graph keeps its leaves, and every name the benchmark in perfbench/
reads still exists."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import subwave

MODULES = sorted(m.name for m in pkgutil.iter_modules(subwave.__path__))


def test_every_public_definition_is_exported():
    for name in MODULES:
        mod = importlib.import_module(f"subwave.{name}")
        defined = {k for k, v in vars(mod).items()
                   if not k.startswith("_")
                   and (inspect.isfunction(v) or inspect.isclass(v))
                   and v.__module__ == mod.__name__}
        assert sorted(defined - set(mod.__all__)) == [], name
        assert [k for k in mod.__all__ if not hasattr(mod, k)] == [], name


LIBRARY = [name for name in MODULES if name != "cli"]
SRC = Path(subwave.__file__).parent


def test_package_root_star_imports_every_library_module():
    # each public name is declared once, in its module's __all__; the root
    # re-exports them all, and no two modules export one name
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert all(node.level == 1 and [a.name for a in node.names] == ["*"]
               for node in imports)
    assert sorted(node.module for node in imports) == LIBRARY
    exported = [k for name in LIBRARY
                for k in importlib.import_module(f"subwave.{name}").__all__]
    assert len(exported) == len(set(exported))
    public = {k for k in vars(subwave) if not k.startswith("_")} - set(MODULES)
    assert public == set(exported)


def _subwave_imports(name):
    """The subwave modules that src/subwave/<name>.py imports anywhere in
    its syntax tree, as names relative to the package."""
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:  # from .x or from .
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            mods = [node.module] if isinstance(node, ast.ImportFrom) else [
                a.name for a in node.names]
            found.update(m.removeprefix("subwave").lstrip(".") or "subwave"
                         for m in mods if m.split(".")[0] == "subwave")
    return found


def test_import_graph():
    # the two foundations stand alone, and the CLI is a leaf
    assert _subwave_imports("abelian") == set()
    assert _subwave_imports("group") == set()
    for name in LIBRARY:
        assert "cli" not in _subwave_imports(name), name


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_reads_only_names_the_package_has():
    # the benchmark reaches subwave as `<module>.<name>` on the modules
    # workloads.py imports, and traces every module in TRACED_MODULES; a
    # deletion that breaks either shows here, not only in a benchmark run
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "subwave"
               for a in node.names}
    reads = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    assert modules and reads
    missing = [f"{mod}.{name}" for mod, name in sorted(reads)
               if not hasattr(importlib.import_module(f"subwave.{mod}"), name)]
    assert missing == []
    tracing = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    traced = [ast.literal_eval(node.value) for node in tracing.body
              if isinstance(node, ast.Assign)
              and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED_MODULES"]]
    assert len(traced) == 1 and traced[0]
    for short in traced[0]:
        importlib.import_module(f"subwave.{short}")

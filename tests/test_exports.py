"""The public surface: each module's __all__ lists exactly what it defines in
public, the package root imports only exported names, and every name the
benchmark in perfbench/ reads still exists."""

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


def test_package_root_imports_only_exported_names():
    tree = ast.parse(Path(subwave.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        exported = importlib.import_module(f"subwave.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in exported] == [], node.module


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

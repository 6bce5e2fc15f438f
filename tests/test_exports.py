"""The public surface: each module's __all__ lists exactly what it defines in
public, and the package root imports only exported names."""

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

"""The package's export lists agree with what its modules define."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import surfbench

MODULES = sorted(f"surfbench.{m.name}" for m in pkgutil.iter_modules(surfbench.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(surfbench.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"surfbench.{node.module}")
        assert [a.name for a in node.names if a.name not in module.__all__] == [], node.module

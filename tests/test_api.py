"""The package's export lists agree with what its modules define, every
import is used, and set-up loads only the modules it uses."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import surfbench

MODULES = sorted(f"surfbench.{m.name}" for m in pkgutil.iter_modules(surfbench.__path__)
                 if m.name != "__main__")

SRC = Path(surfbench.__file__).resolve().parent.parent


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    # as pyflakes' F401: a name a module imports is referenced in its code
    # (a docstring does not count), exported in its __all__, or marked as a
    # deliberate re-export with "# noqa: F401"
    module = importlib.import_module(name)
    source = Path(module.__file__).read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        and not lines[node.lineno - 1].endswith("# noqa: F401")
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(getattr(module, "__all__", ()))) == []


def test_package_root_defines_only_its_version():
    # Submodules appear as attributes once imported; the root defines none.
    defined = [n for n, v in vars(surfbench).items() if not isinstance(v, ModuleType)]
    assert [n for n in defined if not n.startswith("_")] == []
    assert surfbench.__version__


def test_setup_loads_only_config_synthdata_and_streams():
    """Building the config and generating the dataset, as a fresh process
    does before any experiment, imports no fitting, protocol or report
    module and neither numpy.random nor logging."""
    code = """
import sys
from surfbench.config import ExperimentConfig
from surfbench.synthdata import generate
generate(noise=ExperimentConfig().noise_spec())
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "surfbench")))
print("numpy.random" in sys.modules, "logging" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == ["surfbench surfbench.config surfbench.streams surfbench.synthdata", "False False"]

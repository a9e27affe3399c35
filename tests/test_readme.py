"""README.md names only what exists: the commands in its ``bash`` blocks
still work as written (every ``surfbench`` line parses with the CLI's
parser, and every script or test path it names exists), and every
backticked ``module.name`` of a ``surfbench`` module resolves."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import surfbench
from surfbench import cli

ROOT = Path(__file__).resolve().parents[1]
MODULES = {module.name for module in pkgutil.iter_modules(surfbench.__path__)}


def bash_lines():
    """The lines of README.md's ``bash`` blocks, each without its comment."""
    blocks = re.findall(r"^```bash\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    return [line.split("#")[0].strip() for block in blocks for line in block.splitlines()]


LINES = bash_lines()


@pytest.mark.parametrize("line", [line for line in LINES if line.startswith("surfbench ")])
def test_surfbench_commands_parse(line):
    try:
        cli._build_parser().parse_args(shlex.split(line)[1:])
    except SystemExit as exc:
        pytest.fail(f"{line!r} does not parse (exit {exc.code})")


def test_scripts_and_test_paths_exist():
    paths = [shlex.split(line)[1] for line in LINES
             if line.startswith(("python scripts/", "pytest tests/"))]
    assert any(path.startswith("tests/") for path in paths)
    for path in paths:
        assert (ROOT / path).exists(), path


def code_names():
    """The distinct backticked dotted names of README.md whose first part,
    after an optional ``surfbench.``, is a module of the package."""
    spans = re.findall(r"`((?:surfbench\.)?\w+(?:\.\w+)+)`", (ROOT / "README.md").read_text())
    return sorted({span for span in spans
                   if span.removeprefix("surfbench.").split(".")[0] in MODULES})


NAMES = code_names()


def test_readme_names_package_code():
    # the pattern still finds what README.md names, not an empty list
    attributes = [name for name in NAMES if "." in name.removeprefix("surfbench.")]
    assert len(attributes) >= 20


@pytest.mark.parametrize("name", NAMES)
def test_named_code_exists(name):
    module, *attrs = name.removeprefix("surfbench.").split(".")
    obj = importlib.import_module(f"surfbench.{module}")
    for attr in attrs:
        assert hasattr(obj, attr), name
        obj = getattr(obj, attr)

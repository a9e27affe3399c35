"""README.md names only what exists: the commands in its ``bash`` blocks
still work as written (every ``surfbench`` line parses with the CLI's
parser, and every script or test path it names exists), and every
backticked ``module.name`` of a ``surfbench`` module resolves, in README.md
and in the double-backticked names of the package's docstrings."""

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


def code_names(text, ticks):
    """The distinct dotted names of ``text`` between ``ticks`` whose first
    part, after an optional ``surfbench.``, is a module of the package."""
    spans = re.findall(rf"{ticks}((?:surfbench\.)?\w+(?:\.\w+)+){ticks}", text)
    return {span for span in spans if span.removeprefix("surfbench.").split(".")[0] in MODULES}


README_NAMES = code_names((ROOT / "README.md").read_text(), "`")
DOCSTRING_NAMES = code_names("".join(path.read_text() for path in sorted(
    (ROOT / "src" / "surfbench").glob("*.py"))), "``")
NAMES = sorted(README_NAMES | DOCSTRING_NAMES)


def attributes(names):
    return [name for name in names if "." in name.removeprefix("surfbench.")]


def test_readme_names_package_code():
    # the pattern still finds what README.md names, not an empty list
    assert len(attributes(README_NAMES)) >= 20


def test_docstrings_name_package_code():
    assert len(attributes(DOCSTRING_NAMES)) >= 10


@pytest.mark.parametrize("name", NAMES)
def test_named_code_exists(name):
    module, *attrs = name.removeprefix("surfbench.").split(".")
    obj = importlib.import_module(f"surfbench.{module}")
    for attr in attrs:
        assert hasattr(obj, attr), name
        obj = getattr(obj, attr)

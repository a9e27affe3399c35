"""The commands in README.md's ``bash`` blocks still work as written:
every ``surfbench`` line parses with the CLI's parser, and every script
or test path it names exists."""

import re
import shlex
from pathlib import Path

import pytest

from surfbench import cli

ROOT = Path(__file__).resolve().parents[1]


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

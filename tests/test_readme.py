"""The README's examples run as written: the ``## Library`` block, and each
``kisin ...`` line of the ``## CLI`` block through ``cli.main`` in process,
exiting 0."""

import re
import shlex
from pathlib import Path

import pytest

from kisin.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(section, lang):
    """The first fenced block of the given language in a level-2 section."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


CLI_LINES = [line for line in code_block("CLI", "sh").splitlines() if line.startswith("kisin ")]


def test_every_cli_line_is_found():
    assert len(CLI_LINES) == 9


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_exits_0(capsys, line):
    assert main(shlex.split(line)[1:]) == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""


def test_library_block_runs():
    names = {}
    exec(code_block("Library", "python"), names)
    assert names["s"].lam == ((0, 0),) and names["report"].upper_bound >= 1

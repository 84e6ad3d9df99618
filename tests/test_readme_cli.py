"""Every ``skein`` line of the README's CLI block runs as documented.

A line's comment is either ``# exit N ...``, the exit code it documents, or
the exact stdout; a line without one exits 0.  The block must show every
row of the command table.
"""

import re
import shlex
from pathlib import Path

import pytest

from skeinalg.cli import COMMANDS, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_block_lines() -> list[str]:
    block = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("```")[1]
    return [line for line in block.splitlines() if line.startswith("skein ")]


def _parse(line: str) -> tuple[list[str], int, str | None]:
    command, _, comment = line.partition("#")
    comment = comment.strip()
    exit_code = re.match(r"exit (\d+)\b", comment)
    if exit_code:
        return shlex.split(command)[1:], int(exit_code.group(1)), None
    return shlex.split(command)[1:], 0, comment or None


LINES = _cli_block_lines()
IDS = [line.partition("#")[0].strip() for line in LINES]


@pytest.mark.parametrize("line", LINES, ids=IDS)
def test_readme_line(capsys, line):
    argv, code, stdout = _parse(line)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    if stdout is not None:
        assert captured.out == stdout + "\n"


def test_block_shows_every_command():
    shown = [_parse(line)[0] for line in LINES]
    missing = [
        key for key in COMMANDS
        if not any(argv[0] == key[0] and key[1] in (None, argv[1]) for argv in shown)
    ]
    assert missing == []

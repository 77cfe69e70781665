"""Every `antipower ...` line of the README runs: the docs name no removed flag or command."""

import shlex
from pathlib import Path

import pytest

from antipower.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for line in README.read_text().splitlines()
    if line.startswith("antipower ")
]


def test_readme_has_commands():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_runs(capsys, argv):
    code = main(argv)
    assert code in (0, 1)
    assert capsys.readouterr().err == ""

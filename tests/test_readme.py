"""The README's documented commands and library example run as written.

Every ``sympalg ...`` line of the README's ``sh`` blocks goes through
``cli.main`` in a fresh directory, after the blocks' ``echo ... > file``
lines have written their files, and must exit 0.  The "Library usage" block
is executed as is, so a removed or renamed name cannot break the documented
API silently.
"""

import re
import shlex
from pathlib import Path

import pytest

from sympalg.cli import EXIT_OK, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

SHELL_LINES = [
    shlex.split(line, comments=True)
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S)
    for line in block.splitlines()
]
COMMANDS = [words[1:] for words in SHELL_LINES if words[:1] == ["sympalg"]]
ECHOES = [words[1:] for words in SHELL_LINES if words[:1] == ["echo"]]


def test_readme_documents_commands():
    assert COMMANDS and ECHOES


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a) for a in COMMANDS])
def test_shell_command(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for words in ECHOES:
        *text, redirect, name = words
        assert redirect == ">"
        (tmp_path / name).write_text(" ".join(text) + "\n")
    assert main(argv) == EXIT_OK, capsys.readouterr().err


def test_library_usage_block():
    section = README.split("## Library usage", 1)[1]
    block = re.search(r"^```python\n(.*?)^```", section, re.M | re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})

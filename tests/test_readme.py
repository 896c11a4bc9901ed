"""The README's library quick tour and command-line examples run against the package as it is."""

import re
import shlex
from pathlib import Path

import pytest

from treegrow.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, f"{README}:library quick tour", "exec"), namespace)
    assert len(namespace["trees"]) == 10 and len(namespace["subtrees"]) == 8


def command_lines():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("treegrow ")]


@pytest.mark.parametrize("line", command_lines())
def test_command_line_example_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)   # grow --out writes its trace here
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err

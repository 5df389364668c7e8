"""The README's commands and library example run as written."""

import re
import shlex
from pathlib import Path

import pytest

from fracfem.cli import CSV_COLUMNS, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)
COMMANDS = [line for lang, body in BLOCKS if lang == "sh"
            for line in body.splitlines() if line.startswith("fracfem ")]


def test_readme_has_commands_and_one_python_block():
    assert len(COMMANDS) >= 7
    assert [lang for lang, _ in BLOCKS].count("python") == 1


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_runs(command, capsys):
    # the README's own options on the two coarsest levels and a small reference
    argv = shlex.split(command)[1:] + ["--levels", "3:4", "--reference-m", "128"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(CSV_COLUMNS + "\n") and captured.err == ""


def test_readme_python_block_runs(capsys):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3

"""The library example and the command-line examples in README.md run
against the current API and the CLI corpus."""

import re
import shlex
from pathlib import Path

from leavitt.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
CORPUS = Path(__file__).parent / "cli_corpus"


def _blocks(lang):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.DOTALL | re.MULTILINE)


def test_readme_python_block_runs():
    blocks = _blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_cli_examples_run_from_the_corpus(capsys, monkeypatch):
    lines = [line for block in _blocks("sh") for line in block.splitlines() if line.startswith("leavitt ")]
    assert len(lines) == 10
    monkeypatch.chdir(CORPUS)
    for line in lines:
        code = main(shlex.split(line, comments=True)[1:])
        err = capsys.readouterr().err
        assert (code, err) == (0, ""), line

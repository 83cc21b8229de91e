"""The README's examples run as written: its Python example, and each `itsa` line of its CLI block."""

import io
import re
import shlex
from pathlib import Path

import pytest

from itsa.cli import run

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _block(language: str, after: str) -> str:
    """The first fenced block in `language` after the heading `after`."""
    section = README[README.index(after):]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


CLI_LINES = [" ".join(line.split())
             for line in _block("sh", "## CLI").replace("\\\n", " ").splitlines()
             if line.startswith("itsa ")]


def test_cli_block_is_found():
    assert len(CLI_LINES) == 7


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_example(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # export writes its --output file here
    assert run(shlex.split(line)[1:], out=io.StringIO()) == 0


def test_python_example(capsys):
    exec(_block("python", "## Example (library)"), {})
    assert capsys.readouterr().out

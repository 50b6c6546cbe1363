"""The README's examples run as written.

The "Quick start" commands run first, through the CLI's ``main``, and then
every fenced ``python`` block, in file order and in one namespace, in the
same directory: a later block may read the files the commands wrote. A
block that names a function the package no longer has fails here.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from quorumsim.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
_FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def _blocks(text: str) -> list[tuple[str, str]]:
    """(language, body) of every fenced block, in file order."""
    return [(m.group(1), m.group(2)) for m in _FENCE.finditer(text)]


def _quick_start_commands(text: str) -> list[list[str]]:
    section = text.split("\n## Quick start\n", 1)[1]
    _, body = _blocks(section)[0]
    return [shlex.split(line)[1:] for line in body.splitlines() if line.startswith("quorumsim ")]


def test_readme_examples_run(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    commands = _quick_start_commands(text)
    python_blocks = [body for lang, body in _blocks(text) if lang == "python"]
    assert commands and python_blocks
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
    namespace: dict = {"__name__": "readme"}
    for i, body in enumerate(python_blocks, 1):
        exec(compile(body, f"{README.name} python block {i}", "exec"), namespace)

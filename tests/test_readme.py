"""The README's Python examples run as written and print what they claim."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

from gdsa.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def run_block(block: str, namespace: dict) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(block, str(README), "exec"), namespace)
    return buf.getvalue()


def test_python_blocks_run_and_the_quickstart_prints_its_comment():
    text = README.read_text(encoding="utf-8")
    quickstart, *rest = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert rest  # the superiorized version follows the quickstart
    namespace: dict = {}
    assert "# [0.] 12 1.0" in quickstart
    assert run_block(quickstart, namespace) == "[0.] 12 1.0\n"
    assert namespace["trace"].perturbations is None  # as the README says of unperturbed runs
    for block in rest:  # later blocks reuse the names earlier ones define
        run_block(block, namespace)


def test_the_cli_block_lists_the_flags_of_each_subcommand():
    block = re.search(r"^## CLI\n\n```\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S).group(1)
    for line in block.splitlines():
        command = line.split()[1]
        with contextlib.redirect_stdout(io.StringIO()) as help_text, pytest.raises(SystemExit):
            main([command, "--help"])
        flags = set(re.findall(r"--[a-z-]+", help_text.getvalue())) - {"--help"}
        assert set(re.findall(r"--[a-z-]+", line)) == flags, command

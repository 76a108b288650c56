"""The README's library example and CLI sequence run as written, so drift
between the documentation and the API or the CLI fails the suite."""

import os
import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from hexpack.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})


def test_readme_cli_sequence_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [shlex.split(line, comments=True) for block in blocks
             for line in block.splitlines() if line.startswith("hexpack ")]
    assert len(lines) == 6
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        result = CliRunner().invoke(main, argv[1:])
        assert result.exit_code == 0, (argv, result.output)
    assert {"u.csv", "solved.csv", "weights.csv", "packing.svg"} <= set(os.listdir(tmp_path))

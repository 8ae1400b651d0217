"""The README's library quick start and command-line example run as written."""

import pathlib
import re
import shlex

import numpy as np
import pytest

from surfquad.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert scope["area"] == pytest.approx(4.0 * np.pi, rel=0.02)
    assert scope["z2"] == pytest.approx(4.0 * np.pi / 3.0, rel=0.02)


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8").replace("\\\n", " ")
    lines = [line.strip() for block in re.findall(r"```bash\n(.*?)```", text, re.S)
             for line in block.splitlines()]
    commands = [shlex.split(line, comments=True) for line in lines
                if line.startswith("surfquad ")]
    assert [argv[1] for argv in commands] == ["generate", "generate", "weights",
                                              "integrate", "indicator", "study"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)

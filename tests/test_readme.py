"""The README's library quick start runs as written."""

import pathlib
import re

import numpy as np
import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert scope["area"] == pytest.approx(4.0 * np.pi, rel=0.02)
    assert scope["z2"] == pytest.approx(4.0 * np.pi / 3.0, rel=0.02)

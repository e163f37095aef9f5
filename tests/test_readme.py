"""The README's Python examples run as written, from the repository root."""

import contextlib
import io
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                    flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block-{i + 1}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source, monkeypatch):
    monkeypatch.chdir(ROOT)
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(source, "README.md", "exec"), {"__name__": "readme"})

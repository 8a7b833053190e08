"""The README's library quick tour runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    text = README.read_text()
    section = text.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under 'Library quick tour'"
    exec(compile(block.group(1), "README.md quick tour", "exec"), {})

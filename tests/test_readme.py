"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README.md has no python block"
    for code in blocks:
        namespace = {}
        exec(compile(code, str(README), "exec"), namespace)
    assert namespace["batch"].states.shape == (201, 15, 2)
    assert namespace["loop"].states.shape == (1001, 2)

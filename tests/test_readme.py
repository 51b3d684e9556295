"""The README's library example runs against the current API, and its
Configuration section names every config key."""

import re
from pathlib import Path

from kooplift.cli import _SECTIONS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README.md has no python block"
    for code in blocks:
        namespace = {}
        exec(compile(code, str(README), "exec"), namespace)
    assert namespace["batch"].states.shape == (201, 15, 2)
    assert namespace["loop"].states.shape == (1001, 2)


def test_readme_configuration_names_every_config_key():
    # Every key of cli._SECTIONS, dotted from the top level, is named in the
    # Configuration section, so a new key cannot go undocumented.
    text = README.read_text()
    section = text[text.index("\n## Configuration\n"):]
    section = section[: section.index("\n## ", 1)]
    keys = [f"{name}.{key}".lstrip(".") for name, entries in _SECTIONS.items()
            for key in entries]
    assert [key for key in keys if f"`{key}`" not in section] == []

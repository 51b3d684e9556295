"""The README's library example runs against the current API, its command
line names the CLI's commands, and its Configuration section names every
config key and states its default."""

import json
import re
from pathlib import Path

from kooplift import cli
from kooplift.cli import _COMMANDS, _REQUIRED, _SECTIONS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README.md has no python block"
    for code in blocks:
        namespace = {}
        exec(compile(code, str(README), "exec"), namespace)
    assert namespace["batch"].states.shape == (201, 15, 2)
    assert namespace["loop"].states.shape == (1001, 2)


def test_grammar_lines_list_the_commands_in_order():
    # The README's command line and cli.py's module docstring each spell the
    # grammar once; both list exactly the _COMMANDS names, in their order.
    for text in (README.read_text(), cli.__doc__):
        [names] = re.findall(r"^ *kooplift <([\w|]+)>", text, re.M)
        assert names.split("|") == list(_COMMANDS)


def configuration_section() -> str:
    text = README.read_text()
    section = text[text.index("\n## Configuration\n"):]
    return section[: section.index("\n## ", 1)]


def test_readme_configuration_names_every_config_key():
    # Every key of cli._SECTIONS, dotted from the top level, is named in the
    # Configuration section, so a new key cannot go undocumented.
    section = configuration_section()
    keys = [f"{name}.{key}".lstrip(".") for name, entries in _SECTIONS.items()
            for key in entries]
    assert [key for key in keys if f"`{key}`" not in section] == []


def test_readme_default_column_states_every_plain_default():
    # A default that is a number, a string or a list is written in the key
    # table as JSON, in backticks or not, before any parenthetical remark.
    rows = dict(re.findall(r"^\| `([\w.]+)` \| (.*?) \|", configuration_section(), re.M))
    plain = {f"{name}.{key}".lstrip("."): default for name, entries in _SECTIONS.items()
             for key, (default, _) in entries.items()
             if type(default) in (int, float, str, list)}
    assert "evaluation.extrapolation.radius_range" in plain and "train.optimizer" in plain
    wrong = {}
    for key, default in plain.items():
        cell = re.sub(r"\s*\(.*\)$", "", rows[key]).replace("`", "")
        if (cell if default is _REQUIRED else json.loads(cell)) != default:
            wrong[key] = (rows[key], default)
    assert wrong == {}

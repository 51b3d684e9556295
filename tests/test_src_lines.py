"""scripts/src_lines.py: the code-line counter the line budget is read from."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "src_lines.py"

SAMPLE = '''"""Module docstring
over two lines."""

import os  # trailing comment

# a comment line


def f(x):
    """Function docstring."""
    # an indented comment
    text = """a multi-line string,
not a docstring"""
    total = (x
             + 1)
    return text, total
'''
# Code lines: 4 (import), 9 (def), 12-13 (the string), 14-15 (the
# expression), 16 (return). Docstrings (1-2, 10), comments (6, 11) and
# blank lines (3, 5, 7, 8) do not count.
WANT = (7, 16)


def test_count_matches_hand_count(tmp_path):
    spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert src_lines.count(path) == WANT

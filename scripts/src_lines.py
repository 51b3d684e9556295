"""Count the lines of the Python sources under src/.

A code line is non-blank, not comment-only and outside docstrings. Prints
the code-line and all-line counts, per file and in total:

    python scripts/src_lines.py [root]     # root defaults to src/
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(code lines, all lines) of one Python file."""
    text = path.read_text()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(ast.parse(text))
    return len(code), len(text.splitlines())


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src"
    total_code = total_all = 0
    for path in sorted(root.rglob("*.py")):
        code, every = count(path)
        total_code += code
        total_all += every
        print(f"{code:6d} {every:6d}  {path.relative_to(root)}")
    print(f"{total_code:6d} {total_all:6d}  total (code lines, all lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

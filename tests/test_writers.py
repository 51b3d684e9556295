"""Every file the package writes goes through one of its two writers,
dynamics.write_json and dynamics.write_csv, so each format has one writer."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kooplift"
WRITERS = {("dynamics", "write_json"), ("dynamics", "write_csv")}


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether call is open(...) or <path>.open(...) with a mode that writes;
    a mode that is not a string literal counts as writing."""
    func = call.func
    if not (isinstance(func, ast.Name) and func.id == "open"
            or isinstance(func, ast.Attribute) and func.attr == "open"):
        return False
    # open(file, mode) takes the mode second, Path.open(mode) first.
    args = call.args[1:] if isinstance(func, ast.Name) else call.args
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), args[0] if args else None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def _writes(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in ("write_text", "write_bytes"):
            return True
        if func.attr == "dump" and isinstance(func.value, ast.Name) and func.value.id == "json":
            return True
    return _opens_for_writing(call)


def file_writes() -> list[tuple[str, str, int]]:
    """(module, enclosing function, line) of every call in src/kooplift that
    writes a file; the function is "" at module level."""
    found = []

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            name = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            if isinstance(child, ast.Call) and _writes(child):
                found.append((module, function, child.lineno))
            visit(child, module, name)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


def test_only_the_two_writers_write_files():
    writes = file_writes()
    assert {(module, function) for module, function, _ in writes} >= WRITERS
    assert [w for w in writes if w[:2] not in WRITERS] == []


def test_the_guard_sees_each_way_of_writing():
    calls = ['json.dump(doc, fh)', 'p.write_text("x")', 'p.write_bytes(b"")',
             'open(p, "w")', 'open(p, mode="a")', 'open(p, "r+")', 'p.open("x")',
             'open(p, mode)']
    reads = ['open(p)', 'open(p, newline="")', 'open(p, "rb")', 'p.open()',
             'json.dumps(doc)', 'json.load(fh)']
    assert [c for c in calls if not _writes(ast.parse(c, mode="eval").body)] == []
    assert [c for c in reads if _writes(ast.parse(c, mode="eval").body)] == []

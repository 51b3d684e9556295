"""The pipeline reaches a lifting network only through the backend protocol:
koopman and control compare no kind with a backend's name, and import nothing
from kan or mlp but the network classes, so a new backend touches the
NETWORKS registry and the CLI's constructor only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kooplift"
ALLOWED = {"kan": {"KanNetwork"}, "mlp": {"MlpNetwork"}}


def backend_knowledge(source: str) -> list[str]:
    """Each comparison of a .kind attribute with a string literal, and each
    name imported from a backend module beyond its network class."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if (any(isinstance(s, ast.Attribute) and s.attr == "kind" for s in sides)
                    and any(isinstance(s, ast.Constant) and isinstance(s.value, str)
                            for s in sides)):
                found.append(f"line {node.lineno}: compares a kind with a string")
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            extra = {a.name for a in node.names} - ALLOWED.get(module, set())
            if module in ALLOWED and extra:
                found.append(f"line {node.lineno}: imports {sorted(extra)} from {module}")
    return found


def test_koopman_and_control_are_backend_blind():
    for name in ("koopman.py", "control.py"):
        assert backend_knowledge((SRC / name).read_text()) == [], name


def test_the_guard_sees_each_kind_of_backend_knowledge():
    caught = ['if network.kind == "kan": pass', 'ok = "mlp" != model.network.kind',
              "from .kan import KanNetwork, layer_basis", "from kooplift.mlp import selu",
              "from .kan import *"]
    allowed = ["from .kan import KanNetwork", "from .mlp import MlpNetwork",
               'if kind == "kan": pass', "same = a.kind == b.kind",
               "from .numerics import pinv"]
    assert [c for c in caught if not backend_knowledge(c)] == []
    assert [c for c in allowed if backend_knowledge(c)] == []

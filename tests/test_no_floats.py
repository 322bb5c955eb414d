"""The package computes exactly: no module in src/siegelmodp uses floats."""

import ast
from pathlib import Path

import pytest

import siegelmodp

MODULES = sorted(Path(siegelmodp.__file__).parent.glob("*.py"))


def float_uses(source: str) -> list:
    """(line, what) for each float literal, float(...) call and true
    division in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value,
                                                         (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float(...)"))
        elif (isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, ast.Div)):
            found.append((node.lineno, "true division /"))
    return sorted(found)


def test_the_check_sees_each_kind_of_float():
    assert [what for _, what in float_uses(
        "x = 0.5\ny = float(3)\nz = 1 / 2\nz /= 2\nw = 2j\nv = 7 // 2\n")] \
        == ["literal 0.5", "float(...)", "true division /",
            "true division /", "literal 2j"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_floating_point(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []

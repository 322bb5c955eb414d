"""Every name a module in src/siegelmodp imports is read where it is imported."""

import ast
from pathlib import Path

import pytest

import siegelmodp

MODULES = sorted(Path(siegelmodp.__file__).parent.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(scope):
    """The nodes of a module or function, without those of its functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list:
    """(line, name) for each name bound by an import, other than a
    ``from __future__`` import or one marked ``# noqa: F401``, that the
    importing module or function never reads (a read in a nested function
    counts)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    found = []
    for scope in [tree] + [n for n in ast.walk(tree)
                           if isinstance(n, FUNCTIONS)]:
        read = {n.id for n in ast.walk(scope)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in _own_nodes(scope):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or "# noqa: F401" in lines[node.lineno - 1]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    found.append((node.lineno, name))
    return sorted(found)


def test_the_check_sees_each_kind_of_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "import re  # noqa: F401\n"
              "from math import gcd as g, lcm\n"
              "def f():\n"
              "    import json\n"
              "    from random import Random\n"
              "    def h():\n"
              "        return Random(lcm(1, 2))\n"
              "    return h\n"
              "def k():\n"
              "    return sys.argv\n")
    assert unused_imports(source) == [(2, "os"), (4, "g"), (6, "json")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

"""A ledger of the public names in src/siegelmodp that nothing in src/ uses.

A public name is a module-level function or class whose name has no
leading underscore.  ``src/`` uses it when its own module reads it outside
its definition, or another module imports it (``from .mod import name``)
or reads it as ``mod.name``.  Tests and the benchmark do not count.

Every name without a caller is pinned in :data:`NO_CALLER` with the
ROADMAP.md item that is to give it a caller or move it out of ``src/``, or
with "perfbench" where the benchmark is its only caller outside the tests.
A name that gains a caller, or a new public name without one, changes the
set and fails the test, so the ledger moves with the code.
"""

import ast
from pathlib import Path

import siegelmodp

ROOT = Path(siegelmodp.__file__).parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

NO_CALLER = {
    "galois.classify_inertia": "item 18",
    "galois.level4_count": "item 14",
    "galois.twist_system": "item 5",
    "hecke.reduce_gl2": "item 13",
    "hecke.required_indices": "item 4",
    "localdef.big_theta_local_value": "item 14",
    "localdef.step3_identity_check": "perfbench",
    "localdef.theta1_local_leading": "item 14",
    "localdef.theta2_local_n1_leading": "item 14",
    "localdef.theta_local": "item 14",
    "qexp.hasse_scale": "item 2",
    "qexp.index_scale_up": "item 6",
    "qexp.is_weak_p_singular": "item 6",
    "qexp.linear_combine": "item 2",
    "qexp.pth_root": "item 6",
    "strata.zeta_independent": "perfbench",
    "theta.theta2_iterate_closed": "item 14",
}


def public_without_caller(modules: dict) -> set:
    """The names "mod.name" of the public functions and classes of
    ``modules`` (module name -> source) that no module uses."""
    trees = {mod: ast.parse(source) for mod, source in modules.items()}
    public, used = set(), set()
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, DEFINITIONS) or node.name.startswith("_"):
                continue
            public.add(f"{mod}.{node.name}")
            if any(isinstance(n, ast.Name) and n.id == node.name
                   and isinstance(n.ctx, ast.Load)
                   for top in tree.body if top is not node
                   for n in ast.walk(top)):
                used.add(f"{mod}.{node.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                used.update(f"{node.module}.{alias.name}"
                            for alias in node.names)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)):
                used.add(f"{node.value.id}.{node.attr}")
    return public - used


def test_the_ledger_sees_each_kind_of_use():
    modules = {
        "a": ("def f():\n    return g()\n"
              "def g():\n    return g()\n"
              "def h():\n    pass\n"
              "class K:\n    pass\n"
              "def _private():\n    pass\n"),
        "b": ("from . import a\n"
              "from .a import K\n"
              "def run():\n    return a.h\n"),
    }
    # f: nobody reads it; g: read by f; h: read as a.h; K: imported;
    # run: nobody reads it; _private is not public
    assert public_without_caller(modules) == {"a.f", "b.run"}
    # a name read only inside its own body has no caller
    assert public_without_caller({"a": "def g():\n    return g()\n"}) \
        == {"a.g"}


def test_every_public_name_without_a_caller_is_in_the_ledger():
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(ROOT.glob("*.py"))}
    assert public_without_caller(modules) == set(NO_CALLER)

"""Ledgers of the public names and members in src/siegelmodp that nothing
in src/ uses.

A public name is a module-level function or class whose name has no
leading underscore.  ``src/`` uses it when its own module reads it outside
its definition, or another module imports it (``from .mod import name``)
or reads it as ``mod.name``.  A public member is a method or property,
defined in the body of a module-level class, whose name has no leading
underscore.  ``src/`` uses it when any module reads an attribute of that
name outside the member's own body; the reader's object is not resolved,
so a name shared by two members counts for both.  Tests and the benchmark
do not count.

Every name without a caller is pinned in :data:`NO_CALLER`, and every
member without one in :data:`MEMBERS_WITHOUT_CALLER`, with the ROADMAP.md
item that is to give it a caller or move it out of ``src/``, or with
"perfbench" where the benchmark is its only caller outside the tests.  A
name that gains a caller, or a new public name without one, changes the
set and fails the test, so the ledger moves with the code.
"""

import ast
from collections import Counter
from pathlib import Path

import siegelmodp

ROOT = Path(siegelmodp.__file__).parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)

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
}

MEMBERS_WITHOUT_CALLER = {
    "galois.HeckeSystem.charpoly": "item 5",
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


def members_without_caller(modules: dict) -> set:
    """The names "mod.Class.member" of the public members of the classes of
    ``modules`` (module name -> source) whose name no module reads as an
    attribute outside the member's own body."""
    trees = {mod: ast.parse(source) for mod, source in modules.items()}
    reads = Counter(n.attr for tree in trees.values()
                    for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    unused = set()
    for mod, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (not isinstance(node, FUNCTIONS)
                        or node.name.startswith("_")):
                    continue
                own = sum(isinstance(n, ast.Attribute) and n.attr == node.name
                          for n in ast.walk(node))
                if reads[node.name] == own:
                    unused.add(f"{mod}.{cls.name}.{node.name}")
    return unused


def test_the_member_ledger_sees_each_kind_of_use():
    modules = {
        "a": ("class K:\n"
              "    def f(self):\n        return self.g()\n"
              "    def g(self):\n        return self.g()\n"
              "    def h(self):\n        return self.h()\n"
              "    @property\n    def size(self):\n        return 1\n"
              "    def _private(self):\n        pass\n"
              "    def __repr__(self):\n        return ''\n"),
        "b": ("from .a import K\n"
              "def run(k):\n    return k.size, K.f\n"),
    }
    # f: read as K.f; g: read by f; h: read only in its own body; size:
    # read as k.size; private and dunder members are not public
    assert members_without_caller(modules) == {"a.K.h"}


def test_every_public_member_without_a_caller_is_in_the_ledger():
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(ROOT.glob("*.py"))}
    assert members_without_caller(modules) == set(MEMBERS_WITHOUT_CALLER)

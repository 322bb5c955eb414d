"""The package needs nothing outside the standard library at run time."""

import pkgutil
import subprocess
import sys
from pathlib import Path

import siegelmodp

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
for name in sys.argv[2:]:
    __import__(name)
print(" ".join(sorted({m.split(".")[0] for m in set(sys.modules) - before})))
"""


def test_imports_only_the_standard_library():
    root = Path(siegelmodp.__file__).parent
    names = ["siegelmodp"] + [f"siegelmodp.{m.name}"
                              for m in pkgutil.iter_modules([str(root)])]
    assert "siegelmodp.cli" in names
    # -I: no user site, no PYTHONPATH, no current directory on sys.path
    out = subprocess.run([sys.executable, "-I", "-c", SCRIPT,
                          str(root.parent)] + names,
                         capture_output=True, text=True, check=True).stdout
    loaded = set(out.split())
    assert "siegelmodp" in loaded
    outside = loaded - set(sys.stdlib_module_names) - {"siegelmodp"}
    assert not outside, sorted(outside)

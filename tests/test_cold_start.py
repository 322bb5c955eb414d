"""Each command line call loads only the siegelmodp modules it runs.

Every row runs in a fresh interpreter: in this process every module is
already imported, so only a new one shows what a call loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from siegelmodp import qexp
from siegelmodp.qexp import QExpansion
from siegelmodp.rep import Weight

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs cli.run(argv) (argv None: only imports cli) with its output
# discarded, then prints the exit code and the loaded siegelmodp modules.
CHILD = """\
import contextlib, io, json, sys
import siegelmodp.cli
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = siegelmodp.cli.run(argv)
        except SystemExit as e:
            code = e.code
print(json.dumps([code, sorted(m.split(".", 1)[1] for m in sys.modules
                               if m.startswith("siegelmodp."))]))
"""

CHARPOLY = ["charpoly", "--ell", "2", "--lam1", "3", "--lam2", "5",
            "--chi2", "1", "--k1", "3", "--k2", "3", "--p", "7"]

ROWS = [
    (None, None, "cli"),
    ([], 2, "cli"),
    (["charpoly", "--ell", "two"], 2, "cli"),
    (["theta", "--op", "t1", "in.smf", "-o", "out.smf"], 0,
     "cli arith rep qexp theta"),
    (["hecke", "--ell", "2", "--targets", "targets.txt",
      "--assume-complete", "in.smf", "-o", "out.smf"], 0,
     "cli arith rep qexp hecke"),
    (["hecke", "eigen", "--ell", "2", "--assume-complete", "in.smf"], 0,
     "cli arith rep qexp hecke"),
    (["cycle", "--vector", "--p", "5", "--k", "7", "--non-semi-ordinary"],
     0, "cli arith cycles"),
    (["strata", "order", "--phi", "0,1", "--p", "5"], 0,
     "cli arith strata"),
    (["strata", "tables"], 0, "cli arith strata"),
    (CHARPOLY, 0, "cli arith galois"),
    (["plan", "--k1", "10", "--k2", "4", "--p", "5"], 0, "cli arith galois"),
    (["check", "--suite", "all", "--p", "5"], 0,
     "cli arith rep qexp hecke theta cycles strata"),
]


@pytest.mark.parametrize("argv, code, modules", ROWS,
                         ids=[" ".join(r[0]) if r[0] is not None
                              else "import" for r in ROWS])
def test_a_fresh_call_loads_only_its_modules(tmp_path, argv, code, modules):
    F = QExpansion(p=7, N=3, weight=Weight(6, 4),
                   support={(0, 0, 0): (1, 0, 2), (1, 1, 1): (3, 4, 5)})
    (tmp_path / "in.smf").write_text(qexp.serialize(F), encoding="utf-8")
    (tmp_path / "targets.txt").write_text("0 0 0\n1 1 1\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got_code, loaded = json.loads(proc.stdout)
    assert got_code == code
    assert loaded == sorted(modules.split())

"""Hostile arguments that once made a command run without end are refused,
or answered, in bounded time.  Each runs as its own interpreter with a
timeout, so a hang fails the test instead of stalling the suite."""

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
SAFE_PRIME = "20000000000000002559"  # p - 1 = 2q with q prime

# (argv, exit code, stderr, a check of stdout); FORM is the input file
CASES = [
    (["theta", "--op", "t2", "--iterations", "1000000000", "FORM",
      "-o", "OUT"], 1,
     "theta runs at --iterations <= 1000, got 1000000000\n", None),
    (["cycle", "--vector", "--p", "1000003", "--k", "7",
      "--non-semi-ordinary"], 1, "cycle runs at p <= 1000000, got 1000003\n",
     None),
    (["check", "--suite", "pieri", "--p", "1009"], 1,
     "check runs at p <= 211, got 1009\n", None),
    (["hecke", "eigen", "--ell", "2", "--assume-complete", "WIDE"], 1,
     "Hecke operators run at k1-k2 <= 100, got 101\n", None),
    (["hecke", "eigen", "--ell", "2", "--power", "20", "--assume-complete",
      "FORM"], 1,
     "Hecke operators run with at most 100 lifts, T(2^20) needs more\n",
     None),
    (["hecke", "eigen", "--ell", "2", "--power", "1000000000",
      "--assume-complete", "FORM"], 1,
     "Hecke operators run with at most 100 lifts, T(2^1000000000) needs "
     "more\n", None),
    (["strata", "order", "--phi", "0,1", "--p", SAFE_PRIME], 0, "",
     lambda out: json.loads(out)["match"] is True),
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("bounded")
    paths = {}
    for name, weight, vec in (("FORM", (4, 4), (1,)),
                              ("WIDE", (105, 4), (1,) * 102)):
        F = QExpansion(p=5, N=3, weight=Weight(*weight),
                       support={(1, 0, 1): vec})
        paths[name] = root / f"{name}.smf"
        paths[name].write_text(qexp.serialize(F), encoding="utf-8")
    paths["OUT"] = root / "out.smf"
    return paths


@pytest.mark.parametrize("argv, code, err, check", CASES,
                         ids=[" ".join(c[0]) for c in CASES])
def test_bounded_work(files, argv, code, err, check):
    argv = [str(files.get(a, a)) for a in argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", "from siegelmodp.cli import main; main()",
         *argv], capture_output=True, text=True, timeout=10, env=env)
    assert (proc.returncode, proc.stderr) == (code, err)
    assert check(proc.stdout) if check else proc.stdout == ""

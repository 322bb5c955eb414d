"""Record the output digests of the hecke_eigen instance pool.

Usage: ``python3 perfbench/record_digests.py`` from the repository root.
Run it only on a commit whose Hecke outputs are known to be right: the
benchmark's gate compares every later commit with these digests.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from perfbench import gates, run, workloads  # noqa: E402


def main() -> int:
    m = run.fresh_modules()
    out = {}
    for kind, ell, i in workloads.HECKE_CLASSES:
        for j in range(workloads.HECKE_POOL):
            op = workloads.hecke_op(m, kind, ell, i, j, {})
            canon, _ = op.run()
            out[f"{kind}:{ell}:{i}:{j}"] = gates.digest(canon)
    with open(gates.DIGEST_FILE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(out)} digests written to {gates.DIGEST_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

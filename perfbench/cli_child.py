"""Run the siegelmodp command line in this process under the tracer.

Usage: ``python3 perfbench/cli_child.py ARGS...`` with the environment
variable ``PERFBENCH_TRACE_OUT`` naming the JSON file that receives the
aggregates and spans.  Standard output, standard error and the exit code
are the command's own.
"""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from perfbench.tracing import Tracer  # noqa: E402


def main() -> int:
    import siegelmodp.cli

    tracer = Tracer()
    tracer.install()
    try:
        rc = siegelmodp.cli.run(sys.argv[1:])
    finally:
        tracer.uninstall()
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w",
                  encoding="utf-8") as fh:
            json.dump({"aggregates": tracer.aggregates(),
                       "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())

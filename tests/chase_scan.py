"""Every chased partial Hasse case at p = 5, 7, 11 and 13, at every cutoff K
from 1 to two past the default, one line per outcome, pinned by digest.

    PYTHONPATH=src python3 tests/chase_scan.py > scan.txt

A line is "p phi variant K outcome"; the outcome is the order, or the
refusal with the error it was raised from (``test_strata._chase_outcome``).
The scan has 47,176 lines and takes about half a minute, so it runs as a
step of its own and not under pytest.  It exits 1 when the digest differs.
"""

import hashlib
import sys

from siegelmodp.strata import HASSE_CASES
from test_strata import _chase_outcome

PRIMES = (5, 7, 11, 13)
CASES = (((1, 1), 1), ((1, 1), 2), ((0, 1), None))
LINES = 47176
DIGEST = "99b40d12c359bef326af2dcbb8d8bc71379836ee9c04b809f24c5ca3f4d260cb"


def scan():
    for p in PRIMES:
        for phi, variant in CASES:
            for K in range(1, HASSE_CASES[phi, variant].cutoff(p) + 3):
                yield (f"{p} {phi} {variant} {K} "
                       + _chase_outcome(phi, p, variant, K))


def main() -> int:
    lines = list(scan())
    print("\n".join(lines))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    if len(lines) != LINES or digest != DIGEST:
        print(f"chase scan: {len(lines)} lines, sha256 {digest}; "
              f"expected {LINES} lines, sha256 {DIGEST}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

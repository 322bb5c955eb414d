"""Reference ``%SMF v1`` reader, for differential tests of ``qexp.parse``.

:func:`parse` converts each coefficient line to an index and a tuple of
ints, collects them in a dict with the line of each, and hands the dict to
:func:`construct`, which checks the form entry by entry as the
``QExpansion`` constructor did before ``parse`` checked its entries itself:
the metadata, then each index and vector in line order (semi-positivity,
integrality, length), then the character tables and the parity of chi2.
A refused entry or table is named by its line.  ``qexp.parse`` must return
an equal form, or raise a ``QExpError`` with the same message, for every
text.
"""

from math import gcd

from siegelmodp.arith import _check_prime
from siegelmodp.qexp import QExpansion, QExpError, _int_entry
from siegelmodp.rep import Weight


class _Refused(QExpError):
    def __init__(self, err, key):
        super().__init__(str(err))
        self.key = key


def _index(T):
    a, b, c = T
    where = f"index {T}"
    a, b, c = (_int_entry(a, where), _int_entry(b, where),
               _int_entry(c, where))
    if a < 0 or c < 0 or 4 * a * c - b * b < 0:
        raise QExpError(f"index {T} violates semi-positivity")
    return a, b, c


def construct(p, N, weight, support, chi1=None, chi2=None):
    """The form the ``QExpansion`` constructor builds from these fields,
    checked entry by entry; a refused entry or table raises ``_Refused``
    keyed by the index as given or by "chi1" or "chi2"."""
    _check_prime(p, QExpError)
    if N < 3:
        raise QExpError("level N must be >= 3")
    if gcd(N, p) != 1:
        raise QExpError("level must be coprime to p")
    width = weight.n + 1
    clean = {}
    for key, vec in support.items():
        try:
            T = _index(key)
            vec = tuple(_int_entry(v, f"coefficient at {T}") % p
                        for v in vec)
            if len(vec) != width:
                raise QExpError(f"coefficient at {T} has length "
                                f"{len(vec)}, expected {width}")
        except QExpError as err:
            raise _Refused(err, key) from None
        if any(vec):
            clean[T] = vec
    tables = {}
    for key, tab in (("chi1", chi1), ("chi2", chi2)):
        if tab is not None:
            try:
                if len(tab) != N:
                    raise QExpError(f"{key} table must have N={N} entries")
                tab = tuple(_int_entry(v, f"{key} table") % p for v in tab)
            except QExpError as err:
                raise _Refused(err, key) from None
        tables[key] = tab
    if tables["chi2"] is not None:
        val = tables["chi2"][(-1) % N]
        want = pow(-1, weight.k1 + weight.k2, p)
        if val != want:
            raise QExpError(
                f"parity violation: chi2(-1)={val}, expected {want}")
    F = object.__new__(QExpansion)
    vars(F).update(p=p, N=N, weight=weight, support=clean, **tables)
    return F


def parse(text):
    lines = text.splitlines()
    if not lines or lines[0].strip() != "%SMF v1":
        raise QExpError("line 1: missing %SMF v1 magic")
    headers = {}
    support = {}
    line_of = {}  # header key or coefficient index -> its line number
    for ln, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith("coeff "):
                head, _, tail = line.partition(":")
                parts = head.split()
                if len(parts) != 4:
                    raise QExpError("malformed coeff index")
                T = (int(parts[1]), int(parts[2]), int(parts[3]))
                vec = tuple(map(int, tail.split()))
                if T in support:
                    raise QExpError(f"duplicate index {T}")
                support[T] = vec
                line_of[T] = ln
                continue
            key, _, rest = line.partition(" ")
            if key not in ("p", "N", "weight", "chi1", "chi2"):
                raise QExpError(f"unknown header {key!r}")
            if key in headers:
                raise QExpError(f"duplicate header {key!r}")
            line_of[key] = ln
            if key in ("p", "N"):
                headers[key] = int(rest)
            elif key == "weight":
                k1, k2 = rest.split()
                headers[key] = Weight(int(k1), int(k2))
            else:
                rest = rest.strip()
                if rest == "trivial":
                    headers[key] = None
                elif rest.startswith("table:"):
                    headers[key] = tuple(int(v) for v in rest[6:].split())
                else:
                    raise QExpError(f"bad character spec {rest!r}")
        except ValueError as e:  # QExpError, int() and unpacking
            raise QExpError(f"line {ln}: {e}") from None
    if not {"p", "N", "weight"} <= headers.keys():
        raise QExpError("missing required header (p, N or weight)")
    try:
        return construct(headers["p"], headers["N"], headers["weight"],
                         support, headers.get("chi1"), headers.get("chi2"))
    except _Refused as err:
        raise QExpError(f"line {line_of[err.key]}: {err}") from None

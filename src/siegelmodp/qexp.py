"""Finite-support Fourier expansions of mod p Siegel modular forms.

An expansion records a prime p, a level N (coprime to p, N >= 3), a weight
(k1, k2), two characters on (Z/NZ)^x, and a finite support mapping index
triples T = (a, b, c) — standing for the half-integral matrix
[[a, b/2], [b/2, c]] — to coefficient vectors of length k1 - k2 + 1 in the
monomial basis u_i = e1^(k1-k2-i) e2^i.

The artifact models a single cusp component of the full expansion tuple.

Text format SMF1 (UTF-8, line oriented)::

    %SMF v1
    p 7
    N 3
    weight 4 2
    chi1 trivial
    chi2 table:1 6 1
    # comment
    coeff 1 1 1 : 3 2 5

Canonical serialization sorts indices by (a, c, b); b may be negative.

The ``QExpansion`` constructor and :func:`parse` check each form that enters
the program.  Operators derive results from valid forms through _derive,
unchecked, and keep the constructor's invariant: semi-positive int indices,
nonzero vectors of k1 - k2 + 1 int residues in [0, p), the parity of k1 + k2.

:func:`parse` converts each token once, on its line, into one flat list of
entries.  It checks them after the last line, where p and the weight are
known: the entry count of every line and the semi-positivity of every index
at once, then a reduction mod p only if some entry lies outside [0, p).  A
form that fails goes through the constructor's entry-by-entry walk, which
names the first refused line.  The constructor keeps tuples of int residues
as they are and reads the entries of any other vector one by one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice, starmap
from math import gcd
from operator import itemgetter

from .arith import _check_prime
from .rep import Weight


class QExpError(ValueError):
    """Raised for malformed expansions or format violations.  ``key`` is the
    index, or "chi1" or "chi2", whose check the constructor refused."""
    key = None


def _int_entry(v, where: str) -> int:
    """An index, coefficient or character entry as an int.  It must equal
    its int(): 2.0 passes as 2, while 2.5, 1/2, "1" and None are refused."""
    try:
        i = int(v)
        if i == v:
            return i
    except (TypeError, ValueError, OverflowError):
        pass
    raise QExpError(f"{where} has a non-integer entry")


def _semipositive(a: int, b: int, c: int) -> bool:
    """True when [[a, b/2], [b/2, c]] is semi-positive."""
    return a >= 0 and c >= 0 and 4 * a * c >= b * b


def check_index(T) -> tuple:
    """T as a triple of ints.  Each entry must equal its int() (2.0 passes
    as 2) and [[a, b/2], [b/2, c]] must be semi-positive."""
    a, b, c = T
    if type(a) is int and type(b) is int and type(c) is int:
        index = (a, b, c)
    else:  # a bool, an IntEnum or an integral float becomes its int
        where = f"index {T}"
        index = a, b, c = (_int_entry(a, where), _int_entry(b, where),
                           _int_entry(c, where))
    if not _semipositive(a, b, c):
        raise QExpError(f"index {T} violates semi-positivity")
    return index


def _check_level(N: int, error) -> None:
    """The one lower bound on a level, shared with ``hecke``: N >= 3."""
    if N < 3:
        raise error("level N must be >= 3")


def _check_metadata(p: int, N: int) -> None:
    """The checks of p and N, which come before every other check."""
    _check_prime(p, QExpError)
    _check_level(N, QExpError)
    if gcd(N, p) != 1:
        raise QExpError("level must be coprime to p")


def _residues(entries: list, p: int) -> bool:
    """True when the ints ``entries`` all lie in [0, p) already."""
    return not entries or (min(entries) >= 0 and max(entries) < p)


def _drop_zeros(support: dict, width: int) -> dict:
    zero = (0,) * width
    if zero in support.values():
        return {T: vec for T, vec in support.items() if vec != zero}
    return support


def _checked_support(support: dict, p: int, width: int) -> dict:
    """``support`` with triples of ints as indices and tuples of ``width``
    residues mod p as vectors, zero vectors dropped.  The first entry that
    is refused, in order, raises a QExpError keyed by its index as given."""
    values = support.values()
    # tuples of width residues are kept as they are; else each entry is read
    kept = {*map(type, values)} <= {tuple} and {*map(len, values)} <= {width}
    if kept:
        entries = [*chain.from_iterable(values)]
        kept = {*map(type, entries)} <= {int} and _residues(entries, p)
    clean = {}
    try:
        for key, vec in support.items():
            T = check_index(key)
            if not kept:
                vec = tuple([v % p if type(v) is int else
                             _int_entry(v, f"coefficient at {T}") % p
                             for v in vec])
                if len(vec) != width:
                    raise QExpError(f"coefficient at {T} has length "
                                    f"{len(vec)}, expected {width}")
            clean[T] = vec
    except QExpError as err:
        err.key = key
        raise
    return _drop_zeros(clean, width)


def _check_characters(F) -> None:
    """Check F's character tables, which must have N entries, and replace
    them by tuples of residues mod p; then check chi2(-1) = (-1)^(k1+k2).
    A refused table raises a QExpError keyed by "chi1" or "chi2"."""
    N, p = F.N, F.p
    for key in ("chi1", "chi2"):
        tab = getattr(F, key)
        if tab is not None:
            try:
                if len(tab) != N:
                    raise QExpError(f"{key} table must have N={N} entries")
                object.__setattr__(F, key, tuple([
                    v % p if type(v) is int else
                    _int_entry(v, f"{key} table") % p for v in tab]))
            except QExpError as err:
                err.key = key
                raise
    if F.chi2 is not None:
        val = F.chi2[(-1) % N]
        want = pow(-1, F.weight.k1 + F.weight.k2, p)
        if val != want:
            raise QExpError(
                f"parity violation: chi2(-1)={val}, expected {want}")


@dataclass(frozen=True)
class QExpansion:
    p: int
    N: int
    weight: Weight
    support: dict = field(default_factory=dict)
    chi1: tuple | None = None  # None = trivial; else tuple of N values mod p
    chi2: tuple | None = None

    def __post_init__(self):
        _check_metadata(self.p, self.N)
        object.__setattr__(self, "support", _checked_support(
            self.support, self.p, self.weight.n + 1))
        _check_characters(self)

    def metadata_like(self, other) -> bool:
        return (self.p == other.p and self.N == other.N
                and self.weight == other.weight
                and self.chi1 == other.chi1 and self.chi2 == other.chi2)


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------

def serialize(F: QExpansion) -> str:
    lines = ["%SMF v1", f"p {F.p}", f"N {F.N}",
             f"weight {F.weight.k1} {F.weight.k2}"]
    for name, tab in (("chi1", F.chi1), ("chi2", F.chi2)):
        if tab is None:
            lines.append(f"{name} trivial")
        else:
            lines.append(f"{name} table:" + " ".join(str(v) for v in tab))
    # every entry is an int, so %d prints what str() would
    coeff = "coeff %d %d %d :" + " %d" * (F.weight.n + 1)
    support = F.support
    lines += [coeff % (T + support[T])
              for T in sorted(support, key=itemgetter(0, 2, 1))]
    return "\n".join(lines) + "\n"


def parse(text: str) -> QExpansion:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "%SMF v1":
        raise QExpError("line 1: missing %SMF v1 magic")
    headers = {}
    header_line = {}
    index_line = {}  # coefficient index -> its line number, in line order
    entries = []  # the coefficient entries of every line, in line order
    counts = []  # the number of entries on each coefficient line
    for ln, line in enumerate(lines[1:], start=2):
        line = line.strip()
        try:
            if line.startswith("coeff "):
                head, _, tail = line.partition(":")
                parts = head.split()
                if len(parts) != 4:
                    raise QExpError("malformed coeff index")
                _, a, b, c = parts
                T = (int(a), int(b), int(c))
                start = len(entries)
                entries.extend(map(int, tail.split()))
                counts.append(len(entries) - start)
                if index_line.setdefault(T, ln) != ln:
                    raise QExpError(f"duplicate index {T}")
                continue
            if not line or line.startswith("#"):
                continue
            key, _, rest = line.partition(" ")
            if key not in ("p", "N", "weight", "chi1", "chi2"):
                raise QExpError(f"unknown header {key!r}")
            if key in headers:
                raise QExpError(f"duplicate header {key!r}")
            header_line[key] = ln
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
    p, N, weight = headers["p"], headers["N"], headers["weight"]
    width = weight.n + 1
    # The weight and N may follow the lines that need them, so entries and
    # tables are checked after the last line, in the constructor's order.
    try:
        _check_metadata(p, N)
        if (counts.count(width) == len(counts)
                and all(starmap(_semipositive, index_line))):
            if not _residues(entries, p):
                entries = [v % p for v in entries]
            support = _drop_zeros(
                dict(zip(index_line, zip(*[iter(entries)] * width))), width)
        else:  # the constructor's walk names the first refused entry
            flat = iter(entries)
            support = _checked_support(
                {T: tuple(islice(flat, n))
                 for T, n in zip(index_line, counts)}, p, width)
        F = object.__new__(QExpansion)
        vars(F).update(p=p, N=N, weight=weight, support=support,
                       chi1=headers.get("chi1"), chi2=headers.get("chi2"))
        _check_characters(F)
    except QExpError as err:
        if err.key is None:
            raise
        ln = index_line.get(err.key) or header_line[err.key]
        raise QExpError(f"line {ln}: {err}") from None
    return F


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------

def _derive(F: QExpansion, weight: Weight, support: dict) -> QExpansion:
    """F's p, N and characters with the given weight and support, built
    without the constructor's checks.  Every caller guarantees that each
    index is a semi-positive triple of ints, each vector a nonzero tuple of
    weight.n + 1 residues in [0, p), and that k1 + k2 keeps the parity of
    F's, so the chi2(-1) check still holds."""
    G = object.__new__(QExpansion)
    vars(G).update(p=F.p, N=F.N, weight=weight, support=support,
                   chi1=F.chi1, chi2=F.chi2)
    return G


def is_p_singular(F: QExpansion) -> bool:
    """True when every supported index (a, b, c) has p | a, p | b, p | c."""
    p = F.p
    return all(a % p == 0 and b % p == 0 and c % p == 0 for (a, b, c) in F.support)


def is_weak_p_singular(F: QExpansion) -> bool:
    """True when every supported index has 4ac - b^2 divisible by p."""
    p = F.p
    return all((4 * a * c - b * b) % p == 0 for (a, b, c) in F.support)


def pth_root(F: QExpansion) -> QExpansion | None:
    """For scalar F of weight (k, k) with p | k: the G with F = G^p, if any.

    Returns None when some supported index is not divisible by p.
    """
    if F.weight.n != 0:
        raise QExpError("pth root only defined for scalar-valued expansions")
    k = F.weight.k1
    if k % F.p != 0:
        raise QExpError("weight not p-divisible")
    if not is_p_singular(F):
        return None
    new_support = {(a // F.p, b // F.p, c // F.p): vec
                   for (a, b, c), vec in F.support.items()}
    return _derive(F, Weight(k // F.p, k // F.p), new_support)


def index_scale_up(F: QExpansion) -> QExpansion:
    """Multiply every index by p and the weight by p (inverse of pth_root)."""
    if F.weight.n != 0:
        raise QExpError("index scaling only defined for scalar-valued expansions")
    new_support = {(a * F.p, b * F.p, c * F.p): vec
                   for (a, b, c), vec in F.support.items()}
    return _derive(F, Weight(F.weight.k1 * F.p, F.weight.k2 * F.p),
                   new_support)


def hasse_scale(F: QExpansion, m: int) -> QExpansion:
    """Multiply by the m-th power of the weight-(p-1) form with expansion 1."""
    if m < 0:
        raise QExpError("nonnegative powers only")
    shift = m * (F.p - 1)
    return _derive(F, Weight(F.weight.k1 + shift, F.weight.k2 + shift),
                   dict(F.support))


def linear_combine(pairs) -> QExpansion:
    """F_p-linear combination of expansions sharing all metadata."""
    pairs = list(pairs)
    if not pairs:
        raise QExpError("empty combination")
    _, first = pairs[0]
    p = first.p
    n = first.weight.n
    acc: dict = {}
    for scalar, F in pairs:
        if not F.metadata_like(first):
            raise QExpError("metadata mismatch in linear combination")
        for T, vec in F.support.items():
            cur = acc.get(T, (0,) * (n + 1))
            acc[T] = tuple((x + scalar * y) % p for x, y in zip(cur, vec))
    return _derive(first, first.weight,
                   {T: v for T, v in acc.items() if any(v)})

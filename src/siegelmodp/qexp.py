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
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    if a < 0 or c < 0 or 4 * a * c - b * b < 0:
        raise QExpError(f"index {T} violates semi-positivity")
    return index


def _check_level(N: int, error) -> None:
    """The one lower bound on a level, shared with ``hecke``: N >= 3."""
    if N < 3:
        raise error("level N must be >= 3")


@dataclass(frozen=True)
class QExpansion:
    p: int
    N: int
    weight: Weight
    support: dict = field(default_factory=dict)
    chi1: tuple | None = None  # None = trivial; else tuple of N values mod p
    chi2: tuple | None = None

    def __post_init__(self):
        _check_prime(self.p, QExpError)
        _check_level(self.N, QExpError)
        if gcd(self.N, self.p) != 1:
            raise QExpError("level must be coprime to p")
        p, width = self.p, self.weight.n + 1
        clean = {}
        try:  # a refused entry or table is the error's key
            for key, vec in self.support.items():
                T = check_index(key)
                vec = tuple([v % p if type(v) is int else
                             _int_entry(v, f"coefficient at {T}") % p
                             for v in vec])
                if len(vec) != width:
                    raise QExpError(f"coefficient at {T} has length "
                                    f"{len(vec)}, expected {width}")
                if any(vec):
                    clean[T] = vec
            object.__setattr__(self, "support", clean)
            for key in ("chi1", "chi2"):
                tab = getattr(self, key)
                if tab is not None:
                    if len(tab) != self.N:
                        raise QExpError(f"{key} table must have N={self.N} "
                                        f"entries")
                    object.__setattr__(self, key, tuple([
                        v % p if type(v) is int else
                        _int_entry(v, f"{key} table") % p for v in tab]))
        except QExpError as err:
            err.key = key
            raise
        if self.chi2 is not None:  # chi2(-1) must be (-1)^(k1+k2)
            val = self.chi2[(-1) % self.N]
            want = pow(-1, self.weight.k1 + self.weight.k2, self.p)
            if val != want:
                raise QExpError(
                    f"parity violation: chi2(-1)={val}, expected {want}")

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
        return QExpansion(p=headers["p"], N=headers["N"],
                          weight=headers["weight"], support=support,
                          chi1=headers.get("chi1"), chi2=headers.get("chi2"))
    except QExpError as err:
        # The weight and N may follow the lines that need them, so the
        # constructor checks entries and tables; name the one it refused.
        if err.key is None:
            raise
        raise QExpError(f"line {line_of[err.key]}: {err}") from None


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

"""Symmetric-power representations of GL2 over F_p and the Pieri split.

Conventions
-----------

A weight is a pair ``(k1, k2)`` with ``k1 >= k2``; it labels the
representation Sym^(k1-k2) tensor det^(k2).  A vector of ``V(n, m)``
(Sym^n tensor det^m) is stored in the monomial basis

    ``u_i = e1^(n-i) * e2^i``,  coordinate index i = 0..n.

The Pieri split decomposes V(n, m) tensor V(2, 0) into (up to) three
components V(n+2, m), V(n, m+1), V(n-2, m+2).  They are the transvectants
of the Omega-process (Olver, *Classical Invariant Theory*, ch. 5): the
product, the first transvectant over n+2 and the second over 2n(n+1).
Their closed forms live in one place, the table ``_pieri_table(n, p, r)``,
which keeps only the last one built: for each output index, one flat row
``(i0, w0, i1, w1, i2, w2)`` holding a (source index, weight) pair for each
of the tensor's three columns, the V(n, m) vectors paired with e1^2, e1 e2
and e2^2, with the inverse denominator folded into the weights.  The
projector :func:`pieri_component` sums those terms over given columns;
:func:`pieri_split` fills the columns of a tensor given as a dict and
calls it three times, and ``theta`` reads the table directly.  For n in
{p-2, p-1} only the V(n-2, m+2) component is defined.  At n = p-1 its
denominator 2n(n+1) carries one factor p, which is dropped: the result is
the characteristic-0 projection times p, reduced mod p.  Reassembly is the
dual map: polarization of the first component, and multiplication of the
other two by omega = e1 (x) e2 - e2 (x) e1 and its square.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .arith import _check_prime


@dataclass(frozen=True)
class Weight:
    k1: int
    k2: int

    def __post_init__(self):
        if self.k1 < self.k2:
            raise ValueError(f"weight must have k1 >= k2, got ({self.k1},{self.k2})")

    @property
    def n(self) -> int:
        return self.k1 - self.k2


@dataclass(frozen=True)
class RepVector:
    """Element of V(n, m) = Sym^n tensor det^m with coords on u_i = e1^(n-i) e2^i."""
    n: int
    m: int
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.n + 1:
            raise ValueError(
                f"coordinate vector has length {len(self.coords)}, expected {self.n + 1}")


@dataclass(frozen=True)
class PieriSplit:
    """Result of splitting V(n, m) tensor V(2, 0).

    ``x0`` lies in V(n+2, m), ``x1`` in V(n, m+1), ``x2`` in V(n-2, m+2).
    Components that do not exist for the given (n, p) are None.
    """
    x0: RepVector | None
    x1: RepVector | None
    x2: RepVector | None


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------

def rep_apply(weight: Weight, g, v: RepVector, p: int) -> RepVector:
    """Apply the weight-(k1,k2) action of a 2x2 integer matrix g to v.

    The action substitutes e1 -> a*e1 + c*e2, e2 -> b*e1 + d*e2 for
    g = [[a, b], [c, d]] and multiplies by det(g)^k2.
    """
    _check_prime(p)
    (a, b), (c, d) = g
    det = (a * d - b * c) % p
    if det == 0:
        raise ValueError("matrix is singular mod p")
    n = weight.n
    if v.n != n:
        raise ValueError("vector degree does not match weight")
    detk2 = pow(det, weight.k2, p)
    out = [0] * (n + 1)
    for i, ci in enumerate(v.coords):
        if ci % p == 0:
            continue
        # expand (a e1 + c e2)^(n-i) (b e1 + d e2)^i
        poly = _binomial_expand(a, c, n - i, b, d, i, p)
        for j, cj in enumerate(poly):
            out[j] = (out[j] + ci * detk2 * cj) % p
    return RepVector(n, v.m, tuple(x % p for x in out))


def _binomial_expand(a, c, e1, b, d, e2, p):
    """Coefficients on u_j of (a e1 + c e2)^e1exp * (b e1 + d e2)^e2exp."""
    # first factor: sum_k C(e1,k) a^(e1-k) c^k  e1^(e1-k) e2^k
    out = [0] * (e1 + e2 + 1)
    for k in range(e1 + 1):
        f1 = comb(e1, k) * pow(a % p, e1 - k, p) * pow(c % p, k, p) % p
        if f1 == 0:
            continue
        for l in range(e2 + 1):
            f2 = comb(e2, l) * pow(b % p, e2 - l, p) * pow(d % p, l, p) % p
            if f2 == 0:
                continue
            # e2-power index = k + l
            out[k + l] = (out[k + l] + f1 * f2) % p
    return out


# ---------------------------------------------------------------------------
# the Pieri split
# ---------------------------------------------------------------------------
#
# Write X = e1, Y = e2 and u_i = X^(n-i) Y^i.  A tensor of V(n) (x) V(2) is
# c0 (x) X^2 + c1 (x) XY + c2 (x) Y^2 for three columns c0, c1, c2 in V(n),
# with c[i] = 0 outside 0 <= i <= n.  The Omega-process gives, at index k,
#   x0[k] = c0[k] + c1[k-1] + c2[k-2]
#   x1[k] = ((n-2k) c1[k] - 2(k+1) c0[k+1] + 2(n-k+1) c2[k-1]) / (n+2)
#   x2[k] = (2(k+2)(k+1) c0[k+2] - 2(k+1)(n-k-1) c1[k+1]
#            + 2(n-k)(n-k-1) c2[k]) / (2n(n+1))
# With h, g, q the polynomials of x0, x1, x2 and omega = X (x) Y - Y (x) X,
# the inverse is
#   (h_XX (x) X^2 + 2 h_XY (x) XY + h_YY (x) Y^2) / ((n+2)(n+1))
#   + (g_X (x) X + g_Y (x) Y) omega / n  +  q omega^2.

def _check_degree(n: int, p: int) -> None:
    _check_prime(p)
    if n < 0:
        raise ValueError("negative symmetric degree")
    if n > p - 1:
        raise ValueError("split undefined at this degree")


def _check_component(n: int, p: int, r: int) -> None:
    _check_degree(n, p)
    if r not in (0, 1, 2):
        raise ValueError(f"no Pieri component {r}; choose 0, 1 or 2")


def _check_columns(n: int, cols) -> None:
    if len(cols) != 3 or any(len(c) != n + 1 for c in cols):
        raise ValueError(f"a tensor of V({n}) (x) V(2) has 3 columns of "
                         f"length {n + 1}")


def has_pieri_component(n: int, p: int, r: int) -> bool:
    """Whether component ``x<r>`` of V(n) (x) V(2) exists at 0 <= n <= p-1:
    x0 needs n <= p-3, x1 needs 1 <= n <= p-3, x2 needs n >= 2."""
    return not (r > n or (r < 2 and n >= p - 2))


@lru_cache(maxsize=1)
def _pieri_table(n: int, p: int, r: int) -> tuple | None:
    """The projector onto component ``x<r>`` of V(n) (x) V(2): for each
    output index k, the flat row ``(i0, w0, i1, w1, i2, w2)`` with
    x<r>[k] = w0 * c0[i0] + w1 * c1[i1] + w2 * c2[i2] mod p.

    The weights are the Omega-process coefficients above over their
    denominator (1, n+2 or 2n(n+1), with the factor p of n+1 dropped at
    n = p-1), reduced mod p.  A source outside 0..n reads index 0 with
    weight 0.  None where the component does not exist.  Only the last
    table is kept: theta_j reads one (n, p, r) per form.
    """
    _check_component(n, p, r)
    if not has_pieri_component(n, p, r):
        return None
    denominator = (1, n + 2, 2 * n * (n + 1 if n < p - 1 else 1))[r]
    inverse = pow(denominator, -1, p)
    # each source lies in 0..n, except in the rows of ``edges``
    if r == 0:
        rows = [(k, 1, k - 1, 1, k - 2, 1) for k in range(n + 3)]
        edges = (0, 1, n + 1, n + 2)
    elif r == 1:
        rows = [(k + 1, -2 * (k + 1) * inverse % p,
                 k, (n - 2 * k) * inverse % p,
                 k - 1, 2 * (n - k + 1) * inverse % p)
                for k in range(n + 1)]
        edges = (0, n)
    else:
        rows = [(k + 2, 2 * (k + 2) * (k + 1) * inverse % p,
                 k + 1, -2 * (k + 1) * (n - k - 1) * inverse % p,
                 k, 2 * (n - k) * (n - k - 1) * inverse % p)
                for k in range(n - 1)]
        edges = ()
    for k in edges:
        row = list(rows[k])
        for c in (0, 2, 4):
            if not 0 <= row[c] <= n:
                row[c:c + 2] = (0, 0)
        rows[k] = tuple(row)
    return tuple(rows)


def pieri_component(n: int, p: int, cols, r: int) -> RepVector | None:
    """Component ``x<r>`` (r = 0, 1 or 2) of c0 (x) X^2 + c1 (x) XY + c2 (x) Y^2
    in V(n, 0) tensor V(2, 0), given the columns ``cols = (c0, c1, c2)``.

    The result lies in V(n+2-2r, r).  It is None where the component does
    not exist (:func:`has_pieri_component`).
    """
    _check_component(n, p, r)
    _check_columns(n, cols)
    rows = _pieri_table(n, p, r)
    if rows is None:
        return None
    c0, c1, c2 = cols
    return RepVector(n + 2 - 2 * r, r, tuple([
        (w0 * c0[i0] + w1 * c1[i1] + w2 * c2[i2]) % p
        for i0, w0, i1, w1, i2, w2 in rows]))


def pieri_split(n: int, p: int, x: dict) -> PieriSplit:
    """Split x in V(n, 0) tensor V(2, 0) into its (up to three) components.

    ``x`` maps pairs ``(i, j)``, for u_i tensor e1^(2-j) e2^j, to integers.
    Each component is :func:`pieri_component` of the columns of x, None
    where it does not exist at (n, p).
    """
    _check_degree(n, p)
    cols = [[0] * (n + 1) for _ in range(3)]
    for (i, j), c in x.items():
        if not (0 <= i <= n and 0 <= j <= 2):
            raise ValueError(f"tensor index {(i, j)} out of range for n={n}")
        cols[j][i] = c
    return PieriSplit(*(pieri_component(n, p, cols, r) for r in range(3)))


def pieri_reassemble(split: PieriSplit, n: int, p: int) -> dict:
    """Inverse of :func:`pieri_split` (on present components); external coords.

    Defined for 0 <= n <= p-3, where every component is present.
    """
    _check_prime(p)
    if not 0 <= n <= p - 3:
        raise ValueError(f"split cannot be reassembled at n={n}, p={p}")
    acc = {}

    def add(i, j, c):
        acc[(i, j)] = acc.get((i, j), 0) + c

    if split.x0 is not None:
        r0 = pow((n + 2) * (n + 1), -1, p)
        for k, h in enumerate(split.x0.coords):
            a, b = n + 2 - k, k
            add(k, 0, h * a * (a - 1) * r0)
            add(k - 1, 1, 2 * h * a * b * r0)
            add(k - 2, 2, h * b * (b - 1) * r0)
    if split.x1 is not None and n:  # x1 is absent at n = 0
        r1 = pow(n, -1, p)
        for k, g in enumerate(split.x1.coords):
            a, b = n - k, k
            add(k, 1, g * (a - b) * r1)
            add(k + 1, 0, -g * a * r1)
            add(k - 1, 2, g * b * r1)
    if split.x2 is not None:
        for k, q in enumerate(split.x2.coords):
            add(k, 2, q)
            add(k + 1, 1, -2 * q)
            add(k + 2, 0, q)
    return {key: c % p for key, c in acc.items() if c % p}


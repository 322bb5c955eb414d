"""Theta operators on Fourier expansions.

All operators act coefficientwise on the expansion: the coefficient at index
T = (a, b, c) is tensored with the symmetric-square vector
a e1^2 + b e1 e2 + c e2^2 (scaled by 1/N) and, for the vector-valued
operators, projected onto one irreducible component of the tensor product.
Weight shifts:

=============  =====================================
scalar theta   (k, k)      -> (k + p + 1, k + p - 1)
big theta      (k, k)      -> (k + p + 1, k + p + 1)
theta_1        (k1, k2)    -> (k1 + p - 1, k2 + p + 1)
theta_2        (k1, k2)    -> (k1 + p, k2 + p)
theta_3        (k1, k2)    -> (k1 + p + 1, k2 + p - 1)
=============  =====================================

theta_j keeps Pieri component x(3-j) of Sym^n tensor Sym^2, n = k1 - k2,
and exists exactly where that component does (rep.has_pieri_component).
theta_j maps theta_j_coefficient over the support.  That reads the
component's table in ``rep``, one flat row (i0, w0, i1, w1, i2, w2) per
output entry, and builds no columns: with t = T / N, each output entry is
t0 w0 A_F(T)[i0] + t1 w1 A_F(T)[i1] + t2 w2 A_F(T)[i2], and the table fixes
its length.  Scalar theta is theta_3 on scalar forms.  Big theta
multiplies by a power of det T: it folds the 1/4 of det T into its constant
once per form and drops each index whose multiplier is 0 mod p.

Characters are unchanged.  The constant prefactor 2/3 of the big operator
is used exactly as given.  The closed form of the four-fold theta_2
iterate, with its 1/18, is an oracle in ``tests/theta_oracle.py``, where the
tests measure the constant between it and the literal iterate.
"""

from __future__ import annotations

from .qexp import QExpansion, _derive
from .rep import (RepVector, Weight, _check_columns, _check_component,
                  _pieri_table, has_pieri_component)
# theta does not call pieri_split; the benchmark's tracer tests still look
# it up as theta.pieri_split
from .rep import pieri_split  # noqa: F401


class ThetaError(ValueError):
    pass


def _require_scalar(F: QExpansion, name: str):
    if F.weight.n != 0:
        raise ThetaError(f"{name} requires scalar weight, got "
                         f"({F.weight.k1},{F.weight.k2})")


def theta_scalar(F: QExpansion) -> QExpansion:
    """Scalar theta: coefficient at T becomes (1/N) A_F(T) (a, b, c) in V(2).
    It is theta_3 at k1 = k2."""
    _require_scalar(F, "theta_scalar")
    return theta_j(F, 3)


def big_theta(F: QExpansion, m: int = 1) -> QExpansion:
    """Scalar-to-scalar operator: multiplier ((2/3) det(T) / N^2)^m at T,
    where det T = (4ac - b^2)/4 is the determinant of the half-integral
    matrix of T = (a, b, c).  The 1/4 is folded into the constant once per
    form, and an index whose multiplier is 0 mod p is dropped.  The weight
    keeps the parity of k1 + k2."""
    _require_scalar(F, "big_theta")
    if m < 1:
        raise ThetaError("iterate count must be >= 1")
    p = F.p
    k = F.weight.k1
    # (2/3) / N^2 with the 1/4 of det T folded in
    c = pow(6 * F.N * F.N, -1, p)
    support = {}
    for T, vec in F.support.items():
        a, b, cc = T
        mult = pow(c * (4 * a * cc - b * b) % p, m, p)
        if mult:
            support[T] = tuple([mult * v % p for v in vec])
    return _derive(F, Weight(k + m * (p + 1), k + m * (p + 1)), support)


_WEIGHT_SHIFT = {1: (-1, +1), 2: (0, 0), 3: (+1, -1)}


def _check_domain(n: int, p: int, j: int):
    if j not in (1, 2, 3):
        raise ThetaError("j must be 1, 2 or 3")
    if n > p - 1 or not has_pieri_component(n, p, 3 - j):
        raise ThetaError(f"theta_{j} is undefined at k1-k2={n}, p={p}: "
                         f"Sym^{n} (x) Sym^2 has no Pieri component "
                         f"x{3 - j} there")


def theta_j_coefficient(vec, T, n: int, p: int, N: int, j: int) -> RepVector:
    """The coefficient of theta_j(F) at T, given A_F(T) = vec: the Pieri
    component x(3-j) of f (x) (a X^2 + b XY + c Y^2), f = vec / N.  Its
    columns are a f, b f and c f, so each output entry is
    t0 w0 vec[i0] + t1 w1 vec[i1] + t2 w2 vec[i2] over a row
    (i0, w0, i1, w1, i2, w2) of the Pieri table, with t = T / N."""
    if j not in (1, 2, 3):
        _check_domain(n, p, j)
    r = 3 - j
    if len(vec) != n + 1:
        # refused before any table is built; a bad p or n is named first
        _check_component(n, p, r)
        _check_columns(n, (vec, vec, vec))
    rows = _pieri_table(n, p, r)
    if rows is None:
        _check_domain(n, p, j)
    try:
        ninv = pow(N, -1, p)
    except ValueError:
        raise ThetaError("level must be coprime to p") from None
    a, b, c = T
    a, b, c = a * ninv % p, b * ninv % p, c * ninv % p
    # the table fixes the length, so the vector is built unchecked
    out = object.__new__(RepVector)
    vars(out).update(n=n + 2 - 2 * r, m=r, coords=tuple([
        (a * w0 * vec[i0] + b * w1 * vec[i1] + c * w2 * vec[i2]) % p
        for i0, w0, i1, w1, i2, w2 in rows]))
    return out


def theta_j(F: QExpansion, j: int) -> QExpansion:
    """Vector-valued theta operator: tensor with the index, Pieri-project.
    Each weight here keeps the parity of k1 + k2."""
    p, N = F.p, F.N
    n = F.weight.n
    _check_domain(n, p, j)
    support = {}
    for T, vec in F.support.items():
        new = theta_j_coefficient(vec, T, n, p, N, j).coords
        if any(new):
            support[T] = new
    d1, d2 = _WEIGHT_SHIFT[j]
    return _derive(F, Weight(F.weight.k1 + p + d1, F.weight.k2 + p + d2),
                   support)


def big_theta_composite(F: QExpansion) -> QExpansion:
    """big_theta(F, 1) computed by the two-step path theta_1(theta_scalar(F)),
    relabelled from weight (k + 2p, k + 2p) to (k + p + 1, k + p + 1)."""
    G = theta_j(theta_scalar(F), 1)
    k = F.weight.k1 + F.p + 1
    return _derive(G, Weight(k, k), G.support)

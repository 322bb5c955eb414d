"""GL2(Z)-equivariant vector-valued coefficient data on a box, as test
fixtures for operators that must keep equivariance.

A level-one form of weight (k1, k2) satisfies

    A(U T U^t) = rho(U) A(T)    for every U in GL2(Z) (det +-1),

where rho is ``rep.rep_apply`` at that weight and T -> U T U^t is
``hecke.index_transform``.  The matrix -I fixes every T and acts by
(-1)^n, n = k1 - k2, so n must be even.  At level N the coefficient at T
sits at index N*T.

:func:`equivariant_form` builds such data on every positive-definite T with
a, c <= box.  It reduces T to the one form R of its GL2(Z) class with
0 <= b <= a <= c, keeping the U with U T U^t = R.  It draws one random
vector per class and averages it over the stabilizer of R: the matrices of
:data:`SMALL` that fix R, at most 12 of them, so their count is a unit mod
p >= 5.  Then A(T) = rho(U^-1) A(R).  :func:`violations` lists the pairs
(T, U), U in :data:`SMALL`, at which a form breaks the identity.
"""

import random
from itertools import product
from math import isqrt

from siegelmodp.hecke import index_transform
from siegelmodp.qexp import QExpansion
from siegelmodp.rep import RepVector, rep_apply

# the integer matrices with entries in {-1, 0, 1} and det +-1
SMALL = tuple(((a, b), (c, d)) for a, b, c, d in product((-1, 0, 1), repeat=4)
              if a * d - b * c in (1, -1))


def _mul(g, h):
    (a, b), (c, d) = g
    (e, f), (x, y) = h
    return ((a * e + b * x, a * f + b * y), (c * e + d * x, c * f + d * y))


def _inverse(g):
    (a, b), (c, d) = g
    det = a * d - b * c  # +-1
    return ((det * d, -det * b), (-det * c, det * a))


def reduce_gl2(T) -> tuple:
    """(R, U) with R = U T U^t and 0 <= b <= a <= c, for a positive-definite
    T = (a, b, c)."""
    R, U = T, ((1, 0), (0, 1))
    while True:
        a, b, c = R
        if c < a:
            g = ((0, 1), (1, 0))                  # (a, b, c) -> (c, b, a)
        elif not -a < b <= a:
            g = ((1, 0), ((a - b) // (2 * a), 1))  # b -> b + 2at in (-a, a]
        elif b < 0:
            g = ((1, 0), (0, -1))                 # b -> -b
        else:
            return R, U
        R, U = index_transform(g, R), _mul(g, U)


def box_indices(box: int, N: int) -> set:
    """The indices N*T of the positive-definite T = (a, b, c), a, c <= box."""
    return {(N * a, N * b, N * c)
            for a in range(1, box + 1) for c in range(1, box + 1)
            for b in range(-isqrt(4 * a * c - 1), isqrt(4 * a * c - 1) + 1)}


def equivariant_form(p: int, N: int, weight, box: int,
                     seed: int = 0) -> QExpansion:
    """A form of level N whose coefficients on :func:`box_indices` are
    GL2(Z)-equivariant at ``weight`` (k1 - k2 even), zero elsewhere."""
    rng = random.Random(seed)
    n, k2 = weight.n, weight.k2
    by_class = {}
    support = {}
    for index in sorted(box_indices(box, N)):
        R, U = reduce_gl2(tuple(x // N for x in index))
        if R not in by_class:
            v = RepVector(n, k2, tuple(rng.randrange(p) for _ in range(n + 1)))
            stab = [g for g in SMALL if index_transform(g, R) == R]
            total = [sum(col) for col in zip(*(rep_apply(weight, g, v, p).coords
                                               for g in stab))]
            inv = pow(len(stab), -1, p)
            by_class[R] = RepVector(n, k2, tuple(x * inv % p for x in total))
        support[index] = rep_apply(weight, _inverse(U), by_class[R], p).coords
    return QExpansion(p=p, N=N, weight=weight, support=support)


def violations(G: QExpansion, indices) -> tuple:
    """(bad, checked): the pairs (T, U) with T and U T U^t in ``indices`` and
    U in :data:`SMALL`, and those among them where
    A_G(U T U^t) != rho(U) A_G(T) at G's weight."""
    indices = set(indices)
    zero = (0,) * (G.weight.n + 1)
    bad, checked = [], 0
    for T in sorted(indices):
        v = RepVector(G.weight.n, G.weight.k2, G.support.get(T, zero))
        for U in SMALL:
            T2 = index_transform(U, T)
            if T2 in indices:
                checked += 1
                if G.support.get(T2, zero) != \
                        rep_apply(G.weight, U, v, G.p).coords:
                    bad.append((T, U))
    return bad, checked

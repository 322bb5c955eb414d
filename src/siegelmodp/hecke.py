"""Hecke operators acting on Fourier coefficients of degree-2 forms.

The operator T(ell^i), for a prime ell coprime to p*N, acts on an expansion F
of weight (k1, k2) through

    A_{T(ell^i)F}(T) =
      sum_{alpha+beta+gamma=i} chi1(ell^beta) chi2(ell^gamma)
        * ell^(beta(k1-2) + gamma(k1+k2-3))
        * sum_{U in R(ell^beta), divisibility filter}
            rho_n((diag(1, ell^beta) U)^(-1)) . A_F(T')

where n = k1 - k2, the filter keeps U with ell^(beta+gamma) | a_U and
ell^gamma | b_U, c_U for U T tU = [[a_U, b_U/2], [b_U/2, c_U]], and
T' = ell^alpha * (a_U ell^(-beta-gamma), b_U ell^(-gamma), c_U ell^(beta-gamma)).

R(ell^beta) is a set of determinant-1 integer matrices, congruent to the
identity mod N, whose first rows enumerate P^1(Z/ell^beta).

ell is checked by ``arith._check_ell``, the rule that ``galois`` shares: a
prime below the bound of the primality test, else :class:`HeckeError`.

The ell-exponents are always taken at the expansion's own weight.  Each
coefficient enumerates its branches once, with the caller's lift scheme: the
completeness check reads the indices T' of exactly the branches that the sum
uses, so an absent input is an error, never a silent zero.

The parts of the sum that do not depend on F or T are built once per
operator and kept in a small LRU cache keyed by (ell, i, N, n, p, scheme,
seed): for each beta <= i, the lifts R(ell^beta) as a tuple of frozen
:class:`P1Rep`, and for each lift the matrix of
ell^(-n beta) Sym^n(adj(diag(1, ell^beta) U)) mod p as a tuple of rows.
The cache holds only immutable values, and ``p1_representatives`` still
returns a fresh list to its callers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .arith import _check_ell, _check_prime
from .qexp import QExpansion, check_index
from .rep import RepVector, Weight, rep_apply


class HeckeError(ValueError):
    pass


@dataclass(frozen=True)
class P1Rep:
    matrix: tuple  # ((a, b), (c, d)) over the integers


# ---------------------------------------------------------------------------
# representatives of P^1(Z / ell^beta) lifted into the level-N congruence group
# ---------------------------------------------------------------------------

def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _crt(r1, m1, r2, m2):
    g, x, _ = _xgcd(m1, m2)
    assert g == 1
    return (r1 + (r2 - r1) * x % m2 * m1) % (m1 * m2)


def p1_classes(ell: int, beta: int):
    """Canonical representatives of P^1(Z/ell^beta): (1, y) and (ell*z, 1)."""
    if beta == 0:
        return [(1, 0)]
    q = ell ** beta
    classes = [(1, y) for y in range(q)]
    classes += [((ell * z) % q, 1) for z in range(ell ** (beta - 1))]
    return classes


def _complete_matrix(u1: int, u2: int, N: int, rng) -> tuple:
    """Complete a coprime first row ==(1,0) mod N to an SL2 matrix == 1 mod N."""
    g, d, c = _xgcd(u1, u2)
    assert g == 1
    # current second row (x, y) with u1*y - u2*x = 1
    x, y = -c, d
    # shift second row by k*(u1, u2) so that it becomes == (0, 1) mod N;
    # since (u1, u2) == (1, 0) mod N we need k == -x mod N
    k = (-x) % N
    if rng is not None:
        k += N * rng.randrange(0, 5)
    x, y = x + k * u1, y + k * u2
    assert u1 * y - u2 * x == 1
    assert x % N == 0 and y % N == 1
    return ((u1, u2), (x, y))


# The largest number of lifts in a plan, 1 + sum over 1 <= beta <= i of
# ell^beta + ell^(beta-1).  A lift costs 15-35 ms at n = 100: the plan of
# T(2^5) (94 lifts) takes 2.4 s there, that of T(13^2) (197 lifts) 3.3 s
# and that of T(2^7) (382 lifts) 10.8 s.
_MAX_LIFTS = 100


def _check_lifts(ell: int, i: int) -> None:
    """Refuse T(ell^i) before a lift is built if its plan would hold more
    than _MAX_LIFTS lifts.  The plan of T(ell^beta), beta <= i, is no
    larger, so every lift of an admitted operator is admitted too."""
    lifts, power = 1, 1
    for _ in range(i):  # stops as soon as the count passes the bound
        lifts += ell * power + power
        power *= ell
        if lifts > _MAX_LIFTS:
            raise HeckeError(f"Hecke operators run with at most "
                             f"{_MAX_LIFTS} lifts, T({ell}^{i}) needs more")


def p1_representatives(ell: int, beta: int, N: int,
                       scheme: str = "crt", seed: int = 0) -> list[P1Rep]:
    """Determinant-1 lifts of P^1(Z/ell^beta), congruent to 1 mod N.

    ``scheme`` selects the lifting strategy: "crt" (minimal CRT lift) or
    "random" (randomized lifts, for representative-independence tests).
    It refuses the lifts of a beta whose T(ell^beta) the operators refuse.
    """
    _check_ell(ell, HeckeError)
    if gcd(ell, N) != 1:
        raise HeckeError("ell must be coprime to the level")
    if scheme not in ("crt", "random"):
        raise HeckeError(f"unknown lift scheme {scheme!r}; "
                         "choose 'crt' or 'random'")
    _check_lifts(ell, beta)
    rng = random.Random(seed) if scheme == "random" else None
    q = ell ** beta
    out = []
    for (v1, v2) in p1_classes(ell, beta):
        if beta == 0:
            u1, u2 = 1, 0
        else:
            u1 = _crt(v1, q, 1, N)
            u2 = _crt(v2, q, 0, N)
            if rng is not None:
                u1 += q * N * rng.randrange(0, 3)
                u2 += q * N * rng.randrange(0, 3)
            # ensure the row is coprime (adjust by multiples of q*N, which
            # changes neither the P^1 class nor the mod-N congruence)
            while gcd(u1, u2) != 1:
                u2 += q * N
        out.append(P1Rep(_complete_matrix(u1, u2, N, rng)))
    return out


# ---------------------------------------------------------------------------
# index transforms
# ---------------------------------------------------------------------------

def index_transform(U, T):
    """a_U, b_U, c_U with U T tU = [[a_U, b_U/2], [b_U/2, c_U]], integrally."""
    (u1, u2), (x, y) = U
    a, b, c = T
    a_U = a * u1 * u1 + b * u1 * u2 + c * u2 * u2
    c_U = a * x * x + b * x * y + c * y * y
    b_U = 2 * (a * u1 * x + c * u2 * y) + b * (u1 * y + u2 * x)
    return a_U, b_U, c_U


def _branches(ell: int, i: int, T, lifts_by_beta):
    """Yield (beta, gamma, k, T') over all contributing branches.

    ``k`` indexes the lift U in ``lifts_by_beta[beta]``.  U T tU is computed
    once per (beta, U); the gamma filters are nested, so the first failing
    gamma ends the loop.
    """
    power = [ell ** j for j in range(i + 1)]
    for beta in range(i + 1):
        lb = power[beta]
        for k, rep in enumerate(lifts_by_beta[beta]):
            a_U, b_U, c_U = index_transform(rep.matrix, T)
            for gamma in range(i - beta + 1):
                lg = power[gamma]
                lbg = lb * lg
                if a_U % lbg or b_U % lg or c_U % lg:
                    break
                la = power[i - beta - gamma]
                yield beta, gamma, k, (la * (a_U // lbg),
                                       la * (b_U // lg),
                                       la * (c_U // lg) * lb)


def required_indices(ell: int, i: int, T, N: int) -> set:
    """The input indices read by :func:`hecke_coefficient` at T (CRT lifts)."""
    _check_ell(ell, HeckeError)
    _check_lifts(ell, i)
    lifts = [p1_representatives(ell, beta, N) for beta in range(i + 1)]
    return {T2 for *_, T2 in _branches(ell, i, check_index(T), lifts)}


# ---------------------------------------------------------------------------
# the operator
# ---------------------------------------------------------------------------

# The largest k1 - k2 = n of a form the operators take.  A plan costs
# O(n^3) per lift and keeps (n+1)^2 entries per lift: with one target at
# p = 5, T(2) takes 0.16-0.29 s at n = 100, 1.05 s at n = 200 and 4.4 s at
# n = 300; T(3^2) takes 0.31 s at n = 100.
_MAX_N = 100


def _check_operator(F: QExpansion, ell: int, i: int) -> None:
    """Reject T(ell^i) unless i >= 0, ell is a prime coprime to p and the
    level, k1 - k2 <= _MAX_N and the plan has at most _MAX_LIFTS lifts
    (:func:`_check_lifts`)."""
    _check_ell(ell, HeckeError)
    if i < 0:
        raise HeckeError(f"power i must be >= 0, got {i}")
    if ell % F.p == 0 or gcd(ell, F.N) != 1:
        raise HeckeError("ell must be coprime to p and the level")
    if F.weight.n > _MAX_N:
        raise HeckeError(f"Hecke operators run at k1-k2 <= {_MAX_N}, "
                         f"got {F.weight.n}")
    _check_lifts(ell, i)


# Plans of the operators in use.  One takes about 2 kB for a scalar T(2),
# 32 kB at ell = 3, i = 2, n = 10 and 160 kB at n = 30.
_PLAN_CACHE_SIZE = 32


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(ell: int, i: int, N: int, n: int, p: int, scheme: str,
          seed: int) -> tuple:
    """(lifts, matrices), each a tuple indexed by beta <= i.

    ``lifts[beta]`` are the lifts of P^1(Z/ell^beta).  The matrix of a lift
    U is ell^(-n beta) Sym^n(adj(diag(1, ell^beta) U)) mod p, as rows: row t
    is the image of the basis vector u_t.
    """
    linv = pow(ell % p, p - 2, p)
    weight = Weight(n, 0)
    basis = [RepVector(n, 0, tuple(int(s == t) for s in range(n + 1)))
             for t in range(n + 1)]
    lifts_by_beta, matrices_by_beta = [], []
    for beta in range(i + 1):
        lifts = tuple(p1_representatives(ell, beta, N, scheme=scheme,
                                         seed=seed))
        lb = ell ** beta
        scale = pow(linv, n * beta, p)
        matrices = []
        for rep in lifts:
            # rho_n((diag(1, ell^beta) U)^(-1)) = ell^(-n beta) Sym^n(adj D)
            (u1, u2), (x, y) = rep.matrix
            adj = ((lb * y, -u2), (-lb * x, u1))
            matrices.append(tuple(
                tuple(scale * c % p for c in rep_apply(weight, adj, e, p).coords)
                for e in basis))
        lifts_by_beta.append(lifts)
        matrices_by_beta.append(tuple(matrices))
    return tuple(lifts_by_beta), tuple(matrices_by_beta)


def hecke_coefficient(F: QExpansion, ell: int, i: int, T,
                      assume_complete: bool = False,
                      scheme: str = "crt", seed: int = 0) -> RepVector:
    """Coefficient of T(ell^i)F at index T.

    The lifts of P^1(Z/ell^beta) come from the cached plan of
    (ell, i, N, n, p, ``scheme``, ``seed``) and their branches are
    enumerated once.  Unless ``assume_complete`` is set, every index T'
    those branches read must be in F's support, otherwise
    :class:`HeckeError` names the missing ones; with it set, absent inputs
    count as zero.
    """
    T = check_index(T)
    _check_operator(F, ell, i)
    p = F.p
    k1, k2 = F.weight.k1, F.weight.k2
    n = F.weight.n
    lifts, matrices = _plan(ell, i, F.N, n, p, scheme, seed)
    # mult[beta][gamma] = chi1(ell^beta) chi2(ell^gamma)
    #                      * ell^(beta(k1-2) + gamma(k1+k2-3))
    e1, e2 = pow(ell % p, k1 - 2, p), pow(ell % p, k1 + k2 - 3, p)
    f1 = [F.chi1_at(ell ** j) * pow(e1, j, p) for j in range(i + 1)]
    f2 = [F.chi2_at(ell ** j) * pow(e2, j, p) for j in range(i + 1)]
    mult = [[x * y % p for y in f2] for x in f1]

    branches = list(_branches(ell, i, T, lifts))
    support = F.support
    if not assume_complete:
        missing = sorted({T2 for *_, T2 in branches}.difference(support))
        if missing:
            raise HeckeError(f"missing required indices: {missing}")

    out = [0] * (n + 1)
    for beta, gamma, k, T2 in branches:
        coeff_vec = support.get(T2)
        m = mult[beta][gamma]
        if coeff_vec is None or m == 0:
            continue
        for c, row in zip(coeff_vec, matrices[beta][k]):
            if c:
                c *= m
                out = [o + c * r for o, r in zip(out, row)]
    return RepVector(n, k2, tuple(o % p for o in out))


def eigenvalue(F: QExpansion, ell: int, i: int,
               assume_complete: bool = False) -> tuple:
    """Eigenvalue of T(ell^i) on F, with a per-index consistency report.

    Returns ``(lam, report)`` where report is a list of
    ``(T, matches: bool)`` over every supported index with computable
    Hecke coefficient.
    """
    _check_operator(F, ell, i)
    if not F.support:
        raise HeckeError("zero expansion has no eigenvalue")
    p = F.p
    lam = None
    report = []
    for T in sorted(F.support):
        try:
            img = hecke_coefficient(F, ell, i, T, assume_complete=assume_complete)
        except HeckeError:
            continue
        vec = F.support[T]
        lead = next((t for t, c in enumerate(vec) if c % p), None)
        if lam is None and lead is not None:
            lam = img.coords[lead] * pow(vec[lead], p - 2, p) % p
        matches = all((img.coords[t] - (lam or 0) * vec[t]) % p == 0
                      for t in range(len(vec)))
        report.append((T, matches))
    if lam is None:
        raise HeckeError("no checkable index")
    return lam, report


def gauss_reduce(T) -> tuple:
    """Canonical representative of the proper (SL2(Z)) equivalence class of T.

    T = (a, b, c) stands for the positive semi-definite integral binary
    quadratic form a x^2 + b xy + c y^2.  Definite forms are reduced to
    -a < b <= a <= c (with b >= 0 when a == c); rank-1 forms reduce to
    (d, 0, 0) with d = gcd(a, b, c); the zero form to (0, 0, 0).

    Coefficient data that factors through this reduction is invariant under
    every choice of representative lift in the Hecke sum.
    """
    a, b, c = check_index(T)
    if 4 * a * c - b * b == 0:
        return (gcd(gcd(a, b), c), 0, 0)
    while True:
        if c < a or (c == a and b < 0):
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            # shift b into (-a, a] via (x, y) -> (x + t y, y)
            t = (a - b) // (2 * a)
            a, b, c = a, b + 2 * t * a, c + t * b + t * t * a
            continue
        return (a, b, c)


def constant_term_multiplier(ell: int, k: int, p: int) -> int:
    """Closed form 1 + (ell+1) ell^(k-2) + ell^(2k-3) mod p for scalar weight k."""
    _check_prime(p, HeckeError)
    return (1 + (ell + 1) * pow(ell, k - 2, p) + pow(ell, 2 * k - 3, p)) % p

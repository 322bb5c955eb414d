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

One rule, :func:`_check_lifts`, admits (ell, i, N) for the operators and the
public lift builders alike, before a lift is built, else :class:`HeckeError`.

The ell-exponents are always taken at the expansion's own weight.  Each
coefficient is summed in one pass over its branches, with the caller's lift
scheme, and the completeness check reads the indices T' of exactly the
branches that the sum uses: the first absent input ends the sum, so an
absent input is an error, never a silent zero.  Only that error path
enumerates the branches a second time, to name every absent input.

The parts of the sum that do not depend on T are built once per operator
and kept in three small LRU caches of immutable values: the lift table of
:func:`_lifts`, which one enumerator reads for the sum and for
``required_indices``, the plan of :func:`_plan`, and the character and
ell-power multipliers of :func:`_multipliers`.  ``eigenvalue`` and
``hecke_image`` (T(ell^i)F at a list of target indices) set their operator
up once; ``p1_representatives`` returns a fresh list.

:func:`reduce_gl2` sends an index T to the one form R of its GL2(Z) class,
with the matrix U that does it, R = U T U^t.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt
from operator import mul

from .arith import _check_ell, _check_prime
from .qexp import QExpansion, _check_level, _derive, check_index
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
    return (r1 + (r2 - r1) * pow(m1, -1, m2) % m2 * m1) % (m1 * m2)


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


def _check_lifts(ell: int, i: int, N: int) -> None:
    """The one rule for T(ell^i) at level N: ints (no bool), ell prime,
    i >= 0, N >= 3, gcd(ell, N) = 1, at most _MAX_LIFTS lifts.  Every lift
    T(ell^beta), beta <= i, of an admitted operator is admitted too."""
    for name, value in (("ell", ell), ("i", i), ("N", N)):
        if type(value) is not int:
            raise HeckeError(f"{name} must be an int, got {value!r}")
    _check_ell(ell, HeckeError)
    if i < 0:
        raise HeckeError(f"power i must be >= 0, got {i}")
    _check_level(N, HeckeError)
    if gcd(ell, N) != 1:
        raise HeckeError("ell must be coprime to the level")
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
    _check_lifts(ell, beta, N)
    if scheme not in ("crt", "random"):
        raise HeckeError(f"unknown lift scheme {scheme!r}; "
                         "choose 'crt' or 'random'")
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


def reduce_gl2(T) -> tuple:
    """(R, U) with R = index_transform(U, T) and det U = +-1: R is the one
    form of the GL2(Z) class of the semi-positive index T.

    A definite T reduces to 0 <= b <= a <= c.  A degenerate T != 0 is
    m (s x + t y)^2 with m = gcd(a, c) = gcd(a, b, c), s = sqrt(a/m) and
    t = +-sqrt(c/m) of the sign of b; U = ((u1, u2), (t, -s)) with
    s u1 + t u2 = +-1 sends it to (m, 0, 0).  The zero T is its own R, with
    U the identity.
    """
    a, b, c = T = check_index(T)
    if b * b == 4 * a * c:
        if not (a or c):
            return T, ((1, 0), (0, 1))
        m = gcd(a, c)
        s, t = isqrt(a // m), isqrt(c // m)
        if b < 0:
            t = -t
        _, u1, u2 = _xgcd(s, t)
        return (m, 0, 0), ((u1, u2), (t, -s))
    R, U = T, ((1, 0), (0, 1))
    while True:
        a, b, c = R
        (u1, u2), (x, y) = U
        if c < a:  # (a, b, c) -> (c, b, a)
            g, U = ((0, 1), (1, 0)), ((x, y), (u1, u2))
        elif not -a < b <= a:  # b -> b + 2at in (-a, a]
            t = (a - b) // (2 * a)
            g, U = ((1, 0), (t, 1)), ((u1, u2), (x + t * u1, y + t * u2))
        elif b < 0:  # b -> -b
            g, U = ((1, 0), (0, -1)), ((u1, u2), (-x, -y))
        else:
            return R, U
        R = index_transform(g, R)


# Lift tables, plans and multiplier tables of the operators in use, each
# cache of this size.  A plan takes about 2 kB for a scalar T(2), 32 kB at
# ell = 3, i = 2, n = 10 and 160 kB at n = 30; a lift table holds at most
# _MAX_LIFTS small tuples, and a multiplier table (i+1)^2 residues mod p.
_PLAN_CACHE_SIZE = 32


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _lifts(ell: int, i: int, N: int, scheme: str, seed: int) -> tuple:
    """The lift table of T(ell^i): one entry (beta, U, products, steps) per
    lift U = ((u1, u2), (x, y)) of P^1(Z/ell^beta), beta <= i, in order.

    ``products`` are u1^2, u1 u2, u2^2, x^2, x y, y^2, 2 u1 x, u1 y + u2 x
    and 2 u2 y, the coefficients of a, b, c in a_U, c_U and b_U.
    ``steps[gamma]`` is (ell^(beta+gamma), ell^gamma, ell^alpha,
    ell^(alpha+beta)) with alpha = i - beta - gamma: the divisors of the
    gamma filter and the factors of T'.
    """
    power = [ell ** j for j in range(i + 1)]
    table = []
    for beta in range(i + 1):
        steps = tuple((power[beta + g], power[g], power[i - beta - g],
                       power[i - g]) for g in range(i - beta + 1))
        for rep in p1_representatives(ell, beta, N, scheme=scheme, seed=seed):
            (u1, u2), (x, y) = U = rep.matrix
            table.append((beta, U, (u1 * u1, u1 * u2, u2 * u2, x * x, x * y,
                                    y * y, 2 * u1 * x, u1 * y + u2 * x,
                                    2 * u2 * y), steps))
    return tuple(table)


def _branches(lifts: tuple, T):
    """Yield (k, beta, gamma, T') over the branches of T that pass the
    divisibility filter; ``k`` indexes the lift in the table ``lifts``.
    A lift whose a_U ell^beta does not divide has no branch, so b_U and c_U
    are left uncomputed; the gamma filters are nested, so the first failing
    gamma ends the loop.
    """
    a, b, c = T
    for k, (beta, _, (aa, ab, ac, ca, cb, cc, ba, bb, bc),
            steps) in enumerate(lifts):
        a_U = a * aa + b * ab + c * ac
        if a_U % steps[0][0]:  # ell^beta divides a_U on every branch
            continue
        b_U = a * ba + b * bb + c * bc
        c_U = a * ca + b * cb + c * cc
        for gamma, (lbg, lg, la, lab) in enumerate(steps):
            if a_U % lbg or b_U % lg or c_U % lg:
                break
            yield k, beta, gamma, (la * (a_U // lbg), la * (b_U // lg),
                                   lab * (c_U // lg))


def _reads(lifts: tuple, T: tuple) -> set:
    """The indices T' that the branches of the checked index T read."""
    return {T2 for *_, T2 in _branches(lifts, T)}


def required_indices(ell: int, i: int, T, N: int) -> set:
    """The input indices read by :func:`hecke_coefficient` at T (CRT lifts)."""
    _check_lifts(ell, i, N)
    return _reads(_lifts(ell, i, N, "crt", 0), check_index(T))


# ---------------------------------------------------------------------------
# the operator
# ---------------------------------------------------------------------------

# The largest k1 - k2 = n of a form the operators take.  A plan costs
# O(n^3) per lift and keeps (n+1)^2 entries per lift: with one target at
# p = 5, T(2) takes 0.16-0.29 s at n = 100, 1.05 s at n = 200 and 4.4 s at
# n = 300; T(3^2) takes 0.31 s at n = 100.
_MAX_N = 100


def _check_operator(F: QExpansion, ell: int, i: int) -> None:
    """Reject T(ell^i) on F unless :func:`_check_lifts` admits it at F's
    level, ell is coprime to p and k1 - k2 <= _MAX_N."""
    _check_lifts(ell, i, F.N)
    if ell % F.p == 0:
        raise HeckeError("ell must be coprime to p")
    if F.weight.n > _MAX_N:
        raise HeckeError(f"Hecke operators run at k1-k2 <= {_MAX_N}, "
                         f"got {F.weight.n}")


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(ell: int, i: int, N: int, n: int, p: int, scheme: str,
          seed: int) -> tuple:
    """For each lift U of :func:`_lifts`, in its order, the matrix
    ell^(-n beta) Sym^n(adj(diag(1, ell^beta) U)) mod p as a tuple of
    columns: entry t of column s is coordinate s of the image of u_t.
    """
    linv = pow(ell, -1, p)  # _check_operator refuses ell = p
    weight = Weight(n, 0)
    basis = [RepVector(n, 0, tuple(int(s == t) for s in range(n + 1)))
             for t in range(n + 1)]
    plan = []
    for beta, ((u1, u2), (x, y)), _, _ in _lifts(ell, i, N, scheme, seed):
        # rho_n((diag(1, ell^beta) U)^(-1)) = ell^(-n beta) Sym^n(adj D)
        lb = ell ** beta
        adj = ((lb * y, -u2), (-lb * x, u1))
        scale = pow(linv, n * beta, p)
        images = [rep_apply(weight, adj, e, p).coords for e in basis]
        plan.append(tuple(tuple(scale * c % p for c in col)
                          for col in zip(*images)))
    return tuple(plan)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _multipliers(ell: int, i: int, p: int, N: int, k1: int, k2: int,
                 chi1: tuple | None, chi2: tuple | None) -> tuple:
    """mult[beta][gamma] = chi1(ell^beta) chi2(ell^gamma)
    * ell^(beta(k1-2) + gamma(k1+k2-3)) mod p, with a character table of
    None read as trivial."""
    e1, e2 = pow(ell % p, k1 - 2, p), pow(ell % p, k1 + k2 - 3, p)
    f1 = [(1 if chi1 is None else chi1[ell ** j % N]) * pow(e1, j, p)
          for j in range(i + 1)]
    f2 = [(1 if chi2 is None else chi2[ell ** j % N]) * pow(e2, j, p)
          for j in range(i + 1)]
    return tuple(tuple(x * y % p for y in f2) for x in f1)


def _operator(F: QExpansion, ell: int, i: int, scheme: str,
              seed: int) -> tuple:
    """(F, lift table, plan, mult): what T(ell^i) reads at every index of F,
    with mult from :func:`_multipliers`."""
    p, N, w = F.p, F.N, F.weight
    return (F, _lifts(ell, i, N, scheme, seed),
            _plan(ell, i, N, w.n, p, scheme, seed),
            _multipliers(ell, i, p, N, w.k1, w.k2, F.chi1, F.chi2))


def _coefficient(op: tuple, T: tuple, assume_complete: bool):
    """The coordinates of the coefficient at the checked index T of the
    operator ``op``, summed in one pass over its branches.

    Unless ``assume_complete`` is set, the first branch that reads an index
    outside F's support ends the sum with None; with it set, absent inputs
    count as zero.
    """
    F, lifts, plan, mult = op
    support = F.support
    out = [0] * (F.weight.n + 1)
    for k, beta, gamma, T2 in _branches(lifts, T):
        vec = support.get(T2)
        if vec is None:
            if assume_complete:
                continue
            return None
        m = mult[beta][gamma]
        if m:
            for s, col in enumerate(plan[k]):
                out[s] += m * sum(map(mul, vec, col))
    p = F.p
    return tuple([o % p for o in out])


def _missing(op: tuple, T: tuple) -> HeckeError:
    """The error of a coefficient at T whose inputs are not all in F's
    support: every absent index, sorted, from a second enumeration."""
    missing = _reads(op[1], T).difference(op[0].support)
    return HeckeError(f"missing required indices: {sorted(missing)}")


def hecke_coefficient(F: QExpansion, ell: int, i: int, T,
                      assume_complete: bool = False,
                      scheme: str = "crt", seed: int = 0) -> RepVector:
    """Coefficient of T(ell^i)F at index T.

    The lifts of P^1(Z/ell^beta) come from the cached lift table of
    (ell, i, N, ``scheme``, ``seed``) and their branches are enumerated
    once.  Unless ``assume_complete`` is set, every index T' those branches
    read must be in F's support, otherwise :class:`HeckeError` names the
    missing ones; with it set, absent inputs count as zero.
    """
    T = check_index(T)
    _check_operator(F, ell, i)
    op = _operator(F, ell, i, scheme, seed)
    coords = _coefficient(op, T, assume_complete)
    if coords is None:
        raise _missing(op, T)
    return RepVector(F.weight.n, F.weight.k2, coords)


def hecke_image(F: QExpansion, ell: int, i: int, targets,
                assume_complete: bool = False) -> QExpansion:
    """T(ell^i)F at the indices ``targets`` (CRT lifts), zero coefficients
    dropped: the operator is checked, then every target is read and checked,
    then the operator is set up once.  A target with missing inputs raises
    what :func:`hecke_coefficient` raises there."""
    _check_operator(F, ell, i)
    targets = [check_index(T) for T in targets]
    op = _operator(F, ell, i, "crt", 0)
    support = {}
    for T in targets:
        coords = _coefficient(op, T, assume_complete)
        if coords is None:
            raise _missing(op, T)
        if any(coords):
            support[T] = coords
    return _derive(F, F.weight, support)


def eigenvalue(F: QExpansion, ell: int, i: int,
               assume_complete: bool = False) -> tuple:
    """Eigenvalue of T(ell^i) on F, with a per-index consistency report.

    Returns ``(lam, report)`` where report is a list of
    ``(T, matches: bool)`` over every supported index with computable
    Hecke coefficient.  The operator is set up once for all the indices.
    """
    _check_operator(F, ell, i)
    if not F.support:
        raise HeckeError("zero expansion has no eigenvalue")
    op = _operator(F, ell, i, "crt", 0)
    p = F.p
    lam = None
    report = []
    for T in sorted(F.support):
        img = _coefficient(op, T, assume_complete)
        if img is None:
            continue
        vec = F.support[T]
        lead = next((t for t, c in enumerate(vec) if c % p), None)
        if lam is None and lead is not None:
            lam = img[lead] * pow(vec[lead], -1, p) % p
        matches = all((img[t] - (lam or 0) * vec[t]) % p == 0
                      for t in range(len(vec)))
        report.append((T, matches))
    if lam is None:
        raise HeckeError("no checkable index")
    return lam, report


def constant_term_multiplier(ell: int, k: int, p: int) -> int:
    """Closed form 1 + (ell+1) ell^(k-2) + ell^(2k-3) mod p for scalar weight k."""
    _check_prime(p, HeckeError)
    return (1 + (ell + 1) * pow(ell, k - 2, p) + pow(ell, 2 * k - 3, p)) % p

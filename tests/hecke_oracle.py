"""Reference Hecke coefficient without a plan, for differential tests of ``hecke``.

Every call builds fresh lifts with ``p1_representatives``, transforms the
index once per (beta, gamma, lift) and applies ``rep_apply`` to the input
coefficient of each branch, then scales by ell^(-n beta) and the character
and ell-power multiplier of its (beta, gamma).  This is the sum that
``hecke_coefficient`` computed before its lifts and Sym^n matrices were
cached, kept here to pin the cached path to the same numbers.
:func:`eigenvalue` reads each index through that sum, as ``hecke.eigenvalue``
did before it set its operator up once per call.
"""

from siegelmodp.hecke import (HeckeError, _check_operator, index_transform,
                              p1_representatives)
from siegelmodp.qexp import check_index
from siegelmodp.rep import RepVector, Weight, rep_apply


def chi_at(table, N, n):
    """The value at n of a character stored as ``QExpansion`` stores chi1
    and chi2: None for the trivial character, else its N values mod p."""
    return 1 if table is None else table[n % N]


def branches(ell, i, T, reps_by_beta):
    """Yield (beta, gamma, U, T') in the order beta, gamma, lift."""
    a, b, c = T
    for beta in range(i + 1):
        for gamma in range(i - beta + 1):
            alpha = i - beta - gamma
            lbg = ell ** (beta + gamma)
            lg = ell ** gamma
            for rep in reps_by_beta[beta]:
                a_U, b_U, c_U = index_transform(rep.matrix, T)
                if a_U % lbg or b_U % lg or c_U % lg:
                    continue
                la = ell ** alpha
                yield beta, gamma, rep, (la * (a_U // lbg),
                                         la * (b_U // lg),
                                         la * ((c_U // lg) * ell ** beta))


def hecke_coefficient(F, ell, i, T, assume_complete=False, scheme="crt",
                      seed=0):
    """Coefficient of T(ell^i)F at T, computed from scratch."""
    T = check_index(T)
    _check_operator(F, ell, i)
    p = F.p
    k1, k2 = F.weight.k1, F.weight.k2
    n = F.weight.n
    linv = pow(ell % p, p - 2, p)

    reps = {beta: p1_representatives(ell, beta, F.N, scheme=scheme, seed=seed)
            for beta in range(i + 1)}
    found = list(branches(ell, i, T, reps))
    if not assume_complete:
        missing = sorted({T2 for *_, T2 in found}.difference(F.support))
        if missing:
            raise HeckeError(f"missing required indices: {missing}")

    out = [0] * (n + 1)
    for beta, gamma, rep, T2 in found:
        coeff_vec = F.support.get(T2)
        if coeff_vec is None:
            continue
        exp = beta * (k1 - 2) + gamma * (k1 + k2 - 3)
        mult = (chi_at(F.chi1, F.N, ell ** beta)
                * chi_at(F.chi2, F.N, ell ** gamma)
                * pow(ell % p, exp, p)) % p
        if mult == 0:
            continue
        (u1, u2), (x, y) = rep.matrix
        lb = ell ** beta
        adj = ((lb * y, -u2), (-lb * x, u1))
        v = rep_apply(Weight(n, 0), adj, RepVector(n, 0, coeff_vec), p)
        scale = mult * pow(linv, n * beta, p) % p
        for t, cv in enumerate(v.coords):
            out[t] = (out[t] + scale * cv) % p
    return RepVector(n, k2, tuple(out))


def eigenvalue(F, ell, i, assume_complete=False):
    """Eigenvalue of T(ell^i) on F and its per-index report, from one
    :func:`hecke_coefficient` call per supported index."""
    _check_operator(F, ell, i)
    if not F.support:
        raise HeckeError("zero expansion has no eigenvalue")
    p = F.p
    lam = None
    report = []
    for T in sorted(F.support):
        try:
            img = hecke_coefficient(F, ell, i, T,
                                    assume_complete=assume_complete)
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

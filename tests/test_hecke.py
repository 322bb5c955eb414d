import random
import time
from math import gcd

import pytest

import hecke_oracle
from siegelmodp.arith import _PRIME_BOUND
from siegelmodp.hecke import (HeckeError, constant_term_multiplier,
                              eigenvalue, gauss_reduce, hecke_coefficient,
                              index_transform, p1_classes,
                              p1_representatives, required_indices)
from siegelmodp.qexp import QExpError, QExpansion
from siegelmodp.rep import Weight
from siegelmodp.theta import theta_j


def mk(p, N, weight, support, **kw):
    return QExpansion(p=p, N=N, weight=Weight(*weight), support=support, **kw)


@pytest.mark.parametrize("ell,beta,N", [(2, 0, 3), (2, 1, 3), (2, 2, 3),
                                        (3, 1, 4), (3, 2, 4), (5, 1, 3)])
def test_p1_representatives(ell, beta, N):
    reps = p1_representatives(ell, beta, N)
    expect = 1 if beta == 0 else ell ** beta + ell ** (beta - 1)
    assert len(reps) == expect
    q = ell ** beta
    seen = set()
    for r in reps:
        (a, b), (c, d) = r.matrix
        assert a * d - b * c == 1
        assert a % N == 1 and b % N == 0 and c % N == 0 and d % N == 1
        # distinct classes in P^1(Z/ell^beta)
        if beta:
            seen.add(min((a * t % q, b * t % q) for t in range(1, q)
                         if gcd(t, ell) == 1))
    assert len(seen) == (expect if beta else 0)


def test_p1_random_scheme_same_classes():
    crt = p1_representatives(2, 2, 3, scheme="crt")
    rnd = p1_representatives(2, 2, 3, scheme="random", seed=9)
    q = 4
    def cls(r):
        (a, b), _ = r.matrix
        return min((a * t % q, b * t % q) for t in range(1, q) if t % 2)
    assert {cls(r) for r in crt} == {cls(r) for r in rnd}
    assert any(c.matrix != r.matrix for c, r in zip(crt, rnd))


def test_p1_errors():
    with pytest.raises(HeckeError, match="coprime"):
        p1_representatives(3, 1, 3)
    with pytest.raises(HeckeError, match="unknown lift scheme"):
        p1_representatives(2, 1, 3, scheme="CRT")


def test_index_transform_matches_matrix_congruence():
    U = ((2, 1), (1, 1))
    T = (1, 2, 3)
    aU, bU, cU = index_transform(U, T)
    # U [[a, b/2], [b/2, c]] U^t, doubled off-diagonal entry
    a, b, c = T
    M = [[2 * a, b], [b, 2 * c]]
    P = [[sum(U[i][k] * M[k][j] for k in range(2)) for j in range(2)]
         for i in range(2)]
    Q = [[sum(P[i][k] * U[j][k] for k in range(2)) for j in range(2)]
         for i in range(2)]
    assert Q[0][0] == 2 * aU and Q[1][1] == 2 * cU and Q[0][1] == bU


def test_t1_is_identity():
    rng = random.Random(0)
    for p, N in ((5, 3), (7, 3)):
        support = {(1, 0, 1): tuple(rng.randrange(p) for _ in range(3)),
                   (2, 1, 2): tuple(rng.randrange(p) for _ in range(3))}
        F = mk(p, N, (5, 3), support)
        for T, vec in support.items():
            got = hecke_coefficient(F, 2, 0, T, assume_complete=True)
            assert (got.n, got.m) == (2, 3)
            assert got.coords == tuple(v % p for v in vec)


def test_constant_term_multiplier_small_grid():
    for p in (5, 7):
        for ell, N in ((2, 3), (3, 4)):
            for k in range(2, 6):
                F = mk(p, N, (k, k), {(0, 0, 0): (1,)})
                got = hecke_coefficient(F, ell, 1, (0, 0, 0),
                                        assume_complete=True)
                assert got.coords[0] == constant_term_multiplier(ell, k, p)


def test_missing_indices_error():
    F = mk(5, 3, (4, 4), {(1, 0, 1): (1,)})
    with pytest.raises(HeckeError, match="missing required indices"):
        hecke_coefficient(F, 2, 1, (1, 0, 1))
    need = required_indices(2, 1, (1, 0, 1), 3)
    assert (2, 0, 2) in need  # the alpha-branch doubling


def test_a_non_integer_index_is_refused_not_truncated():
    F = mk(5, 3, (4, 4), {(0, 0, 0): (1,)})
    for call in (lambda T: hecke_coefficient(F, 2, 1, T,
                                             assume_complete=True),
                 lambda T: required_indices(2, 1, T, 3)):
        with pytest.raises(QExpError, match="non-integer entry"):
            call((0.9, 0, 0))
        call((0.0, 0, 0))


@pytest.mark.parametrize("ell", [-2, 1, 4, _PRIME_BOUND])
def test_required_indices_refuses_an_ell_that_is_not_prime(ell):
    with pytest.raises(HeckeError, match=f"ell must be a prime below "
                                         f"{_PRIME_BOUND}, got {ell}$"):
        required_indices(ell, 1, (1, 0, 1), 3)


# Every admitted T(ell^i) for ell <= 7, up to the lift bound: T(2^5),
# T(3^3), T(5^2) and T(7^2).
_ADMITTED_POWERS = {2: 5, 3: 3, 5: 2, 7: 2}


def test_required_indices_match_the_oracle_branches():
    """required_indices reads the T' of the oracle's branches over CRT lifts
    at every index with a, c <= 8, rank 0 and rank 1 included, so the a_U
    filter that runs before b_U and c_U is pinned up to ell^beta = 49."""
    indices = [(a, b, c) for a in range(9) for c in range(9)
               for b in range(-8, 9) if b * b <= 4 * a * c]
    for ell, top in _ADMITTED_POWERS.items():
        for N in (3, 4, 5):
            if gcd(ell, N) != 1:
                continue
            reps = {b: p1_representatives(ell, b, N) for b in range(top + 1)}
            for i in range(top + 1):
                for T in indices:
                    want = {T2 for *_, T2 in hecke_oracle.branches(ell, i, T,
                                                                   reps)}
                    assert required_indices(ell, i, T, N) == want, \
                        (ell, i, N, T)


def test_gauss_reduce():
    assert gauss_reduce((0, 0, 0)) == (0, 0, 0)
    assert gauss_reduce((4, 4, 1)) == (1, 0, 0)  # rank 1, gcd 1
    assert gauss_reduce((2, 2, 2)) == (2, 2, 2)
    rng = random.Random(4)
    for _ in range(100):
        a = rng.randrange(1, 6)
        c = rng.randrange(1, 6)
        bmax = int((4 * a * c) ** 0.5)
        b = rng.randrange(-bmax, bmax + 1)
        T = (a, b, c)
        red = gauss_reduce(T)
        ra, rb, rc = red
        if 4 * ra * rc - rb * rb:
            assert -ra < rb <= ra <= rc
            if ra == rc:
                assert rb >= 0
        # invariance under a proper equivalence
        g = ((1, 1), (0, 1)) if rng.random() < 0.5 else ((0, -1), (1, 0))
        aU, bU, cU = index_transform(g, T)
        if aU >= 0 and cU >= 0:
            assert gauss_reduce((aU, bU, cU)) == red


def _class_function_form(p, N, k, ell, i, T, rng, seeds):
    """Support covering every index read under all the given rep seeds,
    valued through gauss_reduce (a proper-equivalence class function)."""
    values = {}
    needed = set()
    for scheme, seed in seeds:
        reps = {b: p1_representatives(ell, b, N, scheme=scheme, seed=seed)
                for b in range(i + 1)}
        needed |= {T2 for *_, T2 in hecke_oracle.branches(ell, i, T, reps)}
    support = {}
    for T2 in needed:
        key = gauss_reduce(T2)
        if key not in values:
            values[key] = rng.randrange(p)
        if values[key]:
            support[T2] = (values[key],)
    return support


def test_lift_independence_class_functions():
    rng = random.Random(7)
    for p, N, ell in ((5, 3, 2), (7, 4, 3)):
        for trial in range(5):
            T = (rng.randrange(0, 3), 0, rng.randrange(0, 3))
            seeds = [("crt", 0), ("random", trial + 1)]
            support = _class_function_form(p, N, 6, ell, 1, T, rng, seeds)
            F = mk(p, N, (6, 6), support)
            a = hecke_coefficient(F, ell, 1, T, assume_complete=True,
                                  scheme="crt")
            b = hecke_coefficient(F, ell, 1, T, assume_complete=True,
                                  scheme="random", seed=trial + 1)
            assert a == b, (p, ell, trial, T)


def test_eigenvalue_constant_form():
    p, N, k = 7, 3, 4
    F = mk(p, N, (k, k), {(0, 0, 0): (2,)})
    lam, report = eigenvalue(F, 2, 1, assume_complete=True)
    assert lam == constant_term_multiplier(2, k, p)
    assert all(ok for _, ok in report)
    with pytest.raises(HeckeError, match="no eigenvalue"):
        eigenvalue(mk(p, N, (k, k), {}), 2, 1)


def test_ell_coprimality_errors():
    F = mk(5, 3, (4, 4), {(0, 0, 0): (1,)})
    with pytest.raises(HeckeError, match="coprime"):
        hecke_coefficient(F, 5, 1, (0, 0, 0), assume_complete=True)
    with pytest.raises(HeckeError, match="coprime"):
        hecke_coefficient(F, 3, 1, (0, 0, 0), assume_complete=True)
    with pytest.raises(HeckeError, match="coprime"):
        eigenvalue(F, 5, 1, assume_complete=True)
    with pytest.raises(HeckeError, match="power i must be >= 0"):
        hecke_coefficient(F, 2, -1, (0, 0, 0), assume_complete=True)
    with pytest.raises(HeckeError, match="power i must be >= 0"):
        eigenvalue(F, 2, -1)


def test_weight_difference_bound_is_checked_before_any_plan():
    from siegelmodp import hecke
    F = mk(5, 7, (105, 4), {(1, 0, 1): (1,) * 102})
    misses = (hecke._plan.cache_info().misses,
              hecke._lifts.cache_info().misses)
    for call in (lambda: hecke_coefficient(F, 2, 1, (1, 0, 1)),
                 lambda: eigenvalue(F, 3, 2)):
        with pytest.raises(HeckeError, match=r"^Hecke operators run at "
                                             r"k1-k2 <= 100, got 101$"):
            call()
    assert (hecke._plan.cache_info().misses,
            hecke._lifts.cache_info().misses) == misses


def lift_count(ell, i):
    return 1 + sum(ell ** b + ell ** (b - 1) for b in range(1, i + 1))


@pytest.mark.parametrize("call, ell, i", [
    (lambda: required_indices(100003, 1, (1, 0, 1), 3), 100003, 1),
    (lambda: p1_representatives(2, 17, 3), 2, 17),
    (lambda: p1_representatives(11, 2, 3, scheme="random"), 11, 2),
], ids=["required_indices", "p1_representatives", "random_scheme"])
def test_lift_builders_refuse_a_plan_above_the_bound(call, ell, i):
    start = time.perf_counter()
    with pytest.raises(HeckeError, match=(
            rf"^Hecke operators run with at most 100 lifts, "
            rf"T\({ell}\^{i}\) needs more$")):
        call()
    assert time.perf_counter() - start < 0.1


def test_lift_builders_admit_every_admitted_operator():
    # T(2^5) and T(7^2) are the largest plans the tests build
    for ell, i, lifts in ((2, 5, 94), (7, 2, 65)):
        assert lift_count(ell, i) == lifts
        assert sum(len(p1_representatives(ell, b, 3))
                   for b in range(i + 1)) == lifts
        assert required_indices(ell, i, (1, 0, 1), 3)


def test_lift_bound_is_checked_before_any_plan():
    from siegelmodp import hecke
    F = mk(13, 3, (4, 4), {(0, 0, 0): (1,)})
    # the tests and the benchmark use ell <= 5 and i <= 2
    for ell, i in ((5, 2), (7, 2), (2, 5)):
        assert lift_count(ell, i) <= hecke._MAX_LIFTS
        eigenvalue(F, ell, i, assume_complete=True)
    misses = (hecke._plan.cache_info().misses,
              hecke._lifts.cache_info().misses)
    for ell, i in ((2, 6), (11, 2), (41, 3), (2, 20), (2, 10 ** 9)):
        assert i > 50 or lift_count(ell, i) > hecke._MAX_LIFTS
        for call in (lambda: hecke_coefficient(F, ell, i, (0, 0, 0)),
                     lambda: eigenvalue(F, ell, i)):
            with pytest.raises(HeckeError, match=(
                    rf"^Hecke operators run with at most 100 lifts, "
                    rf"T\({ell}\^{i}\) needs more$")):
                call()
    # an ell that is not prime is refused before its lifts are counted
    for ell in (1, -1):
        for call in (lambda: hecke_coefficient(F, ell, 10 ** 9, (0, 0, 0)),
                     lambda: eigenvalue(F, ell, 10 ** 9)):
            with pytest.raises(HeckeError, match=rf"^ell must be a prime "
                                                 rf"below \d+, got {ell}$"):
                call()
    assert (hecke._plan.cache_info().misses,
            hecke._lifts.cache_info().misses) == misses


def test_tensor_normalization_matches_plain():
    """A tensor normalization (ell-exponents from the pre-image weight of a
    theta operator, times ell^(-j beta) for Pieri component j, 0 the largest)
    would equal the plain one at the image weight: the exponents agree as
    integers for each of the three theta_j images."""
    for p, pre in ((5, (4, 2)), (7, (7, 4)), (11, (9, 3))):
        k1p, k2p = pre
        F = mk(p, 4, pre, {(1, 0, 1): (1,) * (k1p - k2p + 1)})
        for j, op in ((0, 3), (1, 2), (2, 1)):
            w = theta_j(F, op).weight
            for beta in range(4):
                for gamma in range(4):
                    tensor = (beta * (k1p + p - 1)
                              + gamma * (k1p + k2p + 2 * p - 3) - j * beta)
                    plain = beta * (w.k1 - 2) + gamma * (w.k1 + w.k2 - 3)
                    assert tensor == plain, (p, pre, j, beta, gamma)


def test_random_scheme_checks_the_lifts_it_reads():
    # F holds exactly the inputs of the CRT lifts; the random lifts of
    # seed 3 read (2, 12, 20) and (41, 1986, 24050) instead
    F = mk(7, 3, (4, 4), {(2, 0, 2): (1,), (5, 6, 2): (1,)})
    assert required_indices(2, 1, (1, 0, 1), 3) == set(F.support)
    assert hecke_coefficient(F, 2, 1, (1, 0, 1)).coords == (5,)
    with pytest.raises(HeckeError, match=r"missing required indices: "
                       r"\[\(2, 12, 20\), \(41, 1986, 24050\)\]"):
        hecke_coefficient(F, 2, 1, (1, 0, 1), scheme="random", seed=3)


def _outcome(fn, *args, **kw):
    """The coordinates of a coefficient, an eigenvalue's (lam, report), or
    the error's text."""
    try:
        out = fn(*args, **kw)
    except HeckeError as exc:
        return str(exc)
    return getattr(out, "coords", out)


def _oracle_form(rng, p, N, n, ell, i, targets, lifts, keep, chars=None):
    """A form of degree n with random data on a share ``keep`` of the
    indices that the targets read under every lift choice, with random
    character tables if ``chars`` is set (by default, one time in two)."""
    needed = set()
    for scheme, seed in lifts:
        reps = {b: p1_representatives(ell, b, N, scheme=scheme, seed=seed)
                for b in range(i + 1)}
        for T in targets:
            needed |= {T2 for *_, T2 in hecke_oracle.branches(ell, i, T, reps)}
    support = {T2: tuple(rng.randrange(p) for _ in range(n + 1))
               for T2 in sorted(needed) if rng.random() < keep}
    k2 = rng.randrange(2, 6)
    chi1 = chi2 = None
    if chars is None:
        chars = rng.random() < 0.5
    if chars:
        chi1 = tuple(rng.randrange(p) for _ in range(N))
        chi2 = [rng.randrange(p) for _ in range(N)]
        chi2[N - 1] = (-1) ** n % p   # parity chi2(-1) = (-1)^(k1+k2)
        chi2 = tuple(chi2)
    return mk(p, N, (k2 + n, k2), support, chi1=chi1, chi2=chi2)


@pytest.mark.parametrize("ell,N,primes", [(2, 3, (5, 7)), (3, 4, (5, 7)),
                                          (5, 3, (7,))])
def test_plan_matches_per_call_oracle(ell, N, primes):
    """The cached plan gives the oracle's numbers and errors.  Calls that
    differ only in seed, scheme, n or p are interleaved, so a plan built
    for one of them and reused for another would show."""
    rng = random.Random(100 * ell + N)
    lifts = [("crt", 0), ("random", 0), ("random", 1), ("random", 5)]
    for i in (0, 1, 2):
        targets = []
        while len(targets) < 3:
            a, c = rng.randrange(4), rng.randrange(4)
            b = rng.randrange(-2, 3)
            if b * b <= 4 * a * c:
                targets.append((a, b, c))
        forms = {(p, n, keep): _oracle_form(rng, p, N, n, ell, i, targets,
                                            lifts, keep)
                 for p in primes for n in (0, 1, p - 1)
                 for keep in (1.0, 0.8)}
        for T in targets:
            for scheme, seed in lifts:
                for (p, n, keep), F in forms.items():
                    for complete in (False, True):
                        args = (F, ell, i, T)
                        kw = dict(assume_complete=complete, scheme=scheme,
                                  seed=seed)
                        want = _outcome(hecke_oracle.hecke_coefficient,
                                        *args, **kw)
                        assert _outcome(hecke_coefficient, *args, **kw) \
                            == want, (ell, i, T, scheme, seed, p, n, keep,
                                      complete)


@pytest.mark.parametrize("ell,N,p", [(2, 3, 7), (3, 4, 7), (5, 3, 13)])
def test_eigenvalue_matches_per_index_oracle(ell, N, p):
    """eigenvalue gives the (lam, report) or the error of the oracle that
    reads every index through the per-call coefficient.  For i >= 1 each
    support holds indices whose inputs are absent, so a check skipped
    without ``assume_complete`` would show."""
    rng = random.Random(1000 * ell + p)
    for i in (0, 1, 2):
        targets = [(0, 0, 0), (1, 0, 1),
                   (rng.randrange(1, 3), rng.randrange(-1, 2),
                    rng.randrange(1, 3))]
        for n in (0, 1, p - 1, 10):
            for keep in (1.0, 0.8):
                for chars in (False, True):
                    F = _oracle_form(rng, p, N, n, ell, i, targets,
                                     [("crt", 0)], keep, chars)
                    for complete in (False, True):
                        want = _outcome(hecke_oracle.eigenvalue, F, ell, i,
                                        assume_complete=complete)
                        assert _outcome(eigenvalue, F, ell, i,
                                        assume_complete=complete) == want, \
                            (ell, i, n, keep, chars, complete)


def test_p1_representatives_returns_a_fresh_list():
    reps = p1_representatives(3, 1, 4)
    reps.clear()
    assert len(p1_representatives(3, 1, 4)) == 4

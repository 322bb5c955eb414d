"""End-to-end acceptance checks: the exactly computable quantities and
property suites, each with its time budget."""

import random
import time

import pytest

import hecke_oracle
from pieri_oracle import tensor_action
from siegelmodp import cycles, galois, hecke, localdef, qexp, strata, theta
from siegelmodp.arith import Series3, is_prime
from siegelmodp.qexp import QExpansion
from siegelmodp.rep import (RepVector, Weight, pieri_reassemble, pieri_split,
                            rep_apply)
from theta_oracle import iterate_ratios


def mk(p, N, weight, support, **kw):
    return QExpansion(p=p, N=N, weight=Weight(*weight), support=support, **kw)


def rand_gl2(rng, p):
    while True:
        g = ((rng.randrange(p), rng.randrange(p)),
             (rng.randrange(p), rng.randrange(p)))
        if (g[0][0] * g[1][1] - g[0][1] * g[1][0]) % p:
            return g


def rand_scalar_support(rng, p, count=4):
    support = {}
    for _ in range(count):
        a, c = rng.randrange(4), rng.randrange(4)
        bmax = int((4 * a * c) ** 0.5)
        b = rng.randrange(-bmax, bmax + 1) if bmax else 0
        support[(a, b, c)] = (rng.randrange(p),)
    return support


# -- 1: Pieri decomposition ------------------------------------------------

def test_acceptance_01_pieri():
    t0 = time.monotonic()
    comp_meta = {"x0": (2, 0), "x1": (0, 1), "x2": (-2, 2)}
    for p in (5, 7, 11):
        rng = random.Random(p)
        for n in range(0, p - 2):
            x = {(i, t): rng.randrange(p)
                 for i in range(n + 1) for t in range(3)}
            split = pieri_split(n, p, x)
            dims = sum(len(c.coords)
                       for c in (split.x0, split.x1, split.x2)
                       if c is not None)
            assert dims == 3 * (n + 1), (p, n)
            back = pieri_reassemble(split, n, p)
            assert back == {k: v % p for k, v in x.items() if v % p}
        for _ in range(100):
            n = rng.randrange(0, p - 2)
            g = rand_gl2(rng, p)
            x = {(i, t): rng.randrange(p)
                 for i in range(n + 1) for t in range(3)}
            left = pieri_split(n, p, tensor_action(n, 0, g, x, p))
            right = pieri_split(n, p, x)
            for name, (dn, m) in comp_meta.items():
                rc = getattr(right, name)
                if rc is None:
                    assert getattr(left, name) is None
                    continue
                w = Weight(n + dn + m, m)
                assert getattr(left, name) == rep_apply(w, g, rc, p), \
                    (p, n, name)
    assert time.monotonic() - t0 < 5.0


# -- 2: scalar-to-scalar operator vs composite path ------------------------

def test_acceptance_02_big_theta_composite():
    t0 = time.monotonic()
    rng = random.Random(2)
    for p in (5, 7):
        for _ in range(50):
            k = rng.randrange(2, 9)
            F = mk(p, 3, (k, k), rand_scalar_support(rng, p))
            lhs = theta.big_theta(F, 1)
            rhs = theta.big_theta_composite(F)
            assert lhs.support == rhs.support and lhs.weight == rhs.weight
    assert time.monotonic() - t0 < 1.0


# -- 3: Hecke operators ----------------------------------------------------

def _class_function_form(p, N, ell, i, T, rng, seeds):
    values, needed = {}, set()
    for scheme, seed in seeds:
        reps = {b: hecke.p1_representatives(ell, b, N, scheme=scheme,
                                            seed=seed)
                for b in range(i + 1)}
        needed |= {T2 for *_, T2 in hecke_oracle.branches(ell, i, T, reps)}
    support = {}
    for T2 in needed:
        key = hecke.gauss_reduce(T2)
        values.setdefault(key, rng.randrange(p))
        if values[key]:
            support[T2] = (values[key],)
    return support


def test_acceptance_03_hecke():
    t0 = time.monotonic()
    rng = random.Random(3)
    # T(1) is the identity
    for p, N in ((5, 3), (7, 3), (11, 3)):
        support = {(1, 0, 1): (rng.randrange(1, p),),
                   (2, 0, 3): (rng.randrange(1, p),)}
        F = mk(p, N, (4, 4), support)
        for T, vec in support.items():
            got = hecke.hecke_coefficient(F, 2, 0, T, assume_complete=True)
            assert got.coords == vec
    # constant-term multiplier over the grid
    for p in (5, 7, 11):
        for ell, N in ((2, 3), (3, 4)):
            for k in range(2, 9):
                F = mk(p, N, (k, k), {(0, 0, 0): (1,)})
                got = hecke.hecke_coefficient(F, ell, 1, (0, 0, 0),
                                              assume_complete=True)
                want = (1 + (ell + 1) * pow(ell, k - 2, p)
                        + pow(ell, 2 * k - 3, p)) % p
                assert got.coords[0] == want, (p, ell, k)
    # representative-lift independence on class-function data
    for p, N, ell in ((5, 3, 2), (7, 4, 3), (11, 3, 2)):
        for trial in range(3):
            T = (rng.randrange(0, 3), 0, rng.randrange(0, 3))
            seeds = [("crt", 0), ("random", trial + 1)]
            F = mk(p, N, (6, 6),
                   _class_function_form(p, N, ell, 1, T, rng, seeds))
            a = hecke.hecke_coefficient(F, ell, 1, T, assume_complete=True,
                                        scheme="crt")
            b = hecke.hecke_coefficient(F, ell, 1, T, assume_complete=True,
                                        scheme="random", seed=trial + 1)
            assert a == b, (p, ell, trial, T)
    assert time.monotonic() - t0 < 10.0


# -- 4: theta--Hecke commutation -------------------------------------------

def test_acceptance_04_theta_hecke_commutation():
    t0 = time.monotonic()
    rng = random.Random(4)
    targets = [(1, 0, 1), (0, 0, 1), (1, 1, 1)]
    for p in (5, 7):
        for ell, N in ((2, 3), (3, 4)):
            n = 2
            for T in targets:
                support = {}
                for T2 in hecke.required_indices(ell, 1, T, N) | {T}:
                    support[T2] = tuple(rng.randrange(p)
                                        for _ in range(n + 1))
                F = mk(p, N, (6, 4), support)
                inner = hecke.hecke_coefficient(F, ell, 1, T,
                                                assume_complete=True)
                for j in (1, 2, 3):
                    G = theta.theta_j(F, j)
                    lhs = hecke.hecke_coefficient(G, ell, 1, T,
                                                  assume_complete=True)
                    comp = theta.theta_j_coefficient(inner.coords, T,
                                                     n, p, N, j)
                    want = tuple(ell * v % p for v in comp.coords)
                    assert lhs.coords == want, (p, ell, T, j)
            # scalar-to-scalar variant carries the factor ell^2
            for T in targets:
                support = {}
                for T2 in hecke.required_indices(ell, 1, T, N) | {T}:
                    support[T2] = (rng.randrange(p),)
                F = mk(p, N, (4, 4), support)
                big = theta.big_theta(F, 1)
                lhs = hecke.hecke_coefficient(big, ell, 1, T,
                                              assume_complete=True).coords[0]
                delta = mk(p, N, (4, 4), {T: (1,)})
                m_T = theta.big_theta(delta, 1).support.get(T, (0,))[0]
                base = hecke.hecke_coefficient(F, ell, 1, T,
                                               assume_complete=True).coords[0]
                assert lhs == ell * ell * m_T * base % p, (p, ell, T)
    assert time.monotonic() - t0 < 30.0


# -- 5: stratum vanishing orders -------------------------------------------

def test_acceptance_05_strata_orders():
    t0 = time.monotonic()
    expected = {((1, 2), None): {5: 1, 7: 1},
                ((1, 1), 1): {5: 34, 7: 62},
                ((1, 1), 2): {5: 10, 7: 14},
                ((0, 1), None): {5: 480, 7: 2016}}
    for (phi, variant), by_p in expected.items():
        for p, want in by_p.items():
            assert strata.partial_hasse_order(phi, p, variant=variant) == want
    assert strata.zeta_independent(5)
    assert time.monotonic() - t0 < 60.0


# -- 6: canonical filtration oracle ----------------------------------------

def test_acceptance_06_canonical_types():
    tables = strata.eo_tables()
    for phi in strata.PHI_VALUES:
        assert strata.canonical_filtration_compute(phi, 5) == \
            tables[phi].canonical


# -- 7: local leading terms ------------------------------------------------

def test_acceptance_07_local_leading_terms():
    for p in (5, 7, 11):
        rng = random.Random(p + 70)
        inv2 = pow(2, p - 2, p)
        inv3 = pow(3, p - 2, p)
        inv9 = pow(9, p - 2, p)
        for _ in range(50):
            alpha = rng.randrange(p)
            k = rng.randrange(0, 12)
            t11, t12, t22 = localdef.variables(p, 2)
            c0, c1, c2 = localdef.theta_local(Series3.const(p, 2, alpha), k)
            assert c0 == t22.scal(k * alpha)
            assert c1 == t12.scal(2 * k * alpha)
            assert c2 == t11.scal(k * alpha)
            got = localdef.big_theta_local_value(Series3.const(p, 6, alpha), k)
            assert got == k * (2 * k - 1) % p * alpha % p * inv9 % p
            F0, F1, F2 = (rng.randrange(p) for _ in range(3))
            k2 = rng.randrange(1, 7)
            k1 = k2 + rng.randrange(0, 7)
            lead = localdef.theta1_local_leading(F0, F1, F2, (k1, k2), p)
            c = (-(k1 - 3 * k2)) % p * inv2 % p
            want = (t11.scal(c * F0).add(t12.scal(c * F1))
                    .add(t22.scal((-(k1 - 3)) % p * F2)))
            assert lead == want
            comp0, comp1 = localdef.theta2_local_n1_leading(F0, F1, k2, p)
            cc = (2 * k2 - 1) % p * inv3 % p
            assert comp0 == t22.scal(cc * F1).sub(t12.scal(cc * F0))
            assert comp1 == t12.scal(cc * F1).sub(t11.scal(cc * F0))


# -- 8: dual-path identity for the second covariant step -------------------

def test_acceptance_08_step3_identity():
    t0 = time.monotonic()
    rng = random.Random(8)
    p, K = 7, 5
    for _ in range(50):
        F = Series3.zero(p, K + 2)
        detA = Series3.const(p, K + 2, rng.randrange(1, p))
        for _ in range(8):
            e = (rng.randrange(3), rng.randrange(3), rng.randrange(3))
            if sum(e) < K + 2:
                F = F.add(Series3(p, K + 2, {e: rng.randrange(p)}))
                detA = detA.add(Series3(p, K + 2, {e: rng.randrange(p)})
                                if sum(e) else Series3.zero(p, K + 2))
        if detA.constant_term() == 0:
            detA = detA.add(Series3.const(p, K + 2, 1))
        k = rng.randrange(2, 7)
        assert localdef.step3_identity_check(F, detA, k, K)
    assert time.monotonic() - t0 < 30.0


# -- 9: theta cycles -------------------------------------------------------

def test_acceptance_09_cycles():
    t0 = time.monotonic()
    seen_cases = set()
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        half = (p - 1) // 2
        for k in range(2, 2 * p + 2):
            rep = cycles.predict_scalar_cycle(p, k, False)
            assert len(rep.entries) == half
            res = cycles.analyze_cycle(rep.entries, p, "scalar",
                                       start_weight=k)
            assert res["ok"] and res["closed"] and res["sums_ok"], (p, k)
            seen_cases.update(c["case"] for c in res["cases"])

            repv = cycles.predict_vector_cycle(p, k, False)
            assert len(repv.entries) == p - 1
            resv = cycles.analyze_cycle(repv.entries, p, "vector",
                                        start_weight=k)
            assert resv["ok"] and resv["closed"], (p, k)
            seen_cases.update(c["case"] for c in resv["cases"])

            k0 = (k - 1) % p + 1
            if k0 != p or k == p:
                rep0 = cycles.predict_scalar_cycle(p, k, True, branch=0)
                branches = 1 + len(rep0.alternatives)
                for br in range(branches):
                    repb = cycles.predict_scalar_cycle(p, k, True, branch=br)
                    assert len(repb.entries) == half, (p, k, br)
                res0 = cycles.analyze_cycle(rep0.entries, p, "scalar")
                assert res0["ok"], (p, k)

            repo = cycles.predict_vector_cycle(p, k, True)
            assert len(repo.entries) == p - 1
            if (2 * k - 1) % p:
                reso = cycles.analyze_cycle(repo.entries, p, "vector")
                assert reso["ok"], (p, k)
    assert 2 not in seen_cases
    assert time.monotonic() - t0 < 5.0


# -- 10: four-fold vector iterate ------------------------------------------

def test_acceptance_10_theta2_iterate():
    rng = random.Random(10)
    for p in (5, 7, 11):
        for m in (1, 2):
            mus = []
            for _ in range(5):
                support = {}
                for _ in range(3):
                    a, c = rng.randrange(1, 4), rng.randrange(1, 4)
                    support[(a, 0, c)] = (rng.randrange(p), rng.randrange(p))
                F = mk(p, 3, (4, 3), support)
                ratios = iterate_ratios(F, m)
                assert None not in ratios and len(ratios) <= 1, (p, m)
                mus.extend(ratios)
            assert mus and all(mu == pow(64, m, p) for mu in mus), (p, m)


# -- 11: Galois-side utilities ---------------------------------------------

def test_acceptance_11_galois():
    rng = random.Random(11)
    for p in (5, 7, 11):
        for _ in range(100):
            ell = rng.choice([q for q in (2, 3, 13, 17) if q % p])
            k1 = rng.randrange(2, 20)
            k2 = rng.randrange(1, k1 + 1)
            fp = galois.frob_charpoly(rng.randrange(p), rng.randrange(p),
                                      rng.randrange(1, p), ell, (k1, k2), p)
            _, a1, a2, a3, a4 = fp.coeffs
            assert a3 == fp.nu * a1 % p and a4 == fp.nu * fp.nu % p
    # twist scales roots by ell^alpha
    sys0 = galois.HeckeSystem(p=7, weight=(5, 3),
                              data={2: (3, 5, 1), 3: (2, 6, 2)})
    for alpha in range(6):
        tw = galois.twist_system(sys0, alpha)
        for ell in sys0.data:
            s = pow(ell, alpha, 7)
            f0, f1 = sys0.charpoly(ell), tw.charpoly(ell)
            assert all(f1.coeffs[j] == f0.coeffs[j] * pow(s, j, 7) % 7
                       for j in range(5))
    # Level-4 cardinality against brute force
    brute = sum(1 for a in range(625)
                if a % 6 == 0 and a % 26 != 0 and a < 5 ** 4 - 1)
    assert galois.level4_count(5, 624) == brute == 96
    plan = galois.reduction_plan((10, 4), 5)
    assert plan.ladder_count == 110 and plan.l2_bound == 661
    assert plan.bounds_ok


# -- 12: codec and p-singularity -------------------------------------------

def test_acceptance_12_codec_singularity():
    rng = random.Random(12)
    for p in (5, 7, 11):
        support = {}
        for _ in range(5):
            a, c = rng.randrange(4), rng.randrange(1, 4)
            support[(a, 0, c)] = (rng.randrange(p),)
        F = mk(p, 3, (4, 4), support)
        assert qexp.parse(qexp.serialize(F)) == F
    G = mk(5, 3, (5, 5), {(5, 0, 10): (2,), (0, 0, 5): (1,)})
    assert qexp.is_p_singular(G) and qexp.is_weak_p_singular(G)
    H = mk(5, 3, (10, 10), {(5, 0, 10): (2,), (0, 0, 5): (1,)})
    R = qexp.pth_root(H)
    assert R is not None and qexp.index_scale_up(R) == H

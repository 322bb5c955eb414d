import hashlib
import random

import pytest

from siegelmodp.arith import Series3
from siegelmodp.localdef import (LocalDefError, _connection,
                                 big_theta_local_value,
                                 hasse_form, step3_identity_check,
                                 step3_paths, theta1_local_leading,
                                 theta2_local_n1_leading, theta_local,
                                 variables)


def rand_series(rng, p, K, unit=False):
    s = Series3.zero(p, K)
    for _ in range(8):
        e = (rng.randrange(3), rng.randrange(3), rng.randrange(3))
        if sum(e) < K:
            s = s.add(Series3(p, K, {e: rng.randrange(p)}))
    if unit:
        s = s.add(Series3.const(p, K, 1 + rng.randrange(p - 1)
                              - s.constant_term()))
    return s


def test_theta_local_examples():
    p, K = 5, 4
    t11, t12, t22 = variables(p, K)
    d = hasse_form(p, K)
    # constant input, weight k: (k t22 F, 2k t12 F, k t11 F)
    F = Series3.const(p, K, 1)
    c0, c1, c2 = theta_local(F, 2)
    assert c0 == t22.scal(2) and c1 == t12.scal(4) and c2 == t11.scal(2)
    # F = t11 at weight 0: derivative term only
    c0, c1, c2 = theta_local(t11, 0)
    assert c0 == d and c1.is_zero() and c2.is_zero()
    # weight p kills the multiplication-by-index part mod p
    c0, _, _ = theta_local(F, p)
    assert c0.is_zero()


def test_big_theta_local_constant():
    for p in (5, 7, 11):
        for k in range(0, 6):
            for alpha in range(p):
                F = Series3.const(p, 6, alpha)
                expect = k * (2 * k - 1) % p * alpha % p \
                    * pow(9, p - 2, p) % p
                assert big_theta_local_value(F, k) == expect
    assert big_theta_local_value(Series3.const(7, 6, 1), 1) == 4


def test_small_characteristic_rejected():
    with pytest.raises(ValueError, match="prime"):
        Series3.const(3, 6, 1)


def test_theta1_leading():
    p = 7
    t11, _, _ = variables(p, 2)
    # weight (4,2), values (1,0,0): coefficient -((4-6)/2) = 1 on t11
    got = theta1_local_leading(1, 0, 0, (4, 2), p)
    assert got == t11
    # generic linear combination
    got = theta1_local_leading(2, 3, 1, (5, 1), p)
    t11, t12, t22 = variables(p, 2)
    c = (-(5 - 3)) * pow(2, p - 2, p) % p
    want = t11.scal(c * 2).add(t12.scal(c * 3)).add(t22.scal((-(5 - 3)) % p))
    assert got == want


def test_theta2_leading():
    p = 5
    t11, t12, t22 = variables(p, 2)
    comp0, comp1 = theta2_local_n1_leading(1, 0, 1, p)
    # (2k-1)/3 = 1/3 = 2 mod 5; components (-2 t12, -2 t11) = (3t12, 3t11)
    assert comp0 == t12.scal(3) and comp1 == t11.scal(3)
    # 2k = 1 mod p kills both components
    comp0, comp1 = theta2_local_n1_leading(2, 3, 3, p)
    assert comp0.is_zero() and comp1.is_zero()


def test_step3_identity_random():
    rng = random.Random(12)
    for p in (5, 7, 11):
        for _ in range(5):
            K = 5
            F = rand_series(rng, p, K + 2)
            detA = rand_series(rng, p, K + 2, unit=True)
            k = rng.randrange(2, 7)
            assert step3_identity_check(F, detA, k, K)


def test_step3_paths_pinned():
    """Both paths in full, not only their agreement: a change that broke
    both the same way would still pass the identity check."""
    rng = random.Random(39)
    lines = []
    for p in (5, 7, 11, 13):
        for _ in range(3):
            F = rand_series(rng, p, 7)
            detA = rand_series(rng, p, 7, unit=True)
            k = rng.randrange(2, 7)
            for path in step3_paths(F, detA, k):
                lines.append(f"{p} {k} {sorted(path.coeffs.items())}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "e755765f1b0a83d5e1d3ba9fa83adf5c38fdc956765b371db278d38c0ff992b2")


def test_step3_mutation_detected():
    """The check sees the (2k-1)/3 cross term: without it, path (ii) no
    longer matches path (i) below the cutoff."""
    rng = random.Random(3)
    p, K, k = 5, 5, 2   # (2k-1)/3 is nonzero mod 5
    found = False
    for _ in range(10):
        F = rand_series(rng, p, K + 2)
        detA = rand_series(rng, p, K + 2, unit=True)
        path1, path2 = step3_paths(F, detA, k)
        assert path1.truncate_below(K) == path2.truncate_below(K)
        c11, c12, c22 = _connection(detA)
        cross = (c12.mul(F.derivation("t12"))
                 .sub(c11.mul(F.derivation("t22")))
                 .sub(c22.mul(F.derivation("t11"))))
        mutated = path2.sub(cross.scal((2 * k - 1) * pow(3, p - 2, p) % p))
        if path1.truncate_below(K) != mutated.truncate_below(K):
            found = True
            break
    assert found


def test_step3_errors():
    p, K = 5, 7
    F = Series3.var(p, K, "t11")
    with pytest.raises(LocalDefError, match="unit"):
        step3_paths(F, F, 2)
    detA = Series3.const(p, K, 1)
    with pytest.raises(LocalDefError, match="at least 4"):
        step3_identity_check(F, detA, 2, 3)

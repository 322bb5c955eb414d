import random
import re

import pytest

from siegelmodp.galois import (FrobPoly, GaloisError, HeckeSystem,
                               classify_inertia, frob_charpoly, level4_count,
                               reduction_plan, twist_system)


def test_charpoly_explicit():
    # ell = 2, weight (3, 3), p = 7: ell^(w-4) = 4, nu = chi2 * 8 = chi2
    for a in range(7):
        for b in range(7):
            for chi2 in (1, 2):
                fp = frob_charpoly(a, b, chi2, 2, (3, 3), 7)
                want = (1, (-a) % 7, (a * a - b - 4 * chi2) % 7,
                        (-chi2 * a) % 7, chi2 * chi2 % 7)
                assert fp.coeffs == want
                assert fp.nu == chi2 % 7


def test_palindrome_random():
    rng = random.Random(11)
    for p in (5, 7, 11):
        for _ in range(100):
            ell = rng.choice([2, 3, 13])
            if ell % p == 0:
                ell = 2
            k1 = rng.randrange(2, 20)
            k2 = rng.randrange(1, k1 + 1)
            fp = frob_charpoly(rng.randrange(p), rng.randrange(p),
                               rng.randrange(1, p), ell, (k1, k2), p)
            _, a1, a2, a3, a4 = fp.coeffs
            assert a3 % p == fp.nu * a1 % p
            assert a4 % p == fp.nu * fp.nu % p


def test_frobpoly_validation():
    with pytest.raises(GaloisError, match="palindrome"):
        FrobPoly(p=7, ell=2, coeffs=(1, 1, 0, 2, 1), nu=1)
    with pytest.raises(GaloisError, match="leading"):
        FrobPoly(p=7, ell=2, coeffs=(2, 0, 0, 0, 1), nu=1)
    with pytest.raises(GaloisError, match="prime"):
        frob_charpoly(1, 1, 1, 2, (3, 3), 6)
    with pytest.raises(GaloisError, match="nonzero"):
        frob_charpoly(1, 1, 1, 7, (3, 3), 7)


def test_a_weight_with_k1_below_k2_is_refused():
    msg = re.escape("weight must satisfy k1 >= k2, got (3, 5)")
    with pytest.raises(GaloisError, match=msg):
        frob_charpoly(1, 1, 1, 2, (3, 5), 7)
    with pytest.raises(GaloisError, match=msg):
        HeckeSystem(p=7, weight=(3, 5), data={2: (1, 1, 1)})
    # the p, ell and chi2 checks come first
    with pytest.raises(GaloisError, match="prime"):
        frob_charpoly(1, 1, 1, 2, (3, 5), 6)
    with pytest.raises(GaloisError, match="nonzero"):
        frob_charpoly(1, 1, 1, 7, (3, 5), 7)
    with pytest.raises(GaloisError, match="chi2"):
        HeckeSystem(p=7, weight=(3, 5), data={2: (1, 1, 0)})
    frob_charpoly(1, 1, 1, 2, (5, 5), 7)


def test_twist_scales_roots():
    p = 7
    sys0 = HeckeSystem(p=p, weight=(4, 3), data={2: (3, 5, 1), 3: (2, 6, 2)})
    for alpha in range(p - 1):
        tw = twist_system(sys0, alpha)
        for ell in sys0.data:
            s = pow(ell, alpha, p)
            f0 = sys0.charpoly(ell)
            f1 = tw.charpoly(ell)
            # f1(X) = f0(s X) up to coefficientwise scaling s^j
            for j in range(5):
                assert f1.coeffs[j] % p == f0.coeffs[j] * pow(s, j, p) % p
    with pytest.raises(GaloisError, match="twist exponent"):
        twist_system(sys0, p - 1)


def test_inertia_borel():
    ok = classify_inertia("Borel", {"a": 0, "b": 0, "c": 0, "d": 0}, 5)
    assert ok.valid and ok.congruence_mod_p and ok.congruence_mod_p_minus_1
    # sum = 4: holds mod p-1 = 4 but not mod p = 5
    dual = classify_inertia("Borel", {"a": 3, "b": 0, "c": 0, "d": 1}, 5)
    assert dual.valid
    assert dual.congruence_mod_p_minus_1 and not dual.congruence_mod_p
    bad = classify_inertia("Borel", {"a": 3, "b": 0, "c": 0, "d": 2}, 5)
    assert not bad.valid and "mod p-1" in bad.reason
    with pytest.raises(GaloisError, match="missing exponent"):
        classify_inertia("Borel", {"a": 1}, 5)
    with pytest.raises(GaloisError, match="unknown inertia"):
        classify_inertia("Steinberg", {}, 5)


def test_inertia_level4():
    p = 5
    ok = classify_inertia("Level4", {"a": 6}, p)
    assert ok.valid
    bad = classify_inertia("Level4", {"a": 26}, p)
    assert not bad.valid and "p+1" in bad.reason
    deg = classify_inertia("Level4", {"a": 78}, p)
    assert not deg.valid and "lower level" in deg.reason
    out = classify_inertia("Level4", {"a": p ** 4 - 1}, p)
    assert not out.range_ok and not out.valid


def test_inertia_other_types():
    sieg = classify_inertia("Siegel", {"a": 0, "b": 2, "k": 1}, 7)
    assert sieg.valid and sieg.congruence_mod_p is None
    endo = classify_inertia("Endoscopic", {"a": 0, "b": 2, "c": 1, "d": 1}, 7)
    assert not endo.range_ok
    kling = classify_inertia("Klingen", {"a": 1, "b": 0, "c": 1, "d": 0}, 7)
    assert kling.range_ok and kling.congruence_mod_p_minus_1


def level4_count_loop(p, bound):
    """The direct recount: every a in [0, bound], one at a time."""
    return sum(1 for a in range(bound + 1)
               if a % (p + 1) == 0 and a % (p * p + 1) != 0)


def test_level4_count():
    assert level4_count(5, 624) == 96
    assert level4_count(5) == 96


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_level4_count_matches_the_loop(p):
    q = p ** 4
    for bound in list(range(-20, 400)) + [q - 2, q + 50, 3 * q]:
        assert level4_count(p, bound) == level4_count_loop(p, bound), bound
    assert level4_count(p) == level4_count_loop(p, q - 2)


@pytest.mark.parametrize("p", [17, 19, 23])
def test_level4_count_default_bound_matches_the_loop(p):
    assert level4_count(p) == level4_count_loop(p, p ** 4 - 2)


def test_reduction_plan():
    plan = reduction_plan((10, 4), 5)
    assert plan.epsilon == 0 and plan.theta1_steps == 3
    assert plan.ladder_count == 110
    assert plan.l2_bound == 661
    assert plan.twist == (3 + 220) % 4
    assert plan.bounds_ok
    plan2 = reduction_plan((10, 4), 5, l1_is_one=True)
    assert plan2.ladder_count == 111
    odd = reduction_plan((7, 4), 5)
    assert odd.epsilon == 1 and odd.theta1_steps == 1
    with pytest.raises(GaloisError, match="k1 >= k2"):
        reduction_plan((3, 4), 5)
    with pytest.raises(GaloisError, match="prime"):
        reduction_plan((4, 3), 4)
    assert plan.to_json()["l2_bound"] == 661


@pytest.mark.parametrize("type, exponents, p, reason", [
    ("Borel", {"a": 4, "b": 0, "c": 0, "d": 0}, 5,
     "exponents must lie in [0, p-2]"),
    ("Klingen", {"a": 1, "b": 2, "c": 2, "d": 0}, 7,
     "need 0<=a,d<=p-2 and 0<=b<c<=p-1"),
    ("Siegel", {"a": 3, "b": 3, "k": 1}, 7,
     "need 0<=a<b<=p-1 and 0<=k<=p-2"),
])
def test_inertia_out_of_range_reasons(type, exponents, p, reason):
    desc = classify_inertia(type, exponents, p)
    assert not desc.range_ok and not desc.valid
    assert desc.reason == reason

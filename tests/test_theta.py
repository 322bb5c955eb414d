import hashlib
import random
import time
import tracemalloc

import pytest

from siegelmodp.qexp import QExpansion, serialize
from siegelmodp.rep import Weight, pieri_split
from siegelmodp.theta import (ThetaError, big_theta, big_theta_composite,
                              theta2_iterate_closed, theta_j,
                              theta_j_coefficient, theta_scalar)
from theta_oracle import iterate_ratios


def mk(p, N, weight, support, **kw):
    return QExpansion(p=p, N=N, weight=Weight(*weight), support=support, **kw)


def rand_support(rng, p, n, count=4):
    support = {}
    for _ in range(count):
        a, c = rng.randrange(4), rng.randrange(4)
        bmax = int((4 * a * c) ** 0.5)
        b = rng.randrange(-bmax, bmax + 1) if bmax else 0
        support[(a, b, c)] = tuple(rng.randrange(p) for _ in range(n + 1))
    return support


def test_theta_scalar_shapes_and_values():
    p, N = 7, 3
    F = mk(p, N, (4, 4), {(1, 2, 1): (3,)})
    G = theta_scalar(F)
    assert G.weight == Weight(4 + p + 1, 4 + p - 1)
    ninv = pow(N, p - 2, p)
    assert G.support[(1, 2, 1)] == tuple(3 * ninv * x % p for x in (1, 2, 1))
    with pytest.raises(ThetaError, match="scalar"):
        theta_scalar(mk(p, N, (5, 3), {}))


def test_big_theta_multiplier():
    p, N = 5, 3
    F = mk(p, N, (4, 4), {(1, 1, 1): (2,), (1, 0, 1): (1,), (0, 0, 1): (3,)})
    G = big_theta(F, 1)
    assert G.weight == Weight(4 + 6, 4 + 6)
    inv4 = pow(4, p - 2, p)
    for T, (A,) in F.support.items():
        a, b, c = T
        det = (4 * a * c - b * b) * inv4 % p
        mult = 2 * pow(3, p - 2, p) * pow(N, 2 * (p - 2), p) * det % p
        if mult * A % p:
            assert G.support[T] == (mult * A % p,)
        else:
            assert T not in G.support
    # rank-deficient indices are killed (weak p-singular direction)
    assert (1, 0, 1) in G.support and (0, 0, 1) not in G.support


def test_theta_j_domains():
    p, N = 5, 3
    F1 = mk(p, N, (4, 3), {})  # n = 1
    with pytest.raises(ThetaError, match="theta_1"):
        theta_j(F1, 1)
    theta_j(F1, 2)
    theta_j(F1, 3)
    F3 = mk(p, N, (6, 3), {})  # n = 3 = p - 2: only theta_1 is defined
    theta_j(F3, 1)
    with pytest.raises(ThetaError, match="theta_2"):
        theta_j(F3, 2)
    with pytest.raises(ThetaError, match="theta_3"):
        theta_j(F3, 3)
    with pytest.raises(ThetaError, match="j must be"):
        theta_j(F1, 4)
    # theta_j exists exactly where its Pieri component does
    for p in (5, 7, 11):
        lowest = {1: 2, 2: 1, 3: 0}
        highest = {1: p - 1, 2: p - 3, 3: p - 3}
        for n in range(p + 2):
            F = mk(p, N, (4 + n, 4), rand_support(random.Random(n), p, n))
            split = pieri_split(n, p, {}) if n <= p - 1 else None
            for j in (1, 2, 3):
                defined = lowest[j] <= n <= highest[j]
                assert defined == (split is not None and (
                    split.x0, split.x1, split.x2)[3 - j] is not None)
                if defined:
                    assert theta_j(F, j).weight.n == n + 2 * j - 4
                    continue
                message = f"^theta_{j} is undefined at k1-k2={n}, p={p}: "
                with pytest.raises(ThetaError, match=message):
                    theta_j(F, j)


def test_theta_j_weights():
    p, N = 7, 3
    F = mk(p, N, (6, 4), rand_support(random.Random(0), p, 2))
    assert theta_j(F, 1).weight == Weight(6 + p - 1, 4 + p + 1)
    assert theta_j(F, 2).weight == Weight(6 + p, 4 + p)
    assert theta_j(F, 3).weight == Weight(6 + p + 1, 4 + p - 1)


def test_theta_kernel_scaled_indices():
    # coefficients supported on p-divisible indices die under theta_scalar
    p, N = 5, 3
    F = mk(p, N, (5, 5), {(5, 0, 5): (2,), (0, 0, 5): (1,)})
    assert theta_scalar(F).support == {}
    assert big_theta(F).support == {}


def test_big_theta_composite_identity():
    rng = random.Random(9)
    for p, N in ((5, 3), (7, 3)):
        for _ in range(10):
            F = mk(p, N, (4, 4), rand_support(rng, p, 0))
            assert big_theta(F, 1).support == big_theta_composite(F).support


def test_theta2_iterate_closed_constant():
    for p in (5, 7, 11):
        # unit-determinant indices so the closed form is nonzero
        F = mk(p, 3, (4, 3), {(1, 0, 1): (1, 2), (1, 0, 2): (3, 1)})
        for m in (1, 2):
            G = theta2_iterate_closed(F, m)
            assert G.weight == Weight(4 + 4 * m * p, 3 + 4 * m * p)
            # the literal iterate is mu = 64^m times the closed form
            assert iterate_ratios(F, m) == {pow(64, m, p)}
    # zero form: both sides vanish, so any constant fits
    Z = mk(5, 3, (4, 3), {})
    assert theta2_iterate_closed(Z).support == {}
    assert iterate_ratios(Z, 1) == set()


def test_theta2_iterate_closed_requires_n1():
    with pytest.raises(ThetaError, match="\\(k\\+1, k\\)"):
        theta2_iterate_closed(mk(5, 3, (4, 4), {}))


def test_theta_j_coefficient_matches_operator():
    p, N = 7, 3
    rng = random.Random(5)
    F = mk(p, N, (6, 4), rand_support(rng, p, 2))
    for j in (1, 2, 3):
        G = theta_j(F, j)
        for T, vec in F.support.items():
            comp = theta_j_coefficient(vec, T, 2, p, N, j)
            assert (comp.n, comp.m) == (2 * j - 2, 3 - j)
            if any(comp.coords):
                assert G.support[T] == comp.coords
            else:
                assert T not in G.support


def test_theta_j_coefficient_refuses_a_vec_of_the_wrong_length():
    for vec in ((1, 2), (1, 2, 3, 4), ()):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="3 columns of length 3"):
            theta_j_coefficient(vec, (1, 0, 1), 2, 7, 3, 2)
        assert time.perf_counter() - start < 0.1
    start = time.perf_counter()
    with pytest.raises(ValueError, match="split undefined"):
        theta_j_coefficient((1,), (1, 0, 1), 10 ** 12, 7, 3, 2)
    assert time.perf_counter() - start < 0.1
    start = time.perf_counter()
    with pytest.raises(ValueError, match="3 columns of length 10000001"):
        theta_j_coefficient((1,), (1, 0, 1), 10 ** 7, 10 ** 9 + 7, 3, 1)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("j", [0, 4, -1])
def test_theta_j_coefficient_refuses_j_as_theta_j_does(j):
    for vec in ((1, 2, 3), (1,)):
        with pytest.raises(ThetaError, match=r"^j must be 1, 2 or 3$"):
            theta_j_coefficient(vec, (1, 0, 1), 2, 7, 3, j)


def test_theta_j_coefficient_names_an_absent_component_as_theta_j_does():
    with pytest.raises(ThetaError) as got:
        theta_j_coefficient((1,) * 7, (1, 0, 1), 6, 7, 3, 3)
    with pytest.raises(ThetaError) as want:
        theta_j(mk(7, 3, (10, 4), {}), 3)
    assert str(got.value) == str(want.value) == (
        "theta_3 is undefined at k1-k2=6, p=7: Sym^6 (x) Sym^2 has no "
        "Pieri component x0 there")


def test_theta_j_domain_check_allocates_nothing_of_size_n():
    """theta_j learns whether its component exists without building a
    tensor of the weight's n + 1 coordinates (here 400,001)."""
    F = mk(1000003, 3, (400003, 3), {})
    tracemalloc.start()
    try:
        G = theta_j(F, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.support == {} and G.weight == Weight(1400005, 1000007)
    assert peak < 64 * 1024


def pin_form(p, n):
    """A form of weight (4 + n, 4), level 5, on every index with
    0 <= a, c <= 4 and |b| <= 4; its coefficients come from a formula, so
    the outputs below do not depend on any random generator."""
    support = {}
    for a in range(5):
        for c in range(5):
            for b in range(-4, 5):
                if b * b <= 4 * a * c:
                    support[(a, b, c)] = tuple(
                        (3 * a + 5 * b * b + 7 * c + 2 * a * c * i + i + 1) % p
                        for i in range(n + 1))
    return mk(p, 5, (4 + n, 4), support)


def theta_outputs(p):
    F0, F1 = pin_form(p, 0), pin_form(p, 1)
    t2x4 = F1
    for _ in range(4):
        t2x4 = theta_j(t2x4, 2)
    return {
        "scalar": theta_scalar(F0),
        "big1": big_theta(F0, 1),
        "big2": big_theta(F0, 2),
        "composite": big_theta_composite(F0),
        "t1": theta_j(pin_form(p, 4), 1),
        "t2": theta_j(pin_form(p, 3), 2),
        "t3": theta_j(pin_form(p, 2), 3),
        "t2x4": t2x4,
        "t1_p-2": theta_j(pin_form(p, p - 2), 1),
        "t1_p-1": theta_j(pin_form(p, p - 1), 1),
        "closed1": theta2_iterate_closed(F1, 1),
        "closed2": theta2_iterate_closed(F1, 2),
    }


# sha256 of serialize(output) at p = 11 and p = 13
THETA_PINS = {
    "scalar": (
        "44a56e23231bdd9c8467d384ecd9e307b1553e4d7bd1ceb1120405f9efcb12c1",
        "c787212381dde25f64120f66100aa748a0bfb6475ec969dae0422da473bb4bf6"),
    "big1": (
        "5dc5aad3f87c6c1f9f9b0472a8f19204622a7db4da16d25655c51fe1baa0f75d",
        "5567c54beff607979469394e70b64f832ecc452eddf18e90ef63c9b4ccdce492"),
    "big2": (
        "947eb8f5b292b1abd702f64f667dc5b251f82456b62984eb0c041156ac02f821",
        "ec64fd2aa480d1b7a2f63ebe5a91314daa51d30d660471322d2b54a593c4fa24"),
    "composite": (
        "5dc5aad3f87c6c1f9f9b0472a8f19204622a7db4da16d25655c51fe1baa0f75d",
        "5567c54beff607979469394e70b64f832ecc452eddf18e90ef63c9b4ccdce492"),
    "t1": (
        "290d1408c6d72f5089a809f03147c823f3a206fecf95dfe3f36fad14146feb4e",
        "1e85bf8a6caff2506c265ec7c5639346d707d12ef0d05400d90cc79d0372477b"),
    "t2": (
        "e110df806479e0e5ccb23e8a1119e862dbcee76bd367f0aa2c2defd291e91989",
        "dc852c8a532195274b7eb0372fcbcba8b1c809fcf1441a68d2e2121ea385d31e"),
    "t3": (
        "1197e14c541cf9791dd4a8b7e0796b8228f73aa9037017006812af993e9507d4",
        "851df5d9109f4f62640d2edc86b2c721e6c7cc893ed8160fdb6b58ae2766b85b"),
    "t2x4": (
        "722655e1edd36c3112444810a0e884abfdb2f66a5cfaf208ec5ec51d94f2a479",
        "cf13e1128e90c6fd9c3735643b6e5a147a97ed33c928b1f60a66e6103c708737"),
    "t1_p-2": (
        "a677f703b349f15866ba9cfb4fa711fcdc9441189d795bea9173d56cae3feaf0",
        "5263a1d74b8e1acb6ae400a10e682f8dcf6168816e41526b8e85de689146d6ce"),
    "t1_p-1": (
        "72ecf77a07c8444d9abcbcadf7bb43b1944624fa74bd3edf9ce5dd832f79fb8d",
        "a30c8b2296bf4e5b9ff65e44dc30cb304bb5bcbc4c485e8382c825c946857fa5"),
    "closed1": (
        "320bde9b6e5afa0b8367e08d430bda0d30facc6c1615120205418797f82699c0",
        "8b658b71190814a18ace144074167c2002dca62a0574a41cd6a002e7a895cf4d"),
    "closed2": (
        "c0dab491936806ad90dea50136f3b983d0f25af1b40a6bdb87376c0d2b9d7b91",
        "7f43f65572d5e20730994b1e3c21c8e6b915ab9d2f4bf822fc8734ff40ca1ed7"),
}


@pytest.mark.parametrize("p", [11, 13])
def test_theta_outputs_are_pinned(p):
    """Every operator's output, byte for byte, as first recorded."""
    got = {name: hashlib.sha256(serialize(G).encode("utf-8")).hexdigest()
           for name, G in theta_outputs(p).items()}
    assert got == {name: pins[p == 13] for name, pins in THETA_PINS.items()}


def test_theta_scalar_is_theta_3_on_scalar_forms():
    for p in (7, 11, 13):
        for k in (2, 5):
            F = mk(p, 4, (k, k), rand_support(random.Random(p * k), p, 0, 8))
            assert theta_scalar(F) == theta_j(F, 3)
        F = pin_form(p, 0)
        assert theta_scalar(F) == theta_j(F, 3)

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


@pytest.mark.parametrize("N", [14, 0, -7])
def test_theta_j_coefficient_refuses_a_level_divisible_by_p(N):
    with pytest.raises(ThetaError, match="^level must be coprime to p$"):
        theta_j_coefficient((1, 2, 3), (1, 0, 1), 2, 7, N, 2)


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
    """A form of weight (4 + n, 4), level 5 (3 at p = 5), on every index
    with 0 <= a, c <= 4 and |b| <= 4; its coefficients come from a formula,
    so the outputs below do not depend on any random generator."""
    support = {}
    for a in range(5):
        for c in range(5):
            for b in range(-4, 5):
                if b * b <= 4 * a * c:
                    support[(a, b, c)] = tuple(
                        (3 * a + 5 * b * b + 7 * c + 2 * a * c * i + i + 1) % p
                        for i in range(n + 1))
    return mk(p, 3 if p == 5 else 5, (4 + n, 4), support)


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fourfold_theta_2(F):
    for _ in range(4):
        F = theta_j(F, 2)
    return F


def theta_digests(p):
    """sha256 of serialize(output) for each pinned operator at p, None where
    it refuses its input.  "t<j> every n" hashes theta_j(pin_form(p, n)) for
    n = 0 .. p - 1 in turn, with the line "undefined" for a refused n."""
    F0, F1 = pin_form(p, 0), pin_form(p, 1)
    operators = {
        "scalar": lambda: theta_scalar(F0),
        "big1": lambda: big_theta(F0, 1),
        "big2": lambda: big_theta(F0, 2),
        "composite": lambda: big_theta_composite(F0),
        "t1": lambda: theta_j(pin_form(p, 4), 1),
        "t2": lambda: theta_j(pin_form(p, 3), 2),
        "t3": lambda: theta_j(pin_form(p, 2), 3),
        "t2x4": lambda: _fourfold_theta_2(F1),
        "t1_p-2": lambda: theta_j(pin_form(p, p - 2), 1),
        "t1_p-1": lambda: theta_j(pin_form(p, p - 1), 1),
        "closed1": lambda: theta2_iterate_closed(F1, 1),
        "closed2": lambda: theta2_iterate_closed(F1, 2),
    }
    out = {}
    for name, op in operators.items():
        try:
            out[name] = _sha(serialize(op()))
        except ThetaError:
            out[name] = None
    for j in (1, 2, 3):
        texts = []
        for n in range(p):
            try:
                texts.append(serialize(theta_j(pin_form(p, n), j)))
            except ThetaError:
                texts.append("undefined\n")
        out[f"t{j} every n"] = _sha("".join(texts))
    return out


PIN_PRIMES = (5, 7, 11, 13)
# sha256 of serialize(output) at p = 5, 7, 11 and 13; None where the
# operator refuses its input (theta_2 at n = 3 needs p >= 7)
THETA_PINS = {
    "scalar": (
        "882f03c9762c6bedde099fdaee1b138d5b6972bdaa9385e7e0b9a740896eb924",
        "d814097782287cd2be4ff85f844acd96de8d8d1a10866daabd594e4dd73808d0",
        "44a56e23231bdd9c8467d384ecd9e307b1553e4d7bd1ceb1120405f9efcb12c1",
        "c787212381dde25f64120f66100aa748a0bfb6475ec969dae0422da473bb4bf6"),
    "big1": (
        "c9b75a5d63885a83d4e452d4c2cdf9c1fbd0dc8768fdf5ffc00ef6b9ff352b40",
        "c4da4feb1a034f728edbc15c2ca2ca9251b157ffd032588cce14b909d9631f0d",
        "5dc5aad3f87c6c1f9f9b0472a8f19204622a7db4da16d25655c51fe1baa0f75d",
        "5567c54beff607979469394e70b64f832ecc452eddf18e90ef63c9b4ccdce492"),
    "big2": (
        "9d113d33344825bde0fab39d4b1eb7026a36fc2e9e84c0e7dcae8aa865073084",
        "e88c9a5253d624b7abfac2e75f2b119657e45d785645fd091888a3dde524e7dc",
        "947eb8f5b292b1abd702f64f667dc5b251f82456b62984eb0c041156ac02f821",
        "ec64fd2aa480d1b7a2f63ebe5a91314daa51d30d660471322d2b54a593c4fa24"),
    "composite": (
        "c9b75a5d63885a83d4e452d4c2cdf9c1fbd0dc8768fdf5ffc00ef6b9ff352b40",
        "c4da4feb1a034f728edbc15c2ca2ca9251b157ffd032588cce14b909d9631f0d",
        "5dc5aad3f87c6c1f9f9b0472a8f19204622a7db4da16d25655c51fe1baa0f75d",
        "5567c54beff607979469394e70b64f832ecc452eddf18e90ef63c9b4ccdce492"),
    "t1": (
        "f055a4db64ce1b699abddd4b8563e22e2490ff0c7e171a3ef755a981eea45f13",
        "27e54cb402670b575564f0771d1272828df89ed116ba3e89675e527ae6146dda",
        "290d1408c6d72f5089a809f03147c823f3a206fecf95dfe3f36fad14146feb4e",
        "1e85bf8a6caff2506c265ec7c5639346d707d12ef0d05400d90cc79d0372477b"),
    "t2": (
        None,
        "183fc887187a81bffaad487f54b1a22a37fcedce9e7538ee0c85dea8592e5940",
        "e110df806479e0e5ccb23e8a1119e862dbcee76bd367f0aa2c2defd291e91989",
        "dc852c8a532195274b7eb0372fcbcba8b1c809fcf1441a68d2e2121ea385d31e"),
    "t3": (
        "488ff84421d9dd566c4245621ee96913a6c5df61ba9ca58d4ca70e181a6d5429",
        "a19869fe3218d84e92db64cd73a1fd7a075cc862da293a6cbe13ede7075d7ead",
        "1197e14c541cf9791dd4a8b7e0796b8228f73aa9037017006812af993e9507d4",
        "851df5d9109f4f62640d2edc86b2c721e6c7cc893ed8160fdb6b58ae2766b85b"),
    "t2x4": (
        "0ef785712426c0b11e7ed6dda9c7d5c676a04a9c0040f1094b6ad2f28b1f6949",
        "b43291787675bc68ef838eb486c716eed8a2ed010b8566572ee0a5da9450954a",
        "722655e1edd36c3112444810a0e884abfdb2f66a5cfaf208ec5ec51d94f2a479",
        "cf13e1128e90c6fd9c3735643b6e5a147a97ed33c928b1f60a66e6103c708737"),
    "t1_p-2": (
        "230aaf44a69583ed7e8377c74213dbedb12d477f0433880bf56a8eab72af82b7",
        "4504a10acd873720d5ce38afe47b7462ca8254a376f3654820fa3663878b2054",
        "a677f703b349f15866ba9cfb4fa711fcdc9441189d795bea9173d56cae3feaf0",
        "5263a1d74b8e1acb6ae400a10e682f8dcf6168816e41526b8e85de689146d6ce"),
    "t1_p-1": (
        "f055a4db64ce1b699abddd4b8563e22e2490ff0c7e171a3ef755a981eea45f13",
        "c84cb71ca22490e4d9803e0336c709fb42ba6bf40fe6fe622b9a0c43d3a44c43",
        "72ecf77a07c8444d9abcbcadf7bb43b1944624fa74bd3edf9ce5dd832f79fb8d",
        "a30c8b2296bf4e5b9ff65e44dc30cb304bb5bcbc4c485e8382c825c946857fa5"),
    "closed1": (
        "eb53168b78730ee707cd47f1bdd20f2f0e774e793423f2a54ac9f68e42260376",
        "b43291787675bc68ef838eb486c716eed8a2ed010b8566572ee0a5da9450954a",
        "320bde9b6e5afa0b8367e08d430bda0d30facc6c1615120205418797f82699c0",
        "8b658b71190814a18ace144074167c2002dca62a0574a41cd6a002e7a895cf4d"),
    "closed2": (
        "bd9810274ccebdfcb78ef584f5e421e5c1e5e7635331e7e79b490d7242a49925",
        "0ca4163bf11b0f40a7fcd31b85927eec0bcb09e45e1360a381d39b6bdf7dc56f",
        "c0dab491936806ad90dea50136f3b983d0f25af1b40a6bdb87376c0d2b9d7b91",
        "7f43f65572d5e20730994b1e3c21c8e6b915ab9d2f4bf822fc8734ff40ca1ed7"),
    "t1 every n": (
        "137433023c25f6f196c0223e85ae29a2b9d325aa0be38dc4d4744188bf68204a",
        "270ca83a03cefe9547f7fcfa4d5cc8395d1a381be8efa668302e2e865f1bbcf3",
        "53dd10953c8023c87f74787fdb2bf826acab895f08ea394b9cd87308f1eb3d7a",
        "82396e15b5a43cbf34e96d4380f560e7743a83921a3c3d080496179296aab8bc"),
    "t2 every n": (
        "a0d72c7e8c78810e5f2ec14d6faf8e689dac7b68e1f97c90220495e453cc9666",
        "aafec71981ce8f3f434ad72dcd79b848900176e9037afe141594129ef020ed12",
        "b7e0ba040b17d7a1c33cebc8b9389d0944f840fd32452dfee883ea6607b14466",
        "96217b751bdec6ad25e27b2b6dd18c8a095672c4d4edd6b26a02e0932ddc0aab"),
    "t3 every n": (
        "2d5c9d1010cedec342318f155f55ce47a301cfb6e0adc2b59d89dab231aa11f0",
        "e1b1b4428d5cc8c16483b88683ee2436e432bb44b6bb55e7add8e2351c0e6837",
        "ac15ef3ae007d8811a4de280a0d12931fd15b92d6ebba906c4eb2d2e95a9b353",
        "826c2d5cee870fc32ba053b86991bccefea30e32e8cc5a07474ac182e2ae926b"),
}


@pytest.mark.parametrize("p", PIN_PRIMES)
def test_theta_outputs_are_pinned(p):
    """Every operator's output, byte for byte, as first recorded."""
    at = PIN_PRIMES.index(p)
    assert theta_digests(p) == {name: pins[at]
                                for name, pins in THETA_PINS.items()}


def test_theta_scalar_is_theta_3_on_scalar_forms():
    for p in (7, 11, 13):
        for k in (2, 5):
            F = mk(p, 4, (k, k), rand_support(random.Random(p * k), p, 0, 8))
            assert theta_scalar(F) == theta_j(F, 3)
        F = pin_form(p, 0)
        assert theta_scalar(F) == theta_j(F, 3)

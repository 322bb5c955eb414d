import random
import time

import pytest

import pieri_oracle
from siegelmodp.rep import (PieriSplit, RepVector, Weight, pieri_component,
                            pieri_reassemble, pieri_split, rep_apply)


def rand_gl2(rng, p):
    while True:
        g = ((rng.randrange(p), rng.randrange(p)),
             (rng.randrange(p), rng.randrange(p)))
        if (g[0][0] * g[1][1] - g[0][1] * g[1][0]) % p:
            return g


def rand_tensor(rng, n, p):
    return {(i, j): rng.randrange(p) for i in range(n + 1) for j in range(3)}


def test_weight():
    w = Weight(5, 2)
    assert w.n == 3
    with pytest.raises(ValueError):
        Weight(1, 2)


def test_rep_apply_identity_and_composition():
    p = 7
    rng = random.Random(0)
    w = Weight(4, 1)
    v = RepVector(3, 1, (1, 2, 3, 4))
    ident = ((1, 0), (0, 1))
    assert rep_apply(w, ident, v, p) == v
    g = rand_gl2(rng, p)
    h = rand_gl2(rng, p)
    gh = tuple(tuple(sum(g[i][k] * h[k][j] for k in range(2)) % p
                     for j in range(2)) for i in range(2))
    assert rep_apply(w, g, rep_apply(w, h, v, p), p) == rep_apply(w, gh, v, p)
    with pytest.raises(ValueError, match="singular"):
        rep_apply(w, ((1, 1), (1, 1)), v, p)
    # k2 < 0: g = diag(2, 1) scales u_i = e1^(2-i) e2^i by 2^(2-i), and
    # det^-1 = 2^-1 = 4 mod 7
    got = rep_apply(Weight(1, -1), ((2, 0), (0, 1)),
                    RepVector(2, -1, (1, 2, 3)), p)
    assert got.coords == (4 * 4 * 1 % p, 2 * 4 * 2 % p, 1 * 4 * 3 % p)


def test_sym2_of_index():
    # a e1^2 + b e1 e2 + c e2^2 in V(2) transforms like the quadratic form
    # a x^2 + b xy + c y^2 under U T tU
    p = 11
    rng = random.Random(1)
    for _ in range(20):
        a, b, c = rng.randrange(p), rng.randrange(p), rng.randrange(p)
        g = rand_gl2(rng, p)
        (u1, u2), (x, y) = g
        aU = (a * u1 * u1 + b * u1 * u2 + c * u2 * u2) % p
        cU = (a * x * x + b * x * y + c * y * y) % p
        bU = (2 * (a * u1 * x + c * u2 * y) + b * (u1 * y + u2 * x)) % p
        got = rep_apply(Weight(2, 0), g, RepVector(2, 0, (a, b, c)), p)
        assert got.coords == (aU, bU, cU)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_pieri_roundtrip_and_dimensions(p):
    rng = random.Random(p)
    for n in range(0, p - 2):
        x = rand_tensor(rng, n, p)
        split = pieri_split(n, p, x)
        sizes = [len(c.coords) for c in (split.x0, split.x1, split.x2)
                 if c is not None]
        assert sum(sizes) == 3 * (n + 1)
        back = pieri_reassemble(split, n, p)
        assert back == {k: v % p for k, v in x.items() if v % p}


@pytest.mark.parametrize("p", [5, 7])
def test_pieri_equivariance(p):
    rng = random.Random(p + 1)
    for n in range(0, p):
        comp_weights = {"x0": (n + 2, 0), "x1": (n, 1), "x2": (n - 2, 2)}
        for _ in range(10):
            x = rand_tensor(rng, n, p)
            g = rand_gl2(rng, p)
            sx = pieri_split(n, p, x)
            sgx = pieri_split(n, p, pieri_oracle.tensor_action(n, 0, g, x, p))
            for name in ("x0", "x1", "x2"):
                cx, cgx = getattr(sx, name), getattr(sgx, name)
                assert (cx is None) == (cgx is None)
                if cx is None:
                    continue
                nc, mc = comp_weights[name]
                moved = rep_apply(Weight(nc + mc, mc), g, cx, p)
                assert moved == cgx, (p, n, name)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_degenerate_split_only_x2(p):
    rng = random.Random(3)
    for n in (p - 2, p - 1):
        x = rand_tensor(rng, n, p)
        split = pieri_split(n, p, x)
        assert split.x0 is None and split.x1 is None
        assert split.x2.n == n - 2 and split.x2.m == 2


def test_pieri_small_degrees():
    # n = 0: only the x0 component; n = 1: x0 and x1
    s = pieri_split(0, 7, {(0, 0): 1, (0, 1): 2, (0, 2): 3})
    assert s.x1 is None and s.x2 is None and s.x0 is not None
    s = pieri_split(1, 7, {(0, 0): 1, (1, 2): 3})
    assert s.x2 is None and s.x0 is not None and s.x1 is not None


def test_pieri_errors():
    with pytest.raises(ValueError):
        pieri_split(-1, 5, {})
    with pytest.raises(ValueError):
        pieri_split(5, 5, {})
    with pytest.raises(ValueError, match="out of range"):
        pieri_split(2, 5, {(3, 0): 1})
    with pytest.raises(ValueError, match="out of range"):
        pieri_split(4, 5, {(0, -1): 1})
    # the split needs a prime p >= 5
    for p in (2, 3):
        for n in range(-1, p + 1):
            with pytest.raises(ValueError):
                pieri_split(n, p, {})
            with pytest.raises(ValueError):
                pieri_reassemble(PieriSplit(None, None, None), n, p)


@pytest.mark.parametrize("call, message", [
    (lambda: pieri_split(10 ** 12, 5, {}), "split undefined at this degree"),
    (lambda: pieri_split(-1, 5, {}), "negative symmetric degree"),
    (lambda: pieri_component(10 ** 12, 5, [], 0),
     "split undefined at this degree"),
    (lambda: pieri_component(2, 5, ([0] * 3,) * 3, -1),
     "no Pieri component -1; choose 0, 1 or 2"),
    (lambda: pieri_component(2, 5, ([0] * 3,) * 3, 3),
     "no Pieri component 3; choose 0, 1 or 2"),
    (lambda: pieri_component(2, 5, ([0] * 3, [0] * 3, [0] * 2), 0),
     "3 columns of length 3"),
    (lambda: pieri_component(2, 5, ([0] * 3,) * 2, 2),
     "3 columns of length 3"),
    (lambda: pieri_component(2, 5, ([0] * 3,) * 4, 2),
     "3 columns of length 3"),
    (lambda: pieri_component(3, 5, ([0] * 4,) * 2, 0),
     "3 columns of length 4"),
    (lambda: pieri_component(10 ** 7, 10 ** 9 + 7, [], 1),
     "3 columns of length 10000001"),
], ids=["split_huge_n", "split_negative_n", "component_huge_n", "r=-1",
        "r=3", "short_column", "two_columns", "four_columns",
        "absent_component", "no_columns_at_a_large_degree"])
def test_projector_refuses_before_it_allocates(call, message):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        call()
    assert time.perf_counter() - start < 0.1


def test_projector_refusals_keep_their_precedence():
    # p, then the degree, then r, then the columns
    with pytest.raises(ValueError, match="prime"):
        pieri_component(-1, 4, {}, 5)
    with pytest.raises(ValueError, match="negative"):
        pieri_component(-1, 5, {}, 5)
    with pytest.raises(ValueError, match="undefined"):
        pieri_component(5, 5, {}, 5)
    with pytest.raises(ValueError, match="no Pieri component"):
        pieri_component(2, 5, {}, 5)
    with pytest.raises(ValueError, match="prime"):
        pieri_split(-1, 4, {(9, 9): 1})
    with pytest.raises(ValueError, match="undefined"):
        pieri_split(5, 5, {(9, 9): 1})


def _outcome(fn, *args):
    """fn(*args), or the ValueError class when it raises one."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_pieri_matches_linear_algebra_oracle(p):
    rng = random.Random(100 + p)
    for n in range(-1, p + 1):
        dims = range(max(n + 1, 0))
        tensors = [{(i, j): 1} for i in dims for j in range(3)]
        tensors += [{(i, j): rng.randrange(-p, 2 * p) for i in dims
                     for j in range(3)} for _ in range(4)]
        for x in tensors:
            split = _outcome(pieri_split, n, p, x)
            want = _outcome(pieri_oracle.pieri_split, n, p, x)
            assert split == want, (p, n, x)
            cols = [[x.get((i, j), 0) for i in dims] for j in range(3)]
            for r in range(3):
                assert (_outcome(pieri_component, n, p, cols, r)
                        == (want if want is ValueError
                            else getattr(want, f"x{r}"))), (p, n, r, x)
            if split is ValueError:
                continue
            assert (_outcome(pieri_reassemble, split, n, p)
                    == _outcome(pieri_oracle.pieri_reassemble, split, n, p)), \
                (p, n, x)


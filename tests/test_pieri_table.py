"""theta_j_coefficient reads the Pieri table; the linear-algebra
oracle of ``pieri_oracle`` checks it on the tensor (vec / N) (x) (a X^2 +
b XY + c Y^2) at every degree and operator where the component exists."""

import random
import tracemalloc

import pytest

import pieri_oracle
from siegelmodp import rep
from siegelmodp.qexp import QExpansion
from siegelmodp.rep import Weight, has_pieri_component
from siegelmodp.theta import theta_j, theta_j_coefficient


def _random_index(rng, p):
    """(a, b, c) with entries of either sign and any size, zeros included."""
    return tuple(rng.choice((0, 0, 1, -1, rng.randrange(-3 * p, 3 * p)))
                 for _ in range(3))


def _random_vec(rng, p, n):
    return tuple(rng.choice((0, rng.randrange(p))) for _ in range(n + 1))


def _check_against_oracle(rng, p, n, N):
    T, vec = _random_index(rng, p), _random_vec(rng, p, n)
    ninv = pow(N % p, p - 2, p)
    x = {(i, jj): v * ninv * t for i, v in enumerate(vec)
         for jj, t in enumerate(T)}
    want = pieri_oracle.pieri_split(n, p, x)
    for j in (1, 2, 3):
        if not has_pieri_component(n, p, 3 - j):
            continue
        assert theta_j_coefficient(vec, T, n, p, N, j) == getattr(
            want, f"x{3 - j}"), (p, n, N, j, T, vec)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_theta_j_coefficient_matches_the_oracle(p):
    rng = random.Random(300 + p)
    for n in range(p):
        for N in (1, 2, 3, 4 * p + 1):
            for _ in range(3):
                _check_against_oracle(rng, p, n, N)


def test_theta_j_coefficient_matches_the_oracle_at_a_large_prime():
    p = 10 ** 9 + 7
    rng = random.Random(17)
    for n in (0, 1, 2, 3, 6):
        for N in (1, 5, p + 2):
            _check_against_oracle(rng, p, n, N)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_table_rows_hold_at_most_three_nonzero_terms(p):
    """Each flat row (i0, w0, i1, w1, i2, w2) holds one (source, weight)
    pair per column, a source in 0..n and a residue weight; its nonzero
    terms are the oracle's (column, source, weight) triples."""
    for n in range(p):
        for r in range(3):
            rows = rep._pieri_table(n, p, r)
            want = pieri_oracle.pieri_table_triples(n, p, r)
            if not has_pieri_component(n, p, r):
                assert rows is None and want is None
                continue
            assert len(rows) == len(want) == n + 3 - 2 * r
            for row, triples in zip(rows, want):
                assert len(row) == 6
                assert all(0 <= i <= n for i in row[0::2])
                assert all(0 <= w < p for w in row[1::2])
                terms = {(c, row[2 * c], row[2 * c + 1]) for c in range(3)
                         if row[2 * c + 1]}
                assert terms == set(triples), (p, n, r, row, triples)


def test_a_theta_1_chain_holds_one_table():
    """Each theta_1 step lowers n by 2, so its table is never read again;
    ten steps from n = 1008 keep one table (about 0.5 MB), not ten."""
    p = 1009
    rng = random.Random(35)
    vec = tuple(rng.randrange(1, p) for _ in range(p))
    G = QExpansion(p=p, N=3, weight=Weight(p + 3, 4),
                   support={(1, 1, 1): vec})
    rep._pieri_table.cache_clear()
    tracemalloc.start()
    try:
        for _ in range(10):
            G = theta_j(G, 1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert G.weight.n == p - 21 and G.support
    assert held < 1.5e6, held

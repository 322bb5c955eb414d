from itertools import product
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelmodp.arith import (Fp, Fp2, Series1, Series3, _check_prime,
                              all_zetas, echelon, find_zeta, is_prime, kernel)


def test_is_prime():
    assert [n for n in range(2, 32) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 20000) if is_prime(n)] == \
        [n for n in range(-3, 20000) if _trial_division(n)]


def test_is_prime_large():
    assert is_prime(10 ** 18 + 3) and is_prime(2 ** 61 - 1)
    # strong pseudoprimes to every prime base up to 23, and up to 37
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    # the smallest strong pseudoprime to the first 13 prime bases is the
    # bound of the test: composites with a small factor are still decided
    bound = 3317044064679887385961981
    assert not is_prime(2 * bound)
    with pytest.raises(ValueError, match="only decided below"):
        is_prime(bound)
    for p in (bound, bound + 2, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=f"p must be below {bound}"):
            _check_prime(p)
    _check_prime(10 ** 18 + 3)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_fp_field_axioms(p):
    F = Fp(p)
    for a in range(1, p):
        assert F.mul(a, F.inv(a)) == 1
        assert pow(a, p - 1, p) == 1
    assert F.frob(3) == 3 % p
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def elements(K):
    """Every element of F_{p^2}, in lexicographic order."""
    return ((a, b) for a in range(K.p) for b in range(K.p))


@pytest.mark.parametrize("p", [5, 7, 11])
def test_fp2_field(p):
    K = Fp2(p)
    # every nonzero element is invertible and frob is the p-power map
    for x in elements(K):
        if K.is_zero(x):
            continue
        assert K.mul(x, K.inv(x)) == K.one
        assert K.frob(x) == K.pow(x, p)
        assert K.frob(K.frob(x)) == x
        # a negative power is the inverse of the positive one
        assert K.pow(x, -3) == K.inv(K.pow(x, 3))
        assert K.pow(x, -1) == K.inv(x)
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        K.inv((0, 0))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_zeta(p):
    K = Fp2(p)
    z = find_zeta(p)
    assert K.pow(z, p + 1) == K.neg(K.one)
    zs = all_zetas(p)
    assert len(zs) == p + 1 and z in zs


def test_zeta_at_a_safe_prime_neighbour():
    # a safe prime: p - 1 = 2q with q prime
    p = 20000000000000002559
    K = Fp2(p)
    assert K.pow(find_zeta(p), p + 1) == K.neg(K.one)


def test_all_zetas_matches_scan():
    """The points of the norm conic are exactly the roots a full scan of
    F_{p^2} finds, in the scan's order."""
    for p in range(5, 60):
        if is_prime(p):
            K = Fp2(p)
            minus_one = K.neg(K.one)
            scan = [x for x in elements(K)
                    if K.pow(x, p + 1) == minus_one]
            assert all_zetas(p) == scan, p


def test_nonresidue_matches_the_squares():
    """Fp2 finds r by Euler's criterion; the set of all squares gives the
    same r."""
    for p in range(5, 200):
        if not is_prime(p):
            continue
        squares = {x * x % p for x in range(p)}
        assert Fp2(p).r == min(r for r in range(2, p) if r not in squares), p


# ---------------------------------------------------------------------------
# echelon and kernel, against enumeration over F_5
# ---------------------------------------------------------------------------

def _span(rows, p, width):
    """Every F_p-combination of ``rows``, enumerated."""
    return {tuple(sum(c * row[i] for c, row in zip(cs, rows)) % p
                  for i in range(width))
            for cs in product(range(p), repeat=len(rows))}


def _check_echelon_and_kernel(rows, p, width):
    reduced, pivots = echelon(rows, p)
    assert len(reduced) == len(pivots) and list(pivots) == sorted(set(pivots))
    for row, pc in zip(reduced, pivots):
        assert len(row) == width and all(0 <= x < p for x in row)
        assert not any(row[:pc]) and row[pc] == 1
        assert [other[pc] for other in reduced].count(0) == len(reduced) - 1
    span = _span(rows, p, width)
    assert _span(reduced, p, width) == span
    # equal spans give equal output: generate the span by all its vectors
    assert echelon(sorted(span), p)[0] == reduced
    assert echelon(sorted(span, reverse=True), p)[0] == reduced
    kern = kernel(rows, p, width)
    assert echelon(kern, p)[0] == kern
    assert _span(kern, p, width) == {
        x for x in product(range(p), repeat=width)
        if all(sum(a * b for a, b in zip(row, x)) % p == 0 for row in rows)}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(lambda width: st.tuples(
    st.just(width),
    st.lists(st.tuples(*[st.integers(-7, 12)] * width), max_size=5))))
def test_echelon_and_kernel_by_enumeration(case):
    width, rows = case
    _check_echelon_and_kernel(rows, 5, width)


def test_echelon_and_kernel_at_width_six():
    # the third row is the first plus twice the second, the fifth the
    # first plus the fourth
    rows = [(0, 1, 2, 0, 3, 4), (0, 2, 4, 1, 1, -2), (0, 5, -10, 2, 10, 0),
            (3, 0, 0, 0, 0, -1), (-2, 6, 2, 0, 3, -2)]
    assert len(echelon(rows, 5)[0]) == 3
    _check_echelon_and_kernel(rows, 5, 6)


# ---------------------------------------------------------------------------
# Series1
# ---------------------------------------------------------------------------

def s1(p, cutoff, coeffs):
    return Series1(Fp(p), cutoff, coeffs)


def test_series1_basics():
    f = s1(7, 10, {0: 1, 3: 2})
    g = s1(7, 10, {1: 4})
    assert f.add(g).coeffs == {0: 1, 1: 4, 3: 2}
    assert f.mul(g).coeffs == {1: 4, 4: 1}
    assert f.order() == 0 and g.order() == 1
    assert f.sub(f).is_zero()


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.integers(min_value=-3, max_value=8),
                       st.integers(min_value=0, max_value=6), max_size=5))
def test_series1_inverse_roundtrip(coeffs):
    f = s1(7, 9, coeffs)
    if f.is_zero():
        return
    inv = f.inverse()
    prod = f.mul(inv)
    # f * f^{-1} = 1; for Laurent input the truncated tail of the inverse
    # can only pollute exponents at or above cutoff + order(f)
    assert prod.coeffs.get(0) == 1
    bound = prod.cutoff + min(f.order(), 0)
    assert all(e == 0 for e in prod.coeffs if e < bound)


def test_series1_frobenius_substitute():
    f = s1(5, 200, {1: 2, 3: 1})
    g = f.frobenius_substitute(1)
    assert g.coeffs == {5: 2, 15: 1}
    h = f.frobenius_substitute(2)
    assert h.coeffs == {25: 2, 75: 1}
    # coefficient Frobenius conjugates over Fp2
    K = Fp2(5)
    z = find_zeta(5)
    f2 = Series1(K, 200, {1: z})
    assert f2.frobenius_substitute(1).coeffs == {5: K.frob(z)}


def test_series1_precision():
    F, K = Fp(5), 10
    f = s1(5, K, {3: 1})
    # t^3 twisted once lands past the cutoff: truncated, and still exact
    assert f.frobenius_substitute(1).is_zero()
    assert f.frobenius_substitute(1).prec == K
    assert f.frobenius_substitute(0) is f
    # a zero known mod t^4 is its own negative, and a sum is known as far
    # as its least precise term
    z = Series1(F, K, prec=4)
    assert z.neg() is z
    assert f.sub(z).coeffs == f.coeffs and f.sub(z).prec == 4
    # prec(f*g) = min(prec f + val g, prec g + val f), and an exact zero
    # times a power series is an exact zero
    assert f.mul(z).prec == z.mul(f).prec == 7
    assert Series1.zero(F, K).mul(z).prec == K
    assert Series1(F, K, prec=-3).mul(s1(5, K, {-2: 1})).prec == -5
    # Frobenius multiplies the precision, up to K
    assert z.frobenius_substitute(1).prec == K
    assert Series1(F, 100, prec=4).frobenius_substitute(1).prec == 20
    # inverting t^e * u costs 2e: t^8 and t^9 of 1/(t^2 + t^3) would need
    # terms of t^2 + t^3 past the cutoff
    inv = s1(5, K, {2: 1, 3: 1}).inverse()
    assert inv.prec == 6
    assert inv.coeffs == {e: (-1) ** e % 5 for e in range(-2, 8)}
    # a series that is zero to its precision has no lowest term to invert
    with pytest.raises(ZeroDivisionError):
        Series1(F, K, {6: 1}, prec=5).inverse()
    with pytest.raises(ZeroDivisionError):
        Series1.zero(F, K).inverse()


def test_series1_laurent_inverse():
    f = s1(7, 10, {-2: 3, 0: 1})
    prod = f.mul(f.inverse())
    assert prod.coeffs.get(0) == 1
    # exact below cutoff + order(f) = 8
    assert all(e == 0 or e >= 8 for e in prod.coeffs)


# ---------------------------------------------------------------------------
# Series3
# ---------------------------------------------------------------------------

def test_series3_arithmetic():
    p, K = 7, 5
    t11 = Series3.var(p, K, "t11")
    t22 = Series3.var(p, K, "t22")
    f = t11.mul(t22).add(Series3.const(p, K, 3))
    assert f.constant_term() == 3
    assert f.derivation("t11") == t22
    assert f.derivation("t12").is_zero()
    assert f.mul(f.inverse()).truncate_below(K) == \
        Series3.const(p, K, 1).truncate_below(K)
    with pytest.raises(ZeroDivisionError):
        t11.inverse()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                    st.integers(0, 2)),
                          st.integers(0, 6)), max_size=6))
def test_series3_derivations_commute(entries):
    f = Series3(7, 6, dict(entries))
    for v1 in Series3.VARS:
        for v2 in Series3.VARS:
            assert f.derivation(v1).derivation(v2) == \
                f.derivation(v2).derivation(v1)


def test_series3_leibniz():
    p, K = 5, 6
    t11 = Series3.var(p, K, "t11")
    t12 = Series3.var(p, K, "t12")
    f = t11.mul(t11).add(t12)
    g = t12.mul(t11).add(Series3.const(p, K, 2))
    for v in Series3.VARS:
        lhs = f.mul(g).derivation(v)
        rhs = f.derivation(v).mul(g).add(f.mul(g.derivation(v)))
        assert lhs.truncate_below(K - 1) == rhs.truncate_below(K - 1)

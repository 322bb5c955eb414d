"""``arith``'s truncated series against the pair-by-pair reference in
``series_oracle``: equal cutoffs, coefficients and precisions on Fp and
Fp2, Laurent exponents, operands of different cutoffs, exact-zero operands
and precisions below the cutoff on either side."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import series_oracle as oracle
from siegelmodp.arith import Fp, Fp2, Series1, Series3

FIELDS = (Fp(5), Fp(7), Fp2(5), Fp2(7))


def elements(F):
    if isinstance(F, Fp2):
        return st.tuples(st.integers(0, F.p - 1), st.integers(0, F.p - 1))
    return st.integers(0, F.p - 1)


def series1(F):
    coeffs = st.one_of(st.just({}), st.dictionaries(
        st.integers(-3, 9), elements(F), max_size=6))
    return st.builds(lambda K, c, prec: Series1(F, K, c, prec=prec),
                     st.integers(-2, 8), coeffs,
                     st.one_of(st.none(), st.integers(-6, 8)))


def series3(p):
    coeffs = st.one_of(st.just({}), st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * 3), st.integers(-2 * p, 2 * p),
        max_size=8))
    return st.builds(lambda K, c: Series3(p, K, c), st.integers(0, 8), coeffs)


def assert_same(got, want):
    assert got.cutoff == want.cutoff
    assert got.coeffs == want.coeffs
    assert getattr(got, "prec", None) == getattr(want, "prec", None)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(lambda F: st.tuples(
    series1(F), series1(F), elements(F), st.integers(-4, 4),
    st.integers(0, 2))))
def test_series1_matches_the_oracle(case):
    f, g, c, e0, s = case
    for a, b in ((f, g), (g, f)):
        assert_same(a.add(b), oracle.add1(a, b))
        assert_same(a.sub(b), oracle.sub1(a, b))
        assert_same(a.mul(b), oracle.mul1(a, b))
    assert_same(f.neg(), oracle.neg1(f))
    assert_same(f.scal(c), oracle.scal1(f, c))
    assert_same(f.shift(e0), oracle.shift1(f, e0))
    assert_same(f.frobenius_substitute(s), oracle.frobenius_substitute1(f, s))
    if f.coeffs and min(f.coeffs) < f.prec:
        assert_same(f.inverse(), oracle.inverse1(f))
    else:
        with pytest.raises(ZeroDivisionError):
            f.inverse()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((5, 7)).flatmap(lambda p: st.tuples(
    series3(p), series3(p), st.integers(-2 * p, 2 * p))))
def test_series3_matches_the_oracle(case):
    f, g, c = case
    for a, b in ((f, g), (g, f)):
        assert_same(a.add(b), oracle.add3(a, b))
        assert_same(a.sub(b), oracle.sub3(a, b))
        assert_same(a.mul(b), oracle.mul3(a, b))
    assert_same(f.neg(), oracle.neg3(f))
    assert_same(f.scal(c), oracle.scal3(f, c))
    for name in Series3.VARS:
        assert_same(f.derivation(name), oracle.derivation3(f, name))
    if f.constant_term():
        assert_same(f.inverse(), oracle.inverse3(f))


@pytest.mark.parametrize("F", FIELDS)
def test_series1_inverse_matches_the_neumann_series(F):
    """The recurrence against the geometric series it replaced, on dense
    series: Laurent and positive lowest terms, cutoffs up to 40, the
    precision at or below the cutoff."""
    rng = random.Random(repr(F))
    draw = (lambda: rng.randrange(F.p)) if isinstance(F, Fp) else \
        (lambda: (rng.randrange(F.p), rng.randrange(F.p)))
    for _ in range(60):
        K = rng.randint(1, 40)
        e0 = rng.randint(-5, K - 1)
        coeffs = {e: draw() for e in range(e0, K) if rng.random() < 0.8}
        coeffs[e0] = F.one
        prec = rng.choice((None, rng.randint(e0 + 1, K)))
        f = Series1(F, K, coeffs, prec=prec)
        assert_same(f.inverse(), oracle.neumann_inverse1(f))

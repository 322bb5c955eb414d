"""The precision a ``Series1`` carries is sound: random chains of operations
run twice, at small cutoffs K and at K + 40, from inputs that agree only as
far as the small-cutoff inputs claim to be known, and every result must
agree with its reference below its precision wherever the reference is
known at least as far.  (K + 400 passes too, but its inverses fill some 400
terms and the run takes minutes.)"""

import random

import pytest

from siegelmodp.arith import Fp, Fp2, Series1

FIELDS = (Fp(5), Fp(7), Fp2(5), Fp2(7))
EXTRA = 40
CHAINS, STEPS = 400, 20


def _element(rng, F):
    while True:
        c = ((rng.randrange(F.p), rng.randrange(F.p)) if isinstance(F, Fp2)
             else rng.randrange(F.p))
        if not F.is_zero(c):
            return c


def _terms(rng, F, lo, hi, n):
    """At most n nonzero terms at exponents in [lo, hi)."""
    exps = range(lo, hi)
    return {e: _element(rng, F) for e in rng.sample(exps, min(n, len(exps)))}


def _input(rng, F):
    """A series at a small cutoff K, with precision P <= K, and a reference
    at K + EXTRA, exact, that agrees with it below P: above P each has
    terms of its own."""
    K = rng.randrange(-2, 13)
    P = K if rng.random() < 0.6 else K - rng.randrange(0, 6)
    known = _terms(rng, F, -3, P, rng.randrange(0, 5))
    small = {**known, **_terms(rng, F, P, K, rng.randrange(0, 3))}
    ref = {**known, **_terms(rng, F, P, K + 12, rng.randrange(0, 4))}
    return Series1(F, K, small, prec=P), Series1(F, K + EXTRA, ref)


def _step(rng, F, pool):
    (f, fr), (g, gr) = rng.choice(pool), rng.choice(pool)
    op = rng.choice(("add", "sub", "mul", "neg", "scal", "frob", "inverse"))
    if op in ("add", "sub", "mul"):
        return getattr(f, op)(g), getattr(fr, op)(gr)
    if op == "neg":
        return f.neg(), fr.neg()
    if op == "scal":
        c = _element(rng, F)
        return f.scal(c), fr.scal(c)
    if op == "frob":
        s = rng.randrange(0, 3)
        return f.frobenius_substitute(s), fr.frobenius_substitute(s)
    zero = [s for s in (f, fr) if not s.coeffs or min(s.coeffs) >= s.prec]
    if zero:  # zero to its precision: no lowest term to invert
        with pytest.raises(ZeroDivisionError):
            zero[0].inverse()
        return None
    return f.inverse(), fr.inverse()


def _agree(got, ref) -> bool:
    """Equal coefficients below ``got.prec``."""
    zero = got.field.zero
    return all(got.coeffs.get(e, zero) == ref.coeffs.get(e, zero)
               for e in set(got.coeffs) | set(ref.coeffs) if e < got.prec)


def test_precision_is_sound_on_random_chains():
    rng = random.Random(20140)
    compared = 0
    for _ in range(CHAINS):
        F = rng.choice(FIELDS)
        pool = [_input(rng, F) for _ in range(3)]
        for _ in range(STEPS):
            out = _step(rng, F, pool)
            if out is None:
                continue
            got, ref = out
            assert got.prec <= got.cutoff and ref.prec <= ref.cutoff
            if ref.prec >= got.prec:
                compared += 1
                assert _agree(got, ref), (got, got.prec, ref)
            pool.append(out)
    assert compared > CHAINS * STEPS // 2

import hashlib
import random
from itertools import product

import pytest

from siegelmodp.arith import Series1, all_zetas
from siegelmodp.strata import (HASSE_CASES, PHI_VALUES, CanonicalType,
                               ChaseError, ElementarySequence, FinalSequence,
                               StrataError, _mat_image, _mat_preimage,
                               canonical_filtration_compute, chase, eo_tables,
                               model_0_1, model_1_1, partial_hasse_order,
                               partial_hasse_report, zeta_independent)
from strata_oracle import adjunction_holds, point_model_products_vanish


def test_eo_tables_printed_data():
    tabs = eo_tables()
    assert set(tabs) == set(PHI_VALUES)
    rec = tabs[(0, 1)]
    assert rec.elementary.f == 0 and rec.elementary.a == 1
    assert rec.final.psi == (0, 1, 1, 2)
    assert rec.canonical.pi == (2, 0, 3, 1) and rec.canonical.n == 4
    assert tabs[(1, 2)].canonical.n == 1
    assert tabs[(0, 0)].elementary.a == 2
    assert tabs[(1, 1)].canonical.pi == (0, 2, 1, 3)


def test_record_invariants():
    with pytest.raises(StrataError):
        ElementarySequence((2, 2), 0)  # phi must name a stratum
    with pytest.raises(StrataError):
        FinalSequence((0, 1, 2, 2))  # duality violated
    with pytest.raises(StrataError):
        CanonicalType(2, 1, (0, 2, 4), (0, 0, 1), (1, 2, 2), (0, 0), 1)


@pytest.mark.parametrize("p", [5, 7, 211])
@pytest.mark.parametrize("phi", PHI_VALUES)
def test_canonical_filtration_oracle(phi, p):
    assert canonical_filtration_compute(phi, p) == eo_tables()[phi].canonical


@pytest.mark.parametrize("p", [5, 7])
def test_point_model_products(p):
    assert point_model_products_vanish(p)


@pytest.mark.parametrize("p", [5, 7])
def test_adjunction(p):
    m1, _ = model_1_1(p, p * p + 2 * p + 2)
    assert adjunction_holds(m1)
    m0, _ = model_0_1(p, p ** 4 + p)
    assert adjunction_holds(m0)


def test_chase_forward_examples():
    p = 5
    model, lines = model_1_1(p, p * p + 2 * p + 2)
    t = Series1.monomial(model.base, model.cutoff, 1)
    # single forward F on (e1 - t e4)^{(p)} -> -t^p e3
    res = chase(model, [("F",)], ({0: 1, 3: t.neg()}, 1), lines)
    assert res.level == 0 and res.order == p
    assert res.vector[2].coeffs == {p: p - 1}
    assert all(res.vector[i].is_zero() for i in (0, 1, 3))
    # identity word
    res = chase(model, [], ({1: 1}, 0), lines)
    assert res.order == 0 and res.multiplier is None
    # F o F^{(p)} on (-e2 + t e3)^{(p^2)} -> multiplier t^{p^2+p}
    res = chase(model, [("F",), ("F",), ("extract", "B0")],
                ({1: -1, 2: t}, 2), lines)
    assert res.multiplier.coeffs == {p * p + p: 1}
    assert res.order == p * p + p


def test_chase_left_the_line():
    p = 5
    model, lines = model_1_1(p, 40)
    with pytest.raises(ChaseError, match="chase left the line"):
        chase(model, [("extract", "B2")], ({3: 1}, 0), lines)


def test_chase_level_underflow():
    p = 5
    model, lines = model_1_1(p, 40)
    with pytest.raises(StrataError, match="below level 0"):
        chase(model, [("F",)], ({1: 1}, 0), lines)


ORDERS = [((1, 2), None, lambda p: 1),
          ((1, 1), 1, lambda p: p * p + 2 * p - 1),
          ((1, 1), 2, lambda p: 2 * p),
          ((0, 1), None, lambda p: p ** 4 - p ** 3 - p * p + p)]


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("phi,variant,formula", ORDERS)
def test_partial_hasse_orders(phi, variant, formula, p):
    assert partial_hasse_order(phi, p, variant=variant) == formula(p)


def test_variant_difference():
    for p in (5, 7):
        assert (partial_hasse_order((1, 1), p, variant=1)
                - partial_hasse_order((1, 1), p, variant=2)) == p * p - 1


def test_zeta_independence_exhaustive_p5():
    assert zeta_independent(5)
    assert len(all_zetas(5)) == 6


@pytest.mark.parametrize("p", [7, 11, 13])
def test_zeta_independence_exhaustive(p):
    assert zeta_independent(p)
    assert len(all_zetas(p)) == p + 1


def test_report_and_errors():
    rep = partial_hasse_report((1, 1), 5, variant=1)
    assert rep["order"] == 34 and rep["match"]
    with pytest.raises(StrataError, match="order exceeds cutoff"):
        partial_hasse_order((0, 1), 5, K=100)
    with pytest.raises(StrataError, match="superspecial"):
        partial_hasse_order((0, 0), 5)
    with pytest.raises(StrataError, match="variant"):
        partial_hasse_order((1, 1), 5)
    with pytest.raises(StrataError, match="zeta"):
        model_0_1(5, 50, zeta=(1, 0))
    # a variant or zeta the case would ignore is refused
    with pytest.raises(StrataError, match="variant applies only"):
        partial_hasse_order((1, 2), 5, variant=7)
    with pytest.raises(StrataError, match="variant applies only"):
        partial_hasse_order((0, 1), 5, variant=2)
    with pytest.raises(StrataError, match="zeta applies only"):
        partial_hasse_order((1, 1), 5, variant=1, zeta=(1, 0))
    with pytest.raises(StrataError, match="variant applies only"):
        partial_hasse_report((1, 2), 5, variant=7)


def _chase_outcome(phi, p, variant, K):
    """The order, or the refusal with the error it was raised from."""
    try:
        return str(partial_hasse_order(phi, p, variant=variant, K=K))
    except StrataError as e:
        out = f"{type(e).__name__}:{e}"
        if e.__context__ is not None:
            out += f" <- {type(e.__context__).__name__}:{e.__context__}"
        return out


def test_chases_at_every_small_cutoff():
    """Every cutoff below 80 and the 60 below the default (plus 3), pinned
    by digest: 46 orders, 212 refusals of the multiplier (zero or past the
    cutoff) and 232 chases that left the line, 490 cases in all."""
    cases = []
    for p in (5, 7):
        for phi, variant in (((1, 1), 1), ((1, 1), 2), ((0, 1), None)):
            top = HASSE_CASES[phi, variant].cutoff(p) + 3
            for K in sorted(set(range(1, min(top, 80)))
                            | set(range(max(80, top - 60), top))):
                cases.append(f"{p} {phi} {variant} {K} "
                             + _chase_outcome(phi, p, variant, K))
    assert len(cases) == 490
    assert hashlib.sha256("\n".join(cases).encode()).hexdigest() == (
        "9927a85703c3a065275dd46d1c090aee633bd6948b66b600e7096b4b22cb7f9d")


def _span(rows, p):
    """Every F_p-combination of ``rows`` (vectors of length 4)."""
    return {tuple(sum(c * row[i] for c, row in zip(cs, rows)) % p
                  for i in range(4))
            for cs in product(range(p), repeat=len(rows))}


def test_subspace_helpers_by_enumeration():
    """At p = 5, over all of F_5^4: the preimage helper spans exactly
    {x : Mx in span S} and the image helper spans M(span S)."""
    p = 5
    rng = random.Random(5)
    space = list(product(range(p), repeat=4))
    for _ in range(40):
        M = [[rng.randrange(p) for _ in range(4)] for _ in range(4)]
        S = [tuple(rng.randrange(p) for _ in range(4))
             for _ in range(rng.randrange(5))]
        span = _span(S, p)

        def apply(x):
            return tuple(sum(m * v for m, v in zip(row, x)) % p for row in M)
        assert _span(_mat_preimage(M, S, p), p) == {
            x for x in space if apply(x) in span}
        assert _span(_mat_image(M, S, p), p) == {apply(v) for v in span}

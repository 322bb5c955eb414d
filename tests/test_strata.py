import hashlib
import random
from itertools import product

import pytest

from siegelmodp.arith import Series1, all_zetas, is_prime
from siegelmodp.strata import (HASSE_CASES, PHI_VALUES, CanonicalType,
                               ChaseError, StrataError, _closure, _mat_image,
                               _mat_preimage, _solve_line,
                               canonical_filtration_compute, chase, eo_tables,
                               model_0_1, model_1_1, partial_hasse_order,
                               partial_hasse_report, zeta_independent)
from strata_oracle import (adjunction_holds, closure_by_rounds,
                           point_model_products_vanish)


def test_eo_tables_printed_data():
    tabs = eo_tables()
    assert set(tabs) == set(PHI_VALUES)
    rec = tabs[(0, 1)]
    assert rec.f == 0 and rec.a == 1
    assert rec.psi == (0, 1, 1, 2)
    assert rec.canonical.pi == (2, 0, 3, 1) and rec.canonical.n == 4
    assert tabs[(1, 2)].canonical.n == 1
    assert tabs[(0, 0)].a == 2
    assert tabs[(1, 1)].canonical.pi == (0, 2, 1, 3)


def test_record_invariants():
    # each row of the table: phi names a stratum, and psi has length 4,
    # psi(4) = 2 and the duality psi(4 - i) = psi(i) + 2 - i, i = 1, 2, 3
    for phi, rec in eo_tables().items():
        assert rec.phi == phi and phi in PHI_VALUES
        assert len(rec.psi) == 4 and rec.psi[3] == 2
        for i in (1, 2, 3):
            assert rec.psi[3 - i] == rec.psi[i - 1] + 2 - i
    with pytest.raises(StrataError, match="^phi must be one of"):
        canonical_filtration_compute((2, 2), 5)
    with pytest.raises(StrataError):
        CanonicalType(2, 1, (0, 2, 4), (0, 0, 1), (1, 2, 2), (0, 0), 1)


@pytest.mark.parametrize("p", [5, 7, 211])
@pytest.mark.parametrize("phi", PHI_VALUES)
def test_canonical_filtration_oracle(phi, p):
    assert canonical_filtration_compute(phi, p) == eo_tables()[phi].canonical


@pytest.mark.parametrize("p", [p for p in range(5, 62) if is_prime(p)]
                         + [211])
def test_closure_matches_the_rounds(p):
    """The worklist closure visits the subspaces that the round-based
    closure keeps, and both read the same canonical type from them."""
    for phi in PHI_VALUES:
        spaces, ct = closure_by_rounds(phi, p)
        image, preimage = _closure(phi, p)
        assert set(image) == set(preimage) == spaces
        assert canonical_filtration_compute(phi, p) == ct


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


def test_apply_reads_the_precision_of_its_products():
    """Column 1 of the (1,1) model's Vhat is zero: a zero known mod t^20 in
    slot 1 meets only exact-zero entries and leaves every row exact, while
    in slot 0 it lowers each row whose entry it meets by that entry's
    valuation."""
    p, K = 5, 40
    model, _ = model_1_1(p, K)
    B = model.base
    assert all(row[1].is_zero() for row in model.Vhat)
    zero, one = Series1.zero(B, K), Series1.const(B, K, 1)
    lossy = Series1(B, K, prec=20)
    out = model.apply("V", 1, (one, lossy, one, zero))
    assert [c.prec for c in out] == [K] * 4
    assert out[0].coeffs == {5: 1} and out[1].coeffs == {0: 1}
    assert out[2].is_zero() and out[3].is_zero()
    # row 0 meets it through t^5, row 1 through 1
    out = model.apply("V", 1, (lossy, zero, zero, one))
    assert [c.prec for c in out] == [25, 20, K, K]
    assert out[0].coeffs == {0: 1} and out[1].is_zero()
    # at K = 3 the twist of t truncates t^5, which loses nothing
    model, _ = model_1_1(p, 3)
    zero, one = Series1.zero(B, 3), Series1.const(B, 3, 1)
    out = model.apply("V", 1, (one, zero, zero, zero))
    assert out[0].is_zero() and out[0].prec == 3
    assert out[1].coeffs == {0: 1} and out[1].prec == 3


def test_solve_line_keeps_the_precision_of_a_zero_in_the_pivot_row():
    """Eliminating the second column subtracts multiples of its pivot row,
    whose target entry is a zero known mod t^20: x_0 keeps its value and
    that precision."""
    p, K = 5, 40
    model, _ = model_1_1(p, K)
    B = model.base
    zero, one = Series1.zero(B, K), Series1.const(B, K, 1)
    gen = (one, zero, zero, zero)
    rel = (one, one, zero, zero)
    target = (Series1.const(B, K, 3), Series1(B, K, prec=20), zero, zero)
    x0 = _solve_line(model, [gen, rel], target)
    assert x0.coeffs == {0: 3} and x0.prec == 20
    target = (Series1.const(B, K, 3), zero, zero, zero)
    x0 = _solve_line(model, [gen, rel], target)
    assert x0.coeffs == {0: 3} and x0.prec == K


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


# (phi, variant) -> the least cutoff at which the chases read the order
LEAST_CUTOFF = {((1, 1), 1): lambda p: p * p + 2 * p,
                ((1, 1), 2): lambda p: p * p + p + 1,
                ((0, 1), None): lambda p: p ** 4 + 1}


@pytest.mark.parametrize("p", [11, 13])
@pytest.mark.parametrize("case", list(LEAST_CUTOFF))
def test_least_cutoff(case, p):
    """One cutoff below the least, the order is refused; from the least to
    four past it, the closed form is read (the digest above covers p = 5
    and 7)."""
    phi, variant = case
    least = LEAST_CUTOFF[case](p)
    with pytest.raises(StrataError, match="^order exceeds cutoff$"):
        partial_hasse_order(phi, p, variant=variant, K=least - 1)
    want = HASSE_CASES[case].value(p)
    for K in range(least, least + 5):
        assert partial_hasse_order(phi, p, variant=variant, K=K) == want


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

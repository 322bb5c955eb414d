"""Hecke and Galois checks on real forms: the level-one Siegel Eisenstein
series of degree 2 and the Saito-Kurokawa lifts chi10 and chi12 (fixtures
in levelone.py)."""

import pytest

from levelone import (box_indices, eisenstein_coefficient, eisenstein_form,
                      jacobi_cusp_coefficient, saito_kurokawa_coefficient,
                      saito_kurokawa_form)
from siegelmodp.galois import frob_charpoly
from siegelmodp.hecke import eigenvalue


def test_e4_coefficients():
    want = {(1, 0, 1): 30240, (1, 1, 1): 13440, (1, 0, 2): 181440,
            (1, 1, 2): 138240, (1, 2, 2): 30240, (2, 0, 2): 1239840,
            (2, 2, 2): 604800}
    assert {T: eisenstein_coefficient(4, T) for T in want} == want
    # rank-1 indices carry the genus-1 series E4 = 1 + 240 sum sigma_3(n) q^n
    assert [eisenstein_coefficient(4, (n, 0, 0)) for n in range(5)] == [
        1, 240, 240 * 9, 240 * 28, 240 * 73]
    assert len(box_indices(6)) == 477


# (k, p, ell, N, indices checked)
T_ELL = [(4, 11, 2, 3, 32), (6, 13, 2, 3, 33), (4, 11, 3, 4, 17),
         (8, 13, 3, 4, 17)]


@pytest.mark.parametrize("k, p, ell, N, checked", T_ELL)
def test_t_ell_eigenvalue(k, p, ell, N, checked):
    """lambda(T(ell)) = (1 + ell^(k-1))(1 + ell^(k-2)) on E_k."""
    lam, report = eigenvalue(eisenstein_form(k, p, N), ell, 1)
    assert lam == (1 + ell ** (k - 1)) * (1 + ell ** (k - 2)) % p
    assert len(report) == checked and all(m for _, m in report)


def test_t4_eigenvalue_and_frobenius_polynomial():
    """On E4 at p = 11: lambda(T(2)) = 45 = 1, lambda(T(4)) = 9, and the
    Frobenius polynomial at 2 is (1 - X)(1 - 4X)(1 - 8X)(1 - 32X) mod 11."""
    p, k, ell = 11, 4, 2
    F = eisenstein_form(k, p, 3)
    lam1, _ = eigenvalue(F, ell, 1)
    lam2, report = eigenvalue(F, ell, 2)
    assert (lam1, lam2) == (1, 9)
    assert len(report) == 3 and all(m for _, m in report)
    poly = [1]
    for root in (1, ell ** (k - 2), ell ** (k - 1), ell ** (2 * k - 3)):
        poly = [(a - root * b) % p for a, b in zip(poly + [0], [0] + poly)]
    got = frob_charpoly(lam1, lam2, 1, ell, (k, k), p).coeffs
    assert got == tuple(poly) == (1, 10, 9, 1, 1)


def _product_mod(factors, p):
    """Coefficients mod p of a product of polynomials in X, each given by
    its coefficient list from the constant term up."""
    poly = [1]
    for f in factors:
        out = [0] * (len(poly) + len(f) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(f):
                out[i + j] += a * b
        poly = out
    return tuple(x % p for x in poly)


def test_jacobi_cusp_coefficients():
    Ds = (3, 4, 7, 8, 11, 12)
    assert [jacobi_cusp_coefficient(10, D) for D in Ds] == [
        1, -2, -16, 36, 99, -272]
    assert [jacobi_cusp_coefficient(12, D) for D in Ds] == [
        1, 10, -88, -132, 1275, 736]
    # the Maass lift: a(T) = c(D) at primitive T, zero at D = 0
    assert saito_kurokawa_coefficient(10, (1, 1, 1)) == 1
    assert saito_kurokawa_coefficient(10, (1, 0, 2)) == 36
    # (2, 2, 2): D = 12, content 2, so c(12) + 2^9 c(3)
    assert saito_kurokawa_coefficient(10, (2, 2, 2)) == -272 + 2 ** 9
    assert saito_kurokawa_coefficient(12, (1, 2, 1)) == 0


# (k, p, a_f(2) of the elliptic newform f in S_(2k-2), indices checked)
SK_T2 = [(10, 11, -528, 21), (12, 13, -288, 28)]


@pytest.mark.parametrize("k, p, af2, checked", SK_T2)
def test_saito_kurokawa_t2_eigenvalue(k, p, af2, checked):
    """lambda(T(2)) = a_f(2) + 2^(k-1) + 2^(k-2) on chi_k (level N = 3)."""
    lam, report = eigenvalue(saito_kurokawa_form(k, p, 3), 2, 1)
    assert lam == (af2 + 2 ** (k - 1) + 2 ** (k - 2)) % p
    assert len(report) == checked and all(m for _, m in report)


def test_chi10_t4_eigenvalue_and_frobenius_polynomial():
    """On chi10 at p = 11 the Frobenius polynomial at 2 is the
    Saito-Kurokawa product (1 - 2^9 X)(1 - 2^8 X)(1 + 528 X + 2^17 X^2)."""
    p, k, ell = 11, 10, 2
    F = saito_kurokawa_form(k, p, 3)
    lam1, _ = eigenvalue(F, ell, 1)
    lam2, report = eigenvalue(F, ell, 2)
    assert (lam1, lam2) == (9, 3)
    assert len(report) == 2 and all(m for _, m in report)
    want = _product_mod(([1, -ell ** (k - 1)], [1, -ell ** (k - 2)],
                      [1, 528, ell ** (2 * k - 3)]), p)
    got = frob_charpoly(lam1, lam2, 1, ell, (k, k), p).coeffs
    assert got == want == (1, 2, 3, 3, 5)

"""Hecke and Galois checks on real forms: the level-one Siegel Eisenstein
series of degree 2 (fixture in levelone.py)."""

import pytest

from levelone import box_indices, eisenstein_coefficient, eisenstein_form
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

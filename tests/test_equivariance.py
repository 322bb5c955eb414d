"""GL2(Z)-equivariance of theta_j and T(ell^i) on the vector-valued forms of
``equivariant.py``: an operator that maps level-one forms to level-one forms
keeps A(U T U^t) = rho(U) A(T) at its output weight."""

import pytest

from equivariant import box_indices, equivariant_form, violations
from siegelmodp import hecke, theta
from siegelmodp.rep import Weight

THETA_BOX = 4
# T(ell^i) reads indices far outside the box, which assume_complete reads
# as zero; so only the targets whose required indices lie in the box are
# checked (an unfiltered list breaks equivariance on correct code)
HECKE_BOX = 12


def assert_equivariant(G, indices, least_pairs):
    bad, checked = violations(G, indices)
    assert checked >= least_pairs and len(G.support) * 2 > len(indices)
    assert not bad, f"{len(bad)} of {checked} pairs violated, first {bad[0]}"


@pytest.mark.parametrize("n", [0, 2, 4])
@pytest.mark.parametrize("p", [7, 13])
def test_theta_and_hecke_keep_gl2_equivariance(p, n):
    weight = Weight(10 + n, 10)
    F = equivariant_form(p, 3, weight, THETA_BOX, seed=p + n)
    indices = box_indices(THETA_BOX, 3)
    assert_equivariant(F, indices, 3000)
    for j in (3,) if n == 0 else (1, 2, 3):
        assert_equivariant(theta.theta_j(F, j), indices, 3000)
    if n == 0:
        assert_equivariant(theta.theta_scalar(F), indices, 3000)
    # T(2) and T(4) at level 3, T(3) at level 4
    for N, operators in ((3, ((2, 1), (2, 2))), (4, ((3, 1),))):
        F = equivariant_form(p, N, weight, HECKE_BOX, seed=p + n)
        indices = box_indices(HECKE_BOX, N)
        for ell, i in operators:
            targets = [T for T in sorted(indices)
                       if hecke.required_indices(ell, i, T, N) <= indices]
            G = hecke.hecke_image(F, ell, i, targets, assume_complete=True)
            assert_equivariant(G, targets, 500)

"""Self-checks of the strata models, kept out of ``siegelmodp.strata``
because no computation there needs them.

- :func:`adjunction_holds`: Fhat^T J = J Vhat on a Dieudonne model over
  truncated series, for the standard symplectic pairing J.
- :func:`point_model_products_vanish`: F.V = V.F = 0 on the mod-p point
  models of the strata that have one matrix pair at t = 0.
"""

from siegelmodp.arith import Series1
from siegelmodp.strata import _point_model

# symplectic pairing <e_i, e_{i+2}> = 1
J = ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))


def adjunction_holds(model) -> bool:
    """Fhat^T J = J Vhat, checked entrywise (all 16 basis pairs)."""
    B = model.base
    for i in range(4):
        for j in range(4):
            lhs = Series1.zero(B, model.cutoff)
            rhs = Series1.zero(B, model.cutoff)
            for k in range(4):
                if J[k][j]:
                    lhs = lhs.add(model.Fhat[k][i].scal(B.from_int(J[k][j])))
                if J[i][k]:
                    rhs = rhs.add(model.Vhat[k][j].scal(B.from_int(J[i][k])))
            if not lhs.sub(rhs).is_zero():
                return False
    return True


def point_model_products_vanish(p: int) -> bool:
    """F.V = V.F = 0 on every mod-p point model (t = 0 specialization)."""
    for phi in ((0, 0), (0, 1), (1, 2)):
        V, F = _point_model(phi)
        for A, Bm in ((F, V), (V, F)):
            for i in range(4):
                for j in range(4):
                    if sum(A[i][k] * Bm[k][j] for k in range(4)) % p:
                        return False
    return True

"""Self-checks of the strata models, kept out of ``siegelmodp.strata``
because no computation there needs them.

- :func:`adjunction_holds`: Fhat^T J = J Vhat on a Dieudonne model over
  truncated series, for the standard symplectic pairing J.
- :func:`point_model_products_vanish`: F.V = V.F = 0 on the mod-p point
  models of the strata that have one matrix pair at t = 0.
- :func:`closure_by_rounds`: the filtration closure as ``strata`` computed
  it before its worklist, every known subspace's V-image and F-preimage
  recomputed each round until a round adds nothing, with the canonical type
  read from the result.
"""

from siegelmodp.arith import Series1, echelon
from siegelmodp.strata import (CanonicalType, _mat_image, _mat_preimage,
                               _point_model)

# symplectic pairing <e_i, e_{i+2}> = 1
J = ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))


def adjunction_holds(model) -> bool:
    """Fhat^T J = J Vhat, checked entrywise (all 16 basis pairs)."""
    B = model.base
    # J's entries 0, 1 and -1 as elements of the base field
    entry = {1: B.one, -1: B.neg(B.one)}
    for i in range(4):
        for j in range(4):
            lhs = Series1.zero(B, model.cutoff)
            rhs = Series1.zero(B, model.cutoff)
            for k in range(4):
                if J[k][j]:
                    lhs = lhs.add(model.Fhat[k][i].scal(entry[J[k][j]]))
                if J[i][k]:
                    rhs = rhs.add(model.Vhat[k][j].scal(entry[J[i][k]]))
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


def closure_by_rounds(phi, p: int):
    """(subspaces, canonical type) of the stratum phi at p, by rounds."""
    V, F = _point_model(phi)
    full = echelon([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
                   p)[0]
    spaces = {(), full}
    for _ in range(32):
        new = set(spaces)
        for S in spaces:
            new.add(_mat_image(V, S, p))
            new.add(_mat_preimage(F, S, p))
        if new == spaces:
            break
        spaces = new
    else:
        raise AssertionError("filtration did not stabilize")
    chain = sorted(spaces, key=len)
    for small, big in zip(chain, chain[1:]):
        assert echelon(small + big, p)[0] == big, "not a chain"
    s = len(chain) - 1
    index = {S: i for i, S in enumerate(chain)}
    v = tuple(index[_mat_image(V, S, p)] for S in chain)
    f = tuple(index[_mat_preimage(F, S, p)] for S in chain)
    pi = tuple(v[i] if v[i + 1] > v[i] else f[i] for i in range(s))
    n, perm = 1, pi
    while perm != tuple(range(s)):
        perm = tuple(pi[x] for x in perm)
        n += 1
    return spaces, CanonicalType(s, index[_mat_image(V, full, p)],
                                 tuple(len(S) for S in chain), v, f, pi, n)

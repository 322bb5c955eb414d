"""Local symbolic models for the theta operators at a superspecial point.

Everything here happens in the truncated local ring
F_p[[t11, t12, t22]] / m^K (see :class:`siegelmodp.arith.Series3`).  The
Hasse form of the model is d = t11*t22 - t12^2; the connection coefficients
are recovered from an arbitrary unit determinant ``detA`` via

    c11 = -d_11(detA)/detA,  c12 = -d_12(detA)/(2 detA),
    c22 = -d_22(detA)/detA,

with c21 = c12 imposed (symmetric regime).

The module provides the leading-term formulas of the three non-vanishing
statements (scalar theta, the first vector component, and the weight-
difference-one case), the constant term of the scalar-to-scalar operator at
the point, and a two-path symbolic identity check for the closed form of
that operator.
"""

from __future__ import annotations

from .arith import Series3


class LocalDefError(ValueError):
    pass


def variables(p: int, K: int):
    """The three coordinate functions as Series3 elements."""
    return (Series3.var(p, K, "t11"), Series3.var(p, K, "t12"),
            Series3.var(p, K, "t22"))


def hasse_form(p: int, K: int) -> Series3:
    """d = t11*t22 - t12^2, the local equation of the non-ordinary locus."""
    t11, t12, t22 = variables(p, K)
    return t11.mul(t22).sub(t12.mul(t12))


def _inv(n: int, p: int) -> int:
    # n is 2, 3, 4, 6 or 9: a unit at every p that Series3 admits
    return pow(n, -1, p)


def theta_local(F: Series3, k: int):
    """The three components of the scalar theta operator, cleared by det A.

    Returns (d*d11(F) + k*t22*F, d*d12(F) + 2k*t12*F, d*d22(F) + k*t11*F)
    with d the Hasse form of the superspecial model.
    """
    p, K = F.p, F.cutoff
    t11, t12, t22 = variables(p, K)
    d = hasse_form(p, K)
    return (
        d.mul(F.derivation("t11")).add(t22.mul(F).scal(k)),
        d.mul(F.derivation("t12")).add(t12.mul(F).scal(2 * k)),
        d.mul(F.derivation("t22")).add(t11.mul(F).scal(k)),
    )


def _D(F: Series3, sign: int = -1) -> Series3:
    """D = d11 d22 - (1/4) d12^2 applied to F; with ``sign`` = 1, its
    companion D~ = d11 d22 + (1/4) d12^2."""
    return (F.derivation("t11").derivation("t22")
            .add(F.derivation("t12").derivation("t12")
                 .scal(sign * _inv(4, F.p))))


def big_theta_local_value(F: Series3, k: int) -> int:
    """Constant term of the scalar-to-scalar operator at the point.

    Evaluates the cleared closed form

        detA * Theta~ = (2/3) d D(F) + (2k(2k-1)/9) F D~(d)
                        + ((2k-1)/3)(d11 F d22 d - (1/2) d12 F d12 d
                                     + d22 F d11 d)

    on the superspecial model (d = t11 t22 - t12^2, so D~(d) = 1/2) and
    returns the constant term, which equals k(2k-1) F(0) / 9 mod p.
    """
    p, K = F.p, F.cutoff
    d = hasse_form(p, K)
    two_thirds = 2 * _inv(3, p) % p
    c1 = 2 * k * (2 * k - 1) % p * _inv(9, p) % p
    c2 = (2 * k - 1) * _inv(3, p) % p
    half = _inv(2, p)
    cross = (F.derivation("t11").mul(d.derivation("t22"))
             .sub(F.derivation("t12").mul(d.derivation("t12")).scal(half))
             .add(F.derivation("t22").mul(d.derivation("t11"))))
    total = (d.mul(_D(F)).scal(two_thirds)
             .add(F.mul(_D(d, 1)).scal(c1))
             .add(cross.scal(c2)))
    return total.constant_term()


def theta1_local_leading(F0: int, F1: int, F2: int, weight,
                         p: int) -> Series3:
    """Leading (mod m^2) term of the first vector theta component.

    For constant coefficient values (F0, F1, F2) and weight (k1, k2):
    -((k1-3k2)/2) t11 F0 - ((k1-3k2)/2) t12 F1 - (k1-3) t22 F2.
    """
    k1, k2 = weight
    t11, t12, t22 = variables(p, 2)
    half = _inv(2, p)
    c = (-(k1 - 3 * k2)) * half % p
    return (t11.scal(c * F0).add(t12.scal(c * F1))
            .add(t22.scal((-(k1 - 3)) % p * F2)))


def theta2_local_n1_leading(F0: int, F1: int, k: int, p: int):
    """Leading terms of the two components at weight (k+1, k):

    ((2k-1)/3)(t22 F1 - t12 F0), ((2k-1)/3)(t12 F1 - t11 F0).
    """
    t11, t12, t22 = variables(p, 2)
    c = (2 * k - 1) * _inv(3, p) % p
    comp0 = t22.scal(F1).sub(t12.scal(F0)).scal(c)
    comp1 = t12.scal(F1).sub(t11.scal(F0)).scal(c)
    return comp0, comp1


# ---------------------------------------------------------------------------
# the two evaluation paths of the scalar-to-scalar closed form
# ---------------------------------------------------------------------------

def _connection(detA: Series3):
    """(c11, c12, c22) recovered from a unit determinant."""
    if detA.constant_term() == 0:
        raise LocalDefError("detA must be a unit (nonzero constant term)")
    p = detA.p
    dinv = detA.inverse()
    half = _inv(2, p)
    c11 = detA.derivation("t11").mul(dinv).neg()
    c12 = detA.derivation("t12").mul(dinv).scal(half).neg()
    c22 = detA.derivation("t22").mul(dinv).neg()
    return c11, c12, c22


def step3_paths(F: Series3, detA: Series3, k: int):
    """Theta~(F) by (i) stepwise composition, (ii) the closed form.

    Path (i) applies the first covariant-derivative step, then the nine
    second-step coefficients, then the projection onto the scalar component
    (1/3, -1/6, 1/3 on the three diagonal entries).  Path (ii) evaluates the
    closed form directly from F and the connection.
    """
    p = F.p
    c11, c12, c22 = _connection(detA)

    # path (i): first step
    F11 = F.derivation("t11").sub(c11.mul(F).scal(k))
    F12 = F.derivation("t12").sub(c12.mul(F).scal(2 * k))
    F22 = F.derivation("t22").sub(c22.mul(F).scal(k))

    # second step: the nine covariant coefficients, which share three
    # connection products
    g11, g12, g22 = c22.mul(F11), c12.mul(F12), c11.mul(F22)
    a20 = F11.derivation("t22").sub(g11.scal(k)).sub(g12)
    a11 = (F12.derivation("t12").sub(g12.scal(2 * (k + 1)))
           .sub(g11.scal(2)).sub(g22.scal(2)))
    a02 = F22.derivation("t11").sub(g22.scal(k)).sub(g12)
    third = _inv(3, p)
    sixth = _inv(6, p)
    path1 = a20.scal(third).sub(a11.scal(sixth)).add(a02.scal(third))

    # path (ii): closed form
    two_thirds = 2 * third % p
    curv = (c22.derivation("t11").sub(c12.derivation("t12"))
            .add(c11.derivation("t22")))
    quad = c11.mul(c22).sub(c12.mul(c12))
    middle = (curv.scal((-k) % p * third % p)
              .add(quad.scal(2 * k * (k - 1) % p * third % p)))
    cross = (c12.mul(F.derivation("t12"))
             .sub(c11.mul(F.derivation("t22")))
             .sub(c22.mul(F.derivation("t11"))))
    path2 = (_D(F).scal(two_thirds).add(F.mul(middle))
             .add(cross.scal((2 * k - 1) * third % p)))
    return path1, path2


def step3_identity_check(F: Series3, detA: Series3, k: int, K: int) -> bool:
    """True when both evaluation paths agree truncated below degree K.

    Inputs should be built at cutoff at least K + 2: the stepwise path takes
    two derivatives, which are exact only two degrees below the cutoff.
    """
    if K < 4:
        raise LocalDefError("cutoff K must be at least 4")
    path1, path2 = step3_paths(F, detA, k)
    bound = min(K, F.cutoff - 2, detA.cutoff - 2)
    return path1.truncate_below(bound) == path2.truncate_below(bound)

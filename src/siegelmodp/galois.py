"""Galois-side bookkeeping: Frobenius characteristic polynomials from Hecke
eigenvalue data, cyclotomic twists, inertia-type classification, and the
weight-reduction planner.

The degree-4 Frobenius polynomial attached to eigenvalues (lambda1, lambda2)
at a prime ell, with character value chi2 and weight (k1, k2), is

    1 - lambda1 X + (lambda1^2 - lambda2 - ell^(k1+k2-4) chi2) X^2
      - chi2 ell^(k1+k2-3) lambda1 X^3 + chi2^2 ell^(2k1+2k2-6) X^4   (mod p)

with similitude nu = chi2 ell^(k1+k2-3); the coefficients always satisfy the
symplectic palindrome a3 = nu a1, a4 = nu^2.

The inertia classifier validates exponent data for the five printed local
shapes.  Character exponents live mod p-1 (fundamental characters of level
1) or mod p^2-1 / p^4-1 (levels 2 and 4); the congruence constraints are
reported both "mod p" (as printed) and "mod p-1" (as the character orders
suggest), without silently choosing.

The planner only does the proofs' arithmetic: step counts, twist exponents
and the final weight bounds.  It never constructs an eigenform.

Every function takes p by the toolkit's one rule, ``arith._check_prime`` (a
prime 5 <= p < 3.3e24); any other p raises :class:`GaloisError`.  An ell
must be nonzero mod p and, by ``arith._check_ell``, the rule that ``hecke``
shares, a prime below the same bound; ``frob_charpoly`` and
:class:`HeckeSystem` raise :class:`GaloisError` for any other ell.  A value
chi2(ell) is a root of unity, so both refuse one that is 0 mod p.  Both
refuse a weight with k1 < k2, as :func:`reduction_plan` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import lcm

from .arith import _check_ell, _check_prime


class GaloisError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Frobenius polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrobPoly:
    p: int
    ell: int
    coeffs: tuple  # (1, a1, a2, a3, a4) mod p
    nu: int        # similitude chi2 * ell^(k1+k2-3) mod p

    def __post_init__(self):
        a0, a1, a2, a3, a4 = self.coeffs
        p = self.p
        if a0 % p != 1:
            raise GaloisError("leading coefficient must be 1")
        if (a3 - self.nu * a1) % p or (a4 - self.nu * self.nu) % p:
            raise GaloisError("coefficients violate the symplectic palindrome")

    def to_json(self) -> dict:
        return {"p": self.p, "ell": self.ell,
                "coeffs": list(self.coeffs), "nu": self.nu}


def _check_chi2(chi2: int, p: int) -> None:
    if chi2 % p == 0:
        raise GaloisError(f"chi2 must be a unit mod p, got {chi2}")


def _check_weight(weight) -> None:
    k1, k2 = weight
    if k1 < k2:
        raise GaloisError(f"weight must satisfy k1 >= k2, got ({k1}, {k2})")


def frob_charpoly(lam1: int, lam2: int, chi2: int, ell: int,
                  weight, p: int) -> FrobPoly:
    """The degree-4 Frobenius polynomial mod p (see module docstring)."""
    _check_prime(p, GaloisError)
    if ell % p == 0:
        raise GaloisError("ell must be nonzero mod p")
    _check_ell(ell, GaloisError)
    _check_chi2(chi2, p)
    _check_weight(weight)
    k1, k2 = weight
    w = k1 + k2
    lam1 %= p
    lam2 %= p
    chi2 %= p
    a1 = (-lam1) % p
    a2 = (lam1 * lam1 - lam2 - pow(ell, (w - 4) % (p - 1), p) * chi2) % p
    nu = chi2 * pow(ell, (w - 3) % (p - 1), p) % p
    a3 = (-nu * lam1) % p
    a4 = nu * nu % p
    return FrobPoly(p=p, ell=ell, coeffs=(1, a1, a2, a3, a4), nu=nu)


@dataclass(frozen=True)
class HeckeSystem:
    """Eigenvalue data ell -> (lambda(ell), lambda(ell^2), chi2(ell))."""
    p: int
    weight: tuple
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_prime(self.p, GaloisError)
        for ell in self.data:
            if ell % self.p == 0:
                raise GaloisError("stored ell values must be coprime to p")
            _check_ell(ell, GaloisError)
            _check_chi2(self.data[ell][2], self.p)
        _check_weight(self.weight)

    def charpoly(self, ell: int) -> FrobPoly:
        lam1, lam2, chi2 = self.data[ell]
        return frob_charpoly(lam1, lam2, chi2, ell, self.weight, self.p)


def twist_system(system: HeckeSystem, alpha: int) -> HeckeSystem:
    """Cyclotomic twist: lambda(ell^i) -> ell^(i alpha) lambda(ell^i), with
    chi2 -> ell^(2 alpha) chi2 so the twisted polynomial is the original
    evaluated at ell^alpha X (roots scaled by ell^alpha)."""
    p = system.p
    if not 0 <= alpha <= p - 2:
        raise GaloisError("twist exponent must lie in [0, p-2]")
    data = {}
    for ell, (l1, l2, c2) in system.data.items():
        s = pow(ell, alpha, p)
        data[ell] = (l1 * s % p, l2 * s * s % p, c2 * s * s % p)
    return replace(system, data=data)


# ---------------------------------------------------------------------------
# inertia types
# ---------------------------------------------------------------------------

INERTIA_TYPES = ("Borel", "Klingen", "Siegel", "Endoscopic", "Level4")


@dataclass(frozen=True)
class InertiaDescriptor:
    type: str
    p: int
    exponents: dict
    valid: bool
    range_ok: bool
    congruence_mod_p: bool | None        # the congruence read mod p
    congruence_mod_p_minus_1: bool | None  # the same congruence read mod p-1
    reason: str = ""


def _need(exponents, keys):
    missing = [k for k in keys if k not in exponents]
    if missing:
        raise GaloisError(f"missing exponent data: {missing}")
    return [int(exponents[k]) for k in keys]


def classify_inertia(type: str, exponents: dict, p: int) -> InertiaDescriptor:
    """Validate exponent data against the printed shape constraints.

    For the types carrying a sum congruence the verdict is reported under
    both the printed "mod p" reading and the character-order "mod p-1"
    reading; ``valid`` requires the range constraints plus at least the
    mod-(p-1) congruence.
    """
    if type not in INERTIA_TYPES:
        raise GaloisError(f"unknown inertia type {type!r}")
    _check_prime(p, GaloisError)
    cong_p = cong_p1 = None
    reason = ""
    if type == "Borel":
        a, b, c, d = _need(exponents, "abcd")
        range_ok = all(0 <= x <= p - 2 for x in (a, b, c, d))
        cong_p = (a + d - b - c) % p == 0
        cong_p1 = (a + d - b - c) % (p - 1) == 0
        if not range_ok:
            reason = "exponents must lie in [0, p-2]"
    elif type == "Klingen":
        a, b, c, d = _need(exponents, "abcd")
        range_ok = (0 <= a <= p - 2 and 0 <= d <= p - 2
                    and 0 <= b < c <= p - 1)
        cong_p = (a + d - b - c) % p == 0
        cong_p1 = (a + d - b - c) % (p - 1) == 0
        if not range_ok:
            reason = "need 0<=a,d<=p-2 and 0<=b<c<=p-1"
    elif type == "Siegel":
        a, b, k = _need(exponents, ("a", "b", "k"))
        range_ok = 0 <= a < b <= p - 1 and 0 <= k <= p - 2
        if not range_ok:
            reason = "need 0<=a<b<=p-1 and 0<=k<=p-2"
    elif type == "Endoscopic":
        a, b, c, d = _need(exponents, "abcd")
        range_ok = 0 <= a < b <= p - 1 and 0 <= c < d <= p - 1
        cong_p = (a + b - c - d) % p == 0
        cong_p1 = (a + b - c - d) % (p - 1) == 0
        if not range_ok:
            reason = "need 0<=a<b<=p-1 and 0<=c<d<=p-1"
    else:  # Level4
        (a,) = _need(exponents, ("a",))
        range_ok = 0 <= a < p ** 4 - 1
        div = a % (p + 1) == 0
        nondeg = a % (p * p + 1) != 0
        cong_p = cong_p1 = div and nondeg
        if not range_ok:
            reason = "need 0 <= a < p^4 - 1"
        elif not div:
            reason = "a must be divisible by p+1"
        elif not nondeg:
            reason = "a divisible by p^2+1 degenerates to lower level"
    valid = range_ok and (cong_p1 is None or cong_p1)
    if range_ok and cong_p1 is False and not reason:
        reason = "sum congruence fails mod p-1"
    return InertiaDescriptor(type=type, p=p, exponents=dict(exponents),
                             valid=valid, range_ok=range_ok,
                             congruence_mod_p=cong_p,
                             congruence_mod_p_minus_1=cong_p1,
                             reason=reason)


def level4_count(p: int, bound: int | None = None) -> int:
    """Number of valid Level-4 exponents a in [0, bound] (default p^4 - 2).

    The valid a are the multiples of p+1 that are not multiples of p^2+1,
    so of lcm(p+1, p^2+1); a = 0 is a multiple of both.
    """
    _check_prime(p, GaloisError)
    if bound is None:
        bound = p ** 4 - 2
    if bound < 0:
        return 0
    return bound // (p + 1) - bound // lcm(p + 1, p * p + 1)


# ---------------------------------------------------------------------------
# weight-reduction planner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionPlan:
    weight: tuple
    p: int
    epsilon: int          # parity of the weight difference
    theta1_steps: int     # steps lowering the difference to epsilon
    ladder_count: int     # i, the eigenvalue-ladder length
    twist: int            # net cyclotomic twist alpha mod p-1
    l2_bound: int         # printed bound on the reduced second weight
    bounds_ok: bool

    def to_json(self) -> dict:
        return {"weight": list(self.weight), "p": self.p,
                "epsilon": self.epsilon, "theta1_steps": self.theta1_steps,
                "ladder_count": self.ladder_count, "twist": self.twist,
                "l2_bound": self.l2_bound, "bounds_ok": self.bounds_ok}


def reduction_plan(weight, p: int, l1_is_one: bool = False) -> ReductionPlan:
    """Bookkeeping for the weight-reduction strategy.

    epsilon = (1 - (-1)^(k1-k2))/2; (k1-k2-epsilon)/2 difference-lowering
    steps, each contributing +1 to the cyclotomic twist; then a ladder of
    i = p^3 - p^2 + 2p eigenvalue steps (one more when the reduced first
    weight is 1), each contributing +2.  Multiplication by the weight-(p-1)
    invariant contributes no twist.  The reduced second weight is bounded by
    p^4 + p^2 + 2p + 1 = (p^3 - p^2 + 2p)(p + 1) + 1.
    """
    k1, k2 = weight
    if not (k1 >= k2 >= 1):
        raise GaloisError("weight must satisfy k1 >= k2 >= 1")
    _check_prime(p, GaloisError)
    eps = (1 - (-1) ** (k1 - k2)) // 2
    steps = (k1 - k2 - eps) // 2
    i = p ** 3 - p * p + 2 * p + (1 if l1_is_one else 0)
    alpha = (steps + 2 * i) % (p - 1)
    l2_bound = p ** 4 + p * p + 2 * p + 1
    base = p ** 3 - p * p + 2 * p
    bounds_ok = base * (p + 1) + 1 == l2_bound and eps in (0, 1)
    return ReductionPlan(weight=(k1, k2), p=p, epsilon=eps,
                         theta1_steps=steps, ladder_count=i, twist=alpha,
                         l2_bound=l2_bound, bounds_ok=bounds_ok)

"""Level-one Siegel Eisenstein series of degree 2 as a test fixture.

For even k >= 4, T = (a, b, c) != 0 standing for [[a, b/2], [b/2, c]] and
D = 4ac - b^2, the Fourier coefficient is (Eichler-Zagier, The Theory of
Jacobi Forms (1985), Thm 2.1 and section 6; Cohen, Math. Ann. 217 (1975))

    a(T) = -(2k/B_k) * sum_{d | cont T} d^(k-1) H(k-1, D/d^2) / zeta(3-2k),

with a(0) = 1 and zeta(3-2k) = -B_(2k-2)/(2k-2).  H is Cohen's function:
for N > 0 with -N = D0 f^2, D0 a fundamental discriminant,

    H(r, N) = L(1-r, chi_D0) * sum_{d | f} mu(d) chi_D0(d) d^(r-1)
              * sigma_(2r-1)(f/d),

H(r, 0) = zeta(1-2r), and H(r, N) = 0 when -N is not 0 or 1 mod 4.  Here
L(1-r, chi) = -B_(r,chi)/r with B_(r,chi) = M^(r-1) sum_(a=1..M) chi(a)
B_r(a/M), M = |D0|, and chi_D0 is the Kronecker symbol.  Everything is
exact (``Fraction``).

:func:`eisenstein_form` embeds a(T) at index N*T of a :class:`QExpansion`
of level N with trivial characters, reduced mod p.  N must be coprime to p
and to the Hecke prime ell (at N = 3, ell = 3 is refused): the tests use
N = 3 for ell = 2 and N = 4 for ell = 3.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt

from siegelmodp.qexp import QExpansion
from siegelmodp.rep import Weight


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2."""
    if n == 0:
        return Fraction(1)
    return -sum(comb(n + 1, j) * bernoulli(j) for j in range(n)) / (n + 1)


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    return sum(comb(n, j) * bernoulli(j) * x ** (n - j) for j in range(n + 1))


def zeta_at_negative(s: int) -> Fraction:
    """zeta(1 - m) = -B_m/m for s = 1 - m <= -1."""
    m = 1 - s
    return -bernoulli(m) / m


def _squarefree(n: int) -> bool:
    return all(n % (q * q) for q in range(2, isqrt(abs(n)) + 1))


def _is_fundamental(D: int) -> bool:
    if D % 4 == 1:
        return _squarefree(D)
    return D % 4 == 0 and (D // 4) % 4 in (2, 3) and _squarefree(D // 4)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker(D: int, n: int) -> int:
    """Kronecker symbol (D/n) for a discriminant D and n >= 1."""
    result = 1
    while n % 2 == 0:
        n //= 2
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            result = -result
    return result * _jacobi(D, n)


def _mobius(n: int) -> int:
    out, q = 1, 2
    while q * q <= n:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return 0
            out = -out
        q += 1
    return -out if n > 1 else out


def _divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


def _sigma(e: int, n: int) -> int:
    return sum(d ** e for d in _divisors(n))


@lru_cache(maxsize=None)
def cohen_H(r: int, N: int) -> Fraction:
    if N == 0:
        return zeta_at_negative(1 - 2 * r)
    if (-N) % 4 not in (0, 1):
        return Fraction(0)
    f = max(f for f in range(1, N + 1)
            if N % (f * f) == 0 and _is_fundamental(-N // (f * f)))
    D0 = -N // (f * f)
    M = -D0
    B = M ** (r - 1) * sum(kronecker(D0, a) * bernoulli_poly(r, Fraction(a, M))
                           for a in range(1, M + 1))
    L = -B / r
    return L * sum(_mobius(d) * kronecker(D0, d) * d ** (r - 1)
                   * _sigma(2 * r - 1, f // d) for d in _divisors(f))


def eisenstein_coefficient(k: int, T) -> Fraction:
    """a(T) of the degree-2 Siegel Eisenstein series of even weight k."""
    a, b, c = T
    if T == (0, 0, 0):
        return Fraction(1)
    D = 4 * a * c - b * b
    cont = gcd(gcd(a, b), c)
    total = sum(d ** (k - 1) * cohen_H(k - 1, D // (d * d))
                for d in _divisors(cont))
    return -(2 * k / bernoulli(k)) * total / zeta_at_negative(3 - 2 * k)


def box_indices(bound: int):
    """Every semi-positive (a, b, c) with 0 <= a, c <= bound."""
    return [(a, b, c) for a in range(bound + 1) for c in range(bound + 1)
            for b in range(-2 * bound, 2 * bound + 1) if 4 * a * c >= b * b]


def eisenstein_form(k: int, p: int, N: int, bound: int = 6) -> QExpansion:
    """E_k mod p on the box ``bound``, a(T) at index N*T (see the module
    docstring).  p must not divide a denominator of a(T)."""
    support = {}
    for T in box_indices(bound):
        val = eisenstein_coefficient(k, T)
        support[tuple(N * x for x in T)] = (
            val.numerator * pow(val.denominator, -1, p) % p,)
    return QExpansion(p=p, N=N, weight=Weight(k, k), support=support)

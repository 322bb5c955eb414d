"""Exact arithmetic over F_p and F_{p^2}, plus truncated power series.

Provides:

- :class:`Fp`: the prime field F_p for an odd prime p >= 5.
- :class:`Fp2`: the quadratic extension F_{p^2} = F_p[x]/(x^2 - r) with r the
  smallest quadratic non-residue; elements are pairs ``(a, b)`` meaning
  ``a + b*sqrt(r)``.
- :func:`find_zeta`: a deterministic (p+1)-th root of -1 in F_{p^2}, a power
  of an element whose norm is a non-residue; :func:`all_zetas`: every root,
  as the points of the norm conic.
- :func:`echelon`: reduced row echelon form over F_p, at any width, with
  pivot columns; :func:`kernel`: an echelon basis of the orthogonal vectors.
- :class:`Series1`: sparse univariate truncated series (Laurent exponents
  allowed) over Fp or Fp2 that carry their absolute precision, with
  power-of-Frobenius substitution.
- :class:`Series3`: sparse trivariate truncated series over F_p with the three
  partial derivations.

Field operations return reduced residues, so two elements are equal exactly
when they compare equal with ``==``.  All values are immutable after
construction and safe to share.  The public series constructors check p and
drop zeros and terms past the cutoff.  Series arithmetic builds its results
by private constructors, ``Series1._like`` and ``Series3._derived``, which
rely on what the operands already hold (keys below the cutoff, nonzero
values, p checked) and only reduce mod p and drop the zeros an operation
made.

A Series1 is known mod t^prec, prec <= cutoff, and each operation sets the
precision of its result by one rule (the O(t^n) of PARI/GP and Sage):
prec(f + g) = min(prec f, prec g); prec(f*g) = min(prec f + val g,
prec g + val f), where val is the order as far as it is known, so that an
exact zero times a power series is an exact zero; the inverse of
c t^e (1 - x) is known to prec - 2e; and ``frobenius_substitute(s)``
multiplies prec by p^s.  Precision never exceeds the cutoff, and terms an
operation pushes past the cutoff are truncated, not lost.  Where an
operation would rebuild an operand it already holds, precision included,
``add``, ``sub``, ``mul``, ``neg`` and ``frobenius_substitute`` return that
operand, shared.
"""

from __future__ import annotations


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------

# The first 13 primes.  Miller-Rabin to these bases is exact below
# _PRIME_BOUND (Sorenson and Webster, Math. Comp. 86 (2017)); the first 12
# alone are exact only below 3.2e23.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for every n < 3.3e24.

    Every n <= 41 is looked up, and numbers with a prime factor <= 41 are
    decided by division; the rest by Miller-Rabin to the first 13 prime bases.
    Raises ``ValueError`` when n >= 3317044064679887385961981 has no such
    factor, since the test does not decide it.
    """
    if n <= 41:
        return n in _SMALL_PRIMES
    if any(n % q == 0 for q in _SMALL_PRIMES):
        return False
    if n < 43 * 43:
        return True
    if n >= _PRIME_BOUND:
        raise ValueError(f"primality is only decided below {_PRIME_BOUND}, "
                         f"got {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p: int, error=ValueError) -> None:
    """The one rule for p: a prime 5 <= p < 3.3e24, else raise ``error``."""
    if p >= _PRIME_BOUND:
        raise error(f"p must be below {_PRIME_BOUND}, the bound of the "
                    f"primality test, got {p}")
    if p < 5 or not is_prime(p):
        raise error(f"p must be a prime >= 5, got {p}")


def _check_ell(ell: int, error=ValueError) -> None:
    """The one rule for ell: a prime below the bound of the primality test,
    else raise ``error``."""
    if not (ell < _PRIME_BOUND and is_prime(ell)):
        raise error(f"ell must be a prime below {_PRIME_BOUND}, got {ell}")


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class Fp:
    """The prime field F_p (p an odd prime >= 5); elements are ints in [0, p)."""

    def __init__(self, p: int):
        _check_prime(p)
        self.p = p
        self.zero = 0
        self.one = 1

    # -- element operations -------------------------------------------------
    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(a, -1, self.p)

    def frob(self, a, s: int = 1):
        """x -> x^(p^s); the identity on F_p."""
        return a % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def __repr__(self):
        return f"Fp({self.p})"


class Fp2:
    """F_{p^2} as F_p[x]/(x^2 - r), r the smallest quadratic non-residue.

    Elements are pairs ``(a, b)`` of ints in [0, p), meaning a + b*sqrt(r).
    """

    def __init__(self, p: int):
        _check_prime(p)
        self.p = p
        self.r = self._least_nonresidue(p)
        self.zero = (0, 0)
        self.one = (1, 0)

    @staticmethod
    def _least_nonresidue(p: int) -> int:
        # Euler's criterion: r is a non-residue iff r^((p-1)/2) = -1
        for r in range(2, p):
            if pow(r, (p - 1) // 2, p) == p - 1:
                return r
        raise AssertionError("no quadratic non-residue found")

    # -- element operations -------------------------------------------------
    def add(self, x, y):
        return ((x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p)

    def neg(self, x):
        return ((-x[0]) % self.p, (-x[1]) % self.p)

    def mul(self, x, y):
        a, b = x
        c, d = y
        return ((a * c + self.r * b * d) % self.p, (a * d + b * c) % self.p)

    def inv(self, x):
        a, b = x
        n = (a * a - self.r * b * b) % self.p
        if n == 0:
            if a % self.p == 0 and b % self.p == 0:
                raise ZeroDivisionError("inverse of zero in F_{p^2}")
            raise AssertionError("norm vanished on a nonzero element")
        ninv = pow(n, -1, self.p)
        return ((a * ninv) % self.p, (-b * ninv) % self.p)

    def pow(self, x, n: int):
        if n < 0:
            return self.inv(self.pow(x, -n))
        result = self.one
        base = x
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def frob(self, x, s: int = 1):
        """x -> x^(p^s): conjugation when s is odd, identity when s is even."""
        if s % 2 == 0:
            return (x[0] % self.p, x[1] % self.p)
        return (x[0] % self.p, (-x[1]) % self.p)

    def is_zero(self, x) -> bool:
        return x[0] % self.p == 0 and x[1] % self.p == 0

    def __repr__(self):
        return f"Fp2({self.p}; x^2-{self.r})"


def find_zeta(p: int):
    """A deterministic (p+1)-th root of -1 in F_{p^2}.

    x^(p+1) is the norm a^2 - r*b^2 of x = a + b*sqrt(r) (Lidl and
    Niederreiter, *Finite Fields*, 2.3), so x^((p-1)/2) is a root whenever
    that norm is a non-residue mod p.  Returns it for x = c + sqrt(r), with
    c the least of 0, 1, 2, ... whose c^2 - r fails Euler's criterion;
    (p+1)/2 of the c do.  This zeta is not derived from a generator of
    F_{p^2}^x, and no factoring is needed.
    """
    K = Fp2(p)
    c = 0
    while pow(c * c - K.r, (p - 1) // 2, p) != p - 1:
        c += 1
    return K.pow((c, 1), (p - 1) // 2)


def all_zetas(p: int):
    """All p+1 of the (p+1)-th roots of -1 in F_{p^2}, sorted.

    x^(p+1) is the norm a^2 - r*b^2, so the roots are the points (a, b) of
    the conic a^2 - r*b^2 = -1: for each b, the square roots of r*b^2 - 1
    read from a table of the squares mod p.
    """
    r = Fp2(p).r
    roots = {}
    for a in range(p):
        roots.setdefault(a * a % p, []).append(a)
    return sorted((a, b) for b in range(p)
                  for a in roots.get((r * b * b - 1) % p, ()))


# ---------------------------------------------------------------------------
# linear algebra over F_p
# ---------------------------------------------------------------------------

def echelon(rows, p: int):
    """Reduced row echelon form of ``rows`` over F_p, at any width: the
    nonzero reduced rows as a tuple of tuples in pivot order, and their pivot
    columns.  The rows depend only on the span of ``rows``."""
    rows = [[x % p for x in row] for row in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        for piv in range(r, len(rows)):
            if rows[piv][col]:
                break
        else:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, p)
        top = rows[r] = [x * inv % p for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and (f := row[col]):
                rows[i] = [(x - f * y) % p for x, y in zip(row, top)]
        pivots.append(col)
    return tuple(map(tuple, rows[:len(pivots)])), tuple(pivots)


def kernel(rows, p: int, width: int):
    """Echelon basis of {x in F_p^width : r . x = 0 for every row r}: per
    free column f, 1 at f and -row[f] at the pivot of each reduced row."""
    reduced, pivots = echelon(rows, p)
    row_at = dict(zip(pivots, reduced))
    return echelon([[-row_at[c][f] if c in row_at else int(c == f)
                     for c in range(width)]
                    for f in range(width) if f not in row_at], p)[0]


# ---------------------------------------------------------------------------
# univariate truncated series (Laurent exponents permitted)
# ---------------------------------------------------------------------------

class Series1:
    """Sparse univariate truncated series sum_e c_e * t^e + O(t^prec).

    Exponents may be negative (needed for intermediate steps of semilinear
    chases); truncation discards exponents >= cutoff.  Coefficients live in
    the supplied field object (:class:`Fp` or :class:`Fp2`).  The absolute
    precision ``prec`` <= cutoff (default: the cutoff) says how much of the
    series is known: the coefficients below it are exact, and those from it
    up to the cutoff are kept but carry no information.
    """

    __slots__ = ("field", "cutoff", "coeffs", "prec")

    def __init__(self, field, cutoff: int, coeffs=None, prec=None):
        self.field = field
        self.cutoff = cutoff
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if e >= cutoff:
                    continue
                if not field.is_zero(c):
                    clean[e] = c
        self.coeffs = clean
        self.prec = cutoff if prec is None else min(prec, cutoff)

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, field, cutoff):
        return cls(field, cutoff)

    @classmethod
    def monomial(cls, field, cutoff, exp: int):
        return cls(field, cutoff, {exp: field.one})

    @classmethod
    def const(cls, field, cutoff, c):
        return cls(field, cutoff, {0: c})

    # -- predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def order(self):
        """Lowest exponent with nonzero coefficient, or None for zero."""
        if not self.coeffs:
            return None
        return min(self.coeffs)

    # -- arithmetic ---------------------------------------------------------
    def _like(self, coeffs, prec):
        """Result at this cutoff and ``prec`` from ``coeffs`` whose keys are
        below the cutoff."""
        out = object.__new__(Series1)
        out.field, out.cutoff, out.prec = self.field, self.cutoff, prec
        zero = self.field.zero
        out.coeffs = {e: c for e, c in coeffs.items() if c != zero}
        return out

    def add(self, other):
        pa, pb = self.prec, other.prec
        if not other.coeffs and pa <= pb:
            return self
        if not self.coeffs and pb <= pa and other.cutoff == self.cutoff:
            return other
        prec = pa if pa < pb else pb
        F = self.field
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = F.add(out.get(e, F.zero), c)
        if other.cutoff > self.cutoff:
            return Series1(F, self.cutoff, out, prec)
        return self._like(out, prec)

    def neg(self):
        if not self.coeffs:
            return self
        F = self.field
        return self._like({e: F.neg(c) for e, c in self.coeffs.items()},
                          self.prec)

    def sub(self, other):
        return self.add(other.neg())

    def scal(self, c):
        F = self.field
        return self._like({e: F.mul(c, v) for e, v in self.coeffs.items()},
                          self.prec)

    def mul(self, other):
        F, K = self.field, self.cutoff
        a, b = self.coeffs, other.coeffs
        pa, pb = self.prec, other.prec
        # min(K, prec f + val g, prec g + val f), where val is the order as
        # far as it is known, min(order, prec), and prec for a zero series;
        # written out without calls: the product is the hottest operation
        va = min(a) if a else pa
        vb = min(b) if b else pb
        x = pa + (vb if vb < pb else pb)
        y = pb + (va if va < pa else pa)
        prec = x if x < y else y
        if prec > K:
            prec = K
        if not a and prec == pa:
            return self
        if not b and prec == pb and other.cutoff == K:
            return other
        if not (a and b):
            return self._like({}, prec)
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                if e < K:
                    out[e] = F.add(out.get(e, F.zero), F.mul(c1, c2))
        return self._like(out, prec)

    def inverse(self):
        """Inverse of a series whose lowest term is invertible.

        Writes f = c*t^e*(1 - x) with order(x) >= 1, and computes
        b = 1/(c(1 - x)) term by term: b_0 = 1/c, b_n = sum_k x_k b_(n-k).
        The result is known to the precision of f/t^e, moved by t^-e.  A
        series that is zero to its precision has no known lowest term and is
        refused.
        """
        e0 = self.order()
        if e0 is None or e0 >= self.prec:
            raise ZeroDivisionError(
                "inverse of a series that is zero to its precision")
        F, K = self.field, self.cutoff
        add, mul = F.add, F.mul
        c0inv = F.inv(self.coeffs[e0])
        m = F.neg(c0inv)
        # the terms k, x_k of x = 1 - f/(c t^e) below the cutoff
        xs = sorted((e - e0, mul(m, c)) for e, c in self.coeffs.items()
                    if e0 < e < K + e0)
        # b_n for the n that land below the cutoff after the shift by -e;
        # the inverse of a monomial (no x) is one term
        b = [c0inv]
        for n in range(1, min(K, K + e0) if xs else 1):
            acc = F.zero
            for k, xk in xs:
                if k > n:
                    break
                acc = add(acc, mul(xk, b[n - k]))
            b.append(acc)
        prec = min(K, self.prec - e0)
        return self._like({n - e0: c for n, c in enumerate(b) if n - e0 < K},
                          min(K, prec - e0))

    # -- semilinear substitution -------------------------------------------
    def frobenius_substitute(self, s: int = 1):
        """t^e -> t^(p^s * e) and coefficients a -> a^(p^s); terms pushed
        past the cutoff are truncated, and the precision scales by p^s."""
        if s == 0:
            return self
        F, K = self.field, self.cutoff
        q = F.p ** s
        prec = self.prec * q
        if prec > K:
            prec = K
        if not self.coeffs and prec == self.prec:
            return self
        out = {}
        for e, c in self.coeffs.items():
            e2 = e * q
            if e2 < K:
                out[e2] = F.frob(c, s)
        return self._like(out, prec)

    def __repr__(self):
        if not self.coeffs:
            return "Series1(0)"
        terms = " + ".join(f"{c}*t^{e}" for e, c in sorted(self.coeffs.items()))
        return f"Series1({terms}; K={self.cutoff})"


# ---------------------------------------------------------------------------
# trivariate truncated series over F_p
# ---------------------------------------------------------------------------

class Series3:
    """Sparse series in t11, t12, t22 over F_p, truncated at total degree K.

    Monomial keys are triples of nonnegative exponents ``(a, b, c)`` for
    ``t11^a * t12^b * t22^c``.  Supports the three commuting derivations.
    """

    __slots__ = ("p", "cutoff", "coeffs")

    VARS = ("t11", "t12", "t22")

    def __init__(self, p: int, cutoff: int, coeffs=None):
        _check_prime(p)
        self.p = p
        self.cutoff = cutoff
        clean = {}
        if coeffs:
            for mono, c in coeffs.items():
                if sum(mono) >= cutoff:
                    continue
                c %= p
                if c:
                    clean[mono] = c
        self.coeffs = clean

    # -- constructors -------------------------------------------------------
    @classmethod
    def const(cls, p, cutoff, c):
        return cls(p, cutoff, {(0, 0, 0): c})

    @classmethod
    def var(cls, p, cutoff, name: str):
        idx = cls.VARS.index(name)
        mono = tuple(1 if i == idx else 0 for i in range(3))
        return cls(p, cutoff, {mono: 1})

    # -- predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> int:
        return self.coeffs.get((0, 0, 0), 0)

    def __eq__(self, other):
        if not isinstance(other, Series3):
            return NotImplemented
        return (self.p == other.p and self.cutoff == other.cutoff
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.p, self.cutoff, tuple(sorted(self.coeffs.items()))))

    # -- arithmetic ---------------------------------------------------------
    def _derived(self, coeffs):
        """Result at this p and cutoff from ``coeffs`` whose keys are below
        the cutoff: reduce mod p and drop zeros, with no other check."""
        out, p = object.__new__(Series3), self.p
        out.p, out.cutoff = p, self.cutoff
        out.coeffs = {m: r for m, c in coeffs.items() if (r := c % p)}
        return out

    def add(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        if other.cutoff > self.cutoff:
            return Series3(self.p, self.cutoff, out)
        return self._derived(out)

    def neg(self):
        return self._derived({m: -c for m, c in self.coeffs.items()})

    def sub(self, other):
        return self.add(other.neg())

    def scal(self, c: int):
        return self._derived({m: c * v for m, v in self.coeffs.items()})

    def mul(self, other):
        """Product below the cutoff: a term of degree d meets only the
        other factor's terms of degree below cutoff - d."""
        by_degree = {}
        for m, c in other.coeffs.items():
            by_degree.setdefault(sum(m), []).append((m, c))
        levels = sorted(by_degree.items())
        out = {}
        for (a1, b1, c1), v1 in self.coeffs.items():
            room = self.cutoff - a1 - b1 - c1
            for d, terms in levels:
                if d >= room:
                    break
                for (a2, b2, c2), v2 in terms:
                    m = (a1 + a2, b1 + b2, c1 + c2)
                    out[m] = out.get(m, 0) + v1 * v2
        return self._derived(out)

    def derivation(self, name: str):
        """Partial derivative with respect to t11, t12 or t22."""
        idx = self.VARS.index(name)
        out = {}
        for m, c in self.coeffs.items():
            if m[idx]:
                m2 = list(m)
                m2[idx] -= 1
                out[tuple(m2)] = c * m[idx]
        return self._derived(out)

    def truncate_below(self, degree: int):
        """Keep only the terms of total degree < degree."""
        return Series3(self.p, min(self.cutoff, degree), dict(self.coeffs))

    def inverse(self):
        """Inverse of a unit (nonzero constant term): with f = c0 (1 - x),
        the sum of x^k below the cutoff, times 1/c0."""
        c0 = self.constant_term()
        if c0 == 0:
            raise ZeroDivisionError("not a unit in the local ring")
        c0inv = pow(c0, -1, self.p)
        acc = term = Series3.const(self.p, self.cutoff, 1)
        x = acc.sub(self.scal(c0inv))
        while term.coeffs:
            term = term.mul(x)
            acc = acc.add(term)
        return acc.scal(c0inv)

    def __repr__(self):
        if not self.coeffs:
            return "Series3(0)"
        parts = []
        for m, c in sorted(self.coeffs.items()):
            mono = "*".join(f"{v}^{e}" for v, e in zip(self.VARS, m) if e)
            parts.append(f"{c}*{mono}" if mono else str(c))
        return f"Series3({' + '.join(parts)}; K={self.cutoff})"

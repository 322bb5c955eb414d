"""Reference truncated series arithmetic, for differential tests of ``arith``.

Every operation here forms every pair of terms, drops what falls at or past
the cutoff term by term, and builds its result through the public, checking
constructor of :class:`Series1` or :class:`Series3`.  The precision of a
Series1 product is read pair by pair too: each known term of one factor
times the unknown O(t^prec) of the other.  ``arith`` derives its results
without that check, visits only the degrees that can reach the result, reads
a product's precision from the valuations and returns at once where a zero
operand leaves an operand as it is; the two must agree on the cutoff, the
coefficients and the precision of every result.

The functions take the operands of the method of the same name, ``self``
first.
"""

from siegelmodp.arith import Series1, Series3


# ---------------------------------------------------------------------------
# Series1
# ---------------------------------------------------------------------------

def _like1(f, coeffs, prec=None):
    return Series1(f.field, f.cutoff, coeffs,
                   prec=f.prec if prec is None else prec)


def add1(f, g):
    F = f.field
    out = dict(f.coeffs)
    for e, c in g.coeffs.items():
        out[e] = F.add(out.get(e, F.zero), c)
    return _like1(f, out, min(f.prec, g.prec))


def neg1(f):
    F = f.field
    return _like1(f, {e: F.neg(c) for e, c in f.coeffs.items()})


def sub1(f, g):
    return add1(f, neg1(g))


def scal1(f, c):
    F = f.field
    return _like1(f, {e: F.mul(c, v) for e, v in f.coeffs.items()})


def mul1(f, g):
    F = f.field
    out = {}
    for e1, c1 in f.coeffs.items():
        for e2, c2 in g.coeffs.items():
            e = e1 + e2
            if e >= f.cutoff:
                continue
            out[e] = F.add(out.get(e, F.zero), F.mul(c1, c2))
    # (known terms + O(t^prec f)) * (known terms + O(t^prec g))
    prec = f.prec + g.prec
    for a, b in ((f, g), (g, f)):
        for e in a.coeffs:
            if e < a.prec:
                prec = min(prec, e + b.prec)
    return _like1(f, out, prec)


def shift1(f, e0):
    return _like1(f, {e + e0: c for e, c in f.coeffs.items()
                      if e + e0 < f.cutoff}, f.prec + e0)


def frobenius_substitute1(f, s=1):
    F = f.field
    q = F.p ** s
    out = {}
    for e, c in f.coeffs.items():
        if e * q < f.cutoff:
            out[e * q] = F.frob(c, s)
    return _like1(f, out, f.prec * q)


def inverse1(f):
    """The geometric series of ``Series1.inverse``, on the ops above, up to
    and including the first power that vanishes."""
    F, K = f.field, f.cutoff
    e0 = f.order()
    c0inv = F.inv(f.coeffs[e0])
    ng = neg1(sub1(scal1(shift1(f, -e0), c0inv), Series1.const(F, K, F.one)))
    acc = term = Series1.const(F, K, F.one)
    while not term.is_zero():
        term = mul1(term, ng)
        acc = add1(acc, term)
    return shift1(scal1(acc, c0inv), -e0)


def neumann_inverse1(f):
    """``Series1.inverse`` as it was before the recurrence: f = c t^e (1 - x)
    and the geometric series in x on ``arith``'s own products and sums, with
    the first vanishing power added too, whose precision bounds the terms
    left out."""
    e0 = f.order()
    if e0 is None or e0 >= f.prec:
        raise ZeroDivisionError(
            "inverse of a series that is zero to its precision")
    F = f.field
    c0inv = F.inv(f.coeffs[e0])
    u = shift1(f, -e0)
    m = F.neg(c0inv)
    x = Series1(F, f.cutoff, {e: F.mul(m, c) for e, c in u.coeffs.items()
                              if e}, prec=u.prec)
    acc = term = Series1.const(F, f.cutoff, c0inv)
    while term.coeffs:
        term = term.mul(x)
        acc = acc.add(term)
    return shift1(acc, -e0)


# ---------------------------------------------------------------------------
# Series3
# ---------------------------------------------------------------------------

def add3(f, g):
    out = dict(f.coeffs)
    for m, c in g.coeffs.items():
        out[m] = (out.get(m, 0) + c) % f.p
    return Series3(f.p, f.cutoff, out)


def neg3(f):
    return Series3(f.p, f.cutoff, {m: (-c) % f.p for m, c in f.coeffs.items()})


def sub3(f, g):
    return add3(f, neg3(g))


def scal3(f, c):
    return Series3(f.p, f.cutoff,
                   {m: (c * v) % f.p for m, v in f.coeffs.items()})


def mul3(f, g):
    out = {}
    for m1, c1 in f.coeffs.items():
        for m2, c2 in g.coeffs.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            if sum(m) >= f.cutoff:
                continue
            out[m] = (out.get(m, 0) + c1 * c2) % f.p
    return Series3(f.p, f.cutoff, out)


def derivation3(f, name):
    idx = Series3.VARS.index(name)
    out = {}
    for m, c in f.coeffs.items():
        if m[idx]:
            m2 = tuple(x - (i == idx) for i, x in enumerate(m))
            out[m2] = (out.get(m2, 0) + c * m[idx]) % f.p
    return Series3(f.p, f.cutoff, out)


def inverse3(f):
    """The geometric series of ``Series3.inverse``, on the ops above."""
    p, K = f.p, f.cutoff
    c0inv = pow(f.constant_term(), p - 2, p)
    ng = neg3(sub3(scal3(f, c0inv), Series3.const(p, K, 1)))
    acc = term = Series3.const(p, K, 1)
    for _ in range(K + 1):
        term = mul3(term, ng)
        if term.is_zero():
            break
        acc = add3(acc, term)
    return scal3(acc, c0inv)

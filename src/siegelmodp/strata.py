"""Ekedahl-Oort strata for genus 2: combinatorial data, canonical
filtrations, and vanishing orders of partial Hasse invariants.

The four strata are labelled by elementary sequences phi in
{(0,0), (0,1), (1,1), (1,2)}.  One table row per stratum holds its printed
data (multiplicity f, final sequence psi, canonical type (rho, v, f, pi, n);
the a-number is 2 - phi(2)), read by :func:`eo_tables`, and its rank-4 mod-p
point model, from which :func:`canonical_filtration_compute` recomputes the
canonical type.  One row of :data:`HASSE_CASES` per partial Hasse invariant
(phi, variant) holds its closed-form order, default cutoff, deformed model
and the words of a semilinear chase engine over truncated (Laurent) series
in one deformation parameter t; :func:`partial_hasse_order` runs them and
reads the t-order, refusing a variant or zeta the case does not take.

Covariant convention (important): the stored matrix ``Fhat`` represents the
*Verschiebung* of the underlying group scheme and ``Vhat`` its *Frobenius* —
the roles are interchanged when passing to the covariant module.  Levels are
tracked so that applying Vhat raises the Frobenius-twist level by one
(Vhat^(p^s): level s -> level s+1) and applying Fhat lowers it
(Fhat^(p^(s-1)): level s -> level s-1).  The matrices satisfy the adjunction
identity Fhat^T J = J Vhat for the standard symplectic pairing
J = <e_i, e_{i+2}> = 1, which is the basis-vector form of the semilinear
compatibility between the two operators (``tests/strata_oracle.py`` checks
it).

Inverses are never taken as matrix inverses: an inverse step is only
permitted through a declared rank-1 quotient line, and is computed by
solving lambda * (forward image of the line generator) = running vector
modulo the declared relations of the target quotient (series division with
order tracking).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .arith import (Fp, Fp2, Series1, _check_prime, all_zetas, echelon,
                    find_zeta, kernel)


class StrataError(ValueError):
    pass


class ChaseError(StrataError):
    """A Frobenius/Verschiebung chase left the line it was following."""


# ---------------------------------------------------------------------------
# combinatorial records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElementarySequence:
    phi: tuple
    f: int      # multiplicity weight of the stratum
    a = property(lambda self: 2 - self.phi[1])  # a-number, 2 - phi(2)

    def __post_init__(self):
        if self.phi not in PHI_VALUES:
            raise StrataError(f"phi must be one of {PHI_VALUES}, got {self.phi}")


@dataclass(frozen=True)
class FinalSequence:
    psi: tuple  # (psi(1), ..., psi(4))

    def __post_init__(self):
        psi = self.psi
        if len(psi) != 4 or psi[3] != 2:
            raise StrataError("final sequence must have length 4 and psi(4)=2")
        # duality: psi(4-i) = psi(i) + 2 - i for i = 1, 2, 3
        for i in (1, 2, 3):
            if psi[4 - i - 1] != psi[i - 1] + 2 - i:
                raise StrataError("final sequence violates the duality relation")


@dataclass(frozen=True)
class CanonicalType:
    s: int
    r: int
    rho: tuple
    v: tuple
    f: tuple
    pi: tuple
    n: int

    def __post_init__(self):
        s = self.s
        if len(self.rho) != s + 1 or len(self.v) != s + 1 or len(self.f) != s + 1:
            raise StrataError("rho, v, f must have length s+1")
        if len(self.pi) != s or sorted(self.pi) != list(range(s)):
            raise StrataError("pi must be a permutation of {0..s-1}")


@dataclass(frozen=True)
class StratumRecord:
    phi: tuple
    elementary: ElementarySequence
    final: FinalSequence
    canonical: CanonicalType


# phi -> (f, psi, canonical type, point model (V, F)): the printed data of
# each stratum and its 4x4 matrices over F_p at the distinguished point
# (deformation parameter specialized)
_Z = (0, 0, 0, 0)
_STRATA = {
    (0, 0): (0, (0, 0, 1, 2),
             CanonicalType(2, 1, (0, 2, 4), (0, 0, 1), (1, 2, 2), (1, 0), 2),
             (((0, 0, 1, 0), (0, 0, 0, 1), _Z, _Z),
              ((0, 0, -1, 0), (0, 0, 0, -1), _Z, _Z))),
    (0, 1): (0, (0, 1, 1, 2),
             CanonicalType(4, 2, (0, 1, 2, 3, 4), (0, 0, 1, 1, 2),
                           (2, 3, 3, 4, 4), (2, 0, 3, 1), 4),
             (((0, 0, 0, 1), (1, 0, 0, 0), _Z, _Z),
              (_Z, (0, 0, -1, 0), (0, 0, 0, 1), _Z))),
    # one-parameter deformation of the (0, 1) model, specialized at t = 1
    (1, 1): (1, (1, 1, 2, 2),
             CanonicalType(4, 2, (0, 1, 2, 3, 4), (0, 1, 1, 2, 2),
                           (2, 2, 3, 3, 4), (0, 2, 1, 3), 2),
             (((1, 0, 0, 1), (1, 0, 0, 0), _Z, _Z),
              (_Z, (0, 0, -1, 0), (0, 0, 1, 1), _Z))),
    (1, 2): (2, (1, 2, 2, 2),
             CanonicalType(2, 1, (0, 2, 4), (0, 1, 1), (1, 1, 2), (0, 1), 1),
             (((1, 0, 0, 0), (0, 1, 0, 0), _Z, _Z),
              (_Z, _Z, (0, 0, 1, 0), (0, 0, 0, 1)))),
}

PHI_VALUES = tuple(_STRATA)


def eo_tables() -> dict:
    """The printed stratum data, keyed by phi."""
    return {phi: StratumRecord(phi, ElementarySequence(phi, f),
                               FinalSequence(psi), ct)
            for phi, (f, psi, ct, _) in _STRATA.items()}


# ---------------------------------------------------------------------------
# mod-p linear algebra (for the point-model filtration chase)
# ---------------------------------------------------------------------------

def _mat_image(M, space, p):
    """Echelon basis of M(span)."""
    return echelon([[sum(m * x for m, x in zip(row, v)) for row in M]
                    for v in space], p)[0]


def _mat_preimage(M, space, p):
    """Echelon basis of {x : M x in span}: the kernel of ann(span) M."""
    ann = kernel(space, p, len(M))
    return kernel([[sum(a * m for a, m in zip(row, col)) for col in zip(*M)]
                   for row in ann], p, len(M[0]))


def _point_model(phi):
    """The point model (V, F) of the stratum phi."""
    if phi not in PHI_VALUES:
        raise StrataError(f"phi must be one of {PHI_VALUES}, got {phi}")
    return _STRATA[phi][3]


def canonical_filtration_compute(phi, p: int) -> CanonicalType:
    """Recompute the canonical type of the stratum by stabilizing the set of
    subspaces under V-images and F-preimages on the mod-p point model.

    Serves as an independent oracle for the printed table data.
    """
    _check_prime(p, StrataError)
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
        raise StrataError("filtration did not stabilize")

    chain = sorted(spaces, key=len)
    # the collection must be totally ordered by inclusion
    for small, big in zip(chain, chain[1:]):
        if echelon(small + big, p)[0] != big:
            raise StrataError("computed subspaces do not form a chain")
    s = len(chain) - 1
    index = {S: i for i, S in enumerate(chain)}
    rho = tuple(len(S) for S in chain)
    v = tuple(index[_mat_image(V, S, p)] for S in chain)
    f = tuple(index[_mat_preimage(F, S, p)] for S in chain)
    r = index[_mat_image(V, full, p)]
    pi = tuple(v[i] if v[i + 1] > v[i] else f[i] for i in range(s))
    # order of pi
    n = 1
    perm = pi
    ident = tuple(range(s))
    while perm != ident:
        perm = tuple(pi[x] for x in perm)
        n += 1
    return CanonicalType(s, r, rho, v, f, pi, n)


# ---------------------------------------------------------------------------
# Dieudonne models over truncated series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DieudonneModel:
    """Rank-4 module over a truncated series ring with semilinear operators.

    ``Vhat`` raises the twist level, ``Fhat`` lowers it (covariant
    convention, see the module docstring).  Matrices are 4x4 tuples of
    :class:`Series1` over ``base`` (an Fp or Fp2 instance) with cutoff K.
    """
    base: object
    cutoff: int
    Vhat: tuple
    Fhat: tuple

    def apply(self, which: str, s: int, vec):
        """Matrix-vector product with the s-fold twisted operator matrix."""
        M = self.Vhat if which == "V" else self.Fhat
        out = []
        for row in M:
            acc = Series1.zero(self.base, self.cutoff)
            for e, v in zip(row, vec):
                acc = acc.add(e.frobenius_substitute(s).mul(v))
            out.append(acc)
        return tuple(out)


def _vec(model, entries):
    """Vector from a dict {index: coeff-or-Series1} or a 4-sequence."""
    B, K = model.base, model.cutoff
    out = [Series1.zero(B, K) for _ in range(4)]
    items = entries.items() if isinstance(entries, dict) else enumerate(entries)
    for i, c in items:
        out[i] = c if isinstance(c, Series1) else Series1.const(B, K, c)
    return tuple(out)


def _twist_vec(vec, s):
    return tuple(c.frobenius_substitute(s) for c in vec)


def _solve_line(model, columns, target):
    """Solve target = sum_i x_i * columns[i] over truncated Laurent series.

    Gaussian elimination with min-order pivoting; raises ``ChaseError``
    ("chase left the line") when the system is inconsistent.  Returns x_0,
    the coefficient of the line generator ``columns[0]``.
    """
    ncols = len(columns)
    # rows of the augmented system
    rows = [[columns[c][i] for c in range(ncols)] + [target[i]]
            for i in range(4)]
    where = [None] * ncols
    rank_rows = []
    for c in range(ncols):
        piv, piv_ord = None, None
        for ri, row in enumerate(rows):
            if ri in rank_rows or row[c].is_zero():
                continue
            o = row[c].order()
            if piv is None or o < piv_ord:
                piv, piv_ord = ri, o
        if piv is None:
            continue
        where[c] = piv
        rank_rows.append(piv)
        inv = rows[piv][c].inverse()
        rows[piv] = [e.mul(inv) for e in rows[piv]]
        for ri, row in enumerate(rows):
            if ri == piv or row[c].is_zero():
                continue
            f = row[c]
            rows[ri] = [e.sub(f.mul(g)) for e, g in zip(row, rows[piv])]
    # consistency: rows without a pivot must be fully zero
    for ri, row in enumerate(rows):
        if ri in rank_rows:
            continue
        if any(not e.is_zero() for e in row):
            raise ChaseError("chase left the line")
    if where[0] is None:
        return Series1.zero(model.base, model.cutoff)
    return rows[where[0]][ncols]


@dataclass(frozen=True)
class Line:
    """A declared rank-1 quotient line: generator and quotient relations,
    each a built 4-tuple of :class:`Series1` (see ``_vec``) in untwisted
    coordinates; the engine twists as needed."""
    gen: tuple
    rels: tuple = ()


@dataclass
class ChaseResult:
    vector: tuple
    level: int
    multiplier: Series1 | None = None

    @property
    def order(self):
        if self.multiplier is not None:
            return self.multiplier.order()
        orders = [c.order() for c in self.vector if not c.is_zero()]
        return min(orders) if orders else None


def chase(model: DieudonneModel, word, start, line_data=None) -> ChaseResult:
    """Run a semilinear word on a starting vector.

    ``word`` is a sequence of steps of three kinds:

    - ``("F",)``             forward Fhat (level s -> s-1, matrix twist s-1);
    - ``("invV", src, depth)``  invert a depth-fold Vhat composite through
      the declared line ``line_data[src]`` (level s -> s-depth): the
      generator is twisted to level s-depth once, its forward image under
      depth Vhat steps is computed, the running vector is solved as
      lambda * image modulo the current quotient's relations
      (``("invV", src, depth, quot)`` names them; default none), and the
      result is lambda * (twisted generator);
    - ``("extract", name)``  express the running vector as
      lambda * (twisted generator of line ``name``) modulo its relations
      and record lambda as the accumulated multiplier.

    ``start`` is a pair ``(entries, level)``: a 4-sequence or dict of
    coefficients, twisted by the engine to the level the chase starts at.
    """
    line_data = line_data or {}
    entries, level = start
    vec = _twist_vec(_vec(model, entries), level)
    multiplier = None
    for step in word:
        op = step[0]
        if op == "F":
            if level < 1:
                raise StrataError("cannot apply F below level 0")
            vec = model.apply("F", level - 1, vec)
            level -= 1
        elif op == "invV":
            src = line_data[step[1]]
            depth = step[2]
            quot = line_data[step[3]] if len(step) > 3 and step[3] else None
            src_level = level - depth
            if src_level < 0:
                raise StrataError("inverse step would go below level 0")
            src_gen = _twist_vec(src.gen, src_level)
            fwd = src_gen
            lv = src_level
            for _ in range(depth):
                fwd = model.apply("V", lv, fwd)
                lv += 1
            rels = [_twist_vec(r, level) for r in (quot.rels if quot else ())]
            if all(c.is_zero() for c in fwd):
                raise ChaseError("chase left the line")
            lam = _solve_line(model, [fwd] + rels, vec)
            vec = tuple(c.mul(lam) for c in src_gen)
            level = src_level
        elif op == "extract":
            line = line_data[step[1]]
            gen = _twist_vec(line.gen, level)
            rels = [_twist_vec(r, level) for r in line.rels]
            multiplier = _solve_line(model, [gen] + rels, vec)
            vec = tuple(c.mul(multiplier) for c in gen)
        else:
            raise StrataError(f"unknown chase step {op!r}")
    return ChaseResult(vector=vec, level=level, multiplier=multiplier)


# ---------------------------------------------------------------------------
# the deformed models
# ---------------------------------------------------------------------------

def model_1_1(p: int, K: int) -> tuple:
    """One-parameter deformation carrying the (1,1) stratum, over F_p[[t]].

    Returns (model, line_data); lines: B0 = <-e2 + t e3>, B1 = <e2 or e3>
    modulo <-e2 + t e3>, B2 = <e1 - t e4> modulo <e2, e3>.
    """
    B = Fp(p)
    z = Series1.zero(B, K)
    o = Series1.const(B, K, 1)
    t = Series1.monomial(B, K, 1)
    V = ((t, z, z, o), (o, z, z, z), (z, z, z, z), (z, z, z, z))
    F = ((z, z, z, z), (z, z, o.neg(), z), (z, z, t, o), (z, z, z, z))
    model = DieudonneModel(B, K, V, F)
    b0 = _vec(model, {1: -1, 2: t})
    lines = {
        "B0": Line(gen=b0),
        "B1e2": Line(gen=_vec(model, {1: 1}), rels=(b0,)),
        "B1e3": Line(gen=_vec(model, {2: 1}), rels=(b0,)),
        "B2": Line(gen=_vec(model, {0: 1, 3: t.neg()}),
                   rels=(_vec(model, {1: 1}), _vec(model, {2: 1}))),
    }
    return model, lines


def model_0_1(p: int, K: int, zeta=None) -> tuple:
    """One-parameter deformation carrying the (0,1) stratum, over F_{p^2}[[t]].

    ``zeta`` is a (p+1)-th root of -1 in F_{p^2} (default: find_zeta(p)).
    Lines: B0 = <e1 - zeta^{-1} e2>, B1 = <u1> mod B0's generator,
    B2 = <-e1 + zeta e2> mod <u1, u2>, B3 = <e3> mod all previous, where
    u1 = -e1 + t(e3 + zeta e4), u2 = -e2 + t zeta (e3 + zeta e4).
    """
    B = Fp2(p)
    if zeta is None:
        zeta = find_zeta(p)
    if not B.eq(B.pow(zeta, p + 1), B.neg(B.one)):
        raise StrataError("zeta must satisfy zeta^(p+1) = -1")
    z = Series1.zero(B, K)
    o = Series1.const(B, K, B.one)
    t = Series1.monomial(B, K, 1)
    zt = t.scal(zeta)
    z2t = t.scal(B.mul(zeta, zeta))
    V = ((t, zt, o, z), (zt, z2t, z, o), (z, z, z, z), (z, z, z, z))
    F = ((z, z, o.neg(), z), (z, z, z, o.neg()),
         (z, z, t, zt), (z, z, zt, z2t))
    model = DieudonneModel(B, K, V, F)
    zinv = B.inv(zeta)
    u1 = _vec(model, {0: o.neg(), 2: t, 3: zt})
    u2 = _vec(model, {1: o.neg(), 2: zt, 3: z2t})
    b0 = _vec(model, {0: B.one, 1: B.neg(zinv)})
    b2 = _vec(model, {0: B.neg(B.one), 1: zeta})
    lines = {
        "B0": Line(gen=b0),
        "B1": Line(gen=u1, rels=(b0,)),
        "B2": Line(gen=b2, rels=(u1, u2)),
        "B3": Line(gen=_vec(model, {2: B.one}), rels=(b2, u1, u2)),
    }
    return model, lines


@dataclass(frozen=True)
class HasseCase:
    formula: str    # closed form of the t-order, as printed
    value: object   # p -> the order that formula gives
    cutoff: object  # p -> default cutoff K
    model: object   # (p, K, zeta) -> (model, lines), None without chases
    chases: tuple   # (start line, start level, word) per multiplier


def _chases_1_1(line):
    return ((line, 2, (("invV", "B2", 1, line), ("F",), ("extract", line))),
            ("B0", 2, (("F",), ("F",), ("extract", "B0"))))


# (phi, variant) -> case; the invariant is the product of the multipliers of
# the case's chases.  The variant of phi = (1,1) selects the basis vector e2
# resp. e3 of the quotient line B1 through which the invariant is read.
# (1,2) has no chase: its invariant is the classical Hasse invariant, the
# determinant of the 2x2 Verschiebung block [[1, 0], [t11, t12]] on a
# transverse arc t12 = t.
HASSE_CASES = {
    ((1, 2), None): HasseCase("1", lambda p: 1, lambda p: 3, None, ()),
    ((1, 1), 1): HasseCase("p^2+2p-1", lambda p: p * p + 2 * p - 1,
                           lambda p: p * p + 2 * p + 2,
                           lambda p, K, zeta: model_1_1(p, K),
                           _chases_1_1("B1e2")),
    ((1, 1), 2): HasseCase("2p", lambda p: 2 * p,
                           lambda p: p * p + 2 * p + 2,
                           lambda p, K, zeta: model_1_1(p, K),
                           _chases_1_1("B1e3")),
    ((0, 1), None): HasseCase(
        "p^4-p^3-p^2+p", lambda p: p ** 4 - p ** 3 - p * p + p,
        lambda p: p ** 4 + p, lambda p, K, zeta: model_0_1(p, K, zeta=zeta),
        (("B1", 4, (("F",), ("invV", "B3", 2, "B0"), ("F",),
                    ("extract", "B1"))),
         ("B0", 4, (("invV", "B3", 2, "B0"), ("F",), ("F",),
                    ("extract", "B0"))))),
}


def partial_hasse_order(phi, p: int, variant: int | None = None,
                        K: int | None = None, zeta=None) -> int:
    """Vanishing t-order of the partial Hasse invariant along the stratum.

    The case (phi, variant) of :data:`HASSE_CASES` gives the default cutoff
    K, the model and the chases; the order is that of the product of the
    chase multipliers.  ``variant`` (1 or 2) is required for phi = (1,1)
    and refused elsewhere; ``zeta``, a (p+1)-th root of -1 in F_{p^2}
    (default: find_zeta(p)), is refused outside phi = (0,1).  An order at
    or past the cutoff raises "order exceeds cutoff".
    """
    phi = tuple(phi)
    if phi == (0, 0):
        raise StrataError("no partial Hasse invariant on the superspecial stratum")
    if phi not in PHI_VALUES:
        raise StrataError(f"phi must be one of {PHI_VALUES}, got {phi}")
    try:
        case = HASSE_CASES[phi, variant]
    except (KeyError, TypeError):
        raise StrataError("phi=(1,1) requires variant 1 or 2" if phi == (1, 1)
                          else "variant applies only to phi=(1,1)") from None
    if zeta is not None and phi != (0, 1):
        raise StrataError("zeta applies only to phi=(0,1)")
    if K is None:
        K = case.cutoff(p)
    if not case.chases:
        inv = Series1.monomial(Fp(p), K, 1)
    else:
        model, lines = case.model(p, K, zeta)
        try:
            inv = reduce(Series1.mul,
                         [chase(model, word, (lines[name].gen, level),
                                lines).multiplier
                          for name, level, word in case.chases])
        except ChaseError:
            # on these fixed models the only failure source is truncation:
            # a chase that degenerates below the cutoff means K was too small
            raise StrataError("order exceeds cutoff") from None
    if inv.is_zero() or inv.truncation_loss or inv.order() >= K:
        raise StrataError("order exceeds cutoff")
    return inv.order()


def partial_hasse_report(phi, p: int, variant: int | None = None) -> dict:
    """The report ``strata order`` prints: the computed order, the closed
    form it should equal, and whether it does."""
    phi = tuple(phi)
    order = partial_hasse_order(phi, p, variant=variant)
    case = HASSE_CASES[phi, variant]
    return {"phi": list(phi), "variant": variant, "p": p, "order": order,
            "expected": case.formula, "match": order == case.value(p)}


def zeta_independent(p: int) -> bool:
    """Exhaustive check that the (0,1) order is the same for every root."""
    orders = {partial_hasse_order((0, 1), p, zeta=z)
              for z in all_zetas(p)}
    return len(orders) == 1

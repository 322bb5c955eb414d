"""Reference Pieri split by linear algebra, for differential tests of ``rep``.

The split of V(n, m) tensor V(2, 0) is computed from a basis of each
component: highest-weight vectors lowered by E and normalized by falling
factorials.  Generic degrees solve one system mod p per tensor; for n in
{p-2, p-1} the split is solved over the rationals, the projection onto the
lowest component is rescaled by the smallest power of p that clears its
denominators, and the result is reduced mod p.

Internally the reversed monomial basis ub_i = e1^i e2^(n-i) (ub_i = u_{n-i})
is used on both tensor factors, with E ub_i = i ub_{i-1} extended to tensors
by the Leibniz rule.  The highest-weight vectors are

    w0 = ub_n (x) vb_2
    w1 = ub_n (x) vb_1 - ub_{n-1} (x) vb_2
    w2 = ub_n (x) vb_0 - 2 ub_{n-1} (x) vb_1 + ub_{n-2} (x) vb_2

and the component bases are f^(j)_i = E^i w_j / perm(n_j, i) with
n_0 = n+2, n_1 = n, n_2 = n-2.

``tensor_action`` applies g in GL_2 to a tensor factor by factor, for the
equivariance tests of the split.  ``pieri_table_triples`` builds the
Omega-process table as the nonzero (column, source index, weight) triples
of each output index, the reference for the flat rows of
``rep._pieri_table``.
"""

from fractions import Fraction
from functools import lru_cache
from math import perm

from siegelmodp.rep import PieriSplit, RepVector, Weight, rep_apply


def _pochhammer(m, i, p):
    """Falling factorial m*(m-1)*...*(m-i+1) mod p; raises if it vanishes."""
    value = perm(m, i) % p
    if value == 0:
        raise ValueError(f"pochhammer vanishes: ({m})_{i} divisible by {p}")
    return value


def _tensor_E(vec, ring):
    """Apply the lowering operator E to a tensor given as {(i,j): coeff}."""
    out = {}
    for (i, j), c in vec.items():
        if c == 0:
            continue
        if i > 0:
            key = (i - 1, j)
            out[key] = ring(out.get(key, 0) + i * c)
        if j > 0:
            key = (i, j - 1)
            out[key] = ring(out.get(key, 0) + j * c)
    return {k: v for k, v in out.items() if v != 0}


def highest_weight_vectors(n):
    """The (up to three) highest-weight tensors in internal coordinates."""
    ws = {0: {(n, 2): 1}}
    if n >= 1:
        ws[1] = {(n, 1): 1, (n - 1, 2): -1}
    if n >= 2:
        ws[2] = {(n, 0): 1, (n - 1, 1): -2, (n - 2, 2): 1}
    return ws


def _component_basis(n, j, p):
    """Vectors f^(j)_i (internal coords) for i = 0..n_j; exact if p is None."""
    nj = n + 2 - 2 * j
    if nj < 0:
        return []
    w = highest_weight_vectors(n)[j]
    if p is None:
        ring = lambda x: x
        cur = {k: Fraction(v) for k, v in w.items()}
    else:
        ring = lambda x: x % p
        cur = {k: v % p for k, v in w.items()}
    basis = []
    for i in range(nj + 1):
        if p is None:
            scale = Fraction(1, perm(nj, i))
            basis.append({k: v * scale for k, v in cur.items()})
        else:
            scale = pow(_pochhammer(nj, i, p), p - 2, p)
            basis.append({k: (v * scale) % p for k, v in cur.items()})
        cur = _tensor_E(cur, ring)
    return basis


@lru_cache(maxsize=None)
def _split_matrix(n, p):
    """Columns f^(j)_i (flattened internal coords) and their (j, i) labels."""
    if p is not None and n > p - 1:
        raise ValueError("split undefined at this degree")
    js = [0, 1, 2] if n >= 2 else ([0, 1] if n == 1 else [0])
    cols = []
    labels = []
    for j in js:
        for i, vec in enumerate(_component_basis(n, j, p)):
            cols.append(vec)
            labels.append((j, i))
    return cols, labels


def _solve(columns, target, dim_keys, field, inverse, is_zero):
    """Solve sum x_k col_k = target by Gauss-Jordan elimination."""
    key_index = {k: r for r, k in enumerate(dim_keys)}
    nrows = len(dim_keys)
    ncols = len(columns)
    M = [[field(0)] * (ncols + 1) for _ in range(nrows)]
    for cidx, col in enumerate(columns):
        for k, v in col.items():
            M[key_index[k]][cidx] = field(v)
    for k, v in target.items():
        M[key_index[k]][ncols] = field(v)
    row = 0
    pivots = []
    for col in range(ncols):
        sel = next((r for r in range(row, nrows) if not is_zero(M[r][col])),
                   None)
        if sel is None:
            continue
        M[row], M[sel] = M[sel], M[row]
        inv = inverse(M[row][col])
        M[row] = [field(x * inv) for x in M[row]]
        for r in range(nrows):
            if r != row and not is_zero(M[r][col]):
                f = M[r][col]
                M[r] = [field(a - f * b) for a, b in zip(M[r], M[row])]
        pivots.append(col)
        row += 1
    if any(not is_zero(M[r][ncols]) for r in range(row, nrows)):
        raise ValueError("inconsistent split system")
    sol = [field(0)] * ncols
    for r, c in enumerate(pivots):
        sol[c] = M[r][ncols]
    return sol


def _solve_mod_p(columns, target, dim_keys, p):
    return _solve(columns, target, dim_keys, lambda x: x % p,
                  lambda x: pow(x, p - 2, p), lambda x: x % p == 0)


def _solve_exact(columns, target, dim_keys):
    return _solve(columns, target, dim_keys, Fraction, lambda x: 1 / x,
                  lambda x: x == 0)


@lru_cache(maxsize=None)
def _degenerate_x2_matrix(n, p):
    """``{internal_key: {target_row: value}}``: the mod-p map onto the lowest
    component for n in {p-2, p-1}, the characteristic-0 projection rescaled
    by the smallest power of p clearing every denominator."""
    cols, labels = _split_matrix(n, None)
    dim_keys = [(i, j) for i in range(n + 1) for j in range(3)]
    raw = {}
    max_val = 0
    for key in dim_keys:
        sol = _solve_exact(cols, {key: 1}, dim_keys)
        entries = {}
        for (j, i), val in zip(labels, sol):
            if j != 2 or val == 0:
                continue
            den = val.denominator
            v = 0
            while den % p == 0:
                den //= p
                v += 1
            max_val = max(max_val, v)
            entries[i] = val
        raw[key] = entries
    scale = Fraction(p) ** max_val
    out = {}
    for key, entries in raw.items():
        red = {}
        for i, val in entries.items():
            sv = val * scale
            assert sv.denominator % p != 0
            c = (sv.numerator % p) * pow(sv.denominator % p, p - 2, p) % p
            if c:
                red[i] = c
        if red:
            out[key] = red
    return out


def _to_internal(x, n):
    """Convert external {(i, j): c} on u_i (x) v_j to internal ub/vb coords."""
    return {(n - i, 2 - j): c for (i, j), c in x.items()}


def pieri_split(n, p, x):
    """Reference for :func:`siegelmodp.rep.pieri_split`."""
    if n < 0:
        raise ValueError("negative symmetric degree")
    if n > p - 1:
        raise ValueError("split undefined at this degree")
    target = _to_internal({k: v for k, v in x.items() if v % p}, n)
    if n >= 2 and n in (p - 2, p - 1):
        comp = [0] * (n - 1)
        for key, r_entries in _degenerate_x2_matrix(n, p).items():
            c = target.get(key, 0) % p
            for r, val in r_entries.items():
                comp[r] = (comp[r] + c * val) % p
        x2 = RepVector(n - 2, 2, tuple(comp))
        return PieriSplit(None, None, x2)
    cols, labels = _split_matrix(n, p)
    dim_keys = [(i, j) for i in range(n + 1) for j in range(3)]
    sol = _solve_mod_p(cols, target, dim_keys, p)
    out = {0: [0] * (n + 3), 1: [0] * (n + 1), 2: [0] * max(n - 1, 0)}
    for (j, i), val in zip(labels, sol):
        out[j][i] = val % p
    x0 = RepVector(n + 2, 0, tuple(out[0]))
    x1 = RepVector(n, 1, tuple(out[1])) if n >= 1 else None
    x2 = RepVector(n - 2, 2, tuple(out[2])) if n >= 2 else None
    return PieriSplit(x0, x1, x2)


def pieri_reassemble(split, n, p):
    """Reference for :func:`siegelmodp.rep.pieri_reassemble`."""
    cols, labels = _split_matrix(n, p)
    acc = {}
    comp_vectors = {0: split.x0, 1: split.x1, 2: split.x2}
    for (j, i), col in zip(labels, cols):
        v = comp_vectors[j]
        if v is None or v.coords[i] % p == 0:
            continue
        for key, val in col.items():
            acc[key] = (acc.get(key, 0) + v.coords[i] * val) % p
    return {(n - ib, 2 - jb): c for (ib, jb), c in acc.items() if c}


def tensor_action(n: int, m: int, g, x: dict, p: int) -> dict:
    """Apply g to x in V(n, m) tensor V(2, 0), factorwise (external coords)."""
    out = {}
    wn = Weight(n + m, m)
    w2 = Weight(2, 0)
    for (i, j), c in x.items():
        if c % p == 0:
            continue
        vi = RepVector(n, m, tuple(1 if t == i else 0 for t in range(n + 1)))
        vj = RepVector(2, 0, tuple(1 if t == j else 0 for t in range(3)))
        gi = rep_apply(wn, g, vi, p)
        gj = rep_apply(w2, g, vj, p)
        for a, ca in enumerate(gi.coords):
            if ca == 0:
                continue
            for b, cb in enumerate(gj.coords):
                if cb == 0:
                    continue
                key = (a, b)
                out[key] = (out.get(key, 0) + c * ca * cb) % p
    return {k: v for k, v in out.items() if v % p}


def pieri_table_triples(n, p, r):
    """Reference for ``rep._pieri_table``: for each output index k of
    component ``x<r>``, the ``(column, source index, weight)`` triples with
    x<r>[k] = sum of weight * c<column>[source index] mod p, leaving out
    terms of weight 0 mod p and sources outside 0..n.  None where the
    component does not exist."""
    if r > n or (r < 2 and n >= p - 2):
        return None
    denominator = (1, n + 2, 2 * n * (n + 1 if n < p - 1 else 1))[r]
    inverse = pow(denominator, p - 2, p)
    if r == 0:
        rows = [((0, k, 1), (1, k - 1, 1), (2, k - 2, 1))
                for k in range(n + 3)]
    elif r == 1:
        rows = [((1, k, (n - 2 * k) * inverse % p),
                 (0, k + 1, -2 * (k + 1) * inverse % p),
                 (2, k - 1, 2 * (n - k + 1) * inverse % p))
                for k in range(n + 1)]
    else:
        rows = [((0, k + 2, 2 * (k + 2) * (k + 1) * inverse % p),
                 (1, k + 1, -2 * (k + 1) * (n - k - 1) * inverse % p),
                 (2, k, 2 * (n - k) * (n - k - 1) * inverse % p))
                for k in range(n - 1)]
    return tuple(tuple(t for t in row if t[2] and 0 <= t[1] <= n)
                 for row in rows)

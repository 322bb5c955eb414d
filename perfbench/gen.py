"""Seeded input generator for the benchmark.

Every input is derived from a string key such as ``"theta_forms:7:t1:3"``
through ``random.Random(key)``, which hashes string seeds with SHA-512, so
the same key gives byte-identical inputs in every process and on every
platform.  Forms are produced as ``%SMF v1`` text: the program under test
only ever sees generated text or files, never benchmark objects.

The properties that change the program's behaviour and that the generator
varies are:

- the prime p, including the degenerate Pieri degrees n in {p-2, p-1};
- the weight difference n = k1 - k2 (scalar forms have n = 0);
- the size and shape of the index box;
- the Hecke prime ell and power i;
- trivial or tabled characters (genuine quadratic characters mod N, with
  the parity chi2(-1) = (-1)^(k1+k2) the format requires);
- the share of indices whose Hecke inputs are all present.
"""

from __future__ import annotations

import math
import random

# Quadratic Dirichlet characters mod N as value tables (values 0, 1, -1),
# with their parity chi(-1).
_QUADRATIC = {
    3: ((0, 1, -1), -1),
    4: ((0, 1, 0, -1), -1),
    5: ((0, 1, -1, -1, 1), 1),
}


def rng_for(*parts) -> random.Random:
    """A generator seeded by the joined key; stable across processes."""
    return random.Random(":".join(str(x) for x in parts))


def box_indices(A: int, C: int) -> list:
    """All semi-definite indices (a, b, c) with 0 <= a < A, 0 <= c < C."""
    out = []
    for a in range(A):
        for c in range(C):
            bmax = math.isqrt(4 * a * c)
            for b in range(-bmax, bmax + 1):
                out.append((a, b, c))
    return out


def det_index(T, p: int) -> int:
    """det [[a, b/2], [b/2, c]] = (4ac - b^2)/4 mod p."""
    a, b, c = T
    return (4 * a * c - b * b) * pow(4, p - 2, p) % p


def character_table(N: int, p: int, parity: int | None):
    """A quadratic character mod N reduced mod p, or None when the level
    has no quadratic character of the requested parity."""
    table, par = _QUADRATIC[N]
    if parity is not None and par != parity:
        return None
    return tuple(v % p for v in table)


def pick_characters(N: int, p: int, k1: int, k2: int, tabled: bool):
    """(chi1, chi2): both trivial, or quadratic tables when ``tabled``.

    chi2 is only tabled when its parity matches (-1)^(k1+k2); chi1 carries
    no parity condition.
    """
    if not tabled:
        return None, None
    chi1 = character_table(N, p, None)
    chi2 = character_table(N, p, (-1) ** ((k1 + k2) % 2))
    return chi1, chi2


def smf_text(p, N, k1, k2, support, chi1=None, chi2=None) -> str:
    """An ``%SMF v1`` document; indices in generation order."""
    lines = ["%SMF v1", f"p {p}", f"N {N}", f"weight {k1} {k2}"]
    for name, tab in (("chi1", chi1), ("chi2", chi2)):
        lines.append(f"{name} trivial" if tab is None
                     else f"{name} table:" + " ".join(map(str, tab)))
    for (a, b, c), vec in support.items():
        lines.append(f"coeff {a} {b} {c} : " + " ".join(map(str, vec)))
    return "\n".join(lines) + "\n"


def read_smf(text: str) -> tuple:
    """Independent reader for the benchmark's checks: (weight, support)."""
    weight, support = None, {}
    for line in text.splitlines():
        if line.startswith("coeff "):
            idx, _, vec = line[6:].partition(":")
            support[tuple(int(x) for x in idx.split())] = tuple(
                int(v) for v in vec.split())
        elif line.startswith("weight "):
            weight = tuple(int(x) for x in line.split()[1:])
    return weight, support


def random_vectors(rng, indices, p: int, n: int) -> dict:
    """Uniform coefficient vectors of length n + 1, never all zero."""
    out = {}
    values = range(p)
    for T in indices:
        vec = tuple(rng.choices(values, k=n + 1))
        if not any(vec):
            vec = (1,) + vec[1:]
        out[T] = vec
    return out


# ---------------------------------------------------------------------------
# theta_forms inputs
# ---------------------------------------------------------------------------

# Index boxes of 90-110 indices in three shapes.  Each operation is timed
# by its best of many rounds, and the best is only steady for operations
# short enough to fall between a shared host's busy spells: a form of this
# size takes 2-30 ms.
THETA_BOXES = ((5, 4), (4, 5), (3, 6))


def theta_form(rng, p: int, n: int, box: tuple) -> tuple:
    """(text, data) of a box-dense form of weight difference n at p."""
    N = rng.choice((3, 4, 5))
    k2 = rng.randrange(2, 9)
    k1 = k2 + n
    chi1, chi2 = pick_characters(N, p, k1, k2, rng.random() < 0.5)
    support = random_vectors(rng, box_indices(*box), p, n)
    text = smf_text(p, N, k1, k2, support, chi1, chi2)
    return text, {"p": p, "N": N, "k1": k1, "k2": k2, "support": support}


# ---------------------------------------------------------------------------
# hecke_eigen inputs
# ---------------------------------------------------------------------------

def level_for(rng, ell: int) -> int:
    """A level N >= 3 coprime to ell (and to every p used here)."""
    return rng.choice((3, 5) if ell == 2 else (4, 5))


def gauss_class(T) -> tuple:
    """Reduced representative of the SL2(Z) class of the binary form T.

    Definite forms reduce to -a < b <= a <= c (b >= 0 when a == c);
    degenerate forms to (gcd(a, b, c), 0, 0).
    """
    a, b, c = T
    if 4 * a * c - b * b == 0:
        return (math.gcd(math.gcd(a, b), c), 0, 0)
    while True:
        if c < a or (c == a and b < 0):
            a, b, c = c, -b, a
        elif b > a or b <= -a:
            t = (a - b) // (2 * a)
            a, b, c = a, b + 2 * t * a, c + t * b + t * t * a
        else:
            return (a, b, c)


def lift_indices(hecke, ell: int, i: int, targets, N: int, scheme: str,
                 seed: int) -> set:
    """The indices T' the Hecke coefficients at ``targets`` read under one
    lift scheme.

    Follows the documented branch formula: for alpha + beta + gamma = i and
    each lift U of P^1(Z/ell^beta) with ell^(beta+gamma) | a_U and
    ell^gamma | b_U, c_U, the input index is
    ell^alpha (a_U / ell^(beta+gamma), b_U / ell^gamma,
    c_U ell^beta / ell^gamma).  With the CRT scheme and seed 0 this is the
    program's ``required_indices``.
    """
    out = set()
    for beta in range(i + 1):
        reps = hecke.p1_representatives(ell, beta, N, scheme=scheme,
                                        seed=seed)
        for gamma in range(i - beta + 1):
            alpha = i - beta - gamma
            lbg, lg, la = ell ** (beta + gamma), ell ** gamma, ell ** alpha
            for rep in reps:
                for T in targets:
                    aU, bU, cU = hecke.index_transform(rep.matrix, T)
                    if aU % lbg or bU % lg or cU % lg:
                        continue
                    out.add((la * (aU // lbg), la * (bU // lg),
                             la * (cU // lg) * ell ** beta))
    return out


def hecke_form(rng, hecke, p: int, n: int, ell: int, i: int, box: tuple,
               share: float) -> tuple:
    """(text, data) of a box form with the Hecke inputs of a ``share`` of
    its indices completed.

    On a plain box form few indices have every input T' present; for the
    chosen share the generator adds the missing inputs with random
    coefficients, so those indices become checkable.
    """
    N = level_for(rng, ell)
    k2 = rng.randrange(2, 9)
    k1 = k2 + n
    chi1, chi2 = pick_characters(N, p, k1, k2, rng.random() < 0.5)
    base = box_indices(*box)
    support = random_vectors(rng, base, p, n)
    chosen = [T for T in base if rng.random() < share]
    extra = sorted(lift_indices(hecke, ell, i, chosen, N, "crt", 0)
                   - support.keys())
    support.update(random_vectors(rng, extra, p, n))
    text = smf_text(p, N, k1, k2, support, chi1, chi2)
    return text, {"p": p, "N": N, "k1": k1, "k2": k2, "support": support,
                  "chi1": chi1, "chi2": chi2}


def class_function_form(rng, hecke, p: int, ell: int, i: int, box: tuple,
                        targets, lift_seed: int) -> tuple:
    """(text, data) of a scalar form whose coefficient depends only on the
    SL2(Z) class of the index, covering every input the targets read under
    both the CRT lifts and the random lifts drawn with ``lift_seed``."""
    N = level_for(rng, ell)
    k = rng.randrange(2, 9)
    indices = set(box_indices(*box))
    for scheme, seed in (("crt", 0), ("random", lift_seed)):
        indices |= lift_indices(hecke, ell, i, targets, N, scheme, seed)
    values = {}
    support = {}
    for T in sorted(indices):
        cls = gauss_class(T)
        if cls not in values:
            values[cls] = rng.randrange(1, p)
        support[T] = (values[cls],)
    text = smf_text(p, N, k, k, support)
    return text, {"p": p, "N": N, "k1": k, "k2": k, "support": support}


def pick_targets(rng, box: tuple, count: int) -> list:
    return sorted(rng.sample(box_indices(*box), count))


# ---------------------------------------------------------------------------
# local_models inputs
# ---------------------------------------------------------------------------

def series3_pair(rng, p: int, cutoff: int) -> tuple:
    """Random (F, detA) for the dual-path identity, detA a unit.

    Each is a dict {(e11, e12, e22): coeff} with total degree < cutoff.
    """
    F, detA = {}, {(0, 0, 0): rng.randrange(1, p)}
    for _ in range(8):
        e = (rng.randrange(3), rng.randrange(3), rng.randrange(3))
        if sum(e) < cutoff:
            F[e] = (F.get(e, 0) + rng.randrange(p)) % p
            if sum(e):
                detA[e] = (detA.get(e, 0) + rng.randrange(p)) % p
    return F, detA

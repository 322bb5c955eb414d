"""Correctness gates: every operation's output is checked here, outside the
timed region, and a failed check counts the operation as failed.

Where the paper gives an identity, the gate computes it in the benchmark
without calling the code under test:

- theta_j by the Omega-process (transvectant) closed form of the Pieri
  projections: x0 = f g, x1 = (f, g)^(1) / (n + 2), x2 = (f, g)^(2) /
  (2n(n + 1)), with the factor p removed from the denominator at n = p - 1;
- the four-fold theta_2 iterate on weight (k + 1, k) equals
  64 (det T / 18 N^2)^2 times the input coefficient;
- big_theta equals big_theta_composite and the multiplier
  (2/3) det T / N^2;
- the Hecke constant-term multiplier
  1 + chi1(ell) (ell + 1) ell^(k-2) + chi2(ell) ell^(2k-3);
- the vanishing orders 1, p^2+2p-1, 2p and p^4-p^3-p^2+p;
- the theta-cycle bookkeeping, the Frobenius-polynomial palindrome and
  the weight-reduction plan's closed forms.

Where no identity exists (Hecke operators on random data), the output is
compared with a digest recorded from the seed commit; see ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from perfbench.gen import det_index, read_smf

DIGEST_FILE = Path(__file__).with_name("digests.json")


def _inv(x: int, p: int) -> int:
    return pow(x % p, p - 2, p)


# ---------------------------------------------------------------------------
# theta operators
# ---------------------------------------------------------------------------

def _mul_poly(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % p
    return out


def theta_j_oracle(vec, T, n: int, p: int, N: int, j: int) -> tuple:
    """theta_j coefficient at T from A(T) = vec, by transvectants.

    The coefficient vector is the binary form f = sum vec_i X^(n-i) Y^i and
    the index gives g = (a X^2 + b XY + c Y^2) / N.
    """
    ninv = _inv(N, p)
    a, b, c = T
    s0, s1, s2 = a * ninv % p, b * ninv % p, c * ninv % p
    f = [v % p for v in vec]
    if j == 3:
        return tuple(_mul_poly(f, [s0, s1, s2], p))
    if j == 2:
        fx = [(n - i) * f[i] % p for i in range(n)]
        fy = [i * f[i] % p for i in range(1, n + 1)]
        left = _mul_poly(fx, [s1, 2 * s2], p)
        right = _mul_poly(fy, [2 * s0, s1], p)
        scale = _inv(n + 2, p)
        return tuple((x - y) * scale % p for x, y in zip(left, right))
    fxx = [(n - i) * (n - i - 1) * f[i] for i in range(n - 1)]
    fxy = [(n - i) * i * f[i] for i in range(1, n)]
    fyy = [i * (i - 1) * f[i] for i in range(2, n + 1)]
    den = 2 * n * (n + 1)
    if den % p == 0:
        den //= p
    scale = _inv(den, p)
    return tuple((2 * s2 * x - 2 * s1 * y + 2 * s0 * z) * scale % p
                 for x, y, z in zip(fxx, fxy, fyy))


_THETA_SHIFT = {1: (-1, 1), 2: (0, 0), 3: (1, -1)}


def _form_matches(out_text: str, want_weight, want_support) -> bool:
    weight, support = read_smf(out_text)
    return (weight == tuple(want_weight)
            and support == {T: v for T, v in want_support.items() if any(v)})


def check_theta_j(data: dict, j: int, out_text: str) -> bool:
    p, N, n = data["p"], data["N"], data["k1"] - data["k2"]
    want = {T: theta_j_oracle(vec, T, n, p, N, j)
            for T, vec in data["support"].items()}
    d1, d2 = _THETA_SHIFT[j]
    return _form_matches(out_text, (data["k1"] + p + d1, data["k2"] + p + d2),
                         want)


def check_theta2_fourfold(data: dict, out_text: str) -> bool:
    """Four theta_2 steps on weight (k+1, k) equal 64 (det T / 18N^2)^2."""
    p, N = data["p"], data["N"]
    base = _inv(18 * N * N, p)
    want = {}
    for T, vec in data["support"].items():
        mult = 64 * pow(det_index(T, p) * base % p, 2, p) % p
        want[T] = tuple(mult * v % p for v in vec)
    return _form_matches(out_text, (data["k1"] + 4 * p, data["k2"] + 4 * p),
                         want)


def check_big_theta(data: dict, out_texts) -> bool:
    """big_theta and its two-step composite agree with (2/3) det T / N^2."""
    p, N, k = data["p"], data["N"], data["k1"]
    base = 2 * _inv(3, p) * _inv(N * N, p) % p
    want = {T: (base * det_index(T, p) * A % p,)
            for T, (A,) in data["support"].items()}
    return all(_form_matches(t, (k + p + 1, k + p + 1), want)
               for t in out_texts)


# ---------------------------------------------------------------------------
# Hecke operators
# ---------------------------------------------------------------------------

def p1_size(ell: int, beta: int) -> int:
    return 1 if beta == 0 else ell ** beta + ell ** (beta - 1)


def constant_term_multiplier(ell: int, i: int, k: int, p: int,
                             chi1=None, chi2=None) -> int:
    """Multiplier of T(ell^i) on the constant term of a scalar weight-k form.

    Every branch maps (0, 0, 0) to itself, so the multiplier is the sum of
    chi1(ell^beta) chi2(ell^gamma) ell^(beta(k-2) + gamma(2k-3)) over the
    |P^1(Z/ell^beta)| lifts; for i = 1 and trivial characters this is the
    paper's 1 + (ell+1) ell^(k-2) + ell^(2k-3).
    """
    def chi(tab, x):
        return 1 if tab is None else tab[x % len(tab)]
    total = 0
    for beta in range(i + 1):
        for gamma in range(i - beta + 1):
            total += (chi(chi1, ell ** beta) * chi(chi2, ell ** gamma)
                      * p1_size(ell, beta)
                      * pow(ell, beta * (k - 2) + gamma * (2 * k - 3), p))
    return total % p


def eigen_digest_text(lam, report) -> str:
    """Canonical text of an eigenvalue result, as the CLI reports it."""
    return json.dumps({"lambda": lam,
                       "report": [[list(T), bool(ok)] for T, ok in report]},
                      sort_keys=True)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def load_digests() -> dict:
    with open(DIGEST_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# local models and Galois-side bookkeeping
# ---------------------------------------------------------------------------

ORDER_FORMULA = {
    ((1, 2), None): lambda p: 1,
    ((1, 1), 1): lambda p: p * p + 2 * p - 1,
    ((1, 1), 2): lambda p: 2 * p,
    ((0, 1), None): lambda p: p ** 4 - p ** 3 - p * p + p,
}


def cycle_identities(entries, p: int, kind: str, k: int) -> bool:
    """A non-semi-ordinary predicted cycle: its length, closure, and each
    step a +step climb or a drop by a multiple of p - 1, with the drops
    summing to length * step."""
    step = p + 1 if kind == "scalar" else p
    length = (p - 1) // 2 if kind == "scalar" else p - 1
    entries = list(entries)
    if len(entries) != length or entries[-1] != k:
        return False
    drops = 0
    prev = k
    for w in entries:
        num = prev + step - w
        if num < 0 or num % (p - 1):
            return False
        drops += num // (p - 1)
        prev = w
    return drops * (p - 1) == length * step


def check_charpoly(out: dict, lam1, lam2, chi2, ell, k1, k2, p) -> bool:
    """(1, a1, a2, a3, a4) with a1 = -lam1,
    a2 = lam1^2 - lam2 - chi2 ell^(k1+k2-4), nu = chi2 ell^(k1+k2-3),
    a3 = nu a1 and a4 = nu^2 (the symplectic palindrome)."""
    def ell_pow(e):
        return pow(ell, e % (p - 1), p)
    nu = chi2 * ell_pow(k1 + k2 - 3) % p
    c = out["coeffs"]
    return (out["nu"] == nu and c[0] == 1 and c[1] == (-lam1) % p
            and c[2] == (lam1 * lam1 - lam2 - chi2 * ell_pow(k1 + k2 - 4)) % p
            and c[3] == nu * c[1] % p and c[4] == nu * nu % p)


def check_plan(out: dict, k1: int, k2: int, p: int) -> bool:
    """Ladder p^3 - p^2 + 2p, bound p^4 + p^2 + 2p + 1, (n - eps)/2 steps
    and twist steps + 2 * ladder mod p - 1."""
    eps = (k1 - k2) % 2
    steps = (k1 - k2 - eps) // 2
    ladder = p ** 3 - p * p + 2 * p
    return (out["epsilon"] == eps and out["theta1_steps"] == steps
            and out["ladder_count"] == ladder
            and out["l2_bound"] == p ** 4 + p * p + 2 * p + 1
            and out["twist"] == (steps + 2 * ladder) % (p - 1)
            and out["bounds_ok"] is True)

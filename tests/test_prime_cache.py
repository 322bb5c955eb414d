"""The prime rule proves a p once per form, not once per coefficient.

Every form, Pieri table and ``rep_apply`` checks its p through
``arith.is_prime``; above 41 each check is a 13-base Miller-Rabin test,
which dominated theta at the CRT primes near 10^5 and beyond when it ran
per coefficient.
"""

from siegelmodp import arith, rep
from siegelmodp.qexp import QExpansion
from siegelmodp.rep import Weight
from siegelmodp.theta import theta_j


def test_theta_j_proves_p_at_most_once(monkeypatch):
    p = 10 ** 9 + 7
    support = {(a, b, c): (a + 1, b % p, c + 2, 1, a * c + 3)
               for a in range(5) for c in range(5) for b in range(-4, 5)
               if b * b <= 4 * a * c}
    assert len(support) >= 50
    F = QExpansion(p=p, N=3, weight=Weight(8, 4), support=support)
    calls = []
    is_prime = arith.is_prime

    def counting(n):
        calls.append(n)
        return is_prime(n)
    monkeypatch.setattr(arith, "is_prime", counting)
    rep._pieri_table.cache_clear()
    G = theta_j(F, 1)
    # the Pieri table checks p once, whatever the support size
    assert calls and set(calls) == {p}
    assert len(calls) <= 2
    assert len(G.support) == len(support) - 1   # (0, 0, 0) maps to zero

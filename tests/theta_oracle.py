"""The four-fold theta_2 iterate, literal and in closed form.

:func:`theta2_iterate_closed` is the closed form G of the 4m-fold theta_2
iterate on weight (k+1, k).  It multiplies A_F(T) by (det T / (18 N^2))^(2m)
itself and builds G through the checking constructor.  The paper's constant
mu_m with iterate = mu_m * G is measured by :func:`iterate_ratios`, which
runs ``theta.theta_j`` 4m times and compares the two forms coordinate by
coordinate.
"""
from siegelmodp.qexp import QExpansion
from siegelmodp.rep import Weight
from siegelmodp.theta import theta_j


def theta2_iterate_closed(F, m: int):
    """A_F(T) (det T / (18 N^2))^(2m) at each T = (a, b, c), with
    det T = (4ac - b^2)/4, at weight (k1 + 4mp, k2 + 4mp)."""
    p = F.p
    c = pow(4 * 18 * F.N * F.N, -1, p)
    support = {}
    for (a, b, cc), vec in F.support.items():
        mult = pow(c * (4 * a * cc - b * b), 2 * m, p)
        support[(a, b, cc)] = tuple(mult * v for v in vec)
    return QExpansion(p=p, N=F.N, weight=Weight(F.weight.k1 + 4 * m * p,
                                                F.weight.k2 + 4 * m * p),
                      support=support, chi1=F.chi1, chi2=F.chi2)


def iterate_ratios(F, m: int) -> set:
    """The ratios iterate / closed form over every coordinate where either
    is nonzero; None stands for a coordinate where only one of them is.

    The two forms are proportional exactly when None is absent and at most
    one ratio remains; the empty set means both vanish.
    """
    p = F.p
    G = theta2_iterate_closed(F, m)
    H = F
    for _ in range(4 * m):
        H = theta_j(H, 2)
    zero = (0,) * (F.weight.n + 1)
    ratios = set()
    for T in G.support.keys() | H.support.keys():
        for g, h in zip(G.support.get(T, zero), H.support.get(T, zero)):
            if g and h:
                ratios.add(h * pow(g, p - 2, p) % p)
            elif g or h:
                ratios.add(None)
    return ratios

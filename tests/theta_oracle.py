"""The literal 4m-fold theta_2 iterate, as a reference for its closed form.

``theta.theta2_iterate_closed`` returns only the closed form G.  The paper's
constant mu_m with iterate = mu_m * G is measured here, by running theta_j
4m times and comparing the two forms coordinate by coordinate.
"""
from siegelmodp.theta import theta2_iterate_closed, theta_j


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

"""Error paths that no other test reaches: each raises its module's error
class with its message."""

import re

import pytest

from siegelmodp import galois, hecke, qexp, rep, strata, theta
from siegelmodp.arith import _PRIME_BOUND
from siegelmodp.qexp import QExpansion
from siegelmodp.rep import RepVector, Weight


def form(weight=(4, 4), support=None, **kw):
    if support is None:
        support = {(1, 0, 1): (2,)}
    return QExpansion(p=5, N=3, weight=Weight(*weight), support=support, **kw)


def chase_on_model_1_1(word):
    model, lines = strata.model_1_1(5, 40)
    return strata.chase(model, word, ({1: 1}, 0), lines)


# (module, error class, call, message)
CASES = [
    ("qexp", qexp.QExpError,
     lambda: form(chi1=(1, 1)), "chi1 table must have N=3 entries"),
    ("qexp", qexp.QExpError,
     lambda: qexp.index_scale_up(form((5, 4), {(1, 0, 1): (1, 2)})),
     "index scaling only defined for scalar-valued expansions"),
    ("qexp", qexp.QExpError,
     lambda: qexp.hasse_scale(form(), -1), "nonnegative powers only"),
    ("galois", galois.GaloisError,
     lambda: galois.HeckeSystem(5, (4, 4), {10: (1, 1, 1)}),
     "stored ell values must be coprime to p"),
    # T(2) at (1, 0, 1) reads indices that the form does not hold
    ("hecke", hecke.HeckeError,
     lambda: hecke.eigenvalue(form(), 2, 1), "no checkable index"),
    # ell = 3 divides the level 3; ell = 5 is p
    ("hecke", hecke.HeckeError,
     lambda: hecke.eigenvalue(form(), 3, 1), "ell must be coprime to the level"),
    ("hecke", hecke.HeckeError,
     lambda: hecke.eigenvalue(form(), 5, 1),
     "ell must be coprime to p"),
    ("rep", ValueError,
     lambda: rep.rep_apply(Weight(4, 2), ((1, 0), (0, 1)),
                           RepVector(1, 0, (1, 1)), 5),
     "vector degree does not match weight"),
    ("theta", theta.ThetaError,
     lambda: theta.big_theta(form(), 0), "iterate count must be >= 1"),
    ("theta", theta.ThetaError,
     lambda: theta.big_theta(form(), -1), "iterate count must be >= 1"),
    ("strata", strata.StrataError,
     lambda: chase_on_model_1_1([("invV", "B2", 1)]),
     "inverse step would go below level 0"),
    ("strata", strata.StrataError,
     lambda: chase_on_model_1_1([("G",)]), "unknown chase step 'G'"),
]


@pytest.mark.parametrize("module, error, call, message", CASES,
                         ids=[f"{c[0]}: {c[3]}" for c in CASES])
def test_error_path(module, error, call, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error
    # rep has no error class of its own
    assert error.__module__ == f"siegelmodp.{module}" or module == "rep"


# The public lift builders refuse what the operators refuse, by one rule.
LIFT_BUILDERS = {
    "required_indices":
        lambda ell, i, N: hecke.required_indices(ell, i, (4, 0, 4), N),
    "p1_representatives":
        lambda ell, i, N: hecke.p1_representatives(ell, i, N),
}


@pytest.mark.parametrize("N", [1, 2, 0, -3])
@pytest.mark.parametrize("ell", [2, 3])
@pytest.mark.parametrize("builder", LIFT_BUILDERS)
def test_lift_builders_refuse_a_level_below_3(builder, ell, N):
    with pytest.raises(hecke.HeckeError, match=r"^level N must be >= 3$"):
        LIFT_BUILDERS[builder](ell, 1, N)


# ell = 3 also divides the level: the power is named first
@pytest.mark.parametrize("builder, ell", [("required_indices", 2),
                                          ("required_indices", 3),
                                          ("p1_representatives", 2)])
def test_lift_builders_refuse_a_negative_power(builder, ell):
    with pytest.raises(hecke.HeckeError,
                       match=r"^power i must be >= 0, got -1$"):
        LIFT_BUILDERS[builder](ell, -1, 3)


ENTRY_POINTS = {
    "p1_representatives": lambda ell, i: hecke.p1_representatives(ell, i, 3),
    "required_indices":
        lambda ell, i: hecke.required_indices(ell, i, (1, 0, 1), 3),
    "hecke_coefficient":
        lambda ell, i: hecke.hecke_coefficient(form(), ell, i, (1, 0, 1)),
    "hecke_image": lambda ell, i: hecke.hecke_image(form(), ell, i, [(1, 0, 1)]),
    "eigenvalue": lambda ell, i: hecke.eigenvalue(form(), ell, i),
}


@pytest.mark.parametrize("ell, i, message", [
    (4, 1, f"ell must be a prime below {_PRIME_BOUND}, got 4"),
    (2, -1, "power i must be >= 0, got -1"),
], ids=["ell=4", "i=-1"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_hecke_entry_point_refuses_alike(entry, ell, i, message):
    with pytest.raises(hecke.HeckeError, match=f"^{re.escape(message)}$"):
        ENTRY_POINTS[entry](ell, i)


# ell, i and N must be ints: a float or a bool is refused by name before
# gcd or range reads it
NOT_INTS = [("required_indices", (2.0, 1, 3), "ell must be an int, got 2.0"),
            ("required_indices", (2, 1.5, 3), "i must be an int, got 1.5"),
            ("required_indices", (2, 1, 3.0), "N must be an int, got 3.0"),
            ("p1_representatives", (2.0, 1, 3), "ell must be an int, got 2.0"),
            ("required_indices", (2, True, 3), "i must be an int, got True")]


@pytest.mark.parametrize("builder, args, message", NOT_INTS,
                         ids=[f"{b}{args}" for b, args, _ in NOT_INTS])
def test_lift_builders_refuse_what_is_not_an_int(builder, args, message):
    with pytest.raises(hecke.HeckeError, match=f"^{re.escape(message)}$"):
        LIFT_BUILDERS[builder](*args)

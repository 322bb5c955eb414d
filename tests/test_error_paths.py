"""Error paths that no other test reaches: each raises its module's error
class with its message."""

import re

import pytest

from siegelmodp import galois, hecke, qexp, rep, strata, theta
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
    ("rep", ValueError,
     lambda: rep.rep_apply(Weight(4, 2), ((1, 0), (0, 1)),
                           RepVector(1, 0, (1, 1)), 5),
     "vector degree does not match weight"),
    ("theta", theta.ThetaError,
     lambda: theta.big_theta(form(), 0), "iterate count must be >= 1"),
    ("theta", theta.ThetaError,
     lambda: theta.theta2_iterate_closed(form((5, 4), {(1, 0, 1): (1, 2)}),
                                         0),
     "iterate count must be >= 1"),
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

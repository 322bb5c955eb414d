"""Every entry point applies the one rule for p, ``arith._check_prime``.

The rule accepts a prime with 5 <= p below the bound of the primality test
and raises the caller's module error otherwise; the command line answers
any p with exit 0 or 1.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelmodp import cycles, galois, hecke, qexp, rep, strata
from siegelmodp.arith import _PRIME_BOUND, Fp, Fp2, Series3
from siegelmodp.cli import run

BAD_P = (0, 1, 2, 3, 4, 9, _PRIME_BOUND)

# (name, module error, call at p): the entry points that validate p
ENTRY_POINTS = [
    ("predict_scalar_cycle", cycles.CycleError,
     lambda p: cycles.predict_scalar_cycle(p, 5, False)),
    ("predict_vector_cycle", cycles.CycleError,
     lambda p: cycles.predict_vector_cycle(p, 5, False)),
    ("analyze_cycle", cycles.CycleError,
     lambda p: cycles.analyze_cycle((10, 4), p, "scalar")),
    ("frob_charpoly", galois.GaloisError,
     lambda p: galois.frob_charpoly(1, 2, 1, 2, (4, 3), p)),
    ("classify_inertia", galois.GaloisError,
     lambda p: galois.classify_inertia("Siegel", {"a": 0, "b": 1, "k": 0}, p)),
    ("reduction_plan", galois.GaloisError,
     lambda p: galois.reduction_plan((4, 2), p)),
    ("HeckeSystem", galois.GaloisError,
     lambda p: galois.HeckeSystem(p=p, weight=(4, 3), data={})),
    ("level4_count", galois.GaloisError,
     lambda p: galois.level4_count(p, 10)),
    ("QExpansion", qexp.QExpError,
     lambda p: qexp.QExpansion(p=p, N=7, weight=rep.Weight(4, 4))),
    ("canonical_filtration_compute", strata.StrataError,
     lambda p: strata.canonical_filtration_compute((0, 1), p)),
    ("constant_term_multiplier", hecke.HeckeError,
     lambda p: hecke.constant_term_multiplier(2, 4, p)),
    ("rep_apply", ValueError,
     lambda p: rep.rep_apply(rep.Weight(1, 0), ((1, 0), (0, 1)),
                             rep.RepVector(1, 0, (1, 0)), p)),
    ("pieri_split", ValueError, lambda p: rep.pieri_split(0, p, {})),
    ("pieri_component", ValueError,
     lambda p: rep.pieri_component(0, p, ([1], [2], [3]), 0)),
    ("Fp", ValueError, Fp),
    ("Fp2", ValueError, Fp2),
    ("Series3", ValueError, lambda p: Series3(p, 2)),
]


def _message(p):
    if p >= _PRIME_BOUND:
        return (f"p must be below {_PRIME_BOUND}, the bound of the "
                f"primality test, got {p}")
    return f"p must be a prime >= 5, got {p}"


@pytest.mark.parametrize("name, error, call", ENTRY_POINTS,
                         ids=[e[0] for e in ENTRY_POINTS])
def test_every_entry_point_applies_the_rule(name, error, call):
    call(5)
    for p in BAD_P:
        with pytest.raises(ValueError) as info:
            call(p)
        assert type(info.value) is error, (name, p, info.value)
        assert str(info.value) == _message(p), (name, p)


def test_charpoly_names_a_bad_p_before_ell(capsys):
    argv = ["charpoly", "--ell", "2", "--lam1", "1", "--lam2", "1",
            "--chi2", "1", "--k1", "4", "--k2", "3", "--p", "2"]
    assert run(argv) == 1
    assert "p must be a prime >= 5, got 2" in capsys.readouterr().err


# small p on both sides of the rule, plus a large prime, the bound itself
# and a Mersenne prime above it.  strata order also draws the safe primes
# 999984683 = 2q + 1 = 12q' - 1 (q, q' prime) and 20000000000000002559:
# its zeta needs one Euler criterion per candidate and no factoring.
SMALL_P = st.integers(-10, 60)
P_VALUES = st.one_of(SMALL_P, st.sampled_from([10 ** 9 + 7, _PRIME_BOUND,
                                               2 ** 89 - 1]))
STRATA_P = st.one_of(SMALL_P, st.sampled_from(
    [999_999_937, 999_984_683, 20_000_000_000_000_002_559]))
COMMANDS = st.sampled_from(["cycle", "strata order", "charpoly", "plan",
                            "check"])


def _argv(command, p, data):
    if command == "cycle":
        kind = data.draw(st.sampled_from(["--scalar", "--vector"]))
        mode = data.draw(st.sampled_from(["--semi-ordinary",
                                          "--non-semi-ordinary"]))
        k = data.draw(st.integers(-3, 40))
        return ["cycle", kind, mode, f"--p={p}", f"--k={k}"]
    if command == "strata order":
        phi = data.draw(st.sampled_from(["0,0", "0,1", "1,1", "1,2"]))
        return ["strata", "order", "--phi", phi, f"--p={p}"]
    if command == "charpoly":
        ell = data.draw(st.integers(-3, 20))
        return ["charpoly", f"--ell={ell}", "--lam1", "3", "--lam2", "1",
                "--chi2", "2", "--k1", "5", "--k2", "3", f"--p={p}"]
    if command == "plan":
        return ["plan", "--k1", "6", "--k2", "2", f"--p={p}"]
    suite = data.draw(st.sampled_from(["cycles", "hecke", "strata"]))
    return ["check", "--suite", suite, f"--p={p}"]


@settings(max_examples=100, deadline=None)
@given(command=COMMANDS, data=st.data())
def test_cli_answers_any_p_with_exit_0_or_1(command, data):
    p = data.draw(STRATA_P if command == "strata order" else P_VALUES)
    argv = _argv(command, p, data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1), argv
    # a success prints JSON on stdout, a refusal a message on stderr
    assert bool(out.getvalue()) == (code == 0), argv
    assert bool(err.getvalue()) == (code == 1), argv

"""Forms that the operators derive are built without the constructor's
checks (``qexp._derive``).  Each test draws valid forms, applies one
operator, and checks that the result keeps the invariant the checks would
establish: rebuilding it through the public constructor gives an equal form,
every index is a triple of ints, and the operator ran
``QExpansion.__post_init__`` zero times."""

import contextlib
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelmodp import qexp, theta
from siegelmodp.cli import run
from siegelmodp.qexp import QExpansion
from siegelmodp.rep import Weight, pieri_component

PRIMES = (5, 7, 11, 13)


@contextlib.contextmanager
def constructor_runs():
    """The forms whose constructor checks ran inside the block."""
    calls = []
    original = QExpansion.__post_init__

    def counting(self):
        calls.append(self)
        original(self)
    QExpansion.__post_init__ = counting
    try:
        yield calls
    finally:
        QExpansion.__post_init__ = original


def assert_valid(G):
    rebuilt = QExpansion(p=G.p, N=G.N, weight=G.weight, support=G.support,
                         chi1=G.chi1, chi2=G.chi2)
    assert rebuilt == G
    assert all(type(x) is int for T in G.support for x in T)


def derived(op, *args):
    """op(*args), checked to run no constructor and to keep the invariant."""
    with constructor_runs() as calls:
        G = op(*args)
    assert calls == []
    assert_valid(G)
    return G


@st.composite
def forms(draw, p=None, n=None, k=None, scale=1):
    """A valid form at p (drawn from PRIMES when None) of weight (k + n, k),
    with an explicit chi2 of the right parity half the time.  Its indices
    are multiples of ``scale``."""
    p = draw(st.sampled_from(PRIMES)) if p is None else p
    n = draw(st.integers(0, p - 1)) if n is None else n
    k = draw(st.integers(0, 12)) if k is None else k
    N = draw(st.sampled_from((3, 4)))
    support = {}
    for _ in range(draw(st.integers(0, 5))):
        a, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
        bmax = isqrt(4 * a * c)
        b = draw(st.integers(-bmax, bmax))
        vec = draw(st.lists(st.integers(-2 * p, 2 * p),
                            min_size=n + 1, max_size=n + 1))
        support[(scale * a, scale * b, scale * c)] = tuple(vec)
    chi = st.lists(st.integers(0, p - 1), min_size=N, max_size=N)
    chi1 = tuple(draw(chi)) if draw(st.booleans()) else None
    chi2 = None
    if draw(st.booleans()):
        chi2 = draw(chi)
        chi2[N - 1] = (-1) ** (2 * k + n) % p
        chi2 = tuple(chi2)
    return QExpansion(p=p, N=N, weight=Weight(k + n, k), support=support,
                      chi1=chi1, chi2=chi2)


@settings(max_examples=25, deadline=None)
@given(forms(n=0), st.integers(1, 2))
def test_scalar_operators(F, m):
    derived(theta.theta_scalar, F)
    derived(theta.big_theta, F, m)
    derived(theta.big_theta_composite, F)
    derived(qexp.index_scale_up, F)
    derived(qexp.hasse_scale, F, m)


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_theta_j_on_every_valid_degree(p, data):
    for n in range(p):
        for j in (1, 2, 3):
            if pieri_component(n, p, [[0] * (n + 1)] * 3, 3 - j) is None:
                continue
            G = derived(theta.theta_j, data.draw(forms(p=p, n=n)), j)
            assert G.weight.n == n + 2 * (j - 2)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_pth_root(data):
    p = data.draw(st.sampled_from(PRIMES))
    k = p * data.draw(st.integers(0, 2))
    F = data.draw(forms(p=p, n=0, k=k, scale=p))
    G = derived(qexp.pth_root, F)
    assert qexp.index_scale_up(G) == F


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_linear_combine(data):
    F = data.draw(forms())
    G = data.draw(forms(p=F.p, n=F.weight.n, k=F.weight.k2))
    G = QExpansion(p=F.p, N=F.N, weight=F.weight, support=G.support,
                   chi1=F.chi1, chi2=F.chi2)
    scalars = st.integers(-3 * F.p, 3 * F.p)
    derived(qexp.linear_combine,
            [(data.draw(scalars), F), (data.draw(scalars), G)])


def test_cli_hecke_checks_only_the_form_it_reads(tmp_path, monkeypatch):
    F = QExpansion(p=7, N=3, weight=Weight(5, 3),
                   support={(0, 0, 0): (1, 2, 3), (1, 0, 1): (4, 5, 6)})
    src, out = tmp_path / "in.smf", tmp_path / "out.smf"
    src.write_text(qexp.serialize(F), encoding="utf-8")
    targets = tmp_path / "targets.txt"
    targets.write_text("0 0 0\n1 0 1\n1 1 1\n", encoding="utf-8")
    parsed = []
    parse = qexp.parse
    monkeypatch.setattr(qexp, "parse",
                        lambda text: parsed.append(text) or parse(text))
    with constructor_runs() as calls:
        assert run(["hecke", "--ell", "2", "--targets", str(targets),
                    "--assume-complete", str(src), "-o", str(out)]) == 0
    # parse checks the input's entries itself, and nothing else is checked
    assert len(parsed) == 1 and calls == []
    monkeypatch.undo()
    # parsing drops zero vectors and reduces residues, so a result that
    # broke the invariant would not serialize back to the same text
    text = out.read_text(encoding="utf-8")
    G = qexp.parse(text)
    assert G.support and qexp.serialize(G) == text

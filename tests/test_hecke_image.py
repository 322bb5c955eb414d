"""T(ell^i)F at a list of target indices: ``hecke.hecke_image`` and the
``hecke --targets`` subcommand that runs it.

The image must equal the per-target loop over ``hecke_coefficient``, set its
operator up once, and keep the CLI's error order: the operator, then the
targets file, then missing inputs.
"""

import random

import pytest

from siegelmodp import hecke, qexp
from siegelmodp.cli import run
from siegelmodp.hecke import HeckeError, hecke_coefficient, hecke_image
from siegelmodp.qexp import QExpansion
from siegelmodp.rep import Weight

TARGETS = [(0, 0, 0), (1, 0, 1), (1, 1, 1), (2, -1, 1), (0, 0, 2),
           (1, 2, 1), (2, 0, 0)]


def make_form(seed, p, N, n, ell, i, keep, chars):
    """A form of degree n holding a share ``keep`` of the inputs that the
    targets read, with random character tables if ``chars`` is set."""
    rng = random.Random(seed)
    needed = set().union(*(hecke.required_indices(ell, i, T, N)
                           for T in TARGETS))
    support = {T: tuple(rng.randrange(p) for _ in range(n + 1))
               for T in sorted(needed) if rng.random() < keep}
    chi1 = chi2 = None
    if chars:
        chi1 = tuple(rng.randrange(p) for _ in range(N))
        chi2 = [rng.randrange(p) for _ in range(N)]
        chi2[N - 1] = (-1) ** n % p   # parity chi2(-1) = (-1)^(k1+k2)
        chi2 = tuple(chi2)
    k2 = 4
    return QExpansion(p=p, N=N, weight=Weight(k2 + n, k2), support=support,
                      chi1=chi1, chi2=chi2)


def per_target(F, ell, i, targets, complete):
    """The serialized image from one hecke_coefficient call per target, or
    the first error's text."""
    support = {}
    try:
        for T in targets:
            vec = hecke_coefficient(F, ell, i, T, assume_complete=complete)
            if any(vec.coords):
                support[T] = vec.coords
    except HeckeError as exc:
        return str(exc)
    return qexp.serialize(QExpansion(p=F.p, N=F.N, weight=F.weight,
                                     support=support, chi1=F.chi1,
                                     chi2=F.chi2))


def image(F, ell, i, targets, complete):
    try:
        return qexp.serialize(hecke_image(F, ell, i, iter(targets),
                                          assume_complete=complete))
    except HeckeError as exc:
        return str(exc)


@pytest.mark.parametrize("ell, i, N", [(2, 1, 3), (2, 2, 5), (3, 1, 4)])
@pytest.mark.parametrize("p, n", [(11, 0), (31, 10)])
@pytest.mark.parametrize("chars", [False, True])
def test_image_equals_the_per_target_loop(ell, i, N, p, n, chars):
    seen_missing = False
    for keep in (1.0, 0.8):
        F = make_form(1000 * ell + 100 * i + n, p, N, n, ell, i, keep, chars)
        for complete in (False, True):
            want = per_target(F, ell, i, TARGETS, complete)
            assert image(F, ell, i, TARGETS, complete) == want, \
                (keep, complete)
            seen_missing |= want.startswith("missing required indices")
    assert seen_missing   # the error path ran too


def test_the_error_is_the_one_of_the_first_target_missing_inputs():
    F = make_form(7, 11, 3, 0, 2, 1, 1.0, False)
    T0, T1 = (1, 0, 1), (1, 1, 1)
    drop = sorted(hecke.required_indices(2, 1, T1, 3)
                  - hecke.required_indices(2, 1, T0, 3))
    G = QExpansion(p=F.p, N=F.N, weight=F.weight,
                   support={T: v for T, v in F.support.items()
                            if T != drop[0]})
    with pytest.raises(HeckeError) as want:
        hecke_coefficient(G, 2, 1, T1)
    with pytest.raises(HeckeError) as got:
        hecke_image(G, 2, 1, [T0, T1, (0, 0, 0)])
    assert str(got.value) == str(want.value)
    assert str(want.value).startswith("missing required indices: ")


def test_the_operator_is_set_up_once(monkeypatch):
    calls = []
    real = hecke._operator

    def counted(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(hecke, "_operator", counted)
    F = make_form(3, 31, 5, 10, 2, 1, 1.0, True)
    G = hecke_image(F, 2, 1, TARGETS)
    assert calls == [(2, 1, "crt", 0)]
    assert G.support
    calls.clear()
    hecke_image(F, 2, 1, TARGETS, assume_complete=True)
    assert len(calls) == 1


def test_no_target_is_read_before_the_operator_is_checked():
    F = make_form(3, 11, 3, 0, 2, 1, 1.0, False)

    def targets():
        raise AssertionError("targets read before the operator check")
        yield

    with pytest.raises(HeckeError, match="power i must be >= 0"):
        hecke_image(F, 2, -1, targets())
    with pytest.raises(qexp.QExpError, match="semi-positivity"):
        hecke_image(F, 2, 1, [(0, 0, 0), (-1, 0, 0)])


# ---------------------------------------------------------------------------
# the command line: the operator, then the targets file, then missing inputs
# ---------------------------------------------------------------------------

def write_form(tmp_path, p=5, support=None):
    F = QExpansion(p=p, N=3, weight=Weight(4, 4),
                   support=support or {(0, 0, 0): (2,)})
    path = tmp_path / "in.smf"
    path.write_text(qexp.serialize(F), encoding="utf-8")
    return path


def hecke_cli(tmp_path, ell, targets, *extra):
    out = tmp_path / "out.smf"
    return run(["hecke", "--ell", str(ell), "--targets", str(targets),
                *extra, str(write_form(tmp_path)), "-o", str(out)]), out


def test_a_bad_operator_is_reported_before_a_malformed_targets_file(
        tmp_path, capsys):
    targets = tmp_path / "t.txt"
    targets.write_text("0 0 0\n1 x 2\n", encoding="utf-8")
    code, out = hecke_cli(tmp_path, 5, targets)
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == \
        "ell must be coprime to p\n"


def test_a_bad_operator_is_reported_before_a_missing_targets_file(
        tmp_path, capsys):
    code, out = hecke_cli(tmp_path, 5, tmp_path / "absent.txt")
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == \
        "ell must be coprime to p\n"


def test_a_malformed_line_after_a_valid_one_writes_nothing(tmp_path, capsys):
    targets = tmp_path / "t.txt"
    targets.write_text("0 0 0\n# note\n0 0\n", encoding="utf-8")
    code, out = hecke_cli(tmp_path, 2, targets, "--assume-complete")
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err.startswith(
        f"{targets}:3: expected three integers")


def test_the_targets_file_is_read_before_inputs_are_missed(tmp_path,
                                                           capsys):
    targets = tmp_path / "t.txt"
    targets.write_text("1 0 1\n-1 0 0\n", encoding="utf-8")
    code, out = hecke_cli(tmp_path, 2, targets)
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == \
        f"{targets}:2: index (-1, 0, 0) violates semi-positivity\n"
    targets.write_text("0 0 0\n1 0 1\n", encoding="utf-8")
    code, out = hecke_cli(tmp_path, 2, targets)
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err.startswith("missing required indices: ")


def test_the_error_names_every_absent_input_not_only_the_first(tmp_path,
                                                                 capsys):
    T, support = (2, 0, 2), {(1, 0, 1): (1,)}
    absent = sorted(hecke.required_indices(2, 1, T, 3) - set(support))
    # the first branch read, 2 T from the alpha = 1 branch of the identity
    # lift, is absent, and so are three later ones
    first = next(hecke._branches(hecke._lifts(2, 1, 3, "crt", 0), T))
    assert first[3] == (4, 0, 4) and first[3] in absent and len(absent) == 4
    want = f"missing required indices: {absent}"
    F = QExpansion(p=5, N=3, weight=Weight(4, 4), support=support)
    with pytest.raises(HeckeError) as coefficient:
        hecke_coefficient(F, 2, 1, T)
    with pytest.raises(HeckeError) as image:
        hecke_image(F, 2, 1, [T])
    assert str(coefficient.value) == str(image.value) == want
    targets = tmp_path / "t.txt"
    targets.write_text("2 0 2\n", encoding="utf-8")
    out = tmp_path / "out.smf"
    assert run(["hecke", "--ell", "2", "--targets", str(targets),
                str(write_form(tmp_path, support=support)),
                "-o", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == want + "\n"

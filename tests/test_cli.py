import hashlib
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelmodp import galois, hecke, qexp, theta
from siegelmodp.arith import _PRIME_BOUND
from siegelmodp.cli import run
from siegelmodp.qexp import QExpansion
from siegelmodp.rep import Weight


def write_form(tmp_path, name="in.smf", p=5, N=3, weight=(4, 4),
               support=None):
    F = QExpansion(p=p, N=N, weight=Weight(*weight),
                   support=support or {(1, 0, 1): (2,)})
    path = tmp_path / name
    path.write_text(qexp.serialize(F), encoding="utf-8")
    return path, F


def test_theta_big(tmp_path, capsys):
    src, F = write_form(tmp_path)
    out = tmp_path / "out.smf"
    assert run(["theta", "--op", "big", str(src), "-o", str(out)]) == 0
    G = qexp.parse(out.read_text(encoding="utf-8"))
    assert G.weight == Weight(4 + 6, 4 + 6)


def test_theta_t2_iterations(tmp_path):
    src, F = write_form(tmp_path, weight=(5, 4),
                        support={(1, 0, 1): (2, 1)})
    out = tmp_path / "out.smf"
    assert run(["theta", "--op", "t2", "--iterations", "2",
                str(src), "-o", str(out)]) == 0
    G = qexp.parse(out.read_text(encoding="utf-8"))
    assert G.weight == Weight(5 + 10, 4 + 10)


@pytest.mark.parametrize("op", ["scalar", "big", "t2"])
@pytest.mark.parametrize("m", [0, -1])
def test_theta_iterations_below_one(tmp_path, capsys, op, m):
    src, _ = write_form(tmp_path)
    out = tmp_path / "out.smf"
    assert run(["theta", "--op", op, "--iterations", str(m),
                str(src), "-o", str(out)]) == 1
    assert "iterate count must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_cycle_vector_json(capsys):
    assert run(["cycle", "--vector", "--p", "5", "--k", "7",
                "--non-semi-ordinary"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["entries"] == [12, 17, 22, 7]


def test_cycle_requires_one_mode(capsys):
    assert run(["cycle", "--scalar", "--p", "5", "--k", "7"]) == 1
    err = capsys.readouterr().err
    assert "choose exactly one" in err


def test_strata_order_json(capsys):
    assert run(["strata", "order", "--phi", "0,1", "--p", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 480 and data["match"] is True
    assert run(["strata-order", "--phi", "1,1", "--variant", "2",
                "--p", "7"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 14 and data["match"] is True
    # every case at four primes, byte for byte
    out = []
    for p in (5, 7, 11, 13):
        for phi, variant in (("1,2", None), ("1,1", 1), ("1,1", 2),
                             ("0,1", None)):
            assert run(["strata", "order", "--phi", phi, "--p", str(p)]
                       + (["--variant", str(variant)] if variant else [])) == 0
            out.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == (
        "8c3dd85fd2728a10fe78cb854bdc98a62c8a31167f74c73146f8641aa37384f0")


def test_strata_tables(capsys):
    assert run(["strata", "tables"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5eb15e14bbd19e9adf3b566fd5b05e2c835cabdd556bd7ab47b733ff112dc38f")
    data = json.loads(out)
    assert set(data) == {"0,0", "0,1", "1,1", "1,2"}
    assert data["0,1"]["pi"] == [2, 0, 3, 1] and data["0,1"]["n"] == 4


def test_charpoly(capsys):
    assert run(["charpoly", "--ell", "2", "--lam1", "1", "--lam2", "1",
                "--chi2", "1", "--k1", "3", "--k2", "3", "--p", "7"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["coeffs"] == [1, 6, (1 - 1 - 4) % 7, 6, 1]


def test_plan(capsys):
    assert run(["plan", "--k1", "10", "--k2", "4", "--p", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ladder_count"] == 110 and data["l2_bound"] == 661


def test_hecke_targets_and_eigen(tmp_path, capsys):
    src, F = write_form(tmp_path, p=7, N=3, weight=(4, 4),
                        support={(0, 0, 0): (3,)})
    targets = tmp_path / "targets.txt"
    targets.write_text("# constant term\n0 0 0\n", encoding="utf-8")
    out = tmp_path / "out.smf"
    assert run(["hecke", "--ell", "2", "--targets", str(targets),
                "--assume-complete", str(src), "-o", str(out)]) == 0
    G = qexp.parse(out.read_text(encoding="utf-8"))
    from siegelmodp.hecke import constant_term_multiplier
    mult = constant_term_multiplier(2, 4, 7)
    assert G.support[(0, 0, 0)] == (3 * mult % 7,)

    assert run(["hecke", "eigen", "--ell", "2", "--assume-complete",
                str(src)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lambda"] == mult


def test_domain_error_exit_1(tmp_path, capsys):
    src, _ = write_form(tmp_path, p=5)
    out = tmp_path / "out.smf"
    # ell = p is rejected by the Hecke layer
    targets = tmp_path / "t.txt"
    targets.write_text("0 0 0\n", encoding="utf-8")
    assert run(["hecke", "--ell", "5", "--targets", str(targets),
                "--assume-complete", str(src), "-o", str(out)]) == 1
    assert "coprime" in capsys.readouterr().err
    assert run(["theta", "--op", "big", str(tmp_path / "missing.smf"),
                "-o", str(out)]) == 1
    capsys.readouterr()
    # a negative power, and an ell that divides p, rejected before any index
    assert run(["hecke", "eigen", "--ell", "2", "--power", "-1",
                str(src)]) == 1
    assert "power i must be >= 0" in capsys.readouterr().err
    assert run(["hecke", "--ell", "2", "--power", "-2", "--targets",
                str(targets), str(src), "-o", str(out)]) == 1
    assert "power i must be >= 0" in capsys.readouterr().err
    assert run(["hecke", "eigen", "--ell", "5", str(src)]) == 1
    assert "coprime" in capsys.readouterr().err
    # the operator is validated before the targets, so an empty list fails too
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    assert run(["hecke", "--ell", "2", "--power", "-2", "--targets",
                str(empty), str(src), "-o", str(out)]) == 1
    assert "power i must be >= 0" in capsys.readouterr().err
    assert run(["hecke", "--ell", "5", "--targets", str(empty), str(src),
                "-o", str(out)]) == 1
    assert "coprime" in capsys.readouterr().err


def test_hecke_eigen_at_a_large_prime(tmp_path, capsys):
    src, _ = write_form(tmp_path, p=10 ** 18 + 3,
                        support={(0, 0, 0): (1,)})
    assert len(src.read_text(encoding="utf-8").splitlines()) == 7
    t0 = time.monotonic()
    assert run(["hecke", "eigen", "--ell", "2", "--assume-complete",
                str(src)]) == 0
    assert time.monotonic() - t0 < 2.0
    # 1 + 3 * 2^2 + 2^5 at weight (4, 4)
    assert json.loads(capsys.readouterr().out)["lambda"] == 45


@pytest.mark.parametrize("line", ["1 2", "1 x 2"])
def test_hecke_malformed_targets_line(tmp_path, capsys, line):
    src, _ = write_form(tmp_path, p=5)
    targets = tmp_path / "t.txt"
    targets.write_text(f"# header\n0 0 0\n{line}\n", encoding="utf-8")
    assert run(["hecke", "--ell", "2", "--targets", str(targets),
                "--assume-complete", str(src),
                "-o", str(tmp_path / "out.smf")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{targets}:3: expected three integers")
    assert repr(line) in err


def test_hecke_target_index_names_its_line(tmp_path, capsys):
    src, _ = write_form(tmp_path, p=5)
    targets = tmp_path / "t.txt"
    targets.write_text("0 0 0\n\n-1 0 0\n", encoding="utf-8")
    out = tmp_path / "out.smf"
    assert run(["hecke", "--ell", "2", "--targets", str(targets),
                "--assume-complete", str(src), "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"{targets}:3: index (-1, 0, 0) violates semi-positivity\n")
    assert not out.exists()


def test_check_all_output_is_pinned(capsys):
    """The printed numbers of every check suite, byte for byte."""
    assert run(["check", "--suite", "all", "--p", "5,7,11,13"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == \
        "6ba4c1d378f97566009dc7b7752661420d21099c679be9db3989354b589758e3"


# (p, weight, chi1, chi2) at level 5: the quadratic character mod 5 twice,
# and a vector form with n = 10 and trivial characters.
HECKE_PIN_FORMS = {"scalar": (11, (6, 6), (0, 1, 10, 10, 1),
                              (0, 1, 10, 10, 1)),
                   "vector": (31, (14, 4), None, None)}

# sha256 of `hecke eigen` stdout, then of `hecke eigen --assume-complete`
# stdout, then of the `hecke --targets --assume-complete` output file
HECKE_CLI_PINS = {
    ("scalar", 2, 1): (
        "25e9650f3dfba938cfa424cf411637cc665f92b22e2cdf01a0c5b1a268796461",
        "4e295e75bc6a94a49b322fece115193d2a653a2af531b29a0044f0852eb77445",
        "bcd834dddda4e56f4cfc1232c9e9c9e742e4c690dd25670c40dcca89dd846212"),
    ("scalar", 2, 2): (
        "1695df6587fe975e121c3b0c2a74e7786fac8f1d18e9543f24a61f97b46d2fee",
        "584ce098fa9806db12d09372f06644b1778ff6d2b8e57e3b8df425d89c6dba75",
        "1e581aac019a281939d1be5502907c577e9edca89b63945baf6b8883c8e9dfec"),
    ("scalar", 3, 1): (
        "7e6380b58d0887a0befcb9221e9a78a726fb54990f254bd427fb85feb4273719",
        "430cc5f571a1e9340f0e9d42838a65a91e3bff32357ccd41a5f1424f94bee7a3",
        "198419e8ce6193f38a41a7f7053ec576bc512f2f283f57fa626fa05880d53f7a"),
    ("scalar", 3, 2): (
        "eb5ac47d5e5954e9b3c713788f7d9a690999a654411981fd6312625f4a753aa6",
        "4decc60d3a02ed871eea3c477eb418f868e2eff78733e8890a0fb17d0d8c3ae2",
        "d0cfbc85abd82aceffcb17b8302d2da0c857987b35d7d664716f1dc8635fb26d"),
    ("vector", 2, 1): (
        "180bbf49eb31331f827784ced9e5a2ade65834e5064ecd2a4f39fa0e43319c82",
        "c9a726d2700381dd97f56b73c37441cfa84b468a37a2e053721b550f229bcdde",
        "11849ff6332f6380fb025c13b0308e0ef2d837706630a49bb1098a89798b709c"),
    ("vector", 2, 2): (
        "0cd5edecce4ca87209f7859c8e5def13869fa67fb7013e6ea3af813b58f343e4",
        "48b8ff4c372f711cb80876129e3d93163032898f3b4e3af2cfb64bcc34bc66f2",
        "2f5fa97b50045e80e88aa3ce4fab019726c2ab4644e36502015d48e95abe106b"),
    ("vector", 3, 1): (
        "9fc6c1e15b438d051eefbffc7802aebdc0a4f86b117d8b96a8d9dbc9bea29e40",
        "268d9291a66d7a127aff90f434c196ec5e2b4b2feec606d580771c62bb230909",
        "dc3fd9deddc4b081992dc82204237189e35fb04ee19b5ba3d1e8a48e7d65a6f2"),
    ("vector", 3, 2): (
        "8f167ce5d9b5107952cfa5c1d28926194433d9c6652f08b3655ff94e30a1c31d",
        "56c0b9275899e6df0994e49dc95b05642ddd2c6d1405bccce8c8df05fd9dc753",
        "2c35325bef44fc62d3787bca49eb99a9952cce2986816af00ea9430aae631793"),
}


def hecke_pin_form(kind, ell, i):
    """A seeded form holding nine in ten of the inputs its targets read."""
    p, weight, chi1, chi2 = HECKE_PIN_FORMS[kind]
    rng = random.Random(100 * ell + 10 * i + (kind == "vector"))
    targets = [(a, b, c) for a in range(3) for c in range(3)
               for b in range(-2, 3) if b * b <= 4 * a * c]
    needed = set().union(*(hecke.required_indices(ell, i, T, 5)
                           for T in targets))
    n = weight[0] - weight[1]
    support = {T: tuple(rng.randrange(p) for _ in range(n + 1))
               for T in sorted(needed) if rng.random() < 0.9}
    return QExpansion(p=p, N=5, weight=Weight(*weight), support=support,
                      chi1=chi1, chi2=chi2), targets


@pytest.mark.parametrize("kind", sorted(HECKE_PIN_FORMS))
@pytest.mark.parametrize("ell, i", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_hecke_outputs_are_pinned(tmp_path, capsys, kind, ell, i):
    """Both Hecke subcommands' output, byte for byte, as first recorded."""
    F, targets = hecke_pin_form(kind, ell, i)
    src = tmp_path / "in.smf"
    src.write_text(qexp.serialize(F), encoding="utf-8")
    got = []
    for extra in ([], ["--assume-complete"]):
        assert run(["hecke", "eigen", "--ell", str(ell), "--power", str(i),
                    *extra, str(src)]) == 0
        got.append(capsys.readouterr().out.encode("utf-8"))
    listed = tmp_path / "targets.txt"
    listed.write_text("".join(f"{a} {b} {c}\n" for a, b, c in targets),
                      encoding="utf-8")
    out = tmp_path / "out.smf"
    assert run(["hecke", "--ell", str(ell), "--power", str(i), "--targets",
                str(listed), "--assume-complete", str(src),
                "-o", str(out)]) == 0
    got.append(out.read_bytes())
    assert tuple(hashlib.sha256(b).hexdigest() for b in got) == \
        HECKE_CLI_PINS[kind, ell, i]


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["theta", "--op", "bogus", "x", "-o", "y"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run([])


def test_check_suite(capsys):
    assert run(["check", "--suite", "cycles", "--p", "5,7"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] and data["results"]["cycles@p=5"]["ok"]
    assert run(["check", "--suite", "nope", "--p", "5"]) == 1


@pytest.mark.parametrize("suite, primes, message", [
    ("pieri", "2", "prime >= 5, got 2"),
    ("pieri", "0", "prime >= 5, got 0"),
    ("pieri", "-7", "prime >= 5, got -7"),
    ("strata", "3", "prime >= 5, got 3"),
    ("all", "5,9", "prime >= 5, got 9"),
    ("all", "5,5", "--p lists 5 twice"),
    ("cycles", "5,x", "--p expects comma-separated primes, got 'x'"),
    ("pieri", "5,", "--p expects comma-separated primes, got ''"),
    ("cycles", "1000003", "check runs at p <= 211, got 1000003"),
    ("all", "223", "check runs at p <= 211, got 223"),
])
def test_check_refuses_bad_primes_before_any_suite(capsys, suite, primes,
                                                    message):
    t0 = time.monotonic()
    assert run(["check", "--suite", suite, "--p", primes]) == 1
    assert time.monotonic() - t0 < 1.0
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_strata_order_names_a_bad_phi(capsys):
    for phi in ("x", "1", "1,2,3", "1,y"):
        assert run(["strata", "order", "--phi", phi, "--p", "5"]) == 1
        assert (f"--phi expects two comma-separated integers, got {phi!r}"
                in capsys.readouterr().err)


def test_deterministic_output(capsys):
    args = ["strata", "order", "--phi", "1,1", "--variant", "1", "--p", "5"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv, message", [
    (["--scalar", "--non-semi-ordinary", "--branch", "99"],
     "a branch applies only to semi-ordinary cycles"),
    (["--scalar", "--non-semi-ordinary", "--branch", "0"],
     "a branch applies only to semi-ordinary cycles"),
    (["--vector", "--semi-ordinary", "--branch", "99"],
     "--branch applies only to --scalar cycles"),
    (["--vector", "--non-semi-ordinary", "--branch", "0"],
     "--branch applies only to --scalar cycles"),
])
def test_cycle_refuses_a_branch_it_would_ignore(capsys, argv, message):
    assert run(["cycle", "--p", "5", "--k", "5"] + argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and message in err


@pytest.mark.parametrize("p", ["1000003", "1000000007"])
def test_cycle_refuses_p_above_its_bound(capsys, p):
    t0 = time.monotonic()
    assert run(["cycle", "--vector", "--p", p, "--k", "5",
                "--non-semi-ordinary"]) == 1
    assert time.monotonic() - t0 < 1.0
    out, err = capsys.readouterr()
    assert out == "" and f"cycle runs at p <= 1000000, got {p}" in err


@pytest.mark.parametrize("p", ["1000003", "999984683", "1000000007"])
def test_strata_order_at_a_large_prime(capsys, p):
    t0 = time.monotonic()
    assert run(["strata", "order", "--phi", "0,1", "--p", p]) == 0
    assert time.monotonic() - t0 < 1.0
    assert json.loads(capsys.readouterr().out)["match"] is True


def test_theta_scalar(tmp_path):
    src, F = write_form(tmp_path)
    out = tmp_path / "out.smf"
    assert run(["theta", "--op", "scalar", str(src), "-o", str(out)]) == 0
    G = qexp.parse(out.read_text(encoding="utf-8"))
    assert G == theta.theta_scalar(F)
    assert G.weight == Weight(4 + 6, 4 + 4)


@pytest.mark.parametrize("op", ["scalar", "big", "t2"])
def test_theta_refuses_iterations_above_its_bound(tmp_path, capsys, op):
    # t2 on weight (5, 4) keeps k1 - k2, so only the bound ends its loop
    src, _ = write_form(tmp_path, weight=(5, 4),
                        support={(1, 0, 1): (2, 1), (1, 1, 1): (1, 3)})
    out = tmp_path / "out.smf"
    assert run(["theta", "--op", op, "--iterations", "1001",
                str(src), "-o", str(out)]) == 1
    assert ("theta runs at --iterations <= 1000, got 1001"
            in capsys.readouterr().err)
    assert not out.exists()
    if op == "t2":
        assert run(["theta", "--op", op, "--iterations", "1000",
                    str(src), "-o", str(out)]) == 0


@pytest.mark.parametrize("command", ["hecke", "hecke-eigen"])
def test_hecke_refuses_a_weight_difference_above_its_bound(tmp_path, capsys,
                                                          command):
    src, _ = write_form(tmp_path, weight=(105, 4),
                        support={(1, 0, 1): (1,) * 102})
    argv = [command, "--ell", "2", "--assume-complete", str(src)]
    if command == "hecke":
        targets = tmp_path / "targets.txt"
        targets.write_text("1 0 1\n", encoding="utf-8")
        argv += ["--targets", str(targets), "-o", str(tmp_path / "out.smf")]
    misses = (hecke._plan.cache_info().misses,
              hecke._lifts.cache_info().misses)
    assert run(argv) == 1
    assert (hecke._plan.cache_info().misses,
            hecke._lifts.cache_info().misses) == misses
    out, err = capsys.readouterr()
    assert out == "" and "Hecke operators run at k1-k2 <= 100, got 101" in err


@pytest.mark.parametrize("ell", ["-2", "-1", "1", "4"])
def test_hecke_refuses_an_ell_that_is_not_prime(tmp_path, capsys, ell):
    src, _ = write_form(tmp_path)
    assert run(["hecke", "eigen", "--ell", ell, "--power", "1",
                "--assume-complete", str(src)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"ell must be a prime below {_PRIME_BOUND}, got {ell}\n"


def charpoly_argv(ell):
    return ["charpoly", "--ell", str(ell), "--lam1", "3", "--lam2", "5",
            "--chi2", "1", "--k1", "3", "--k2", "3", "--p", "7"]


@pytest.mark.parametrize("ell", [-2, 1, 4, 9, 10 ** 29])
def test_charpoly_refuses_an_ell_that_is_not_prime(capsys, ell):
    assert run(charpoly_argv(ell)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"ell must be a prime below {_PRIME_BOUND}, got {ell}\n"


@pytest.mark.parametrize("chi2", ["0", "5", "-5"])
def test_charpoly_refuses_a_chi2_that_is_not_a_unit(capsys, chi2):
    """chi2(ell) is a root of unity, never 0 mod p."""
    assert run(["charpoly", "--ell", "2", "--lam1", "1", "--lam2", "1",
                "--chi2", chi2, "--k1", "3", "--k2", "3", "--p", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"chi2 must be a unit mod p, got {chi2}\n"
    with pytest.raises(galois.GaloisError, match="chi2 must be a unit"):
        galois.HeckeSystem(p=5, weight=(3, 3), data={2: (1, 1, int(chi2))})


def test_charpoly_refuses_a_weight_with_k1_below_k2(capsys):
    """The rule that plan applies: k1 >= k2."""
    assert run(["charpoly", "--ell", "2", "--lam1", "1", "--lam2", "1",
                "--chi2", "1", "--k1", "3", "--k2", "5", "--p", "7"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "weight must satisfy k1 >= k2, got (3, 5)\n"


@settings(max_examples=80, deadline=None)
@given(ell=st.integers(-60, 60))
def test_charpoly_runs_exactly_at_the_primes_other_than_p(ell):
    is_prime = ell > 1 and all(ell % q for q in range(2, ell))
    want = 0 if is_prime and ell != 7 else 1
    assert run(charpoly_argv(ell)) == want
    if want:
        with pytest.raises(galois.GaloisError):
            galois.HeckeSystem(p=7, weight=(3, 3), data={ell: (3, 5, 1)})
    else:
        galois.HeckeSystem(p=7, weight=(3, 3), data={ell: (3, 5, 1)})


@pytest.fixture(scope="module")
def scalar_form(tmp_path_factory):
    return write_form(tmp_path_factory.mktemp("scalar"))[0]


@settings(max_examples=80, deadline=None)
@given(ell=st.integers(-60, 60), power=st.integers(-2, 3))
def test_hecke_eigen_exits_0_or_1_for_any_ell_and_power(scalar_form, ell,
                                                        power):
    assert run(["hecke", "eigen", "--ell", str(ell), "--power", str(power),
                "--assume-complete", str(scalar_form)]) in (0, 1)


@pytest.mark.parametrize("phi", ["0,1", "1,2"])
@pytest.mark.parametrize("variant", ["1", "2"])
def test_strata_order_refuses_a_variant_it_would_ignore(capsys, phi, variant):
    assert run(["strata", "order", "--phi", phi, "--variant", variant,
                "--p", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "--variant applies only to --phi 1,1" in err


def test_strata_order_variant_defaults_to_1_at_phi_1_1(capsys):
    assert run(["strata", "order", "--phi", "1,1", "--p", "5"]) == 0
    default = capsys.readouterr().out
    assert run(["strata", "order", "--phi", "1,1", "--variant", "1",
                "--p", "5"]) == 0
    assert capsys.readouterr().out == default
    assert json.loads(default)["variant"] == 1


def test_strata_order_has_no_cutoff_option(capsys):
    # the order's cutoff is derived from p; the option could only repeat
    # the answer or turn it into a failure
    with pytest.raises(SystemExit) as exc:
        run(["strata", "order", "--phi", "1,1", "--p", "5", "--cutoff", "100"])
    assert exc.value.code == 2
    assert "--cutoff" in capsys.readouterr().err

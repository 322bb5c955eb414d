"""Every subcommand, fed drawn arguments and mutated form files, answers
with exit 0 or 1 from ``cli.run`` or with the usage error ``SystemExit(2)``;
no other exception escapes.

Each call runs in-process.  The draws are small (``check --p`` from 5 and 7,
``cycle --p`` at most 50) and derandomized, so a failure reproduces.  File
arguments are drawn as placeholders that each test maps to files it wrote:
nothing is written outside the test's own directory.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelmodp import qexp
from siegelmodp.cli import run
from siegelmodp.qexp import QExpansion
from siegelmodp.rep import Weight

FUZZ = settings(max_examples=25, deadline=None, derandomize=True,
                database=None)

BIG = 10 ** 30
INT = st.one_of(st.integers(-3, 60),
                st.sampled_from([BIG, -BIG, 10 ** 9])).map(str)
JUNK = st.sampled_from(["", "x", "1.5", "-", "--", "1,2", "0x10", "٣"])
VALUE = st.one_of(INT, JUNK)
FLAG = st.sampled_from(["--p", "--k", "--ell", "--op", "--bogus", "-o",
                        "--power", "--phi"])
SWITCH = st.none()  # a flag that takes no value


def _form_text(weight, vec_len):
    support = {(a, b, c): tuple((a + 2 * b + 3 * c + i) % 7 + 1
                                for i in range(vec_len))
               for a, b, c in ((1, 0, 1), (1, 1, 1), (1, 0, 2), (2, 1, 1),
                               (2, 0, 2), (1, -1, 1))}
    return qexp.serialize(QExpansion(p=7, N=3, weight=Weight(*weight),
                                     support=support))


SCALAR_TEXT = _form_text((4, 4), 1)
VECTOR_TEXT = _form_text((6, 4), 3)


@st.composite
def options(draw, spec, positionals=()):
    """Each (flag, values) of ``spec`` present or not, then ``positionals``,
    in a drawn order, with a junk token now and then."""
    args = []
    for flag, values in spec:
        if draw(st.booleans()) or draw(st.booleans()):
            value = draw(values)
            args.append([flag] if value is None else [flag, value])
    args += [[draw(values)] for values in positionals]
    if draw(st.integers(0, 4)) == 0:
        args.append([draw(st.one_of(FLAG, VALUE))])
    return [token for group in draw(st.permutations(args)) for token in group]


FORM_IN = st.sampled_from(["SCALAR", "VECTOR", "MUTANT", "MISSING"])
FORM_OUT = st.sampled_from(["OUT", "BADOUT"])

ARGV = {
    "theta": options([
        ("--op", st.one_of(st.sampled_from(["scalar", "big", "t1", "t2",
                                            "t3"]), JUNK)),
        ("--iterations", st.sampled_from(["-1", "0", "1", "2", "4", "1001",
                                          str(10 ** 9), "x"])),
        ("-o", FORM_OUT)], [FORM_IN]).map(lambda a: ["theta"] + a),
    "hecke": options([
        ("--ell", VALUE), ("--power", st.one_of(st.integers(-2, 7).map(str),
                                                JUNK)),
        ("--targets", st.sampled_from(["TARGETS", "BADTARGETS", "MISSING"])),
        ("--assume-complete", SWITCH), ("-o", FORM_OUT)],
        [FORM_IN]).map(lambda a: ["hecke"] + a),
    "hecke eigen": options([
        ("--ell", VALUE), ("--power", st.one_of(st.integers(-2, 7).map(str),
                                                JUNK)),
        ("--assume-complete", SWITCH)],
        [FORM_IN]).map(lambda a: ["hecke", "eigen"] + a),
    "cycle": options([
        ("--scalar", SWITCH), ("--vector", SWITCH),
        ("--p", st.one_of(st.integers(-3, 50).map(str), JUNK)),
        ("--k", VALUE), ("--semi-ordinary", SWITCH),
        ("--non-semi-ordinary", SWITCH), ("--branch", VALUE)]).map(
            lambda a: ["cycle"] + a),
    "strata order": options([
        ("--phi", st.one_of(st.sampled_from(["0,1", "1,1", "1,2", "2,2",
                                             "0,0", "1", "1,1,1"]), JUNK)),
        ("--variant", st.one_of(st.sampled_from(["1", "2", "3"]), JUNK)),
        ("--p", VALUE)]).map(lambda a: ["strata", "order"] + a),
    "strata tables": options([]).map(lambda a: ["strata", "tables"] + a),
    "charpoly": options([(flag, VALUE) for flag in (
        "--ell", "--lam1", "--lam2", "--chi2", "--k1", "--k2", "--p")]).map(
            lambda a: ["charpoly"] + a),
    "plan": options([(flag, VALUE) for flag in ("--k1", "--k2", "--p")]).map(
        lambda a: ["plan"] + a),
    "check": options([
        ("--suite", st.one_of(st.sampled_from(["all", "pieri", "theta",
                                               "hecke", "cycles", "strata"]),
                              JUNK)),
        ("--p", st.lists(st.sampled_from(["5", "7", "4", "9", "-5", "x", "",
                                          "1009"]),
                         min_size=1, max_size=3).map(",".join))]).map(
            lambda a: ["check"] + a),
}


@st.composite
def smf_texts(draw):
    """A valid form file with one to three of its lines replaced, edited
    token by token, deleted or doubled."""
    lines = draw(st.sampled_from([SCALAR_TEXT, VECTOR_TEXT])).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["replace", "token", "delete", "double"]))
        if kind == "replace":
            lines[i] = draw(st.text(max_size=20))
        elif kind == "token":
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
                st.one_of(VALUE, st.text(max_size=6)))
            lines[i] = " ".join(tokens)
        elif kind == "delete":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {name: root / f"{name.lower()}.txt" for name in (
        "SCALAR", "VECTOR", "MUTANT", "MISSING", "OUT", "TARGETS",
        "BADTARGETS")}
    paths["BADOUT"] = root / "no-such-dir" / "out.smf"
    paths["SCALAR"].write_text(SCALAR_TEXT, encoding="utf-8")
    paths["VECTOR"].write_text(VECTOR_TEXT, encoding="utf-8")
    paths["MUTANT"].write_text(VECTOR_TEXT, encoding="utf-8")
    paths["TARGETS"].write_text("1 0 1\n# comment\n2 1 1\n", encoding="utf-8")
    paths["BADTARGETS"].write_text("1 0 1\n1 5 1\n", encoding="utf-8")
    return paths


def _exit_code(argv, files):
    """cli.run's exit code, with usage errors read as 2."""
    argv = [str(files[a]) if a in files else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return run(argv)
        except SystemExit as exc:
            assert exc.code == 2, (argv, exc.code)
            return 2


@pytest.mark.parametrize("command", list(ARGV))
@FUZZ
@given(data=st.data())
def test_every_command_exits_0_1_or_2(files, command, data):
    argv = data.draw(ARGV[command], label="argv")
    assert _exit_code(argv, files) in (0, 1, 2), argv


@pytest.mark.parametrize("argv", [
    ["theta", "--op", "t2", "MUTANT", "-o", "OUT"],
    ["theta", "--op", "scalar", "MUTANT", "-o", "OUT"],
    ["hecke", "eigen", "--ell", "2", "MUTANT"],
    ["hecke", "eigen", "--ell", "2", "--assume-complete", "MUTANT"],
], ids=" ".join)
@FUZZ
@given(text=smf_texts())
def test_mutated_form_files_exit_0_or_1(files, argv, text):
    files["MUTANT"].write_text(text, encoding="utf-8")
    assert _exit_code(argv, files) in (0, 1), text
